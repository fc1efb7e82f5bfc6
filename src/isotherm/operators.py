"""Dense Hermitian operators, density matrices, entropy and bipartite reductions.

All logarithms are natural (entropy in nats) and temperature carries energy
units (k_B = 1). Dimensions are desk-scale (d <= 64); everything is stored
dense. Each class has one checked and one trusted constructor. The public
constructor takes outside data: it rejects a non-square, non-finite or
non-Hermitian matrix (a state also a trace off 1 or a negative eigenvalue).
An operator takes its eigenpairs from an `eigh`; a state takes its spectrum
from an `eigvalsh`, and its eigenvectors, which only a relative entropy and
a tensor product read, from an `eigh` on first read. `_derived` takes data
derived from validated objects and keeps only the symmetrization and, for a
state, the spectrum's clip and renormalization: a (generalized) Gibbs state
and a combination of commuting charges take their common eigenvectors, a
Kronecker sum the Kronecker products of its factors' eigenpairs, a tensor
product its factors' spectra (their eigenvectors' product on first read),
and a marginal an `eigvalsh`. An outside number that reaches such a build,
such as a temperature, is checked where it enters.
Every Kronecker product is one broadcast product, `_kron`, with the same
entrywise products as `np.kron`. Entropy keeps a near-pure state's digits:
the largest eigenvalue's term is taken from the sum of the others. An
expectation Tr(A rho) is an O(d^2) entrywise pairing of two Hermitian
matrices, with no matrix product.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .tolerances import EIGENVALUE_CLIP, HERMITICITY_ATOL, IMAGINARY_ATOL, TRACE_ATOL


class DimensionMismatchError(ValueError):
    """Operands live on Hilbert spaces of different dimension."""


def _hermitian_entries(entries, what: str) -> np.ndarray:
    """Square, finite and Hermitian within HERMITICITY_ATOL; returned
    symmetrized. `what` names the matrix in the error messages."""
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} has non-finite entries")
    h = a.conj().T
    asym = np.max(np.abs(a - h))
    if asym > HERMITICITY_ATOL:
        raise ValueError(f"{what} is not Hermitian (asymmetry {asym:.3e})")
    return (a + h) / 2


def _read_only_state(obj, state: dict):
    """`__setstate__` of both classes: pickle hands back writeable arrays,
    which are kept read-only again, as `_store` keeps them."""
    for value in state.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    obj.__dict__.update(state)


@dataclass(frozen=True)
class HermitianOperator:
    """A Hermitian matrix (observable or Hamiltonian) with its eigenpairs.

    The constructor is the checked route: entries are symmetrized, and
    non-finite entries or asymmetry beyond 1e-8 are rejected; the eigenvalues
    (ascending) and eigenvectors come from an `eigh`. `_derived` is the
    trusted route for an operator whose eigenpairs the library already knows.
    """

    entries: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = _hermitian_entries(self.entries, "matrix")
        self._store(a, *np.linalg.eigh(a))

    @classmethod
    def _derived(cls, entries: np.ndarray, w: np.ndarray, v: np.ndarray) -> "HermitianOperator":
        """The operator with complex matrix `entries` = (v * w) @ v^dag, for
        known real eigenvalues `w` and unitary `v` derived from validated
        operators, symmetrized but not re-checked; the pairs are kept in
        ascending order, as `eigh` returns them."""
        order = np.argsort(w)
        op = object.__new__(cls)
        op._store((entries + entries.conj().T) / 2, w[order], v[:, order])
        return op

    def _store(self, a: np.ndarray, w: np.ndarray, v: np.ndarray):
        for name, value in (("entries", a), ("eigenvalues", w), ("eigenvectors", v)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    __setstate__ = _read_only_state

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @staticmethod
    def diagonal(values) -> "HermitianOperator":
        return HermitianOperator(np.diag(np.asarray(values, dtype=float)))


def _check_trace(tr: float):
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"state trace is {tr}, expected 1")


def _state_spectrum(w: np.ndarray,
                    v: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """A state's eigenpairs as DensityMatrix keeps them: eigenvalues below
    -EIGENVALUE_CLIP rejected, tiny negative residue clipped to zero, the
    spectrum renormalized and sorted descending, with `v`'s columns to match
    when `v` is given."""
    if w.min() < -EIGENVALUE_CLIP:
        raise ValueError(f"state has negative eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    w = w / w.sum()
    order = np.argsort(w)[::-1]
    return w[order], None if v is None else v[:, order]


@dataclass(frozen=True)
class DensityMatrix:
    """A quantum state: finite, Hermitian, unit trace, positive.

    Eigenvalues below -1e-12 are rejected; tiny negative residue is clipped
    to zero and the spectrum renormalized. The descending spectrum is cached
    for entropy evaluations. The constructor is the checked route for
    outside data: it runs every check and takes the spectrum from an
    `eigvalsh`. `eigenvectors`, in the spectrum's order, are computed on
    first read (an `eigh`, ordered by the same rule) and kept read-only; a
    state that `_derived` built from known eigenvectors keeps those.
    `_derived` is the trusted route for a state derived from validated data:
    a (generalized) Gibbs state, whose weights are normalized and finite once
    its temperatures are, a marginal, and a tensor product. A partial trace
    of a Hermitian, unit-trace, positive matrix is all three, and so is a
    Kronecker product of two such matrices, whose spectrum is the products
    of the factors'. The result is exact, not an approximation of the
    checked route: the skipped checks can only raise, and the steps kept
    (symmetrization, the clip, renormalization and sort of the spectrum) are
    the same arithmetic, so entries, spectrum and eigenvectors match that
    route bit for bit.
    """

    entries: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)
    _factors = None  # a tensor product's two factors, whose eigenvectors it reads

    def __post_init__(self):
        a = _hermitian_entries(self.entries, "state")
        _check_trace(np.trace(a).real)
        self._store(a, *_state_spectrum(np.linalg.eigvalsh(a)))

    @classmethod
    def _derived(cls, entries: np.ndarray, w=None, v=None) -> "DensityMatrix":
        """The state with complex matrix `entries` derived from validated data
        (with its known real spectrum `w`, else an `eigvalsh`, and its known
        unitary `v`, else the eigenvectors on first read), symmetrized and
        with `_state_spectrum`'s rules but without the asymmetry, finiteness
        and trace checks: they hold by construction."""
        a = (entries + entries.conj().T) / 2
        if w is None:
            w = np.linalg.eigvalsh(a)
        state = object.__new__(cls)
        state._store(a, *_state_spectrum(w, v))
        return state

    def _store(self, a: np.ndarray, spectrum: np.ndarray, v: np.ndarray | None = None):
        for name, value in (("entries", a), ("spectrum", spectrum), ("eigenvectors", v)):
            if value is not None:  # no `v`: the eigenvectors wait for their first read
                value.setflags(write=False)
                object.__setattr__(self, name, value)

    __setstate__ = _read_only_state

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """The unitary whose columns are the eigenvectors, in the spectrum's
        order, computed on first read: an `eigh` of the entries, or for a
        tensor product the Kronecker product of its factors' eigenvectors,
        ordered by `_state_spectrum` as the spectrum was."""
        if self._factors is None:
            w, v = np.linalg.eigh(self.entries)
        else:
            a, b = self._factors
            w, v = _kron(a.spectrum, b.spectrum), _kron(a.eigenvectors, b.eigenvectors)
        v = _state_spectrum(w, v)[1]
        v.setflags(write=False)
        return v

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @staticmethod
    def diagonal(probs) -> "DensityMatrix":
        return DensityMatrix(np.diag(np.asarray(probs, dtype=float)))

    @staticmethod
    def maximally_mixed(dim: int) -> "DensityMatrix":
        return DensityMatrix(np.eye(dim) / dim)

    @staticmethod
    def pure(vector) -> "DensityMatrix":
        v = np.asarray(vector, dtype=complex).ravel()
        v = v / np.linalg.norm(v)
        return DensityMatrix(np.outer(v, v.conj()))


def _is_integral(x) -> bool:
    """An integral number: 2, 2.0 and numpy integers are; a bool is not."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and x % 1 == 0


@dataclass(frozen=True)
class SubsystemSplit:
    """Ordered tensor-factor dimensions of a composite system."""

    dims: tuple

    def __post_init__(self):
        if not all(map(_is_integral, self.dims)):
            raise ValueError(f"invalid subsystem dims {tuple(self.dims)}: need integers")
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"invalid subsystem dims {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def joint_dim(self) -> int:
        return math.prod(self.dims)

    def check(self, dim: int):
        if self.joint_dim != dim:
            raise DimensionMismatchError(
                f"split {self.dims} has product {self.joint_dim}, state dim {dim}"
            )


def spectrum_entropy(probs: np.ndarray) -> float:
    """Shannon entropy of a probability vector in nats, with 0 log 0 = 0. A
    largest entry p_max > 1/2 takes ln p_max as log1p(-rest), rest the sum of
    the others: the log of the rounded p_max loses the -rest it stands for."""
    p = np.asarray(probs, dtype=float)
    p = p[p > 0]
    terms = p * np.log(p)
    i = p.argmax()
    if p[i] > 0.5:
        rest = p.tolist()
        p_max = rest.pop(i)
        terms[i] = p_max * math.log1p(-sum(rest))
    return float(-terms.sum())


def entropy(rho: DensityMatrix) -> float:
    """von Neumann entropy S(rho) = -Tr rho log rho, in nats."""
    return spectrum_entropy(rho.spectrum)


def _trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Tr(A B) for a Hermitian matrix A, as sum_ij conj(A_ij) B_ij: O(d^2),
    where forming A @ B costs a d^3 product."""
    return np.vdot(a, b)


def expectation(a: HermitianOperator, rho: DensityMatrix) -> float:
    """Tr(A rho); the imaginary residue must vanish within 1e-10."""
    if a.dim != rho.dim:
        raise DimensionMismatchError(f"operator dim {a.dim} != state dim {rho.dim}")
    val = _trace_product(a.entries, rho.entries)
    if abs(val.imag) > IMAGINARY_ATOL:
        raise ValueError(f"expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two vectors or two matrices, as one broadcast product: the
    same entrywise products a_ij b_kl, without np.kron's generic reshaping."""
    if a.ndim == 1:
        return (a[:, None] * b[None, :]).ravel()
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product of two states, whose spectrum is the products of
    theirs; it keeps the two factors and forms the Kronecker product of their
    eigenvectors on first read. Joint Hamiltonians come from `kron_sum`."""
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        product = DensityMatrix._derived(_kron(a.entries, b.entries), _kron(a.spectrum, b.spectrum))
        object.__setattr__(product, "_factors", (a, b))
        return product
    raise TypeError("tensor expects two DensityMatrix")


def kron_sum(*hamiltonians: HermitianOperator) -> HermitianOperator:
    """Non-interacting joint Hamiltonian sum_X I (x) ... H_X ... (x) I, whose
    eigenvalues are the sums of the local levels and eigenvectors the
    Kronecker products of the local ones (no `eigh`)."""
    dims = [h.dim for h in hamiltonians]
    total = None
    levels, vecs = np.zeros(1), np.ones((1, 1))
    for i, h in enumerate(hamiltonians):
        left, right = math.prod(dims[:i]), math.prod(dims[i + 1:])
        term = _kron(_kron(np.eye(left), h.entries), np.eye(right))
        total = term if total is None else total + term
        levels = np.add.outer(levels, h.eigenvalues).ravel()
        vecs = _kron(vecs, h.eigenvectors)
    return HermitianOperator._derived(total, levels, vecs)


def partial_trace(rho: DensityMatrix, split: SubsystemSplit, keep) -> DensityMatrix:
    """Trace out every factor not in `keep` (an iterable of factor indices)."""
    split.check(rho.dim)
    keep = list(keep)
    if not all(map(_is_integral, keep)):
        raise ValueError(f"keep indices {keep} must be integers")
    keep = sorted(set(int(k) for k in keep))
    n = len(split.dims)
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} factors")
    dims = list(split.dims)
    t = rho.entries.reshape(dims + dims)
    traced = 0
    for i in range(n):
        if i not in keep:
            ax = i - traced
            nd = t.ndim
            t = np.trace(t, axis1=ax, axis2=ax + nd // 2)
            traced += 1
    d_keep = math.prod(dims[k] for k in keep)
    return DensityMatrix._derived(t.reshape(d_keep, d_keep))


def mutual_information(rho_ab: DensityMatrix, split: SubsystemSplit) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) for a bipartite split."""
    if len(split.dims) != 2:
        raise ValueError(f"mutual information needs a bipartite split, got {split.dims}")
    split.check(rho_ab.dim)
    s_a = entropy(partial_trace(rho_ab, split, [0]))
    s_b = entropy(partial_trace(rho_ab, split, [1]))
    return s_a + s_b - entropy(rho_ab)


def ginibre_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    q, r = np.linalg.qr(ginibre_matrix(dim, rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    """Hilbert-Schmidt random state: G G^dag / Tr for Ginibre G."""
    g = ginibre_matrix(dim, rng) if rank is None else (
        rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    )
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_hamiltonian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> HermitianOperator:
    g = ginibre_matrix(dim, rng)
    return HermitianOperator(scale * (g + g.conj().T) / 2)
