"""Dense Hermitian operators, density matrices, entropy and bipartite reductions.

All logarithms are natural (entropy in nats) and temperature carries energy
units (k_B = 1). Dimensions are desk-scale (d <= 64); everything is stored
dense. A state or operator is eigendecomposed with LAPACK when it is built,
except where its eigenpairs are already known: a Gibbs or generalized Gibbs
state takes its charges' common eigenvectors and Boltzmann weights, a tensor
product of two states and a Kronecker sum of Hamiltonians the Kronecker
products of their factors' eigenvectors, and a combination of commuting
charges their common eigenbasis. Entropy keeps a near-pure state's digits:
the largest eigenvalue's term is taken from the sum of the others. An
expectation Tr(A rho) is an O(d^2) entrywise pairing of two Hermitian
matrices, with no matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_ATOL = 1e-8
EIGENVALUE_CLIP = 1e-12


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


@dataclass(frozen=True)
class HermitianOperator:
    """A validated Hermitian matrix (observable or Hamiltonian).

    Entries are symmetrized at construction; non-finite entries and
    asymmetry beyond 1e-8 are rejected. Eigenvalues (ascending) and
    eigenvectors are cached: the constructor takes them from an `eigh`, and
    operators whose eigenpairs are known are built by `_from_eigenpairs`.
    """

    entries: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = _hermitian_entries(self.entries, "matrix")
        self._store(a, *np.linalg.eigh(a))

    @classmethod
    def _from_eigenpairs(cls, entries, w, v) -> "HermitianOperator":
        """The operator with matrix `entries` = (v * w) @ v^dag, for known real
        eigenvalues `w` and unitary `v`, checked like the `eigh` route (square,
        finite, Hermitian) without an `eigh`; the pairs are kept in ascending
        order, as `eigh` returns them. The caller vouches that they belong to
        `entries`."""
        a = _hermitian_entries(entries, "matrix")
        w = np.asarray(w, dtype=float)
        order = np.argsort(w)
        op = object.__new__(cls)
        op._store(a, w[order], np.asarray(v, dtype=complex)[:, order])
        return op

    def _store(self, a: np.ndarray, w: np.ndarray, v: np.ndarray):
        for name, value in (("entries", a), ("eigenvalues", w), ("eigenvectors", v)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @staticmethod
    def diagonal(values) -> "HermitianOperator":
        return HermitianOperator(np.diag(np.asarray(values, dtype=float)))


def _check_trace(tr: float):
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"state trace is {tr}, expected 1")


def _state_spectrum(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A state's eigenpairs as DensityMatrix keeps them: eigenvalues below
    -EIGENVALUE_CLIP rejected, tiny negative residue clipped to zero, the
    spectrum renormalized and sorted descending, with `v`'s columns to match."""
    if w.min() < -EIGENVALUE_CLIP:
        raise ValueError(f"state has negative eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    w = w / w.sum()
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state: finite, Hermitian, unit trace, positive.

    Eigenvalues below -1e-12 are rejected; tiny negative residue is clipped
    to zero and the spectrum renormalized. The descending spectrum is cached
    for entropy evaluations. The constructor takes it from an `eigh` of the
    entries; (generalized) Gibbs states and tensor products of states, whose
    eigenpairs are known, are built by `_from_eigenpairs` with the same checks
    and no `eigh`.
    """

    entries: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = _hermitian_entries(self.entries, "state")
        _check_trace(np.trace(a).real)
        self._store(a, *_state_spectrum(*np.linalg.eigh(a)))

    @classmethod
    def _from_eigenpairs(cls, entries, w, v) -> "DensityMatrix":
        """The state with matrix `entries` = (v * w) @ v^dag, for a known real
        spectrum `w` and unitary `v`, checked like the `eigh` route (finite,
        trace within 1e-10, no eigenvalue below -EIGENVALUE_CLIP) without an
        `eigh`. The caller vouches that the pairs belong to `entries`."""
        a = _hermitian_entries(entries, "state")
        w = np.asarray(w, dtype=float)
        if not np.isfinite(w).all():
            raise ValueError("state has non-finite eigenvalues")
        _check_trace(w.sum())
        state = object.__new__(cls)
        state._store(a, *_state_spectrum(w, np.asarray(v, dtype=complex)))
        return state

    def _store(self, a: np.ndarray, spectrum: np.ndarray, v: np.ndarray):
        for name, value in (("entries", a), ("spectrum", spectrum), ("eigenvectors", v)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

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


@dataclass(frozen=True)
class SubsystemSplit:
    """Ordered tensor-factor dimensions of a composite system."""

    dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"invalid subsystem dims {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def joint_dim(self) -> int:
        return int(np.prod(self.dims))

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
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product of two states; joint Hamiltonians come from `kron_sum`."""
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix._from_eigenpairs(np.kron(a.entries, b.entries),
                                              np.kron(a.spectrum, b.spectrum),
                                              np.kron(a.eigenvectors, b.eigenvectors))
    raise TypeError("tensor expects two DensityMatrix")


def kron_sum(*hamiltonians: HermitianOperator) -> HermitianOperator:
    """Non-interacting joint Hamiltonian sum_X I (x) ... H_X ... (x) I, whose
    eigenvalues are the sums of the local levels and eigenvectors the
    Kronecker products of the local ones (no `eigh`)."""
    dims = [h.dim for h in hamiltonians]
    total = None
    levels, vecs = np.zeros(1), np.ones((1, 1))
    for i, h in enumerate(hamiltonians):
        left = int(np.prod(dims[:i], dtype=int))
        right = int(np.prod(dims[i + 1:], dtype=int))
        term = np.kron(np.kron(np.eye(left), h.entries), np.eye(right))
        total = term if total is None else total + term
        levels = np.add.outer(levels, h.eigenvalues).ravel()
        vecs = np.kron(vecs, h.eigenvectors)
    return HermitianOperator._from_eigenpairs(total, levels, vecs)


def partial_trace(rho: DensityMatrix, split: SubsystemSplit, keep) -> DensityMatrix:
    """Trace out every factor not in `keep` (an iterable of factor indices)."""
    split.check(rho.dim)
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
    d_keep = int(np.prod([dims[k] for k in keep], dtype=int))
    return DensityMatrix(t.reshape(d_keep, d_keep))


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
