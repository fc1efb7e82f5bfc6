"""Multiple commuting conserved quantities: GGE states and geometry.

A ChargeSet holds q pairwise-commuting observables (the Hamiltonian first).
Dephased in their common eigenbasis a state is a distribution p on the d
joint eigenvalues ell_i, whose charges L = sum_i p_i ell_i fill the charge
polytope conv{ell_i}; GGE algebra runs on this (q, d) joint spectrum through
this module's one kernel, `_boltzmann_weights`: the weights, ln Z and H(p)
from one exp pass in `gibbs`' gap form.

Every solve here is one Newton ascent (`_ascend`) of the concave dual
    g(lam, nu) = -nu ln sum_i e^(-x_i) - lam.b + nu S,  x = (c + A^T lam) / nu,
the perspective of log-sum-exp, on an affine slice z0 + basis u of z =
(lam, nu). At p ~ e^(-x) its gradient is (A p - b, S - H(p)), H(p) read off
the kernel, its Hessian -Cov_p([A; -x]) / nu, and g = c.p + z.gradient.

- `gge_solve` inverts beta_vec -> L(gamma), gamma the maximum-entropy state
  at its charges, on the max-entropy slice: c = 0, A the levels, b the
  target, S = 0, nu pinned at 1, from lam = 0 (`_max_entropy`, also run on
  the LP faces; a flat lone charge takes lam = 0, uniform p). A target
  outside the polytope raises. The same ascent's value -g gives S_max(L)
  to `absolute_athermality` and the rate. The module keeps the two most
  recent max-entropy solves, keyed by the exact bytes of the levels' shape,
  the levels, the target and the stop tolerance: the three share one ascent
  at rho's charges (the bound's hot start, at its own tolerance, keeps its
  own), and every call hands out fresh copies, so no caller holds a kept array.
- `bound_charge` minimizes c.p (c the levels of L_k) subject to A p = b
  (the other charges) and H(p) >= S. One LP gives the minimum of c.p on
  the polytope; if the maximum entropy on its optimal face reaches S, the
  entropy constraint is inactive and that LP floor is the bound (beta_k =
  +inf, as in `bound_energy`). Otherwise B_k = max g on the bound slice
  (S = S(rho), lam and nu free; g at every iterate is below it), and
  beta_vec = (lam, 1) / nu with the 1 at k. The start is hot: nu = ptp(L_k)
  and lam / nu roughly the max-entropy beta_vec at the other charges.
- `conversion_rate_charges` hands `rates.ray_exit` its primitives: the gap
  from the ascent at L_rho (ln d on a flat lone charge, as `gibbs` rounds
  it; on a vertical ray along a face, found within PIVOT_TOL max|level| by
  the LP from the levels' centre, the face's maximum entropy, phi_beta None,
  as beta_vec diverges and the ascent stops too coarse); t_wall from one LP,
  with its face's maximum entropy only if the ray gets there (phi_beta
  None); the curve exit t* = -max g = min (ln Z + beta_vec.L_sigma -
  S_sigma) / (dS - beta_vec.dL) on the thermal-exit slice (c = 0, A all
  levels, b = L_sigma, S = S_sigma, nu dS - lam.dL = 1) from the ascent's
  beta_vec = lam / nu, reflected through dS = beta_vec.dL if below.

Each step is halved from its first trial, down to 1e-12 of it, until the
slope along it is at least -1/2 of its starting value at a point whose own
Newton step can be found (or whose gradient passes the no-step test below).
The first trial is the full step, shortened so that nu (affine along it)
changes at most 4x. With the hot start, this keeps the iterates off
near-vertex states: their covariance is singular to rounding, and Newton
steps run along a ray on which g is flat. Every slice stops by one rule,
one step after the Newton decrement gradient.step falls to DECREMENT_RTOL
max(1, sum of the magnitudes of g's terms), the rounding floor of g (the
bound's hot start at HOT_START_DECREMENT instead). The rule is scale-free:
near the ground corner L is below any absolute stop, on levels of size 1e8
its rounding is above one, and on a nearly tangent ray g ~ -t* is a sum of
terms of size nu ~ 1e9. Where no step can be taken (a singular covariance,
a step halved to its floor, NEWTON_MAXITER steps), a slice gradient within
NEWTON_TOL max(1, max|level|) ends the ascent: so ends a target on the
polytope's boundary, where lam runs off to infinity. Otherwise it raises
InfeasibleTargetError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .energetics import _bound_energy_at, _snap
from .gibbs import (
    ConvergenceError,
    GibbsFamily,
    gibbs_state,
    intrinsic_beta,
    newton_root,
)
from .operators import (
    DensityMatrix,
    HermitianOperator,
    entropy,
    expectation,
    spectrum_entropy,
)
from .rates import RateSolution, ray_exit
from .tolerances import (
    COMMUTATOR_ATOL,
    DECREMENT_RTOL,
    EIGENBASIS_ATOL,
    ENTROPY_ATOL,
    FACE_RTOL,
    HOT_START_DECREMENT,
    NEWTON_MAXITER,
    NEWTON_TOL,
    PIVOT_TOL,
    SIMPLEX_MAXITER,
    STEP_FLOOR,
)


class InfeasibleTargetError(ValueError):
    """Charge target on or outside the attainable region (singular covariance)."""


def _common_eigenbasis(charges: list[HermitianOperator]) -> tuple[np.ndarray, np.ndarray]:
    """Simultaneous eigenbasis via a generic linear combination, with the
    (q, dim) joint eigenvalues of the charges in it; retried with fresh
    coefficients if a non-generic draw leaves off-diagonal residue."""
    rng = np.random.default_rng(1234)
    for _ in range(8):
        coeffs = rng.standard_normal(len(charges))
        combo = sum(c * op.entries for c, op in zip(coeffs, charges))
        _, v = np.linalg.eigh(combo)
        blocks = [v.conj().T @ op.entries @ v for op in charges]
        if all(np.max(np.abs(b - np.diag(np.diagonal(b)))) < EIGENBASIS_ATOL for b in blocks):
            # C-contiguous rows: a strided np.real view shifts BLAS results' last bits
            return v, np.stack([np.real(np.diagonal(b)) for b in blocks])
    raise ValueError("failed to find a common eigenbasis; are the charges commuting?")


def _affine_dependence(ells: np.ndarray) -> int | None:
    """The first charge k that is an affine combination of charges 0..k-1
    on the (q, d) joint spectrum, which makes every GGE covariance singular,
    or None. Rows are scaled to unit max|level|; a singular value below
    FACE_RTOL of the largest counts as zero. A lone charge may be flat: its
    family is one state, and every solve on it is trivial."""
    if len(ells) == 1:
        return None
    rows = np.ones((len(ells) + 1, ells.shape[1]))  # a zero charge stays a ones row
    scale = np.abs(ells).max(axis=1, keepdims=True)
    np.divide(ells, scale, out=rows[1:], where=scale > 0)

    def independent(n: int) -> bool:  # the identity and the first n charges
        sv = np.linalg.svd(rows[:n + 1], compute_uv=False)
        return len(sv) == n + 1 and bool(sv[-1] > FACE_RTOL * sv[0])

    if independent(len(ells)):
        return None
    return next(k for k in range(len(ells)) if not independent(k + 1))


@dataclass(frozen=True)
class ChargeSet:
    """Ordered pairwise-commuting charges, the Hamiltonian first."""

    charges: tuple

    def __post_init__(self):
        ops = tuple(self.charges)
        if not ops:
            raise ValueError("need at least one charge")
        dim = ops[0].dim
        for a in ops:
            if a.dim != dim:
                raise ValueError("charges must share one Hilbert space")
        for i, a in enumerate(ops):
            for b in ops[i + 1:]:
                comm = a.entries @ b.entries - b.entries @ a.entries
                if np.max(np.abs(comm)) > COMMUTATOR_ATOL:
                    raise ValueError(
                        f"charges {i} and beyond do not commute "
                        f"(residue {np.max(np.abs(comm)):.3e})"
                    )
        object.__setattr__(self, "charges", ops)

    @property
    def q(self) -> int:
        return len(self.charges)

    @property
    def dim(self) -> int:
        return self.charges[0].dim


@dataclass(frozen=True, eq=False)
class GGEFamily:
    """Generalized Gibbs family gamma(beta_vec) of a charge set; families
    compare and hash by identity, as `GibbsFamily` does."""

    charge_set: ChargeSet
    basis: np.ndarray = field(init=False, repr=False, compare=False)
    joint_eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v, ells = _common_eigenbasis(list(self.charge_set.charges))
        k = _affine_dependence(ells)
        if k is not None:
            raise ValueError(f"charges are affinely dependent: charge {k} is constant or an "
                             "affine combination of the charges before it")
        v.setflags(write=False)
        ells.setflags(write=False)
        object.__setattr__(self, "basis", v)
        object.__setattr__(self, "joint_eigenvalues", ells)

    @property
    def q(self) -> int:
        return self.charge_set.q

    @property
    def dim(self) -> int:
        return self.charge_set.dim


@dataclass(frozen=True)
class ChargesPoint:
    L: np.ndarray  # q charge coordinates
    S: float


def charges_point(rho: DensityMatrix, fam: GGEFamily) -> ChargesPoint:
    vals = np.array([expectation(op, rho) for op in fam.charge_set.charges])
    return ChargesPoint(L=vals, S=entropy(rho))


def _boltzmann_weights(x: np.ndarray) -> tuple[np.ndarray, float, float]:
    """The one kernel of this module, from one exp pass in `gibbs`' gap form:
    the probabilities p = e^x / Z, ln Z = ln sum e^x and H(p). With the gaps
    g = max x - x and rest the sum of e^-g over all entries but one largest,
    ln Z = max x + log1p(rest) and H = <g> + log1p(rest)."""
    i = x.argmax()
    g = x[i] - x
    g[i] = math.inf  # its weight, 1, stays out of rest
    w = np.exp(-g)
    rest = float(w.sum())
    w[i], g[i] = 1.0, 0.0
    p, log1p_rest = w / (1.0 + rest), math.log1p(rest)
    return p, float(x[i]) + log1p_rest, float(p @ g) + log1p_rest


def _gge_weights(fam: GGEFamily, beta_vec) -> tuple[np.ndarray, float, float]:
    return _boltzmann_weights(np.dot(-np.asarray(beta_vec, dtype=float), fam.joint_eigenvalues))


def gge_state(fam: GGEFamily, beta_vec) -> DensityMatrix:
    """gamma(beta_vec) = e^(-sum_k beta_k L_k) / Z in the common eigenbasis;
    a non-finite beta_vec raises ValueError."""
    beta_vec = np.asarray(beta_vec, dtype=float)
    if not np.isfinite(beta_vec).all():
        raise ValueError(f"beta_vec {beta_vec} is not finite")
    w = _gge_weights(fam, beta_vec)[0]
    v = fam.basis
    return DensityMatrix._derived((v * w) @ v.conj().T, w, v)


def gge_log_partition(fam: GGEFamily, beta_vec) -> float:
    """ln sum_i e^(-beta_vec . ell_i), in the kernel's gap form."""
    return _gge_weights(fam, beta_vec)[1]


def gge_charges(fam: GGEFamily, beta_vec) -> np.ndarray:
    return fam.joint_eigenvalues @ _gge_weights(fam, beta_vec)[0]


def gge_entropy(fam: GGEFamily, beta_vec) -> float:
    return _gge_weights(fam, beta_vec)[2]


def _covariance(levels: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Covariance of the rows of a (q, d) joint spectrum under weights w."""
    centered = levels - (levels @ w)[:, None]
    return (centered * w) @ centered.T


def gge_covariance(fam: GGEFamily, beta_vec) -> np.ndarray:
    """Cov_gamma(L_j, L_k); the negative of the Jacobian dL/dbeta."""
    return _covariance(fam.joint_eigenvalues, _gge_weights(fam, beta_vec)[0])


def gge_solve(fam: GGEFamily, target, rng: np.random.Generator | None = None) -> np.ndarray:
    """Invert beta_vec -> L_vec(gamma): the maximum-entropy ascent from
    beta_vec = 0, shared through `_max_entropy`'s two kept solves (a fresh
    copy); raises on boundary/infeasible targets. `rng` is unused."""
    return _max_entropy(fam.joint_eigenvalues, target)[0]


def beta_vec_athermality(rho: DensityMatrix, fam: GGEFamily, beta_vec) -> float:
    """A_beta(rho) = sum_k beta_k L_k(rho) - S(rho) + ln Z = D(rho||gamma)."""
    beta_vec = np.asarray(beta_vec, dtype=float)
    pt = charges_point(rho, fam)
    return float(beta_vec @ pt.L - pt.S + gge_log_partition(fam, beta_vec))


def absolute_athermality(rho: DensityMatrix, fam: GGEFamily,
                         rng: np.random.Generator | None = None) -> float:
    """min over beta_vec of the beta-athermality, S_max(L(rho)) - S(rho) at
    the minimizer (`_max_entropy`, whose two kept solves it shares with
    gge_solve and the rate at rho's charges); exact zero below 1e-12. `rng`
    is unused."""
    pt = charges_point(rho, fam)
    return _snap(_max_entropy(fam.joint_eigenvalues, pt.L)[2] - pt.S)


def _simplex(t: np.ndarray, basis: np.ndarray, cols: int, tol: float) -> bool:
    """Pivot the tableau t (constraint rows [B^-1 A | x_B] over the row of
    reduced costs) by Bland's rule, the first entering column and the first
    basic column among ratio ties, until no column below `cols` has a reduced
    cost below -tol: True at an optimum, False on an unbounded column. basis[i]
    is row i's basic column. Raises ConvergenceError after SIMPLEX_MAXITER pivots."""
    for _ in range(SIMPLEX_MAXITER):
        enter = np.flatnonzero(t[-1, :cols] < -tol)
        if enter.size == 0:
            return True
        j = enter[0]
        rows = np.flatnonzero(t[:-1, j] > tol)
        if rows.size == 0:
            return False
        ratio = t[rows, -1] / t[rows, j]
        ties = rows[ratio <= ratio.min() + tol]
        _pivot(t, basis, ties[np.argmin(basis[ties])], j)
    raise ConvergenceError(f"charge polytope LP: no optimal basis after {SIMPLEX_MAXITER} pivots")


def _pivot(t: np.ndarray, basis: np.ndarray, i: int, j: int):
    """Make column j basic in row i of the tableau t."""
    t[i] /= t[i, j]
    col = t[:, j].copy()
    col[i] = 0.0
    t -= np.outer(col, t[i])
    basis[i] = j


def _lp_face(c, a_eq, b_eq):
    """min c.x subject to a_eq x = b_eq, x >= 0, by a dense two-phase simplex
    (`_simplex`): the equality duals y, from B^T y = c_B on the optimal basis
    B, and the mask of the entries on the optimal face, whose reduced cost
    c - A^T y is at most FACE_RTOL of the largest; None if the LP is
    unbounded. Raises InfeasibleTargetError if it is infeasible."""
    c, a_eq, b_eq = (np.asarray(x, dtype=float) for x in (c, a_eq, b_eq))
    m, n = a_eq.shape
    sign = np.where(b_eq < 0, -1.0, 1.0)
    a = np.hstack([a_eq, np.diag(sign)])  # x, then one artificial per row
    cost = np.concatenate([c, np.zeros(m)])
    tol = PIVOT_TOL * max(np.abs(a_eq).max(), np.abs(c).max())
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :-1] = sign[:, None] * a  # rows flipped to b >= 0: the artificials are the basis
    t[:m, -1] = sign * b_eq
    t[-1, :n] = -t[:m, :n].sum(axis=0)  # phase 1: min the sum of the artificials
    t[-1, -1] = -t[:m, -1].sum()
    basis = np.arange(n, n + m)
    _simplex(t, basis, n, tol)
    if t[-1, -1] < -tol:
        raise InfeasibleTargetError("charge polytope LP is infeasible")
    for i in np.flatnonzero(basis >= n):  # drive out artificials basic at zero
        nonzero = np.flatnonzero(np.abs(t[i, :n]) > tol)
        if nonzero.size:  # else row i is redundant and its artificial stays at zero
            _pivot(t, basis, i, nonzero[0])
    t[-1] = np.append(cost, 0.0) - cost[basis] @ t[:m]  # phase 2: min c.x
    if not _simplex(t, basis, n, tol):
        return None
    y = np.linalg.solve(a[:, basis].T, cost[basis])
    reduced = c - a_eq.T @ y
    return y, reduced <= FACE_RTOL * reduced.max()


def _dual_newton(c: np.ndarray, levels: np.ndarray, b: np.ndarray, s: float,
                 basis: np.ndarray):
    """The evaluation of the dual g for one ascent on the slice z + basis @ u:
    newton(z) gives g = c.p + z.full at z, its gradient full, the slice gradient,
    the Newton step and the slope along it. One (q+1, d) stack [levels; -x],
    allocated here with -x rewritten at every z, gives the means of all its
    rows in one product and the slice covariance from one centred product."""
    stack = np.empty((len(levels) + 1, levels.shape[1]))
    stack[:-1] = levels

    def newton(z):
        np.divide(-(c + np.dot(z[:-1], levels)), z[-1], out=stack[-1])
        p, _, h = _boltzmann_weights(stack[-1])
        full = stack @ p
        centred = basis.T @ (stack - full[:, None])
        full[:-1] -= b
        full[-1] = s - h
        value = float(c @ p + z @ full)
        grad = basis.T @ full
        try:  # the Hessian on the slice is -Cov_p(basis^T [levels; -x]) / nu
            step = z[-1] * np.linalg.solve((centred * p) @ centred.T, grad)
        except np.linalg.LinAlgError:
            step = np.full_like(grad, np.nan)
        return value, p, grad, step, grad @ step, full

    return newton


def _ascend(c: np.ndarray, levels: np.ndarray, b: np.ndarray, s: float, z: np.ndarray,
            basis: np.ndarray,
            rtol: float = DECREMENT_RTOL) -> tuple[np.ndarray, float, np.ndarray]:
    """The maximizer z of the dual g on the slice z + basis @ u, with
    the dual value and GGE weights there, by the Newton ascent of the module
    docstring: its one decrement rule at `rtol`, and its no-step test. A
    nearly singular covariance gives a huge step whose slope and trial
    weights may overflow; the tests compare them as they come out."""
    gradient_tol = NEWTON_TOL * max(1.0, np.abs(levels).max(initial=0.0))
    newton = _dual_newton(c, levels, b, s, basis)

    def within(grad) -> bool:  # the no-step test
        return bool(np.max(np.abs(grad), initial=0.0) <= gradient_tol)

    with np.errstate(over="ignore", invalid="ignore"):  # entered once per ascent
        value, p, grad, step, slope, full = point = newton(z)
        taken = math.inf  # the decrement of the step that led to z
        for _ in range(NEWTON_MAXITER):
            # |c|.p + |lam|.(|A p| + |b|) + nu (|S| + H(p)): g's rounding floor over eps
            size = (np.abs(c) @ p + np.abs(z[:-1]) @ (np.abs(full[:-1] + b) + np.abs(b))
                    + z[-1] * (abs(s) + s - full[-1]))
            if abs(taken) <= rtol * max(1.0, size):
                return z, value, p
            if not np.isfinite(slope):  # singular or overflowing
                break
            dz = basis @ step
            # nu is affine along the step: it may grow or shrink at most 4x
            cap = (3.0 if dz[-1] > 0 else 0.75) * z[-1] / abs(dz[-1]) if dz[-1] else 1.0
            first = t = min(1.0, cap)
            while t >= STEP_FLOOR * first:
                trial = z + t * dz
                point = newton(trial)
                if point[2] @ step >= -slope / 2 and (np.isfinite(point[4]) or within(point[2])):
                    break
                t /= 2.0
            else:
                break
            z, (value, p, grad, step, slope, full), taken = trial, point, slope
        if within(grad):  # no step can be taken
            return z, value, p
    raise InfeasibleTargetError(f"no maximum-entropy state with charges {b}")


def _max_entropy(levels: np.ndarray, target: np.ndarray,
                 rtol: float = DECREMENT_RTOL) -> tuple[np.ndarray, np.ndarray, float]:
    """The lam at which the weights p ~ e^(-lam.levels) give levels @ p =
    target, with those weights and S_max at the target: the max-entropy
    slice, nu pinned at 1, from lam = 0, ended by `_ascend`'s decrement rule
    at `rtol`. S_max is -g = ln Z + lam.target, the dual value, which by
    weak duality is never below the truth.
    Charges that spread at most PIVOT_TOL of their largest |level| are flat:
    lam = 0, uniform p and S_max = ln d, rounded as `gibbs` rounds it.
    The two most recent solves are kept (`_max_entropy_solve`, two entries),
    keyed by the exact bytes of the levels' shape, the levels, the target and
    `rtol`, so gge_solve, absolute_athermality and the rate's S_max at one
    state's charges share one ascent; every call hands out fresh copies of
    lam and p. A solve that raises is not kept."""
    levels, target = np.asarray(levels, dtype=float), np.asarray(target, dtype=float)
    lam, p, s_max = _max_entropy_solve(levels.shape, levels.tobytes(), target.tobytes(), rtol)
    return lam.copy(), p.copy(), s_max


@functools.lru_cache(maxsize=2)
def _max_entropy_solve(shape: tuple, levels: bytes, target: bytes,
                       rtol: float) -> tuple[np.ndarray, np.ndarray, float]:
    """`_max_entropy`'s solve, on the levels and target as bytes; the kept
    entries sit in front of it, and `__wrapped__` is the uncached route."""
    levels, target = np.frombuffer(levels).reshape(shape), np.frombuffer(target)
    m, d = shape
    if np.ptp(levels, axis=1).max(initial=0.0) <= PIVOT_TOL * np.abs(levels).max(initial=0.0):
        return np.zeros(m), np.full(d, 1.0 / d), math.log1p(d - 1)
    z, value, p = _ascend(np.zeros(d), levels, target, 0.0, np.eye(m + 1)[-1],
                          np.eye(m + 1, m), rtol)
    return z[:-1], p, -value


def _face_max_entropy(levels: np.ndarray, target: np.ndarray,
                      scale: float) -> tuple[np.ndarray, float]:
    """The max-entropy p >= 0 on the columns of `levels` with levels @ p = target
    and sum(p) = 1, for a target inside their hull, and its entropy: the one
    solution on a simplex (affinely independent columns) and H(p), else a GGE in
    the columns' affine coordinates and its S_max. A direction in which the
    columns spread less than FACE_RTOL of the widest, or than PIVOT_TOL of `scale`
    (the largest |level|: the rounding of levels that coincide), is flat."""
    x = levels - target[:, None]
    u, sv, _ = np.linalg.svd(x, full_matrices=False)
    coords = u[:, sv > max(FACE_RTOL * sv.max(initial=0.0), PIVOT_TOL * scale)].T @ x
    r, m = coords.shape
    if r == m - 1:
        p = np.linalg.lstsq(np.vstack([coords, np.ones(m)]), np.eye(m)[-1], rcond=None)[0]
        return np.clip(p, 0.0, None), spectrum_entropy(p)  # H(p) drops p <= 0 itself
    return _max_entropy(coords, np.zeros(r))[1:]


@dataclass(frozen=True)
class BoundChargeSolution:
    """On the LP floor value = L_k(gamma). On the active branch value is B_k,
    the dual value at the maximizer of the bound slice (the dual value at
    every iterate is a lower bound on it), and gamma the GGE at that
    maximizer's beta_vec = (lam, 1) / nu."""

    value: float                 # B_k
    free_charge: float           # F_k = L_k(rho) - B_k
    gamma: DensityMatrix
    beta_vec: np.ndarray
    certified: bool              # beta_k > 0 at the minimizer: always true


def _lp_floor(fam: GGEFamily, k: int, pt: ChargesPoint) -> BoundChargeSolution | None:
    """The LP minimum of L_k at the other charges of pt, if the maximum
    entropy on the optimal face reaches pt.S; gamma is then
    x diag(p) + (1 - x)|psi><psi| with psi = sum_i sqrt(p_i)|i>, whose
    diagonal is the face's max-entropy p for every x and whose entropy,
    concave in x from 0 to H(p), is S at the x found by a root."""
    ells, idx = fam.joint_eigenvalues, [i for i in range(fam.q) if i != k]
    duals, face = _lp_face(ells[k], np.vstack([ells[idx], np.ones(fam.dim)]),
                           np.append(pt.L[idx], 1.0))
    p = np.zeros(fam.dim)
    p[face], s_max = _face_max_entropy(ells[idx][:, face], pt.L[idx], np.abs(ells).max())
    if s_max < pt.S - ENTROPY_ATOL:
        return None
    root = np.sqrt(p)

    def mixed(x):
        return x * np.diag(p) + (1.0 - x) * np.outer(root, root)

    def excess(x):  # S - S(x) and its slope -dS/dx = Tr[(diag p - psi psi^T) log rho(x)]
        w, v = np.linalg.eigh(mixed(x))
        keep = w > 0
        shift = (v[:, keep] ** 2).T @ p - (v[:, keep].T @ root) ** 2
        return pt.S - spectrum_entropy(w), float(np.log(w[keep]) @ shift)

    if excess(1.0)[0] >= 0:  # S at H(p)
        x = 1.0
    elif excess(0.0)[0] <= 0:  # S = 0, to rounding
        x = 0.0
    else:
        x = newton_root(excess, 0.0, 1.0, start=0.5)
    limit = np.insert(-duals[:-1], k, 1.0)  # beta_vec = lim (lambda, 1)/nu
    value = float(ells[k] @ p)
    return BoundChargeSolution(
        value=value,
        free_charge=float(pt.L[k] - value),
        gamma=DensityMatrix._derived(fam.basis @ mixed(x) @ fam.basis.conj().T),
        beta_vec=np.where(limit == 0, 0.0, np.copysign(math.inf, limit)),
        certified=True,
    )


def bound_charge(rho: DensityMatrix, fam: GGEFamily, k: int,
                 rng: np.random.Generator | None = None) -> BoundChargeSolution:
    """Minimum of L_k over states with rho's entropy and other charges: the
    LP floor, or the dual maximizer of the module docstring. `rng` is unused."""
    pt = charges_point(rho, fam)
    floor = _lp_floor(fam, k, pt)
    if floor is not None:
        return floor
    ells, idx = fam.joint_eigenvalues, [i for i in range(fam.q) if i != k]
    try:  # near the beta_k = 0 end: roughly the max-entropy state at rho's other charges
        start = np.append(_max_entropy(ells[idx], pt.L[idx], HOT_START_DECREMENT)[0], 1.0)
    except InfeasibleTargetError:  # those charges on their polytope's boundary
        start = np.eye(fam.q)[-1]
    z, value, _ = _ascend(ells[k], ells[idx], pt.L[idx], pt.S, np.ptp(ells[k]) * start,
                          np.eye(fam.q))
    beta = np.insert(z[:-1], k, 1.0) / z[-1]
    return BoundChargeSolution(
        value=float(value),
        free_charge=float(pt.L[k] - value),
        gamma=gge_state(fam, beta),
        beta_vec=beta,
        certified=True,
    )


def bound_potential(rho: DensityMatrix, fam: GGEFamily, mu_vec) -> tuple[float, DensityMatrix]:
    """Bound value of the generalized potential V_mu = sum_k mu_k L_k over
    iso-entropic states: treat V_mu as an effective Hamiltonian and apply
    the min-energy principle; mu >= 0 is scaled to unit norm first."""
    mu = np.asarray(mu_vec, dtype=float)
    if not np.isfinite(mu).all():
        raise ValueError("mu components must be finite")
    if np.any(mu < 0):
        raise ValueError("mu components must be nonnegative")
    if not mu.any():
        raise ValueError("mu must have a nonzero component")
    mu = mu / np.linalg.norm(mu)
    h_eff = HermitianOperator._derived(
        sum(m * op.entries for m, op in zip(mu, fam.charge_set.charges)),
        mu @ fam.joint_eigenvalues, fam.basis)
    eff = GibbsFamily(h_eff)
    beta = intrinsic_beta(eff, entropy(rho))
    return _bound_energy_at(eff, beta), gibbs_state(eff, beta)


def conversion_rate_charges(rho: DensityMatrix, sigma: DensityMatrix,
                            fam: GGEFamily) -> RateSolution:
    """Rate r = 1 - 1/t* in the charges-entropy diagram, by `rates.ray_exit` (see above)."""
    x_rho, x_sigma = charges_point(rho, fam), charges_point(sigma, fam)
    ells, scale = fam.joint_eigenvalues, np.abs(fam.joint_eigenvalues).max()

    def above(vertical):
        if vertical:  # on a face: its maximum entropy
            centre = ells.mean(axis=1)
            t_face, face = leave(centre, x_rho.L - centre)
            if face and (t_face - 1.0) * np.abs(x_rho.L - centre).max() <= PIVOT_TOL * scale:
                return face()[0] - x_rho.S, None
        try:
            beta, _, s_max = _max_entropy(ells, x_rho.L)
        except InfeasibleTargetError:  # rho's charges on the polytope's boundary
            return -1.0, None
        return s_max - x_rho.S, beta

    def leave(base, d_l):  # where base + t d_l, t >= 0, leaves the polytope: ray_exit's wall
        a_eq = np.vstack([np.column_stack([ells, -d_l]), np.append(np.ones(fam.dim), 0.0)])
        b_eq = np.append(base, 1.0)
        lp = _lp_face(-np.eye(fam.dim + 1)[-1], a_eq, b_eq)  # base itself is feasible
        if lp is None:
            return math.inf, None
        face = lp[1]  # t_wall to rounding, from the equalities on the face
        t_wall = float(np.linalg.lstsq(a_eq[:, face], b_eq, rcond=None)[0][-1])
        return t_wall, lambda: (_face_max_entropy(ells[:, face[:-1]], base + t_wall * d_l,
                                                  scale)[1], None)

    def curve(d, t_wall, beta):
        d_l = np.array(d[:-1])
        normal = np.append(-d_l, d[-1])
        z = np.append(beta, 1.0)
        if normal @ z <= 0:
            z[:-1] += 2.0 * (normal @ z) * d_l / (d_l @ d_l)
        basis = np.linalg.svd(normal[None])[2][1:].T
        z, value, _ = _ascend(np.zeros(fam.dim), ells, x_sigma.L, x_sigma.S, z / (normal @ z),
                              basis)
        return -value, z[:-1] / z[-1]

    return ray_exit([*x_rho.L.tolist(), x_rho.S], [*x_sigma.L.tolist(), x_sigma.S], above,
                    lambda d: leave(x_sigma.L, np.array(d[:-1])), curve,
                    lambda x: ChargesPoint(L=np.array(x[:-1]), S=x[-1]))
