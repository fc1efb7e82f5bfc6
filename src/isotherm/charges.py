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
  target, S = 0, nu pinned at 1, from lam = 0 (`_max_entropy`, whose two
  kept solves it shares with `absolute_athermality` and the rate at rho's
  charges; a flat lone charge takes lam = 0, uniform p). A target outside
  the polytope raises. The same ascent's value -g gives S_max(L).
- `_face_exit` is the one face routine: one LP finds where a ray leaves the
  polytope, with beta_vec's limit (+-inf, 0) on the face it leaves through
  and, on call, that face's maximum entropy there.
- `bound_charge` minimizes c.p (c the levels of L_k) subject to A p = b
  (the other charges) and H(p) >= S. If the maximum entropy of the face on
  which the ray from L(rho) down L_k leaves (the LP floor) reaches S, the
  floor is the bound, at the face's limit (beta_k = +inf, as in
  `bound_energy`). Otherwise B_k = max g on the bound slice (S = S(rho),
  lam and nu free; g at every iterate is below it), and beta_vec = (lam, 1)
  / nu with the 1 at k, from a hot start: nu = ptp(L_k) and lam / nu roughly
  the max-entropy beta_vec at the other charges.
- `conversion_rate_charges` hands `rates.ray_exit` its primitives: the gap
  at L_rho from the ascent (ln d on a flat lone charge, as `gibbs` rounds
  it) or, on a vertical ray, from the face on which the ray from the levels'
  centre leaves at L_rho within PIVOT_TOL max|level|, as beta_vec diverges
  and the ascent stops too coarse; the wall, `_face_exit` from L_sigma; the
  curve exit t* = -max g = min (ln Z + beta_vec.L_sigma - S_sigma) / (dS -
  beta_vec.dL) on the thermal-exit slice (c = 0, A all levels, b = L_sigma,
  S = S_sigma, nu dS - lam.dL = 1) from the ascent's beta_vec = lam / nu,
  reflected through dS = beta_vec.dL if below.

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
        if any(a.dim != ops[0].dim for a in ops):
            raise ValueError("charges must share one Hilbert space")
        for i, a in enumerate(ops):
            for b in ops[i + 1:]:
                residue = np.max(np.abs(a.entries @ b.entries - b.entries @ a.entries))
                if residue > COMMUTATOR_ATOL:
                    raise ValueError(f"charges {i} and beyond do not commute "
                                     f"(residue {residue:.3e})")
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
    (`_simplex`), read off the optimal tableau: the equality duals y, the mask
    of the entries on the optimal face, whose reduced cost c - A^T y is at
    most FACE_RTOL of the largest or the pivots' zero, and the optimal vertex
    x; None if the LP is unbounded. Raises InfeasibleTargetError if it is
    infeasible."""
    c, a_eq, b_eq = (np.asarray(x, dtype=float) for x in (c, a_eq, b_eq))
    m, n = a_eq.shape
    sign = np.where(b_eq < 0, -1.0, 1.0)
    cost = np.concatenate([c, np.zeros(m + 1)])  # x, then one artificial per row, then b
    tol = PIVOT_TOL * max(np.abs(a_eq).max(), np.abs(c).max())
    t = np.zeros((m + 1, n + m + 1))  # rows flipped to b >= 0: the artificials are the basis
    t[:m] = sign[:, None] * np.hstack([a_eq, np.diag(sign), b_eq[:, None]])
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
    t[-1] = cost - cost[basis] @ t[:m]  # phase 2: min c.x
    if not _simplex(t, basis, n, tol):
        return None
    reduced, x = t[-1, :n], np.zeros(n + m)  # the artificials' reduced costs are -sign y
    x[basis] = t[:m, -1]
    return -sign * t[-1, n:-1], reduced <= max(FACE_RTOL * reduced.max(), tol), x[:n]


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
    The two most recent solves are kept (`_max_entropy_solve`), keyed by the
    exact bytes of the levels' shape, the levels, the target and `rtol`;
    every call hands out fresh copies of lam and p. A solve that raises is
    not kept."""
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


def _face_exit(levels: np.ndarray, base: np.ndarray, direction: np.ndarray):
    """Where the ray base + t direction, t >= 0, from a point of the charge
    polytope conv{levels} leaves it, as `rates.ray_exit` reads a wall: None
    on a direction within PIVOT_TOL max|level| of zero, which never leaves,
    else the exit t and a call giving, on the face left through, S_max at
    the exit, beta_vec's limit and the maximum-entropy p (zero off the face).
    One `_lp_face`, max t at levels p - t v = base, sum(p) = 1, p >= 0, v and
    t's cost scaled to max|level| to be read against PIVOT_TOL as the levels
    are. Its duals give the face's outward normal n: the limit's entries are
    +inf, 0, -inf as n's are negative, within FACE_RTOL of max|n|, positive.
    The exit is its optimal vertex, a convex combination of the face's
    columns, of which those within PIVOT_TOL max|level| count as one, with
    their multiplicity. On a simplex (those affinely independent), p is the
    vertex's weights spread evenly over each column's copies and S_max =
    H(p); else the GGE in the face's affine coordinates (a direction of
    spread below FACE_RTOL of the widest or PIVOT_TOL max|level| is flat) and
    its dual value."""
    (q, d), scale = levels.shape, np.abs(levels).max()
    reach = np.abs(direction).max(initial=0.0)
    if reach <= PIVOT_TOL * scale:
        return None
    size = scale or 1.0  # a zero spectrum's polytope is a point
    unit = size / reach
    lp = _lp_face(-size * np.eye(d + 1)[-1],
                  np.vstack([np.column_stack([levels, -unit * direction]),
                             np.append(np.ones(d), 0.0)]),
                  np.append(base, 1.0))  # bounded: the polytope is, and v is not zero
    normal, face, x = lp[0][:q], lp[1][:-1], lp[2]

    def on_face() -> tuple[float, np.ndarray, np.ndarray]:
        flat = np.abs(normal) <= FACE_RTOL * np.abs(normal).max()
        limit, out = np.where(flat, 0.0, np.copysign(math.inf, -normal)), np.zeros(d)
        cols, p = levels[:, face], np.clip(x[:-1][face], 0.0, None)
        spread = cols - (cols @ p)[:, None]
        u, sv, _ = np.linalg.svd(spread, full_matrices=False)
        coords = u[:, sv > max(FACE_RTOL * sv.max(initial=0.0), PIVOT_TOL * scale)].T @ spread
        r, m = coords.shape
        if r < m - 1:  # equal columns count once, with their multiplicity
            close = np.abs(cols[:, :, None] - cols[:, None]).max(axis=0) <= PIVOT_TOL * scale
            if r < np.count_nonzero(close.argmax(axis=0) == np.arange(m)) - 1:  # no simplex
                out[face], s_max = _max_entropy(coords, np.zeros(r))[1:]
                return s_max, limit, out
            p = close @ p / close.sum(axis=0)
        out[face] = p
        return spectrum_entropy(p), limit, out

    return float(x[-1] * unit), on_face


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


def _lp_floor(fam: GGEFamily, k: int, pt: ChargesPoint):
    """(value, gamma, beta_vec) on the LP floor of L_k at pt's other charges
    if its face's maximum entropy reaches pt.S, else None. gamma = x diag(p)
    + (1 - x)|psi><psi|, psi = sum_i sqrt(p_i)|i>, has the face's p on its
    diagonal for every x and entropy concave in x from 0 to H(p), S at a root."""
    ells = fam.joint_eigenvalues
    s_max, limit, p = _face_exit(ells, pt.L, -np.eye(fam.q)[k])[1]()  # L_k down to its floor
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
    gamma = DensityMatrix._derived(fam.basis @ mixed(x) @ fam.basis.conj().T)
    return float(ells[k] @ p), gamma, limit


def bound_charge(rho: DensityMatrix, fam: GGEFamily, k: int,
                 rng: np.random.Generator | None = None) -> BoundChargeSolution:
    """Minimum of L_k over states with rho's entropy and other charges: the
    LP floor, or the dual maximizer of the module docstring. `rng` is unused."""
    pt = charges_point(rho, fam)
    found = _lp_floor(fam, k, pt)
    if found is None:
        ells, idx = fam.joint_eigenvalues, [i for i in range(fam.q) if i != k]
        try:  # near the beta_k = 0 end: roughly the max-entropy state at rho's other charges
            start = np.append(_max_entropy(ells[idx], pt.L[idx], HOT_START_DECREMENT)[0], 1.0)
        except InfeasibleTargetError:  # those charges on their polytope's boundary
            start = np.eye(fam.q)[-1]
        z, value, _ = _ascend(ells[k], ells[idx], pt.L[idx], pt.S, np.ptp(ells[k]) * start,
                              np.eye(fam.q))
        beta = np.insert(z[:-1], k, 1.0) / z[-1]
        found = float(value), gge_state(fam, beta), beta
    value, gamma, beta = found
    return BoundChargeSolution(value=value, free_charge=float(pt.L[k] - value), gamma=gamma,
                               beta_vec=beta, certified=True)


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
            out = _face_exit(ells, centre, x_rho.L - centre)
            if out and (out[0] - 1.0) * np.abs(x_rho.L - centre).max() <= PIVOT_TOL * scale:
                s_max, limit, _ = out[1]()
                return s_max - x_rho.S, limit
        try:
            beta, _, s_max = _max_entropy(ells, x_rho.L)
        except InfeasibleTargetError:  # rho's charges on the polytope's boundary
            return -1.0, None
        return s_max - x_rho.S, beta

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
                    lambda d: _face_exit(ells, x_sigma.L, np.array(d[:-1])) or (math.inf, None),
                    curve, lambda x: ChargesPoint(L=np.array(x[:-1]), S=x[-1]))
