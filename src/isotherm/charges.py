"""Multiple commuting conserved quantities: GGE states and geometry.

A ChargeSet holds q pairwise-commuting observables (the Hamiltonian first).
Dephased in their common eigenbasis a state is a distribution p on the d
joint eigenvalues ell_i, whose charges L = sum_i p_i ell_i fill the charge
polytope conv{ell_i}; GGE algebra runs on this (q, d) joint spectrum through
this module's kernel of shifted exponents, `_boltzmann_weights`.

- `gge_solve` inverts beta_vec -> L(gamma): gamma is the maximum-entropy
  state at its charges, so beta_vec maximizes the concave -ln Z(beta_vec)
  - beta_vec.L, found by `_max_entropy`'s Newton ascent from 0 (the one
  Newton of this module, shared by `bound_charge`, the rate and the LP
  faces). A target on or outside the polytope's boundary has no maximizer
  and raises.
- `bound_charge` minimizes c.p (c the levels of L_k) subject to A p = b
  (the other charges) and H(p) >= S. One LP gives the minimum of c.p on
  the polytope; if the maximum entropy on its optimal face reaches S, the
  entropy constraint is inactive and that LP floor is the bound (beta_k =
  +inf, as in `bound_energy`). Otherwise the bound is the maximizer of the
  concave dual g(lambda, nu) = -nu ln sum_i e^(-(c + A^T lambda)_i / nu)
  - lambda.b + nu S, the GGE with beta_k = 1/nu > 0 and beta_j =
  lambda_j/nu: at each theta = beta_k an ascent in the other beta_j meets
  A p = b, and theta is the root of S_max(L_k, b) - S, a safeguarded Newton
  (`newton_root`) from the second-order guess at theta = 0.
- `conversion_rate_charges` follows the ray x_sigma + t (x_rho - x_sigma),
  t >= 1. One LP gives t_wall, where L(t) leaves the polytope, and the face
  it leaves through. f(t) = S_max(L(t)) - S(t) is concave on [1, t_wall]
  with f(1) > 0, so the ray exits at S = 0 ("pure") iff t_pure <= t_wall,
  through the wall (kind "thermal", phi_beta None) iff S(t_wall) is at most
  the maximum entropy on the face, and otherwise ("thermal") at the one
  root of f in [1, t_wall], by the same safeguarded Newton from t = 1.

Both roots run one ascent per step. By the envelope theorem dS_max/dL =
beta_vec, which gives each root its exact slope and corrects S_max to first
order in the ascent's charge residual (up to NEWTON_TOL, absolute): the
roots land within rounding of their 40-digit values, not within that
residual. Each ascent starts from the tangent beta_vec + (dbeta_vec/dx) dx
of the nearest solved point, dbeta_vec/dx from the GGE covariance, and
retries from that point's beta_vec, then from points halfway back to it
(`_path_ascent`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energetics import _bound_energy_at
from .gibbs import (
    BRACKET_CAP,
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
    partial_trace,
    spectrum_entropy,
)

COMMUTATOR_ATOL = 1e-10
NEWTON_TOL = 1e-9
NEWTON_MAXITER = 200
FACE_RTOL = 1e-9  # relative reduced cost (or singular value) counted as zero
ENTROPY_ATOL = 1e-10  # entropy shortfall of an LP face still taken as reaching S
# simplex reduced costs and pivots within this of zero, relative to the LP's
# largest datum, count as zero: levels 1e-10 apart stay distinct
PIVOT_TOL = 1e-12
SIMPLEX_MAXITER = 500
RATE_XTOL = 1e-13
PATH_HALVINGS = 8  # how far _path_ascent may halve a failed step back toward a solved point


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
        if all(np.max(np.abs(b - np.diag(np.diagonal(b)))) < 1e-8 for b in blocks):
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


@dataclass(frozen=True)
class GGEFamily:
    """Generalized Gibbs family gamma(beta_vec) of a charge set."""

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


def _boltzmann_weights(levels: np.ndarray, beta) -> np.ndarray:
    """Normalized probabilities e^(-beta . levels) / Z, overflow safe, for a
    spectrum and scalar beta or a (q, d) joint spectrum and q-vector beta."""
    x = np.dot(-beta, levels)
    x = x - x.max()
    w = np.exp(x)
    return w / w.sum()


def _gge_weights(fam: GGEFamily, beta_vec) -> np.ndarray:
    return _boltzmann_weights(fam.joint_eigenvalues, np.asarray(beta_vec, dtype=float))


def gge_state(fam: GGEFamily, beta_vec) -> DensityMatrix:
    """gamma(beta_vec) = e^(-sum_k beta_k L_k) / Z in the common eigenbasis."""
    w = _gge_weights(fam, beta_vec)
    v = fam.basis
    return DensityMatrix._from_eigenpairs((v * w) @ v.conj().T, w, v)


def gge_log_partition(fam: GGEFamily, beta_vec) -> float:
    """ln sum_i e^(-beta_vec . ell_i), with the largest exponent shifted out."""
    x = np.dot(-np.asarray(beta_vec, dtype=float), fam.joint_eigenvalues)
    m = x.max()
    return float(m + np.log(np.sum(np.exp(x - m))))


def gge_charges(fam: GGEFamily, beta_vec) -> np.ndarray:
    return fam.joint_eigenvalues @ _gge_weights(fam, beta_vec)


def gge_entropy(fam: GGEFamily, beta_vec) -> float:
    return spectrum_entropy(_gge_weights(fam, beta_vec))


def _covariance(levels: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Covariance of the rows of a (q, d) joint spectrum under weights w."""
    centered = levels - (levels @ w)[:, None]
    return (centered * w) @ centered.T


def gge_covariance(fam: GGEFamily, beta_vec) -> np.ndarray:
    """Cov_gamma(L_j, L_k); the negative of the Jacobian dL/dbeta."""
    return _covariance(fam.joint_eigenvalues, _gge_weights(fam, beta_vec))


def gge_solve(fam: GGEFamily, target, rng: np.random.Generator | None = None) -> np.ndarray:
    """Invert beta_vec -> L_vec(gamma): the maximum-entropy ascent from
    beta_vec = 0; raises on boundary/infeasible targets. `rng` is unused."""
    return _max_entropy(lambda b: _gge_weights(fam, b), fam.joint_eigenvalues,
                        np.asarray(target, dtype=float), np.zeros(fam.q))[0]


def beta_vec_athermality(rho: DensityMatrix, fam: GGEFamily, beta_vec) -> float:
    """A_beta(rho) = sum_k beta_k L_k(rho) - S(rho) + ln Z = D(rho||gamma)."""
    beta_vec = np.asarray(beta_vec, dtype=float)
    pt = charges_point(rho, fam)
    return float(beta_vec @ pt.L - pt.S + gge_log_partition(fam, beta_vec))


def absolute_athermality(rho: DensityMatrix, fam: GGEFamily,
                         rng: np.random.Generator | None = None) -> float:
    """min over beta_vec of the beta-athermality; the minimizer matches all
    charge expectations, so the value is S(gamma) - S(rho). `rng` is unused."""
    pt = charges_point(rho, fam)
    beta = gge_solve(fam, pt.L)
    return gge_entropy(fam, beta) - pt.S


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


def _lp_face(c, a_eq, b_eq, n_free: int = 0):
    """min c.x subject to a_eq x = b_eq, x >= 0 but for the last n_free
    entries, by a dense two-phase simplex (`_simplex`; a free entry is split
    as x+ - x-): the equality duals y, from B^T y = c_B on the optimal basis
    B, and the mask of the bounded entries on the optimal face, whose reduced
    cost c - A^T y is at most FACE_RTOL of the largest; None if the LP is
    unbounded. Raises InfeasibleTargetError if it is infeasible."""
    c, a_eq, b_eq = (np.asarray(x, dtype=float) for x in (c, a_eq, b_eq))
    (m, n), n_bounded = a_eq.shape, len(c) - n_free
    sign = np.where(b_eq < 0, -1.0, 1.0)
    # columns: x, the negated free ones, then one artificial per row
    a = np.hstack([a_eq, -a_eq[:, n_bounded:], np.diag(sign)])
    cost = np.concatenate([c, -c[n_bounded:], np.zeros(m)])
    cols = n + n_free
    tol = PIVOT_TOL * max(np.abs(a_eq).max(), np.abs(c).max())
    t = np.zeros((m + 1, cols + m + 1))
    t[:m, :-1] = sign[:, None] * a  # rows flipped to b >= 0: the artificials are the basis
    t[:m, -1] = sign * b_eq
    t[-1, :cols] = -t[:m, :cols].sum(axis=0)  # phase 1: min the sum of the artificials
    t[-1, -1] = -t[:m, -1].sum()
    basis = np.arange(cols, cols + m)
    _simplex(t, basis, cols, tol)
    if t[-1, -1] < -tol:
        raise InfeasibleTargetError("charge polytope LP is infeasible")
    for i in np.flatnonzero(basis >= cols):  # drive out artificials basic at zero
        nonzero = np.flatnonzero(np.abs(t[i, :cols]) > tol)
        if nonzero.size:  # else row i is redundant and its artificial stays at zero
            _pivot(t, basis, i, nonzero[0])
    t[-1] = np.append(cost, 0.0) - cost[basis] @ t[:m]  # phase 2: min c.x
    if not _simplex(t, basis, cols, tol):
        return None
    y = np.linalg.solve(a[:, basis].T, cost[basis])
    reduced = c[:n_bounded] - a_eq[:, :n_bounded].T @ y
    return y, reduced <= FACE_RTOL * reduced.max()


def _max_entropy(weights, levels: np.ndarray, target: np.ndarray,
                 lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lam at which weights(lam), proportional to e^(-lam.levels) times
    fixed factors, give levels @ w = target to NEWTON_TOL, with those weights:
    the maximizer of the concave -ln Z(lam) - lam.target, by Newton steps
    from `lam`, each halved from 1 until the slope along it is at least -1/2
    of its starting value, which a full step near the maximizer meets. Raises
    after NEWTON_MAXITER steps, on a singular covariance or a step not taken.
    A nearly singular one gives a huge step whose slope and trial weights may
    overflow; the test compares them as they come out."""
    w = weights(lam)
    grad = levels @ w - target
    with np.errstate(over="ignore", invalid="ignore"):  # entered once per ascent
        for _ in range(NEWTON_MAXITER):
            if np.max(np.abs(grad), initial=0.0) <= NEWTON_TOL:
                return lam, w
            try:  # the Hessian is -Cov(levels)
                step = np.linalg.solve(_covariance(levels, w), grad)
            except np.linalg.LinAlgError:
                break
            t, slope = 1.0, grad @ step
            while t >= 1e-12:
                w = weights(lam + t * step)
                if (levels @ w - target) @ step >= -slope / 2:
                    break
                t /= 2.0
            else:
                break
            lam = lam + t * step
            grad = levels @ w - target
    raise InfeasibleTargetError(f"no maximum-entropy state with charges {target}")


def _path_ascent(solve, path: list, x: float, depth: int = PATH_HALVINGS):
    """solve(x, lam0) at a point x of a one-parameter path of max-entropy
    ascents, where solve runs the ascent at x from lam0, appends x's entry
    (x, lam, dlam/dx, ...) to the non-empty `path` and returns its result.
    The start is the tangent lam + (dlam/dx)(x - x0) of the nearest solved
    point x0, then x0's lam; if both ascents raise, the point halfway to x0
    is solved first and x is tried again from there, at most `depth` halvings
    deep. Never restarts from 0."""
    x0, lam, slope, *_ = min(path, key=lambda point: abs(point[0] - x))
    try:
        return solve(x, lam + slope * (x - x0))
    except InfeasibleTargetError:
        pass
    try:
        return solve(x, lam)
    except InfeasibleTargetError:
        if depth == 0:
            raise
    _path_ascent(solve, path, x0 + (x - x0) / 2, depth - 1)
    return _path_ascent(solve, path, x, depth - 1)


def _tangent(cov: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """cov^-1 rhs for a warm start's tangent; zero if cov is singular (a flat
    lone charge, whose rhs is zero too), which only makes the start colder."""
    try:
        return np.linalg.solve(cov, rhs)
    except np.linalg.LinAlgError:
        return np.zeros_like(rhs)


def _face_max_entropy(levels: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The max-entropy p >= 0 on the columns of `levels` with levels @ p =
    target and sum(p) = 1, for a target inside their hull: the one solution
    on a simplex (affinely independent columns), else a GGE in the columns'
    affine coordinates."""
    x = levels - target[:, None]
    u, sv, _ = np.linalg.svd(x, full_matrices=False)
    coords = u[:, sv > FACE_RTOL * sv.max(initial=0.0)].T @ x
    r, m = coords.shape
    if r == m - 1:
        p = np.linalg.lstsq(np.vstack([coords, np.ones(m)]), np.eye(m)[-1], rcond=None)[0]
        return np.clip(p, 0.0, None)
    return _max_entropy(lambda b: _boltzmann_weights(coords, b), coords,
                        np.zeros(r), np.zeros(r))[1]


@dataclass(frozen=True)
class BoundChargeSolution:
    """On the LP floor value = L_k(gamma). On the active branch value is B_k
    to first order from the root's last solve, and beta_vec (so gamma) that
    solve's tangent taken on to the root theta: value and L_k(gamma) agree to
    second order in the last step, not to rounding."""

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
    p[face] = _face_max_entropy(ells[idx][:, face], pt.L[idx])
    if spectrum_entropy(p) < pt.S - ENTROPY_ATOL:
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
        gamma=DensityMatrix(fam.basis @ mixed(x) @ fam.basis.conj().T),
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
    unit = np.eye(fam.q)
    embed = unit[:, idx]  # the other charges' beta_j into beta_vec
    path = []  # (theta, lam, dlam/dtheta, Schur variance, B_k estimate) per solved theta

    def residual(theta: float, lam0: np.ndarray) -> tuple[float, float]:
        """S_max(L_k(gamma), rho's other charges) - S(rho) and its slope in theta."""
        lam, w = _max_entropy(lambda b: _gge_weights(fam, embed @ b + theta * unit[k]),
                              ells[idx], pt.L[idx], lam0)
        cov = _covariance(ells, w)
        coupling = _tangent(cov[np.ix_(idx, idx)], cov[idx, k])
        variance = float(cov[k, k] - cov[k, idx] @ coupling)  # of L_k at fixed other charges
        # to first order on the surface dS = theta dL_k + lam.dL_other
        excess = float(spectrum_entropy(w) + lam @ (pt.L[idx] - ells[idx] @ w) - pt.S)
        value = ells[k] @ w - (excess / theta if theta > 0 else 0.0)
        path.append((theta, lam, -coupling, variance, value))
        return excess, -theta * variance

    theta = 0.0
    excess, _ = residual(theta, np.zeros(fam.q - 1))
    if excess > 0:  # start where S(0) - theta^2 V(0)/2, second order in theta, reaches S
        variance = path[0][3]
        start = math.sqrt(2.0 * excess / variance) if variance > 0 else math.inf
        theta = newton_root(lambda th: _path_ascent(residual, path, th), 0.0, math.inf,
                            start=min(start, BRACKET_CAP))
    theta_last, lam, slope, _, value = path[-1]
    beta = embed @ (lam + slope * (theta - theta_last)) + theta * unit[k]
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
    if np.any(mu < 0):
        raise ValueError("mu components must be nonnegative")
    mu = mu / np.linalg.norm(mu)
    h_eff = HermitianOperator._from_eigenpairs(
        sum(m * op.entries for m, op in zip(mu, fam.charge_set.charges)),
        mu @ fam.joint_eigenvalues, fam.basis)
    eff = GibbsFamily(h_eff)
    beta = intrinsic_beta(eff, entropy(rho))
    return _bound_energy_at(eff, beta), gibbs_state(eff, beta)


def second_law_charges_check(initial: DensityMatrix, final: DensityMatrix,
                             split, fam_b: GGEFamily, beta_vec) -> bool:
    """Second law for a GGE bath: sum_k beta_k dL_k^B >= dS_B, and
    for an entropy-preserving global process also >= -dS_A."""
    beta_vec = np.asarray(beta_vec, dtype=float)
    b0 = partial_trace(initial, split, [1])
    b1 = partial_trace(final, split, [1])
    gamma = gge_state(fam_b, beta_vec)
    if np.max(np.abs(b0.entries - gamma.entries)) > 1e-8:
        raise ValueError("initial bath is not the stated GGE state")
    a0 = partial_trace(initial, split, [0])
    a1 = partial_trace(final, split, [0])
    d_l = charges_point(b1, fam_b).L - charges_point(b0, fam_b).L
    lhs = float(beta_vec @ d_l)
    d_s_b = entropy(b1) - entropy(b0)
    d_s_a = entropy(a1) - entropy(a0)
    return bool(lhs >= d_s_b - 1e-9 and lhs >= -d_s_a - 1e-9)


@dataclass(frozen=True)
class ChargesRateSolution:
    r: float
    phi_point: ChargesPoint
    phi_kind: str  # "pure" | "thermal" | "source-degenerate"
    phi_beta: np.ndarray | None
    collinearity_residual: float


def conversion_rate_charges(rho: DensityMatrix, sigma: DensityMatrix,
                            fam: GGEFamily) -> ChargesRateSolution:
    """Interconversion rate r = 1 - 1/t* in the (q+1)-dimensional
    charges-entropy diagram, where the ray x_sigma + t (x_rho - x_sigma),
    t >= 1, leaves the region (see the module docstring)."""
    x_rho = charges_point(rho, fam)
    x_sigma = charges_point(sigma, fam)
    d_l = x_rho.L - x_sigma.L
    d_s = x_rho.S - x_sigma.S
    if max(np.max(np.abs(d_l)), abs(d_s)) < 1e-12:
        return ChargesRateSolution(r=1.0, phi_point=x_rho, phi_kind="thermal",
                                   phi_beta=None, collinearity_residual=0.0)

    ells = fam.joint_eigenvalues
    path = []  # (t, beta_vec, dbeta_vec/dt) of every solved t

    def gap(t: float, beta0: np.ndarray) -> tuple[float, float]:
        """S_max(L(t)) - S(t) and its slope in t."""
        target = x_sigma.L + t * d_l
        beta, w = _max_entropy(lambda b: _gge_weights(fam, b), ells, target, beta0)
        path.append((t, beta, -_tangent(_covariance(ells, w), d_l)))
        # S_max to first order in the ascent's charge residual: dS_max/dL = beta_vec
        s_max = spectrum_entropy(w) + beta @ (target - ells @ w)
        return s_max - (x_sigma.S + t * d_s), beta @ d_l - d_s

    try:
        gap_1, slope_1 = gap(1.0, np.zeros(fam.q))
    except InfeasibleTargetError:  # rho's charges on the polytope's boundary
        gap_1 = -1.0
    source_degenerate = ChargesRateSolution(r=0.0, phi_point=x_rho,
                                            phi_kind="source-degenerate", phi_beta=None,
                                            collinearity_residual=0.0)
    if min(x_rho.S, gap_1) <= 1e-10:
        return source_degenerate
    a_eq = np.vstack([np.column_stack([ells, -d_l]), np.append(np.ones(fam.dim), 0.0)])
    b_eq = np.append(x_sigma.L, 1.0)
    lp = _lp_face(-np.eye(fam.dim + 1)[-1], a_eq, b_eq, n_free=1)
    t_wall, gap_wall = math.inf, -math.inf
    if lp is not None:  # t_wall to rounding, from the equalities on the face
        face = np.append(lp[1], True)
        t_wall = float(np.linalg.lstsq(a_eq[:, face], b_eq, rcond=None)[0][-1])
        if t_wall <= 1.0:  # rho on a wall face: the ray leaves at t = 1
            return source_degenerate
        p = _face_max_entropy(ells[:, face[:-1]], x_sigma.L + t_wall * d_l)
        gap_wall = spectrum_entropy(p) - (x_sigma.S + t_wall * d_s)
    t_pure = -x_sigma.S / d_s if d_s < 0 else math.inf
    beta = None
    if d_s < 0 and t_pure <= t_wall:
        t_star, kind = t_pure, "pure"
    elif gap_wall >= 0:
        t_star, kind = t_wall, "thermal"
    else:
        # Newton from t = 1, or the midpoint; without a wall dL = 0 and gap is
        # linear in t with slope -dS < 0, so the Newton point is the root
        newton = 1.0 - gap_1 / slope_1 if slope_1 < 0 else math.inf
        start = newton if newton < t_wall else (1.0 + t_wall) / 2
        t_star = newton_root(lambda t: _path_ascent(gap, path, t), 1.0, t_wall,
                             start=start, xtol=RATE_XTOL)
        kind = "thermal"
        t_last, beta_last, slope = path[-1]
        beta = beta_last + slope * (t_star - t_last)
    phi = ChargesPoint(L=x_sigma.L + t_star * d_l,
                       S=max(x_sigma.S + t_star * d_s, 0.0))
    r = 1.0 - 1.0 / t_star
    res = max(
        float(np.max(np.abs(x_rho.L - (r * x_sigma.L + (1 - r) * phi.L)))),
        abs(x_rho.S - (r * x_sigma.S + (1 - r) * phi.S)),
    )
    return ChargesRateSolution(r=r, phi_point=phi, phi_kind=kind, phi_beta=beta,
                               collinearity_residual=res)
