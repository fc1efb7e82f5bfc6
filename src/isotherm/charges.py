"""Multiple commuting conserved quantities: GGE states and geometry.

A ChargeSet holds q pairwise-commuting observables (the Hamiltonian first);
all GGE algebra runs on their joint (q, d) spectrum in the cached common
eigenbasis, through the spectral kernels of `gibbs`. Both vector solves (the
max-entropy inversion, with Jacobian dL_j/dbeta_k = -Cov(L_j, L_k), and the
bound-charge system) use one damped Newton: each step solves J step = -r and
halves its length from 1 down to 1e-12 until max|r| strictly drops, keeping
that candidate and its residual. A singular, non-finite or non-improving
step, NEWTON_MAXITER steps, or |beta| past a cap with max|r| > NEWTON_TOL
ends the run without a root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gibbs import (
    GibbsFamily,
    _boltzmann_weights,
    _log_partition,
    boundary_energy,
    gibbs_state,
    intrinsic_beta,
)
from .operators import (
    DensityMatrix,
    HermitianOperator,
    entropy,
    partial_trace,
    spectrum_entropy,
)

COMMUTATOR_ATOL = 1e-10
NEWTON_TOL = 1e-9
NEWTON_MAXITER = 200
NEWTON_RESTARTS = 32


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
    vals = np.array([
        np.trace(op.entries @ rho.entries).real for op in fam.charge_set.charges
    ])
    return ChargesPoint(L=vals, S=entropy(rho))


def _gge_weights(fam: GGEFamily, beta_vec) -> np.ndarray:
    return _boltzmann_weights(fam.joint_eigenvalues, np.asarray(beta_vec, dtype=float))


def gge_state(fam: GGEFamily, beta_vec) -> DensityMatrix:
    """gamma(beta_vec) = e^(-sum_k beta_k L_k) / Z in the common eigenbasis."""
    w = _gge_weights(fam, beta_vec)
    v = fam.basis
    return DensityMatrix((v * w) @ v.conj().T)


def gge_log_partition(fam: GGEFamily, beta_vec) -> float:
    return _log_partition(fam.joint_eigenvalues, np.asarray(beta_vec, dtype=float))


def gge_charges(fam: GGEFamily, beta_vec) -> np.ndarray:
    return fam.joint_eigenvalues @ _gge_weights(fam, beta_vec)


def gge_entropy(fam: GGEFamily, beta_vec) -> float:
    return spectrum_entropy(_gge_weights(fam, beta_vec))


def gge_covariance(fam: GGEFamily, beta_vec) -> np.ndarray:
    """Cov_gamma(L_j, L_k); the negative of the Jacobian dL/dbeta."""
    w = _gge_weights(fam, beta_vec)
    ells = fam.joint_eigenvalues
    mean = ells @ w
    centered = ells - mean[:, None]
    return (centered * w) @ centered.T


def _damped_newton(residual, jacobian, beta: np.ndarray,
                   cap: float = math.inf) -> np.ndarray | None:
    """Damped Newton on residual(beta) = 0 from `beta` (see the module
    docstring); the root, or None when the run fails."""
    resid = residual(beta)
    for _ in range(NEWTON_MAXITER):
        base = np.max(np.abs(resid))
        if base <= NEWTON_TOL:
            return beta
        try:
            step = np.linalg.solve(jacobian(beta), -resid)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        t = 1.0
        while t > 1e-12:
            cand = beta + t * step
            cand_resid = residual(cand)
            if np.max(np.abs(cand_resid)) < base:
                beta, resid = cand, cand_resid
                break
            t /= 2.0
        else:
            return None
        if np.max(np.abs(beta)) > cap:
            return beta if np.max(np.abs(resid)) <= NEWTON_TOL else None
    return None


def gge_solve(fam: GGEFamily, target, rng: np.random.Generator | None = None,
              restarts: int = NEWTON_RESTARTS) -> np.ndarray:
    """Invert beta_vec -> L_vec(gamma) by damped Newton from 0 with up to 32
    Gaussian restarts; raises on boundary/infeasible targets."""
    target = np.asarray(target, dtype=float)
    if rng is None:
        rng = np.random.default_rng(0)
    cap = 1e4 * max(np.max(np.abs(fam.joint_eigenvalues)), 1.0)
    for attempt in range(restarts + 1):
        start = np.zeros(fam.q) if attempt == 0 else rng.standard_normal(fam.q)
        beta = _damped_newton(lambda b: gge_charges(fam, b) - target,
                              lambda b: -gge_covariance(fam, b), start, cap)
        if beta is not None:
            return beta
    raise InfeasibleTargetError(
        f"no GGE state matches charges {target} (boundary or infeasible target)")


def beta_vec_athermality(rho: DensityMatrix, fam: GGEFamily, beta_vec) -> float:
    """A_beta(rho) = sum_k beta_k L_k(rho) - S(rho) + ln Z = D(rho||gamma)."""
    beta_vec = np.asarray(beta_vec, dtype=float)
    pt = charges_point(rho, fam)
    return float(beta_vec @ pt.L - pt.S + gge_log_partition(fam, beta_vec))


def absolute_athermality(rho: DensityMatrix, fam: GGEFamily,
                         rng: np.random.Generator | None = None) -> float:
    """min over beta_vec of the beta-athermality; the minimizer matches all
    charge expectations, so the value is S(gamma) - S(rho)."""
    pt = charges_point(rho, fam)
    beta = gge_solve(fam, pt.L, rng=rng)
    return gge_entropy(fam, beta) - pt.S


def _constrained_newton(fam: GGEFamily, k: int, target_l: np.ndarray,
                        target_s: float, seed: np.ndarray) -> np.ndarray | None:
    """Newton on the q-system: L_i(gamma) = L_i(rho) for i != k and
    S(gamma) = S(rho). Returns the converged beta_vec or None."""
    idx = [i for i in range(fam.q) if i != k]

    def residual(beta):
        w = _gge_weights(fam, beta)
        l_now = fam.joint_eigenvalues @ w
        return np.concatenate([l_now[idx] - target_l[idx], [spectrum_entropy(w) - target_s]])

    def jacobian(beta):
        cov = gge_covariance(fam, beta)
        # dS/dbeta_j = -sum_m beta_m Cov(L_m, L_j)
        return np.vstack([-cov[idx, :], -(beta @ cov)])

    return _damped_newton(residual, jacobian, seed)


@dataclass(frozen=True)
class BoundChargeSolution:
    value: float                 # B_k
    free_charge: float           # F_k = L_k(rho) - B_k
    gamma: DensityMatrix
    beta_vec: np.ndarray
    certified: bool              # beta_k > 0 at the minimizer


def bound_charge(rho: DensityMatrix, fam: GGEFamily, k: int,
                 rng: np.random.Generator | None = None) -> BoundChargeSolution:
    """Minimum of L_k over GGE states with the entropy and the other charges
    fixed at rho's values; at the minimizer the tangent normal has
    beta_k > 0."""
    if rng is None:
        rng = np.random.default_rng(0)
    pt = charges_point(rho, fam)
    try:
        beta_star = gge_solve(fam, pt.L, rng=rng)
    except InfeasibleTargetError:
        beta_star = np.zeros(fam.q)
    solutions = []
    seeds = [beta_star + t * np.eye(fam.q)[k] for t in (0.5, 1.0, 2.0, 4.0, 8.0)]
    seeds += [beta_star + rng.standard_normal(fam.q) for _ in range(8)]
    for seed in seeds:
        sol = _constrained_newton(fam, k, pt.L, pt.S, seed)
        if sol is not None:
            solutions.append(sol)
    certified = [b for b in solutions if b[k] > 0]
    pool = certified if certified else solutions
    if not pool:
        raise InfeasibleTargetError("bound_charge solver failed to converge")
    values = [gge_charges(fam, b)[k] for b in pool]
    i = int(np.argmin(values))
    beta = pool[i]
    return BoundChargeSolution(
        value=float(values[i]),
        free_charge=float(pt.L[k] - values[i]),
        gamma=gge_state(fam, beta),
        beta_vec=beta,
        certified=bool(beta[k] > 0),
    )


def bound_potential(rho: DensityMatrix, fam: GGEFamily, mu_vec,
                    renormalize: bool = True) -> tuple[float, DensityMatrix]:
    """Bound value of the generalized potential V_mu = sum_k mu_k L_k over
    iso-entropic states: treat V_mu as an effective Hamiltonian and apply
    the min-energy principle."""
    mu = np.asarray(mu_vec, dtype=float)
    if np.any(mu < 0):
        raise ValueError("mu components must be nonnegative")
    if renormalize:
        mu = mu / np.linalg.norm(mu)
    elif abs(np.linalg.norm(mu) - 1.0) > 1e-10:
        raise ValueError("mu must be unit-normalized")
    h_eff = HermitianOperator(sum(m * op.entries
                                  for m, op in zip(mu, fam.charge_set.charges)))
    eff = GibbsFamily(h_eff)
    beta = intrinsic_beta(eff, entropy(rho))
    if math.isinf(beta):
        return eff.energy_min, gibbs_state(eff, beta)
    return boundary_energy(eff, beta), gge_state(fam, beta * mu)


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


def _charges_margin(fam: GGEFamily, l_vec: np.ndarray, s: float) -> float:
    """Inside margin of the charges-entropy region; negative/-inf outside."""
    if s < 0:
        return s
    try:
        beta = gge_solve(fam, l_vec, restarts=4)
    except InfeasibleTargetError:
        return -1.0
    return min(s, gge_entropy(fam, beta) - s)


def conversion_rate_charges(rho: DensityMatrix, sigma: DensityMatrix,
                            fam: GGEFamily) -> ChargesRateSolution:
    """Interconversion rate in the (q+1)-dimensional charges-entropy diagram."""
    x_rho = charges_point(rho, fam)
    x_sigma = charges_point(sigma, fam)
    d_l = x_rho.L - x_sigma.L
    d_s = x_rho.S - x_sigma.S
    if max(np.max(np.abs(d_l)), abs(d_s)) < 1e-12:
        return ChargesRateSolution(r=1.0, phi_point=x_rho, phi_kind="thermal",
                                   phi_beta=None, collinearity_residual=0.0)

    def margin(t: float) -> float:
        return _charges_margin(fam, x_sigma.L + t * d_l, x_sigma.S + t * d_s)

    if margin(1.0) <= 1e-10:
        return ChargesRateSolution(r=0.0, phi_point=x_rho,
                                   phi_kind="source-degenerate", phi_beta=None,
                                   collinearity_residual=0.0)
    t_lo, t_hi = 1.0, 2.0
    while margin(t_hi) > 0:
        t_lo, t_hi = t_hi, t_hi * 2.0
        if t_hi > 1e12:
            raise RuntimeError("boundary intersection not found")
    for _ in range(80):  # bisection; margin may jump outside the charge region
        mid = (t_lo + t_hi) / 2
        if margin(mid) > 0:
            t_lo = mid
        else:
            t_hi = mid
    t_star = (t_lo + t_hi) / 2
    phi = ChargesPoint(L=x_sigma.L + t_star * d_l,
                       S=max(x_sigma.S + t_star * d_s, 0.0))
    r = 1.0 - 1.0 / t_star
    if phi.S <= 1e-9:
        kind, beta = "pure", None
    else:
        kind = "thermal"
        try:
            beta = gge_solve(fam, phi.L)
        except InfeasibleTargetError:
            beta = None
    res = max(
        float(np.max(np.abs(x_rho.L - (r * x_sigma.L + (1 - r) * phi.L)))),
        abs(x_rho.S - (r * x_sigma.S + (1 - r) * phi.S)),
    )
    return ChargesRateSolution(r=r, phi_point=phi, phi_kind=kind, phi_beta=beta,
                               collinearity_residual=res)
