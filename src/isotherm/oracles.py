"""Independent verification routes: the second way to each checked number.

The compute modules reach every temperature by a Newton root on a spectral
kernel. The routes here reach the same numbers another way, or state a law
as an inequality on computed values, and serve as oracles for the tests:

- the variational forms: F(rho) and A(rho) as minima over a beta grid;
- F = T D(rho || gamma(rho)), with D taken spectrally;
- dQ as the quadrature of the intrinsic temperature over the entropy of B;
- mutual equilibrium as a vanishing joint free energy, Lemma 3 and the
  second law for a GGE bath.

No compute module imports this one, and it holds the package's one scipy
import (inside `heat_integral_check`).
"""

from __future__ import annotations

import math

import numpy as np

from .charges import GGEFamily, charges_point, gge_state
from .energetics import _check_free_energy_beta, beta_athermality, free_energy
from .equilibrium import EquilibrationOutcome, joint_family
from .gibbs import GibbsFamily, _boundary_grid, intrinsic_beta
from .operators import DensityMatrix, SubsystemSplit, entropy, expectation, partial_trace
from .processes import ProcessRecord, heat
from .tolerances import (
    BETA_GRID_HI,
    BETA_GRID_LO,
    EMPTY_SEGMENT_ATOL,
    ENTROPY_SLACK,
    EQUILIBRIUM_FREE_ENERGY_ATOL,
    GIBBS_ATOL,
    LAW_SLACK,
    QUAD_TOL,
)


def default_beta_grid(n: int = 2001, lo: float = BETA_GRID_LO,
                      hi: float = BETA_GRID_HI) -> np.ndarray:
    return np.geomspace(lo, hi, n)


def symmetric_beta_grid(n: int = 2001, lo: float = BETA_GRID_LO,
                        hi: float = BETA_GRID_HI) -> np.ndarray:
    """Log-spaced grid over both signs of beta, including 0."""
    half = np.geomspace(lo, hi, (n - 1) // 2)
    return np.concatenate([-half[::-1], [0.0], half])


def variational_free_energy(rho: DensityMatrix, fam: GibbsFamily,
                            beta_grid: np.ndarray | None = None) -> tuple[float, float]:
    """min over the grid of the beta-bath work; the minimum is F(rho) and the
    argmin sits at beta(rho)."""
    if beta_grid is None:
        beta_grid = default_beta_grid()
    beta_grid = np.asarray(beta_grid, dtype=float)
    _check_free_energy_beta(beta_grid)
    e_gamma, s_gamma, _ = _boundary_grid(fam, beta_grid)
    f_rho = expectation(fam.hamiltonian, rho) - entropy(rho) / beta_grid
    vals = f_rho - (e_gamma - s_gamma / beta_grid)
    i = int(np.argmin(vals))
    return float(vals[i]), float(beta_grid[i])


def variational_athermality(rho: DensityMatrix, fam: GibbsFamily,
                            beta_grid: np.ndarray | None = None) -> tuple[float, float]:
    """min_beta A_beta(rho) over the grid; the minimum equals A(rho) and the
    argmin sits at beta~(rho)."""
    if beta_grid is None:
        beta_grid = symmetric_beta_grid()
    beta_grid = np.asarray(beta_grid, dtype=float)
    if np.any(np.isinf(beta_grid)):
        raise ValueError("log_partition needs finite beta")
    log_z = _boundary_grid(fam, beta_grid)[2]
    vals = beta_grid * expectation(fam.hamiltonian, rho) - entropy(rho) + log_z
    i = int(np.argmin(vals))
    return float(vals[i]), float(beta_grid[i])


def relative_entropy_check(rho: DensityMatrix, fam: GibbsFamily) -> float:
    """Residual |F(rho) - T(rho) D(rho || gamma(rho))|; expected <= 1e-8.

    D against a Gibbs state is taken spectrally, as beta E - S + ln Z: an
    `eigh` of the dense Gibbs matrix would lose the relative precision of its
    small eigenvalues at large beta."""
    beta = intrinsic_beta(fam, entropy(rho))
    f = free_energy(rho, fam)
    if beta == 0.0:
        # T = inf limit: a max-entropy state has F = 0 and D = 0
        return abs(f)
    if math.isinf(beta):
        raise ValueError("relative_entropy_check needs finite positive intrinsic beta")
    return abs(f - beta_athermality(rho, fam, beta) / beta)


def intrinsic_temperature_at_entropy(fam: GibbsFamily, s: float) -> float:
    beta = intrinsic_beta(fam, s)
    if beta == 0.0:
        return math.inf
    return 0.0 if math.isinf(beta) else 1.0 / beta


def heat_integral_check(proc: ProcessRecord) -> float:
    """Quadrature residual of dQ = int_{S_B}^{S'_B} T(s) ds with T the
    intrinsic temperature of the thermal state of B at entropy s."""
    from scipy.integrate import quad

    s0 = entropy(proc.marginals("initial")[1])
    s1 = entropy(proc.marginals("final")[1])
    floor = math.log(proc.fam_b.ground_degeneracy)
    if min(s0, s1) < floor - ENTROPY_SLACK:
        raise ValueError("entropy segment crosses the degenerate sentinel region")
    if abs(s1 - s0) < EMPTY_SEGMENT_ATOL:
        return abs(heat(proc))
    val, _ = quad(lambda s: intrinsic_temperature_at_entropy(proc.fam_b, s),
                  s0, s1, epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=200)
    return abs(val - heat(proc))


def is_equilibrium(rho_joint: DensityMatrix, fams: list[GibbsFamily],
                   split: SubsystemSplit) -> tuple[bool, float]:
    """Mutual equilibrium iff the joint free energy (under the Kronecker-sum
    Hamiltonian) vanishes."""
    split.check(rho_joint.dim)
    f = free_energy(rho_joint, joint_family(fams))
    return f <= EQUILIBRIUM_FREE_ENERGY_ATOL, f


def lemma3_check(beta_a: float, beta_b: float, outcome: EquilibrationOutcome) -> bool:
    """The joint temperature of an iso-entropic equilibration of two Gibbs
    inputs lies between the two input temperatures."""
    lo, hi = min(beta_a, beta_b), max(beta_a, beta_b)
    return lo - LAW_SLACK <= outcome.beta_joint <= hi + LAW_SLACK


def second_law_charges_check(initial: DensityMatrix, final: DensityMatrix,
                             split, fam_b: GGEFamily, beta_vec) -> bool:
    """Second law for a GGE bath: sum_k beta_k dL_k^B >= dS_B, and
    for an entropy-preserving global process also >= -dS_A."""
    beta_vec = np.asarray(beta_vec, dtype=float)
    b0 = partial_trace(initial, split, [1])
    b1 = partial_trace(final, split, [1])
    gamma = gge_state(fam_b, beta_vec)
    if np.max(np.abs(b0.entries - gamma.entries)) > GIBBS_ATOL:
        raise ValueError("initial bath is not the stated GGE state")
    a0 = partial_trace(initial, split, [0])
    a1 = partial_trace(final, split, [0])
    d_l = charges_point(b1, fam_b).L - charges_point(b0, fam_b).L
    lhs = float(beta_vec @ d_l)
    d_s_b = entropy(b1) - entropy(b0)
    d_s_a = entropy(a1) - entropy(a0)
    return bool(lhs >= d_s_b - LAW_SLACK and lhs >= -d_s_a - LAW_SLACK)
