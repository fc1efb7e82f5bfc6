"""Bound energy, free energy, athermality, and their variational forms.

The primary computation path is the safeguarded Newton root in `gibbs`; the
grid-based minimizations are independent verification routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gibbs import (
    GibbsFamily,
    _boundary_grid,
    _boundary_point,
    boundary_energy,
    boundary_entropy,
    intrinsic_beta,
    log_partition,
    spontaneous_beta,
)
from .operators import DensityMatrix, _trace_product, entropy, expectation

FREE_ENERGY_SNAP = 1e-12


@dataclass(frozen=True)
class EnergeticsReport:
    """Every scalar thermodynamic quantity of a state against one family."""

    energy: float
    entropy: float
    bound_energy: float
    free_energy: float
    intrinsic_beta: float
    athermality: float
    spontaneous_beta: float


def bound_energy(rho: DensityMatrix, fam: GibbsFamily) -> float:
    """Minimum energy over iso-entropic states: the energy of gamma(beta(rho)).

    For a degenerate ground space and S(rho) < ln g0 the minimizer sits in
    the ground subspace and the bound energy is E_min.
    """
    return _bound_energy_at(fam, intrinsic_beta(fam, entropy(rho)))


def _bound_energy_at(fam: GibbsFamily, beta: float) -> float:
    """The bound energy of a state whose intrinsic beta is `beta`."""
    return fam.energy_min if math.isinf(beta) else boundary_energy(fam, beta)


def free_energy(rho: DensityMatrix, fam: GibbsFamily) -> float:
    """F(rho) = E(rho) - B(rho) >= 0; exact zero below 1e-12."""
    return _free_energy_at(rho, fam, intrinsic_beta(fam, entropy(rho)))


def _free_energy_at(rho: DensityMatrix, fam: GibbsFamily, beta: float) -> float:
    """free_energy of rho, given its intrinsic beta."""
    return _snap(expectation(fam.hamiltonian, rho) - _bound_energy_at(fam, beta))


def _snap(x: float) -> float:
    return 0.0 if abs(x) < FREE_ENERGY_SNAP else x


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """D(rho || sigma) = Tr rho (log rho - log sigma), on sigma's kept eigenpairs."""
    w, v = sigma.spectrum, sigma.eigenvectors
    if w.min() <= 0:
        # support check: rho must live inside supp(sigma)
        null = v[:, w <= 1e-14]
        leak = np.linalg.norm(null.conj().T @ rho.entries @ null)
        if leak > 1e-12:
            raise ValueError("support of rho not contained in support of sigma")
        w = np.clip(w, 1e-300, None)
    log_sigma = (v * np.log(w)) @ v.conj().T
    cross = -_trace_product(rho.entries, log_sigma).real
    return float(cross - entropy(rho))


def relative_entropy_check(rho: DensityMatrix, fam: GibbsFamily) -> float:
    """Residual |F(rho) - T(rho) D(rho || gamma(rho))|; expected <= 1e-8.

    D against a Gibbs state is taken spectrally, as beta E - S + ln Z: an
    `eigh` of the dense Gibbs matrix would lose the relative precision of its
    small eigenvalues at large beta."""
    beta = intrinsic_beta(fam, entropy(rho))
    f = _free_energy_at(rho, fam, beta)
    if beta == 0.0:
        # T = inf limit: a max-entropy state has F = 0 and D = 0
        return abs(f)
    if math.isinf(beta):
        raise ValueError("relative_entropy_check needs finite positive intrinsic beta")
    return abs(f - beta_athermality(rho, fam, beta) / beta)


def beta_free_energy(rho: DensityMatrix, fam: GibbsFamily, beta: float) -> float:
    """Extractable work with an infinite beta-bath:
    F_beta(rho) - F_beta(gamma(beta)), with F_beta(x) = E(x) - S(x)/beta."""
    _check_free_energy_beta(beta)
    e_gamma, s_gamma, _ = _boundary_point(fam, beta)
    f_rho = expectation(fam.hamiltonian, rho) - entropy(rho) / beta
    return f_rho - (e_gamma - s_gamma / beta)


def _check_free_energy_beta(beta):
    """beta_free_energy's domain: beta finite and nonzero (elementwise on a grid)."""
    if np.any(beta == 0.0):
        raise ValueError("beta = 0 unsupported (T-form divides by zero)")
    if np.any(np.isinf(beta)):
        raise ValueError("beta_free_energy needs finite beta")


def default_beta_grid(n: int = 2001, lo: float = 1e-3, hi: float = 1e3) -> np.ndarray:
    return np.geomspace(lo, hi, n)


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


def athermality(rho: DensityMatrix, fam: GibbsFamily) -> float:
    """Entropy the system can still absorb at fixed energy:
    S(gamma(beta~(rho))) - S(rho)."""
    beta = spontaneous_beta(fam, expectation(fam.hamiltonian, rho))
    return boundary_entropy(fam, beta) - entropy(rho)


def beta_athermality(rho: DensityMatrix, fam: GibbsFamily, beta: float) -> float:
    """A_beta(rho) = beta E(rho) - S(rho) + ln Z_beta = D(rho || gamma(beta))."""
    e = expectation(fam.hamiltonian, rho)
    return beta * e - entropy(rho) + log_partition(fam, beta)


def symmetric_beta_grid(n: int = 2001, lo: float = 1e-3, hi: float = 1e3) -> np.ndarray:
    """Log-spaced grid over both signs of beta, including 0."""
    half = np.geomspace(lo, hi, (n - 1) // 2)
    return np.concatenate([-half[::-1], [0.0], half])


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


def report(rho: DensityMatrix, fam: GibbsFamily) -> EnergeticsReport:
    """Every EnergeticsReport field, solving for each temperature once."""
    e = expectation(fam.hamiltonian, rho)
    s = entropy(rho)
    beta = intrinsic_beta(fam, s)
    beta_spont = spontaneous_beta(fam, e)
    b = _bound_energy_at(fam, beta)
    return EnergeticsReport(
        energy=e,
        entropy=s,
        bound_energy=b,
        free_energy=_snap(e - b),
        intrinsic_beta=beta,
        athermality=_snap(boundary_entropy(fam, beta_spont) - s),
        spontaneous_beta=beta_spont,
    )
