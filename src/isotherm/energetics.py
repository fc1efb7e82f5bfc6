"""Bound energy, free energy, athermality and relative entropy.

Every temperature here is a safeguarded Newton root in `gibbs`. The
independent verification routes (the beta-grid minimizations of the
variational forms, and F = T D) live in `oracles`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gibbs import (
    GibbsFamily,
    _boundary_point,
    boundary_energy,
    boundary_entropy,
    intrinsic_beta,
    log_partition,
    spontaneous_beta,
)
from .operators import DensityMatrix, _trace_product, entropy, expectation
from .tolerances import FREE_ENERGY_SNAP, LOG_FLOOR, SUPPORT_ATOL, SUPPORT_LEAK_ATOL


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
    return _snap(expectation(fam.hamiltonian, rho) - bound_energy(rho, fam))


def _snap(x: float) -> float:
    return 0.0 if abs(x) < FREE_ENERGY_SNAP else x


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """D(rho || sigma) = Tr rho (log rho - log sigma), on sigma's kept eigenpairs."""
    w, v = sigma.spectrum, sigma.eigenvectors
    if w.min() <= 0:
        # support check: rho must live inside supp(sigma)
        null = v[:, w <= SUPPORT_ATOL]
        leak = np.linalg.norm(null.conj().T @ rho.entries @ null)
        if leak > SUPPORT_LEAK_ATOL:
            raise ValueError("support of rho not contained in support of sigma")
        w = np.clip(w, LOG_FLOOR, None)
    log_sigma = (v * np.log(w)) @ v.conj().T
    cross = -_trace_product(rho.entries, log_sigma).real
    return float(cross - entropy(rho))


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


def athermality(rho: DensityMatrix, fam: GibbsFamily) -> float:
    """Entropy the system can still absorb at fixed energy:
    S(gamma(beta~(rho))) - S(rho) >= 0; exact zero below 1e-12."""
    beta = spontaneous_beta(fam, expectation(fam.hamiltonian, rho))
    return _snap(boundary_entropy(fam, beta) - entropy(rho))


def beta_athermality(rho: DensityMatrix, fam: GibbsFamily, beta: float) -> float:
    """A_beta(rho) = beta E(rho) - S(rho) + ln Z_beta = D(rho || gamma(beta))."""
    e = expectation(fam.hamiltonian, rho)
    return beta * e - entropy(rho) + log_partition(fam, beta)


def report(rho: DensityMatrix, fam: GibbsFamily) -> EnergeticsReport:
    """Every EnergeticsReport field, from one intrinsic and one spontaneous
    beta: the kept roots of `gibbs`, which bound_energy, free_energy and
    athermality on the same state and family share."""
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
