"""Mutual equilibrium and the two equilibration maps.

Iso-entropic equilibration releases work at constant total entropy
(min-energy principle); iso-energetic equilibration produces entropy at
constant total energy (max-entropy principle). Both treat equilibration as
a state-to-state map over non-interacting subsystems, ending in a product of
local Gibbs states at one common beta. That beta is the intrinsic
(iso-entropic) or spontaneous (iso-energetic) beta of the sum of the
families, solved by the gibbs solvers with the same sentinels: +inf at the
ground-subspace floor, -inf at the top-subspace ceiling, 0 at the maximally
mixed limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .energetics import _bound_energy_at
from .gibbs import (
    GibbsFamily,
    _joint_intrinsic_beta,
    _joint_spontaneous_beta,
    boundary_entropy,
    gibbs_state,
)
from .operators import DensityMatrix, entropy, expectation, kron_sum, tensor


@dataclass(frozen=True)
class EquilibrationOutcome:
    """The end of an equilibration: every reported number comes from
    `beta_joint` alone. The final state, the product of the families' Gibbs
    states at `beta_joint`, is a dense d_1...d_n matrix; it is built on first
    read of `final_state` and then kept."""

    mode: str  # "iso-entropic" | "iso-energetic"
    beta_joint: float
    work_released: float  # iso-entropic: E_initial - E_final
    entropy_produced: float  # iso-energetic: S_final - S_initial
    families: tuple = field(repr=False, compare=False)  # the equilibrated GibbsFamily objects
    degenerate: bool = False  # sentinel beta_joint (+-inf), in either mode

    @cached_property
    def final_state(self) -> DensityMatrix:
        """Product of local Gibbs states at beta_joint."""
        return _product_gibbs(self.families, self.beta_joint)


def joint_family(fams: list[GibbsFamily]) -> GibbsFamily:
    return GibbsFamily(kron_sum(*(f.hamiltonian for f in fams)))


def _totals(pairs, joint_state=None):
    if len(pairs) < 2:
        raise ValueError("equilibration needs at least two subsystems")
    fams = [fam for _, fam in pairs]
    e_total = sum(expectation(fam.hamiltonian, rho) for rho, fam in pairs)
    if joint_state is not None:
        s_total = entropy(joint_state)
    else:
        s_total = sum(entropy(rho) for rho, fam in pairs)
    return fams, e_total, s_total


def _product_gibbs(fams, beta):
    state = gibbs_state(fams[0], beta)
    for fam in fams[1:]:
        state = tensor(state, gibbs_state(fam, beta))
    return state


def equilibrate_isoentropic(pairs, joint_state: DensityMatrix | None = None) -> EquilibrationOutcome:
    """Joint min-energy state at the initial total entropy.

    `pairs` is a list of (state, family) for uncorrelated local inputs; a
    correlated joint input is passed via `joint_state` (its entropy is used
    as the conserved total).
    """
    fams, e_total, s_total = _totals(pairs, joint_state)
    beta = _joint_intrinsic_beta(fams, s_total)
    e_final = sum(_bound_energy_at(fam, beta) for fam in fams)
    return EquilibrationOutcome(
        mode="iso-entropic",
        beta_joint=beta,
        work_released=e_total - e_final,
        entropy_produced=0.0,
        families=tuple(fams),
        degenerate=math.isinf(beta),
    )


def equilibrate_isoenergetic(pairs, joint_state: DensityMatrix | None = None) -> EquilibrationOutcome:
    """Joint max-entropy state at the initial total energy; beta_E may be
    negative (inverted populations)."""
    fams, e_total, s_total = _totals(pairs, joint_state)
    beta = _joint_spontaneous_beta(fams, e_total)
    s_final = sum(boundary_entropy(fam, beta) for fam in fams)
    return EquilibrationOutcome(
        mode="iso-energetic",
        beta_joint=beta,
        work_released=0.0,
        entropy_produced=s_final - s_total,
        families=tuple(fams),
        degenerate=math.isinf(beta),
    )
