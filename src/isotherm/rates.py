"""Asymptotic interconversion rates via energy-entropy geometry.

The maximal rate r for rho^n -> sigma^m (x) phi^(n-m) puts the filler state
phi on the diagram boundary, collinear with x_rho and x_sigma; then
r = (S(rho) - S(phi)) / (S(sigma) - S(phi)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diagram import DiagramPoint, state_point
from .gibbs import GibbsFamily, boundary_entropy, decreasing_root, spontaneous_beta
from .operators import DensityMatrix, entropy

PURE_S_ATOL = 1e-9


@dataclass(frozen=True)
class RateSolution:
    r: float
    phi_point: DiagramPoint
    phi_kind: str  # "pure" | "thermal" | "source-degenerate"
    phi_beta: float | None
    collinearity_residual: float


def _inside_margin(fam: GibbsFamily, e: float, s: float) -> float:
    """Positive when (E, S) lies inside the diagram, negative outside.

    The margin is the smallest of: S itself, the distance to the spectral
    energy range, and the vertical gap to the thermal curve.
    """
    e_min, e_max = fam.energy_min, fam.energy_max
    margin = min(s, e - e_min, e_max - e)
    if margin < 0:
        return margin
    s_cap = boundary_entropy(fam, spontaneous_beta(fam, e))
    return min(margin, s_cap - s)


def _classify(fam: GibbsFamily, pt: DiagramPoint) -> tuple[str, float | None]:
    if pt.S <= PURE_S_ATOL:
        return "pure", None
    return "thermal", spontaneous_beta(fam, pt.E)


def conversion_rate(rho: DensityMatrix, sigma: DensityMatrix,
                    fam: GibbsFamily) -> RateSolution:
    """Maximal interconversion rate of rho into sigma under one family."""
    x_rho = state_point(rho, fam)
    x_sigma = state_point(sigma, fam)
    de, ds = x_rho.E - x_sigma.E, x_rho.S - x_sigma.S
    if math.hypot(de, ds) < 1e-12:
        return RateSolution(r=1.0, phi_point=x_rho, phi_kind="thermal",
                            phi_beta=None, collinearity_residual=0.0)

    def margin(t: float) -> float:
        return _inside_margin(fam, x_sigma.E + t * de, x_sigma.S + t * ds)

    if margin(1.0) <= 1e-12:
        # x_rho already sits on the boundary along this ray: nothing to fill
        kind, beta = _classify(fam, x_rho)
        return RateSolution(r=0.0, phi_point=x_rho, phi_kind="source-degenerate",
                            phi_beta=beta, collinearity_residual=0.0)
    # margin(1) > 0 is known, so the bracket search starts at t = 2
    t_star = decreasing_root(margin, 1.0, 2.0, xtol=1e-13)
    phi = DiagramPoint(x_sigma.E + t_star * de, max(x_sigma.S + t_star * ds, 0.0))
    r = 1.0 - 1.0 / t_star
    kind, beta = _classify(fam, phi)
    res = max(abs(x_rho.E - (r * x_sigma.E + (1 - r) * phi.E)),
              abs(x_rho.S - (r * x_sigma.S + (1 - r) * phi.S)))
    return RateSolution(r=r, phi_point=phi, phi_kind=kind, phi_beta=beta,
                        collinearity_residual=res)


def rate_entropy_only(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Rate under the entropy constraint alone: S(rho)/S(sigma). May exceed
    1 when S(rho) > S(sigma); direction reversal is the caller's business."""
    s_sigma = entropy(sigma)
    s_rho = entropy(rho)
    if s_sigma <= 0:
        if s_rho > 0:
            raise ValueError("sigma is pure; entropy-only rate undefined")
        return 1.0
    return max(s_rho / s_sigma, 0.0)
