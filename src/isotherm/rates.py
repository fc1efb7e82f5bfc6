"""Asymptotic interconversion rates via energy-entropy geometry.

The maximal rate r for rho^n -> sigma^m (x) phi^(n-m) puts the filler state
phi where the ray x_sigma + t (x_rho - x_sigma), t >= 1, leaves the convex
diagram: r = 1 - 1/t* = (S(rho) - S(phi)) / (S(sigma) - S(phi)). As in
`charges.conversion_rate_charges`, with t_wall where E(t) reaches the wall
ahead, the ray exits at S = 0 ("pure") iff t_pure <= t_wall, through the wall
("thermal", phi_beta +-inf) iff S(t_wall) <= ln g of its level, and else on the
curve ("thermal") at the one root in beta of the side of the ray gamma(beta) is
on, sought toward the wall from beta~(rho) = spontaneous_beta(E(rho)). That is
solved once, and also marks a source on the boundary ("source-degenerate").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diagram import DiagramPoint, state_point
from .gibbs import GibbsFamily, _boundary_point, boundary_entropy, newton_root, spontaneous_beta
from .operators import DensityMatrix, entropy
from .tolerances import COINCIDENT_ATOL, PURE_SOURCE_ATOL, SOURCE_DEGENERATE_ATOL


@dataclass(frozen=True)
class RateSolution:
    r: float
    phi_point: DiagramPoint
    phi_kind: str  # "pure" | "thermal" | "source-degenerate"
    phi_beta: float | None
    collinearity_residual: float


def conversion_rate(rho: DensityMatrix, sigma: DensityMatrix,
                    fam: GibbsFamily) -> RateSolution:
    """Maximal interconversion rate of rho into sigma under one family."""
    x_rho = state_point(rho, fam)
    x_sigma = state_point(sigma, fam)
    de, ds = x_rho.E - x_sigma.E, x_rho.S - x_sigma.S
    if math.hypot(de, ds) < COINCIDENT_ATOL:
        return RateSolution(r=1.0, phi_point=x_rho, phi_kind="thermal",
                            phi_beta=None, collinearity_residual=0.0)
    beta = spontaneous_beta(fam, x_rho.E)
    s_cap = boundary_entropy(fam, beta)
    if min(x_rho.S, x_rho.E - fam.energy_min, fam.energy_max - x_rho.E,
           s_cap - x_rho.S) <= SOURCE_DEGENERATE_ATOL:
        # x_rho already sits on the boundary along this ray: nothing to fill
        return RateSolution(r=0.0, phi_point=x_rho, phi_kind="source-degenerate",
                            phi_beta=None if x_rho.S <= PURE_SOURCE_ATOL else beta,
                            collinearity_residual=0.0)
    step = -math.copysign(1.0, de)  # the sign of d(beta) toward the wall ahead
    t_wall = ((fam.energy_min if de < 0 else fam.energy_max) - x_sigma.E) / de if de else math.inf
    if ds < 0 and -x_sigma.S / ds <= t_wall:
        t_star, beta = -x_sigma.S / ds, None
    elif x_sigma.S + t_wall * ds <= boundary_entropy(fam, step * math.inf):
        t_star, beta = t_wall, step * math.inf
    elif math.isinf(beta):
        # by a sentinel the curve is S = ln g to rounding: the ray meets it there while E(t)
        # maps to the sentinel, else further on, past beta = 0 if it stays below ln g
        t_star = (s_cap - x_sigma.S) / ds if ds > 0 else math.inf
        beta = spontaneous_beta(fam, x_sigma.E + t_star * de) if t_star < t_wall else 0.0
    if beta is not None and math.isfinite(beta):
        b0 = beta

        def side(u: float) -> tuple[float, float]:  # > 0 while gamma(b) is above the ray
            b = b0 + step * u
            e, s, var = _boundary_point(fam, b)
            return step * (ds * (e - x_rho.E) - de * (s - x_rho.S)), -var * (ds - b * de)

        beta = b0 if side(0.0)[0] <= 0 else b0 + step * newton_root(side, 0.0, math.inf, 1.0)
        e, s, _ = _boundary_point(fam, beta)
        # the ray meets the tangent S = beta E + ln Z there: second order in the
        # root's error, and no earlier than x_rho itself
        t_star = max((s - x_sigma.S - beta * (e - x_sigma.E)) / (ds - beta * de), 1.0)
    phi = DiagramPoint(x_sigma.E + t_star * de, max(x_sigma.S + t_star * ds, 0.0))
    r = 1.0 - 1.0 / t_star
    res = max(abs(x_rho.E - (r * x_sigma.E + (1 - r) * phi.E)),
              abs(x_rho.S - (r * x_sigma.S + (1 - r) * phi.S)))
    return RateSolution(r=r, phi_point=phi, phi_kind="pure" if beta is None else "thermal",
                        phi_beta=beta, collinearity_residual=res)


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
