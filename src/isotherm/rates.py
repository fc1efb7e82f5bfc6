"""Asymptotic interconversion rates via energy-entropy geometry.

The maximal rate r for rho^n -> sigma^m (x) phi^(n-m) puts the filler phi
where the ray x_sigma + t d, d = x_rho - x_sigma, t >= 1, leaves the region
of states: r = 1 - 1/t* = (S(rho) - S(phi)) / (S(sigma) - S(phi)). Both rate
layers find t* by `ray_exit` on (L_1 .. L_q, S) points (L = E here): r = 1
within COINCIDENT_ATOL (max-norm); r = 0 ("source-degenerate", phi_beta the
beta above x_rho, None at S ~ 0) if S, gap = S_max(L) - S or (t_wall - 1)
max|dL| at x_rho is within SOURCE_DEGENERATE_ATOL; else the exit at S = 0
("pure") iff t_pure <= t_wall, through the wall ("thermal") iff S(t_wall) is
at most the maximum entropy there, or on the curve ("thermal"), at t* = 1 +
gap / dS on a vertical ray (max|dL| below COINCIDENT_ATOL: no wall), else at
one root, t* >= 1. Here the wall is closed-form (S = ln g, phi_beta +-inf),
the root in beta is sought from beta~ = spontaneous_beta(E(rho)), and the
gap is ln g along a wall, ln d on a flat spectrum (beta~ +-inf, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .diagram import DiagramPoint, state_point
from .gibbs import GibbsFamily, _boundary_point, boundary_entropy, newton_root, spontaneous_beta
from .operators import DensityMatrix, entropy
from .tolerances import COINCIDENT_ATOL, PURE_SOURCE_ATOL, SOURCE_DEGENERATE_ATOL

if TYPE_CHECKING:
    import numpy as np
    from .charges import ChargesPoint


@dataclass(frozen=True)
class RateSolution:
    r: float
    phi_point: DiagramPoint | ChargesPoint
    phi_kind: str  # "pure" | "thermal" | "source-degenerate"
    phi_beta: float | np.ndarray | None  # a charges rate's is a beta_vec
    collinearity_residual: float


def ray_exit(x_rho: list, x_sigma: list, above, wall, curve, point) -> RateSolution:
    """The exit of the module docstring from above(vertical) -> (gap, beta), wall(d) -> (t_wall,
    face or None), face() -> (S_max, beta), curve(d, t_wall, beta) -> (t*, beta), point(x)."""
    d = [a - b for a, b in zip(x_rho, x_sigma)]
    ds, reach = d[-1], max(map(abs, d[:-1]))
    if max(reach, abs(ds)) < COINCIDENT_ATOL:
        return RateSolution(1.0, point(x_rho), "thermal", None, 0.0)
    gap, beta = above(vertical := reach < COINCIDENT_ATOL)
    t_wall, face = math.inf, None
    if vertical:
        d[:-1] = [0.0] * (len(d) - 1)
    elif min(x_rho[-1], gap) > SOURCE_DEGENERATE_ATOL:
        t_wall, face = wall(d)
    if min(x_rho[-1], gap, (t_wall - 1.0) * reach if face else math.inf) <= SOURCE_DEGENERATE_ATOL:
        return RateSolution(0.0, point(x_rho), "source-degenerate",
                            None if x_rho[-1] <= PURE_SOURCE_ATOL else beta, 0.0)
    if ds < 0 and -x_sigma[-1] / ds <= t_wall:
        t_star, kind, beta = -x_sigma[-1] / ds, "pure", None
    elif face and x_sigma[-1] + t_wall * ds <= (cap := face())[0]:
        t_star, kind, beta = t_wall, "thermal", cap[1]
    else:  # on the curve, straight above x_rho on a vertical ray
        t_star, beta = (1.0 + gap / ds, beta) if vertical else curve(d, t_wall, beta)
        t_star, kind = max(t_star, 1.0), "thermal"
    phi = [a + t_star * b for a, b in zip(x_sigma[:-1], d)] + [max(x_sigma[-1] + t_star * ds, 0.0)]
    r = 1.0 - 1.0 / t_star
    res = max(abs(a - (r * b + (1 - r) * c)) for a, b, c in zip(x_rho, x_sigma, phi))
    return RateSolution(r, point(phi), kind, beta, res)


def conversion_rate(rho: DensityMatrix, sigma: DensityMatrix,
                    fam: GibbsFamily) -> RateSolution:
    """Maximal interconversion rate of rho into sigma under one family."""
    x_rho, x_sigma = state_point(rho, fam), state_point(sigma, fam)

    def above(_vertical):  # a wall or a flat spectrum is one more beta~ (+-inf or 0)
        beta = spontaneous_beta(fam, x_rho.E)
        return boundary_entropy(fam, beta) - x_rho.S, beta

    def wall(d):
        b_wall = -math.copysign(math.inf, d[0])  # +inf (the ground wall) ahead as E falls
        t_wall = ((fam.energy_min if d[0] < 0 else fam.energy_max) - x_sigma.E) / d[0]
        return t_wall, lambda: (boundary_entropy(fam, b_wall), b_wall)

    def curve(d, t_wall, b0):
        de, ds = d
        step = -math.copysign(1.0, de)  # the sign of d(beta) toward the wall ahead
        if math.isinf(b0):
            # by a sentinel the curve is S = ln g to rounding: the ray meets it there while
            # E(t) maps to the sentinel, else further on, past beta = 0 if it stays below ln g
            t_star = (boundary_entropy(fam, b0) - x_sigma.S) / ds if ds > 0 else math.inf
            b0 = spontaneous_beta(fam, x_sigma.E + t_star * de) if t_star < t_wall else 0.0
            if math.isinf(b0):
                return t_star, b0

        def side(u: float) -> tuple[float, float]:  # > 0 while gamma(b) is above the ray
            b = b0 + step * u
            e, s, var = _boundary_point(fam, b)
            return step * (ds * (e - x_rho.E) - de * (s - x_rho.S)), -var * (ds - b * de)

        beta = b0 if side(0.0)[0] <= 0 else b0 + step * newton_root(side, 0.0, math.inf, 1.0)
        e, s, _ = _boundary_point(fam, beta)
        # the ray meets the tangent S = beta E + ln Z there: second order in the root's error
        return (s - x_sigma.S - beta * (e - x_sigma.E)) / (ds - beta * de), beta

    return ray_exit([x_rho.E, x_rho.S], [x_sigma.E, x_sigma.S], above, wall, curve,
                    lambda x: DiagramPoint(*x))


def rate_entropy_only(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Rate under the entropy constraint alone: S(rho)/S(sigma). May exceed
    1 when S(rho) > S(sigma); direction reversal is the caller's business."""
    s_rho, s_sigma = entropy(rho), entropy(sigma)
    if s_sigma <= 0:
        if s_rho > 0:
            raise ValueError("sigma is pure; entropy-only rate undefined")
        return 1.0
    return max(s_rho / s_sigma, 0.0)
