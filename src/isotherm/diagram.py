"""Energy-entropy diagram geometry and plot-ready CSV export.

The physical region is bounded below by S = 0 (pure states) and above by
the concave thermal curve (E(beta), S(beta)) traced over all real beta.
Free energy reads as horizontal distance to the curve, athermality as
vertical distance, and the tangent line with slope beta has intercept
ln Z_beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energetics import report
from .gibbs import GibbsFamily, _boundary_grid, log_partition
from .operators import DensityMatrix, entropy, expectation


@dataclass(frozen=True)
class DiagramPoint:
    E: float
    S: float


@dataclass(frozen=True)
class BoundarySample:
    betas: np.ndarray
    points: list
    family: GibbsFamily


def state_point(rho: DensityMatrix, fam: GibbsFamily) -> DiagramPoint:
    return DiagramPoint(E=expectation(fam.hamiltonian, rho), S=entropy(rho))


def warped_beta_grid(beta_min: float, beta_max: float, n_points: int) -> np.ndarray:
    """tanh-warped grid concentrating points near beta = 0, where the
    boundary curvature is largest."""
    u = np.linspace(math.tanh(beta_min / 4), math.tanh(beta_max / 4), n_points)
    u = np.clip(u, -1 + 1e-15, 1 - 1e-15)
    grid = 4 * np.arctanh(u)
    grid[0], grid[-1] = beta_min, beta_max
    return grid


def sample_boundary(fam: GibbsFamily, beta_min: float = -20.0, beta_max: float = 20.0,
                    n_points: int = 513) -> BoundarySample:
    if not beta_min < beta_max:
        raise ValueError("beta_min must be below beta_max")
    if n_points < 3:
        raise ValueError("need at least 3 sample points")
    betas = warped_beta_grid(beta_min, beta_max, n_points)
    e, s, _ = _boundary_grid(fam, betas)
    points = [DiagramPoint(E=x, S=y) for x, y in zip(e.tolist(), s.tolist())]
    return BoundarySample(betas=betas, points=points, family=fam)


def tangent_line(fam: GibbsFamily, beta: float) -> tuple[float, float]:
    """Line S = beta E + intercept tangent to the thermal curve; the
    intercept equals ln Z_beta."""
    if math.isinf(beta):
        raise ValueError("tangent_line needs finite beta")
    return beta, log_partition(fam, beta)


@dataclass(frozen=True)
class StateProjection:
    point: DiagramPoint
    free_energy_horizontal: float
    bound_energy_horizontal: float
    athermality_vertical: float
    tangent_beta: float


def project_state(rho: DensityMatrix, fam: GibbsFamily) -> StateProjection:
    """rho on the diagram: F and B are horizontal distances to the thermal
    curve and A the vertical one, and the tangent at the iso-entropic Gibbs
    state has slope the intrinsic beta. The values are energetics.report's."""
    rep = report(rho, fam)
    return StateProjection(
        point=DiagramPoint(E=rep.energy, S=rep.entropy),
        free_energy_horizontal=rep.free_energy,
        bound_energy_horizontal=rep.bound_energy,
        athermality_vertical=rep.athermality,
        tangent_beta=rep.intrinsic_beta,
    )


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        return "0"  # normalize -0.0
    return f"{x:.12g}"


def export_diagram(sample: BoundarySample, states: list, path) -> None:
    """Write the boundary block and labelled state rows as CSV (UTF-8, LF).

    `states` is a list of (label, DensityMatrix) pairs evaluated against the
    sample's family.
    """
    fam = sample.family
    lines = ["beta,E,S"]
    for beta, pt in zip(sample.betas, sample.points):
        lines.append(f"{_fmt(beta)},{_fmt(pt.E)},{_fmt(pt.S)}")
    lines.append("label,E,S,F,B,A,beta_intrinsic,beta_spontaneous")
    for label, rho in states:
        rep = report(rho, fam)
        lines.append(",".join([
            str(label), _fmt(rep.energy), _fmt(rep.entropy),
            _fmt(rep.free_energy), _fmt(rep.bound_energy), _fmt(rep.athermality),
            _fmt(rep.intrinsic_beta), _fmt(rep.spontaneous_beta),
        ]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
