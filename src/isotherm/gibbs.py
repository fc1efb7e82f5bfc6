"""Gibbs family of a Hamiltonian: thermal states, boundary curves, root solvers.

All algebra runs in the eigenbasis, in the gap form: for beta >= 0 every
level enters as its gap g_i = eps_i - eps_0 to the ground level (for
beta < 0, to the top level), so the exponents -beta g_i are <= 0 and no
weight overflows at any beta. The gaps are taken once per family,
exact for a spectrum narrower than its distance from 0, and the exponents
keep every digit of them, where forming -beta eps_i and subtracting the
largest, a plain spectral shift, loses the digits that cancel: on a narrow
spectrum far from 0, most of them. E = eps_0 + <g> stays inside
[E_min, E_max], and S = beta <g> + log1p(rest), Var = <g^2> - <g>^2 and
ln Z = -beta eps_0 + log1p(rest) come from the same weights. Inverse
temperatures are plain floats; the limits beta -> +inf (ground subspace)
and beta -> -inf (top subspace) are encoded as math.inf sentinels rather
than large caps, with S = ln g there, g the degeneracy of the subspace.
The root solvers start from the high-temperature expansions
S = ln d - beta^2 Var0 / 2 and E = mean - beta Var0, Var0 the variance of
the levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .operators import DensityMatrix, HermitianOperator

DEGENERACY_ATOL = 1e-10
BETA_XTOL = 1e-12
ENTROPY_RTOL = 1e-10
BRACKET_CAP = 1e18


class BracketError(ValueError):
    """A monotone residual kept its sign out to BRACKET_CAP: no root to bracket."""


class ConvergenceError(ValueError):
    """A solver ran out of iterations: a root inside a valid bracket
    (`newton_root`) or the charge-polytope simplex (`charges._lp_face`)."""


class _Branch(NamedTuple):
    """One sign of beta in the gap form: `ref` is the most populated level,
    eps_0 for beta >= 0 and eps_max below 0, and `gaps` = eps_i - ref over the
    other levels in ascending order, exact where Sterbenz holds (a spectrum
    narrower than its distance from 0). `powers` stacks 1, g and g^2, so one
    matrix-vector product gives the three sums of the kernel. `limit` is the
    beta -> +-inf state, uniform on the `degeneracy` levels within
    DEGENERACY_ATOL of ref, and `limit_point` its (E, S, Var), S = ln(degeneracy)
    as in intrinsic_beta's floor rule."""

    ref: float
    gaps: np.ndarray
    powers: np.ndarray
    degeneracy: int
    limit: np.ndarray
    limit_point: tuple[float, float, float]


class _Kernel(NamedTuple):
    """The constants of a family's Gibbs kernel: both branches, and the mean
    and variance of the levels (E and Var at beta = 0)."""

    ground: _Branch
    top: _Branch
    mean: float
    var0: float


def _branch(levels: np.ndarray, top: bool) -> _Branch:
    ref = levels[-1] if top else levels[0]
    gaps = (levels[:-1] if top else levels[1:]) - ref
    near = levels >= ref - DEGENERACY_ATOL if top else levels <= ref + DEGENERACY_ATOL
    k = int(np.count_nonzero(near))
    p = near / k
    e = float(np.dot(p, levels))
    dev = levels - e
    point = (e, math.log(k), float(np.dot(p, dev * dev)))
    powers = np.empty((3, gaps.size))
    powers[0], powers[1], powers[2] = 1.0, gaps, gaps * gaps
    for a in (powers, p):  # shared by every call: _populations hands out `p`
        a.setflags(write=False)
    return _Branch(float(ref), powers[1], powers, k, p, point)


@dataclass(frozen=True)
class GibbsFamily:
    """The one-parameter family gamma(beta) = e^(-beta H)/Z of a Hamiltonian;
    `eigenvalues` is the Hamiltonian's own ascending, read-only array. The
    constants of its gap-form kernel are built on first use and then kept."""

    hamiltonian: HermitianOperator
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", self.hamiltonian.eigenvalues)

    @cached_property
    def _kernel(self) -> _Kernel:
        lv = self.eigenvalues
        mean = float(lv.sum()) / self.dim
        dev = lv - mean
        return _Kernel(_branch(lv, top=False), _branch(lv, top=True),
                       mean, float(np.dot(dev, dev)) / self.dim)

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    @property
    def energy_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def energy_max(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def ground_degeneracy(self) -> int:
        return self._kernel.ground.degeneracy


def _gap_weights(fam: GibbsFamily, beta: float) -> tuple[_Branch, np.ndarray, float, float, float]:
    """The gap form of gamma(beta) at finite beta: the branch, the weights
    w = e^(-beta g) <= 1 of the levels besides ref (whose weight is 1), their
    sum `rest`, and the moments <g> and <g^2> of the gaps."""
    br = fam._kernel.ground if beta >= 0 else fam._kernel.top
    w = np.exp(-beta * br.gaps)
    rest, sum_g, sum_g2 = np.dot(br.powers, w).tolist()
    return br, w, rest, sum_g / (1.0 + rest), sum_g2 / (1.0 + rest)


def _populations(fam: GibbsFamily, beta: float) -> tuple[np.ndarray, float]:
    """Populations p of gamma(beta) on the ascending levels, and its entropy
    S = beta <g> + log1p(rest), a sum of two non-negative terms. Sentinel +inf
    (-inf): uniform on the ground (top) subspace."""
    if math.isinf(beta):
        br = fam._kernel.ground if beta > 0 else fam._kernel.top
        return br.limit, br.limit_point[1]
    br, w, rest, mean_gap, _ = _gap_weights(fam, beta)
    w = np.concatenate(([1.0], w) if beta >= 0 else (w, [1.0]))
    return w / (1.0 + rest), beta * mean_gap + math.log1p(rest)


def gibbs_state(fam: GibbsFamily, beta: float) -> DensityMatrix:
    """gamma(beta) = e^(-beta H)/Z; sentinel +-inf gives the uniform mixture
    on the ground/top eigenspace."""
    v = fam.hamiltonian.eigenvectors
    w = _populations(fam, beta)[0]
    return DensityMatrix._from_eigenpairs((v * w) @ v.conj().T, w, v)


def log_partition(fam: GibbsFamily, beta: float) -> float:
    """ln Z_beta = ln sum_i e^(-beta eps_i), in the gap form: -beta ref + log1p(rest)."""
    if math.isinf(beta):
        raise ValueError("log_partition needs finite beta")
    br, _, rest, _, _ = _gap_weights(fam, beta)
    return -beta * br.ref + math.log1p(rest)


def boundary_entropy(fam: GibbsFamily, beta: float) -> float:
    """S(gamma(beta)); decreasing in beta."""
    return _boundary_point(fam, beta)[1]


def boundary_energy(fam: GibbsFamily, beta: float) -> float:
    """E(gamma(beta)); decreasing in beta."""
    return _boundary_point(fam, beta)[0]


def _boundary_point(fam: GibbsFamily, beta: float) -> tuple[float, float, float]:
    """(E, S, Var) of gamma(beta) from one exp pass in the gap form: E = ref + <g>,
    S = beta <g> + log1p(rest) and Var = <g^2> - <g>^2. The slopes are
    dE/dbeta = -Var and dS/dbeta = -beta Var."""
    if math.isinf(beta):
        return (fam._kernel.ground if beta > 0 else fam._kernel.top).limit_point
    br, _, rest, mean_gap, mean_sq = _gap_weights(fam, beta)
    return (br.ref + mean_gap, beta * mean_gap + math.log1p(rest),
            max(mean_sq - mean_gap * mean_gap, 0.0))


def _joint_point(fams: list[GibbsFamily], beta: float) -> tuple[float, float, float]:
    """_boundary_point of the non-interacting sum of `fams`: E, S and Var add up."""
    if len(fams) == 1:
        return _boundary_point(fams[0], beta)
    return tuple(map(sum, zip(*(_boundary_point(f, beta) for f in fams))))


def _boundary_grid(fam: GibbsFamily, betas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E, S and ln Z of gamma(beta) for every beta of a grid, in one (n, d) pass
    of the gap form of _boundary_point, with ln Z = -beta ref + log1p(rest).
    Rows at beta = +-inf hold the sentinel points, with ln Z = nan."""
    betas = np.asarray(betas, dtype=float)
    finite = np.isfinite(betas)
    b = np.where(finite, betas, 0.0)
    ground, top = fam._kernel.ground, fam._kernel.top
    up = (b >= 0)[:, None]
    gaps = np.where(up, ground.gaps, top.gaps)
    ref = np.where(up[:, 0], ground.ref, top.ref)
    w = np.exp(-b[:, None] * gaps)
    rest = w.sum(axis=-1)
    mean_gap = np.sum(w * gaps, axis=-1) / (1.0 + rest)
    log1p_rest = np.log1p(rest)
    e, s = ref + mean_gap, b * mean_gap + log1p_rest
    log_z = np.where(finite, -b * ref + log1p_rest, np.nan)
    for i in np.flatnonzero(~finite):
        e[i], s[i], _ = _boundary_point(fam, betas[i])
    return e, s, log_z


def newton_root(f, lo: float, hi: float, start: float, xtol: float = BETA_XTOL) -> float:
    """Root of a decreasing residual f that returns (f(x), f'(x)), by a
    safeguarded Newton from `start`.

    The caller vouches for f(lo) > 0 > f(hi), where hi = math.inf means no
    upper end is known yet (then start > 0); the ends are not evaluated.
    rtsafe (Numerical Recipes, section 9.4): take the Newton step if it lands
    inside the current bracket and is at most half the previous step, and
    otherwise bisect, or double x while no upper end is known. Returns the
    last point stepped to, unevaluated, once the step or the bracket falls
    below xtol * max(1, |x|). Raises BracketError once x passes BRACKET_CAP,
    and ConvergenceError after as many steps as bisection needs to shrink any
    finite bracket (width < 2**1025) to xtol.
    """
    if math.isinf(hi) and not start > 0:
        raise ValueError(f"an open bracket needs start > 0, got {start}")
    maxiter = 1025 + math.ceil(-math.log2(xtol))
    x, step = start, hi - lo  # the previous step: at first the bracket
    for _ in range(maxiter):
        fx, slope = f(x)
        if fx == 0:
            return x
        if fx > 0:
            lo = x
        else:
            hi = x
        newton = x - fx / slope if slope < 0 else math.nan
        if lo <= newton <= hi and abs(newton - x) <= step / 2:
            nxt = newton
        elif math.isinf(hi):
            nxt = 2.0 * x
            if nxt > BRACKET_CAP:
                raise BracketError(f"residual stays positive up to {BRACKET_CAP:g}")
        else:
            nxt = lo + (hi - lo) / 2
        step, x = abs(nxt - x), nxt
        if min(step, hi - lo) <= xtol * max(1.0, abs(x)):
            return x
    raise ConvergenceError(f"no root to {xtol:g} in [{lo:g}, {hi:g}] after {maxiter} steps")


def intrinsic_beta(fam: GibbsFamily, target_entropy: float) -> float:
    """The beta* >= 0 with S(gamma(beta*)) = target_entropy.

    Returns math.inf when the target entropy is at or below ln g0 (the
    entropy floor of the beta >= 0 branch); the bound energy then is E_min.
    """
    return _joint_intrinsic_beta([fam], target_entropy)


def spontaneous_beta(fam: GibbsFamily, target_energy: float) -> float:
    """The beta~ in R u {+-inf} with E(gamma(beta~)) = target_energy.

    Returns +-inf at the mean energy of the ground (top) subspace and 0.0 at
    the mean energy, each within 1e-10 of the width of the spectrum.
    """
    return _joint_spontaneous_beta([fam], target_energy)


def _joint_intrinsic_beta(fams: list[GibbsFamily], target_entropy: float) -> float:
    """intrinsic_beta of the non-interacting sum of `fams`: S, ln d and ln g0
    add up over the families, and a one-term sum is exact."""
    log_dim = sum(math.log(f.dim) for f in fams)
    if target_entropy < -1e-12 or target_entropy > log_dim + 1e-12:
        raise ValueError(
            f"target entropy {target_entropy} outside [0, ln {math.prod(f.dim for f in fams)}]"
        )
    target = min(max(target_entropy, 0.0), log_dim)
    if log_dim - target <= ENTROPY_RTOL:
        return 0.0
    floor = sum(math.log(f.ground_degeneracy) for f in fams)
    if target <= floor + 1e-12:
        return math.inf

    def resid(b):
        _, s, var = _joint_point(fams, b)
        return s - target, -b * var

    # start where the high-temperature expansion S = ln d - beta^2 Var0 / 2 meets the target
    var0 = sum(f._kernel.var0 for f in fams)
    start = math.sqrt(2.0 * (log_dim - target) / var0) if var0 > 0 else math.inf
    try:
        return newton_root(resid, 0.0, math.inf, start=min(start, BRACKET_CAP))
    except BracketError:
        return math.inf


def _joint_spontaneous_beta(fams: list[GibbsFamily], target_energy: float) -> float:
    """spontaneous_beta of the non-interacting sum of `fams`: E and the energies
    of the levels and limit subspaces add up, and a one-term sum is exact."""
    e_min = sum(f.energy_min for f in fams)
    e_max = sum(f.energy_max for f in fams)
    scale = e_max - e_min
    if scale <= DEGENERACY_ATOL:
        if abs(target_energy - e_min) > 1e-9:
            raise ValueError(f"target energy {target_energy} unattainable for flat spectrum")
        return 0.0
    # a few ulps of the levels too: on a narrow spectrum far from 0, E rounds past an end
    slack = 1e-9 * scale + 4 * math.ulp(max(abs(e_min), abs(e_max)))
    if target_energy < e_min - slack or target_energy > e_max + slack:
        raise ValueError(f"target energy {target_energy} outside [{e_min}, {e_max}]")
    atol = 1e-10 * scale
    kernels = [f._kernel for f in fams]
    # floor/ceiling of the finite-beta branch: mean energy of the limit subspaces
    if target_energy <= sum(k.ground.limit_point[0] for k in kernels) + atol:
        return math.inf
    if target_energy >= sum(k.top.limit_point[0] for k in kernels) - atol:
        return -math.inf
    # the maximally mixed limit, where a root solve alone lands a rounding speck off 0
    mean = sum(k.mean for k in kernels)
    if abs(target_energy - mean) <= atol:
        return 0.0
    sign = 1.0 if target_energy < mean else -1.0  # E falls as beta grows

    def resid(u):  # decreasing in u >= 0, the root's |beta|
        e, _, var = _joint_point(fams, sign * u)
        return sign * (e - target_energy), -var

    # start where the high-temperature expansion E = mean - beta Var0 meets the target
    var0 = sum(k.var0 for k in kernels)
    start = abs(mean - target_energy) / var0 if var0 > 0 else math.inf
    return sign * newton_root(resid, 0.0, math.inf, start=min(start, BRACKET_CAP))
