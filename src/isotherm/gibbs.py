"""Gibbs family of a Hamiltonian: thermal states, boundary curves, root solvers.

All algebra runs in the eigenbasis with a spectral shift, so |beta| * ||H||
up to ~700 stays finite. Inverse temperatures are plain floats; the limits
beta -> +inf (ground subspace) and beta -> -inf (top subspace) are encoded
as math.inf sentinels rather than large caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import DensityMatrix, HermitianOperator, spectrum_entropy

DEGENERACY_ATOL = 1e-10
BETA_XTOL = 1e-12
ENTROPY_RTOL = 1e-10
BRACKET_CAP = 1e18


class BracketError(ValueError):
    """A monotone residual kept its sign out to BRACKET_CAP: no root to bracket."""


class ConvergenceError(ValueError):
    """A solver ran out of iterations: a root inside a valid bracket
    (`newton_root`) or the charge-polytope simplex (`charges._lp_face`)."""


@dataclass(frozen=True)
class GibbsFamily:
    """The one-parameter family gamma(beta) = e^(-beta H)/Z of a Hamiltonian."""

    hamiltonian: HermitianOperator
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.sort(self.hamiltonian.eigenvalues)
        w.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)

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
        return int(np.sum(self.eigenvalues <= self.eigenvalues[0] + DEGENERACY_ATOL))


def _boltzmann_weights(levels: np.ndarray, beta) -> np.ndarray:
    """Normalized probabilities e^(-beta . levels) / Z, overflow safe.

    `levels` is a spectrum with a scalar beta, or a (q, d) joint spectrum
    with a q-vector beta.
    """
    x = np.dot(-beta, levels)
    x = x - x.max()
    w = np.exp(x)
    return w / w.sum()


def _log_partition(levels: np.ndarray, beta) -> float:
    """ln sum_i e^(-beta . levels_i), with the spectral shift; `levels` and
    `beta` as in _boltzmann_weights."""
    x = np.dot(-beta, levels)
    m = x.max()
    return float(m + np.log(np.sum(np.exp(x - m))))


def _populations(fam: GibbsFamily, beta: float) -> tuple[np.ndarray, float]:
    """Populations p of gamma(beta) on the ascending levels, and S = -sum p ln p:
    -p ln p = p (log1p(rest) - x), x <= 0 the shifted exponents and rest the
    weights besides one largest, so no term cancels where 1 - p_ground rounds
    away. Sentinel +inf (-inf): uniform on the ground (top) subspace."""
    if math.isinf(beta):
        lv = fam.eigenvalues
        idx = lv <= lv[0] + DEGENERACY_ATOL if beta > 0 else lv >= lv[-1] - DEGENERACY_ATOL
        p = idx / idx.sum()
        return p, spectrum_entropy(p)
    x = -beta * fam.eigenvalues
    x -= x[0] if beta >= 0 else x[-1]  # the largest exponent: the levels ascend
    w = np.exp(x)
    rest = float(w[1:].sum() if beta >= 0 else w[:-1].sum())
    p = w / (1.0 + rest)
    return p, float(np.dot(p, -x)) + math.log1p(rest)


def gibbs_state(fam: GibbsFamily, beta: float) -> DensityMatrix:
    """gamma(beta) = e^(-beta H)/Z; sentinel +-inf gives the uniform mixture
    on the ground/top eigenspace."""
    h = fam.hamiltonian
    order = np.argsort(h.eigenvalues)
    v = h.eigenvectors[:, order]
    w = _populations(fam, beta)[0]
    return DensityMatrix._from_eigenpairs((v * w) @ v.conj().T, w, v)


def log_partition(fam: GibbsFamily, beta: float) -> float:
    """ln Z_beta = ln sum_i e^(-beta eps_i), computed with spectral shift."""
    if math.isinf(beta):
        raise ValueError("log_partition needs finite beta")
    return _log_partition(fam.eigenvalues, beta)


def boundary_entropy(fam: GibbsFamily, beta: float) -> float:
    """S(gamma(beta)); decreasing in beta."""
    return _boundary_point(fam, beta)[1]


def boundary_energy(fam: GibbsFamily, beta: float) -> float:
    """E(gamma(beta)); decreasing in beta."""
    return _boundary_point(fam, beta)[0]


def _boundary_point(fam: GibbsFamily, beta: float) -> tuple[float, float, float]:
    """(E, S, Var) of gamma(beta) from one exp pass: the slopes are dE/dbeta = -Var
    and dS/dbeta = -beta Var."""
    p, s = _populations(fam, beta)
    e = float(np.dot(p, fam.eigenvalues))
    dev = fam.eigenvalues - e
    return e, s, float(np.dot(p, dev * dev))


def _joint_point(fams: list[GibbsFamily], beta: float) -> tuple[float, float, float]:
    """_boundary_point of the non-interacting sum of `fams`: E, S and Var add up."""
    return tuple(map(sum, zip(*(_boundary_point(f, beta) for f in fams))))


def _boundary_grid(fam: GibbsFamily, betas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E, S and ln Z of gamma(beta) for every beta of a grid, in one (n, d) pass:
    _boundary_point and log_partition row by row, to rounding, with 0 log 0 = 0.
    Rows at beta = +-inf hold the sentinel states of _populations, with ln Z = nan."""
    betas = np.asarray(betas, dtype=float)
    finite = np.isfinite(betas)
    x = np.multiply.outer(-np.where(finite, betas, 0.0), fam.eigenvalues)
    m = x.max(axis=-1, keepdims=True)
    w = np.exp(x - m)
    z = w.sum(axis=-1, keepdims=True)
    w /= z
    log_z = np.where(finite, m[:, 0] + np.log(z[:, 0]), np.nan)
    for i in np.flatnonzero(~finite):
        w[i] = _populations(fam, betas[i])[0]
    s = -np.sum(w * np.log(np.where(w > 0, w, 1.0)), axis=-1)
    return w @ fam.eigenvalues, s, log_z


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

    try:
        return newton_root(resid, 0.0, math.inf, start=1.0)
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
    # floor/ceiling of the finite-beta branch: mean energy of the limit subspaces
    if target_energy <= sum(boundary_energy(f, math.inf) for f in fams) + atol:
        return math.inf
    if target_energy >= sum(boundary_energy(f, -math.inf) for f in fams) - atol:
        return -math.inf
    # the maximally mixed limit, where a root solve alone lands a rounding speck off 0
    mean = sum(float(f.eigenvalues.sum()) / f.dim for f in fams)
    if abs(target_energy - mean) <= atol:
        return 0.0
    sign = 1.0 if target_energy < mean else -1.0  # E falls as beta grows

    def resid(u):  # decreasing in u >= 0, the root's |beta|
        e, _, var = _joint_point(fams, sign * u)
        return sign * (e - target_energy), -var

    return sign * newton_root(resid, 0.0, math.inf, start=1.0)
