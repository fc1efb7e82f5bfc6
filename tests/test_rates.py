import importlib.util
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from isotherm import rates
from isotherm.charges import NEWTON_TOL, ChargeSet, GGEFamily, conversion_rate_charges
from isotherm.diagram import state_point
from isotherm.energetics import report
from isotherm.gibbs import (
    GibbsFamily,
    boundary_entropy,
    gibbs_state,
    spontaneous_beta,
)
from isotherm.operators import (
    DensityMatrix,
    HermitianOperator,
    entropy,
    haar_unitary,
    random_density,
    random_hamiltonian,
)
from isotherm.rates import conversion_rate, rate_entropy_only

# frozen oracle (2x2 line intersection): source with eigenvalues (0.9, 0.1)
# rotated off-diagonal to E = 0.3, target = maximally mixed, gap-1 qubit;
# the filler is pure, so r = S(rho)/S(sigma) = H2(0.1)/ln 2
RATE_FIXTURE_R = 0.4689955935892812
RATE_FIXTURE_PHI_E = 0.12335529124535183

# degenerate qutrit diag(0, 0, 1): rho = diag(0.6, 0.4 - 1e-11, 1e-11) lies
# 1e-11 above the ground subspace's mean energy, far past the rounding of E, so
# its beta~ is finite; the ray from sigma = diag(0.99, 0.01, 0) meets the curve
# there. The pins are 50-digit roots from the states' float (E, S)
# (`mp_ray_curve_rate`); its mirror on diag(0, 1, 1) has the same r
SENTINEL_EDGE_BETA_TILDE = 24.6352888424
SENTINEL_EDGE_R = 0.0316026856222406
SENTINEL_EDGE_PHI_BETA = 24.6031760151850
MIRROR_EDGE_PHI_BETA = -24.6031759324446

# a ground pair split by 8e-11 < DEGENERACY_ATOL is one limit subspace, with mean
# energy 4e-11: rho = diag(0.6, 0.4 - 6e-12, 6e-12) at E = 3.8e-11 lies below
# it, a sentinel beta~ = +inf that remains
SPLIT_GROUND = [0.0, 8e-11, 1.0]
SPLIT_GROUND_RHO = [0.6, 0.4 - 6e-12, 6e-12]


def rotated_qubit_source():
    s3 = math.sqrt(3) * 0.2
    return DensityMatrix(np.array([[0.7, -s3], [-s3, 0.3]]))


def margin_rate(rho, sigma, fam):
    """The rate route that the closed-form exits replaced, kept as an oracle:
    a root in t of the smallest of four inside margins (S, the distances to
    E_min and E_max, and the gap below the curve, each gap a spontaneous_beta
    solve at E(t)), with the exit classified after the fact. A vertical ray
    (|dE| < 1e-12) runs along E = E(rho) and meets no wall, so the wall
    margins do not count on it. Returns (r, phi_kind, phi_beta)."""
    x_rho, x_sigma = state_point(rho, fam), state_point(sigma, fam)
    de, ds = x_rho.E - x_sigma.E, x_rho.S - x_sigma.S
    if math.hypot(de, ds) < 1e-12:
        return 1.0, "thermal", None
    walls = abs(de) >= 1e-12

    def inside_margin(e, s):
        margin = min(s, e - fam.energy_min, fam.energy_max - e) if walls else s
        if margin < 0:
            return margin
        return min(margin, boundary_entropy(fam, spontaneous_beta(fam, e)) - s)

    def classify(e, s):
        return ("pure", None) if s <= 1e-9 else ("thermal", spontaneous_beta(fam, e))

    if inside_margin(x_rho.E, x_rho.S) <= 1e-12:
        return 0.0, "source-degenerate", classify(x_rho.E, x_rho.S)[1]

    def margin(t):
        return inside_margin(x_sigma.E + t * de, x_sigma.S + t * ds)

    hi = 2.0
    while margin(hi) > 0:  # the ray leaves the bounded diagram: grow the bracket to it
        hi *= 2.0
    t_star = brentq(margin, 1.0, hi, xtol=1e-13)
    kind, beta = classify(x_sigma.E + t_star * de, max(x_sigma.S + t_star * ds, 0.0))
    return 1.0 - 1.0 / t_star, kind, beta


def assert_matches_margin_rate(rho, sigma, fam):
    """The same phi_kind, the same sentinel (or None) or phi_beta within
    1e-10 max(1, |beta|) (both routes solve beta to an absolute 1e-12), and
    r within 1e-11."""
    sol = conversion_rate(rho, sigma, fam)
    r, kind, beta = margin_rate(rho, sigma, fam)
    assert sol.phi_kind == kind
    if beta is None or sol.phi_beta is None or math.isinf(beta) or math.isinf(sol.phi_beta):
        assert sol.phi_beta == beta
    else:
        assert sol.phi_beta == pytest.approx(beta, rel=1e-10, abs=1e-10)
    assert sol.r == pytest.approx(r, abs=1e-11)
    return sol


def report_pool(seed):
    """The (family, rho, sigma) of the benchmark's state_report inputs for
    `seed`, drawn by bench/workloads.py itself."""
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look the module up
    spec.loader.exec_module(workloads)
    return [(GibbsFamily(HermitianOperator(inp.h)), DensityMatrix(inp.rho),
             DensityMatrix(inp.sigma))
            for inp in workloads._report_inputs(np.random.default_rng(seed))]


def mp_curve_point(levels, b):
    """(E, S) of gamma(b) on mpmath levels, at the working precision."""
    w = [mpmath.exp(-b * (x - levels[0])) for x in levels]
    p = [wi / mpmath.fsum(w) for wi in w]
    return (mpmath.fsum(pi * x for pi, x in zip(p, levels)),
            -mpmath.fsum(pi * mpmath.log(pi) for pi in p if pi > 0))


def mp_bisect(f, lo, hi):
    """A root of f in [lo, hi], where f changes sign, bisected to the working precision."""
    positive = f(lo) > 0
    for _ in range(mpmath.mp.prec + 64):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if (f(mid) > 0) == positive else (lo, mid)
    return (lo + hi) / 2


def mp_ray_curve_rate(fam, rho, sigma, beta, dps=50):
    """(r, phi_beta) from a dps-digit bisection in beta of the side of the ray
    that gamma(beta) lies on, bracketed around `beta`, taking x_rho and x_sigma
    as exact."""
    with mpmath.workdps(dps):
        levels = [mpmath.mpf(float(x)) for x in fam.eigenvalues]
        e_r, s_r, e_s, s_s = (mpmath.mpf(x) for pt in (state_point(rho, fam),
                                                       state_point(sigma, fam))
                              for x in (pt.E, pt.S))
        de, ds = e_r - e_s, s_r - s_s

        def side(b):
            e, s = mp_curve_point(levels, b)
            return de * (s - s_r) - ds * (e - e_r)

        h = mpmath.mpf(1e-6) * max(1, abs(beta))
        while side(beta - h) * side(beta + h) > 0:
            h *= 2
        b = mp_bisect(side, beta - h, beta + h)
        e, s = mp_curve_point(levels, b)
        t_star = ((e - e_s) * de + (s - s_s) * ds) / (de * de + ds * ds)
        assert t_star > 1
        return float(1 - 1 / t_star), float(b)


class TestConversionRate:
    def test_qubit_fixture(self, qubit):
        rho = rotated_qubit_source()
        sigma = DensityMatrix.maximally_mixed(2)
        sol = conversion_rate(rho, sigma, qubit)
        assert sol.r == pytest.approx(RATE_FIXTURE_R, abs=1e-9)
        assert sol.phi_kind == "pure"
        assert sol.phi_point.E == pytest.approx(RATE_FIXTURE_PHI_E, abs=1e-8)
        assert sol.collinearity_residual <= 1e-8

    def test_identical_points_rate_one(self, qubit, rng):
        rho = random_density(2, rng)
        sol = conversion_rate(rho, rho, qubit)
        assert sol.r == 1.0
        assert sol.collinearity_residual == 0.0

    def test_boundary_source_is_degenerate(self, qubit):
        # a thermal source on the ray toward an interior target has no slack
        rho = gibbs_state(qubit, 2.0)
        sigma = DensityMatrix.diagonal([0.55, 0.45])
        sol = conversion_rate(rho, sigma, qubit)
        assert (sol.phi_kind, sol.r, sol.phi_beta) == ("source-degenerate", 0.0, 2.0)
        multi = conversion_rate_charges(rho, sigma, GGEFamily(ChargeSet((qubit.hamiltonian,))))
        assert (multi.phi_kind, multi.r) == ("source-degenerate", 0.0)

    def test_collinearity_on_random_pairs(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            fam = GibbsFamily(random_hamiltonian(d, rng))
            rho = random_density(d, rng)
            sigma = random_density(d, rng)
            sol = conversion_rate(rho, sigma, fam)
            if sol.phi_kind == "source-degenerate":
                continue
            assert sol.collinearity_residual <= 1e-8
            assert 0.0 <= sol.r <= 1.0 + 1e-12

    def test_filler_on_boundary(self, rng):
        for _ in range(20):
            fam = GibbsFamily(random_hamiltonian(3, rng))
            sol = conversion_rate(random_density(3, rng), random_density(3, rng), fam)
            if sol.phi_kind == "thermal":
                s_cap = boundary_entropy(fam, spontaneous_beta(fam, sol.phi_point.E))
                assert sol.phi_point.S == pytest.approx(s_cap, abs=1e-6)
            elif sol.phi_kind == "pure":
                assert sol.phi_point.S <= 1e-9

    def test_pure_filler_matches_entropy_ratio(self, qubit):
        # when phi is pure the rate collapses to S(rho)/S(sigma)
        rho = rotated_qubit_source()
        sigma = DensityMatrix.maximally_mixed(2)
        sol = conversion_rate(rho, sigma, qubit)
        assert sol.phi_kind == "pure"
        assert sol.r == pytest.approx(rate_entropy_only(rho, sigma), abs=1e-8)

    def test_continuity_in_the_source(self, qubit):
        # small moves of the source move the rate a little
        sigma = DensityMatrix.diagonal([0.05, 0.95])
        prev = None
        for eps in np.linspace(0.0, 0.02, 8):
            rho = DensityMatrix.diagonal([0.3 + eps, 0.7 - eps])
            r = conversion_rate(rho, sigma, qubit).r
            if prev is not None:
                assert abs(r - prev) < 0.05
            prev = r

    def test_unbracketed_boundary_is_a_value_error(self, qutrit, monkeypatch):
        # a curve exit whose thermal curve never crosses the ray: the bracket
        # hits its cap
        rho = DensityMatrix.diagonal([0.25, 0.45, 0.3])
        sigma = DensityMatrix.diagonal([0.7, 0.2, 0.1])
        assert conversion_rate(rho, sigma, qutrit).phi_kind == "thermal"
        x_rho = state_point(rho, qutrit)
        monkeypatch.setattr(rates, "_boundary_point",
                            lambda fam, beta: (x_rho.E, x_rho.S + 1.0, 0.0))
        with pytest.raises(ValueError):
            conversion_rate(rho, sigma, qutrit)


class TestMarginOracle:
    """The closed-form exits and the one root in beta against margin_rate."""

    @pytest.mark.parametrize("seed", [7, 8])
    def test_benchmark_pool(self, seed):
        for fam, rho, sigma in report_pool(seed):
            assert_matches_margin_rate(rho, sigma, fam)

    def test_random_pairs(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 9))
            fam = GibbsFamily(random_hamiltonian(d, rng))
            rho, sigma = (random_density(d, rng, rank=int(rng.integers(1, d + 1)))
                          for _ in range(2))
            assert_matches_margin_rate(rho, sigma, fam)

    def test_integer_degenerate_pairs(self, rng):
        exits = set()
        for _ in range(150):
            d = int(rng.integers(2, 7))
            unit = float(rng.choice([0.01, 1.0, 100.0]))
            fam = GibbsFamily(HermitianOperator.diagonal(unit * rng.integers(0, 3, d)))
            rho, sigma = (random_density(d, rng, rank=int(rng.integers(1, d + 1)))
                          for _ in range(2))
            sol = assert_matches_margin_rate(rho, sigma, fam)
            exits.add("wall" if sol.phi_beta is not None and math.isinf(sol.phi_beta)
                      else sol.phi_kind)
        assert exits == {"pure", "wall", "thermal", "source-degenerate"}


def h2(*p):
    return -sum(x * math.log(x) for x in p if x > 0)


class TestWallRunningRays:
    """Rays with dE = 0 along an energy wall or on a flat spectrum stay in the
    diagram up to S = 0 or straight up to the curve point above x_rho: the
    scalar layer gives the closed form to 1e-12, and the charges layer the
    same exit within test_q1_reduction's tolerances (1e-12 on pure exits and
    at beta = 0, 1e-8 where the filler's beta is a sentinel)."""

    CASES = {
        # flat qubit: phi is pure, r = S(rho)/S(sigma)
        "flat-qubit": ([1.0, 1.0], [0.9, 0.1], [0.5, 0.5], "pure", None,
                       h2(0.9, 0.1) / math.log(2)),
        # along the ground wall E = 1 of diag(1, 1, 2), up to its top at S = ln 2
        "ground-wall": ([1.0, 1.0, 2.0], [0.7, 0.3, 0.0], [0.95, 0.05, 0.0], "thermal",
                        math.inf, (math.log(2) - h2(0.7, 0.3)) / (math.log(2) - h2(0.95, 0.05))),
        "top-wall": ([0.0, 1.0, 1.0], [0.0, 0.3, 0.7], [0.0, 0.05, 0.95], "thermal", -math.inf,
                     (math.log(2) - h2(0.7, 0.3)) / (math.log(2) - h2(0.95, 0.05))),
        # flat qutrit, entropy rising to ln 3
        "flat-qutrit": ([2.0, 2.0, 2.0], [0.4, 0.3, 0.3], [0.9, 0.05, 0.05], "thermal", 0.0,
                        (math.log(3) - h2(0.4, 0.3, 0.3)) / (math.log(3) - h2(0.9, 0.05, 0.05))),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_both_layers_take_the_closed_form(self, name):
        levels, p_rho, p_sigma, kind, beta, r = self.CASES[name]
        h = HermitianOperator.diagonal(levels)
        rho, sigma = DensityMatrix.diagonal(p_rho), DensityMatrix.diagonal(p_sigma)
        single = conversion_rate(rho, sigma, GibbsFamily(h))
        assert (single.phi_kind, single.phi_beta) == (kind, beta)
        assert single.r == pytest.approx(r, abs=1e-12)
        if kind == "thermal":
            s_phi = math.log(2) if math.isinf(beta) else math.log(3)
            assert single.phi_point.S == pytest.approx(s_phi, abs=1e-15)
        multi = conversion_rate_charges(rho, sigma, GGEFamily(ChargeSet((h,))))
        assert multi.phi_kind == kind
        tol = 1e-8 if beta is not None and math.isinf(beta) else 1e-12
        assert multi.r == pytest.approx(single.r, abs=tol)
        if beta is not None and math.isinf(beta):  # up a wall: the face's limit, as a beta_vec
            assert multi.phi_beta.tolist() == [beta]


class TestSentinelEdges:
    def test_ground_sentinel_edge(self, degenerate_qutrit):
        rho = DensityMatrix.diagonal([0.6, 0.4 - 1e-11, 1e-11])
        sigma = DensityMatrix.diagonal([0.99, 0.01, 0.0])
        energy = state_point(rho, degenerate_qutrit).E
        with mpmath.workdps(50):
            levels = [mpmath.mpf(float(x)) for x in degenerate_qutrit.eigenvalues]
            beta_tilde = float(mp_bisect(lambda b: mp_curve_point(levels, b)[0] - energy,
                                         mpmath.mpf(1), mpmath.mpf(100)))
        assert beta_tilde == pytest.approx(SENTINEL_EDGE_BETA_TILDE, rel=1e-11)
        assert spontaneous_beta(degenerate_qutrit, energy) == pytest.approx(beta_tilde, rel=1e-10)
        sol = conversion_rate(rho, sigma, degenerate_qutrit)
        r, beta = mp_ray_curve_rate(degenerate_qutrit, rho, sigma, sol.phi_beta)
        assert r == pytest.approx(SENTINEL_EDGE_R, abs=1e-15)
        assert beta == pytest.approx(SENTINEL_EDGE_PHI_BETA, rel=1e-13)
        assert sol.phi_kind == "thermal"
        assert sol.r == pytest.approx(r, abs=1e-12)
        assert sol.phi_beta == pytest.approx(beta, rel=1e-10)
        with mpmath.workdps(50):
            s_phi = float(mp_curve_point(levels, mpmath.mpf(beta))[1])
        assert sol.phi_point.S == pytest.approx(s_phi, abs=1e-15)

    def test_top_sentinel_mirror(self):
        # r hardly moves with beta there: the float root lands 4e-8 off relative, r 2e-15
        fam = GibbsFamily(HermitianOperator.diagonal([0.0, 1.0, 1.0]))
        rho = DensityMatrix.diagonal([1e-11, 0.4 - 1e-11, 0.6])
        sigma = DensityMatrix.diagonal([0.0, 0.01, 0.99])
        sol = conversion_rate(rho, sigma, fam)
        r, beta = mp_ray_curve_rate(fam, rho, sigma, sol.phi_beta)
        assert r == pytest.approx(SENTINEL_EDGE_R, abs=1e-15)
        assert beta == pytest.approx(MIRROR_EDGE_PHI_BETA, rel=1e-13)
        assert sol.phi_kind == "thermal"
        assert sol.r == pytest.approx(r, abs=1e-12)
        assert sol.phi_beta == pytest.approx(beta, rel=1e-7)

    def test_rotated_narrow_ground_state(self):
        # the pure ground state of a narrow qubit in a Haar basis: Tr(H rho)
        # rounds 8 ulps below E_min, and is still the ground sentinel
        fam, rho, _ = rate_case([3, 3], 1e-6, 0.162868102685084, True, [0.0, 0.0],
                                [1.0, 0.0], 3, "ground")
        assert state_point(rho, fam).E < fam.energy_min
        rep = report(rho, fam)
        assert (rep.spontaneous_beta, rep.athermality) == (math.inf, 0.0)
        sol = conversion_rate(rho, DensityMatrix.maximally_mixed(2), fam)
        assert (sol.r, sol.phi_kind) == (0.0, "source-degenerate")

    def test_ray_meeting_the_sentinel_curve(self):
        # from a sentinel beta~ = +inf on a ground pair split by 1e-11, the ray
        # reaches S = ln 2 while E(t) still maps to +inf: the exit is there
        fam = GibbsFamily(HermitianOperator.diagonal([0.0, 1e-11, 1.0]))
        rho = DensityMatrix.diagonal([0.6, 0.4, 0.0])
        sigma = DensityMatrix.diagonal([0.65, 0.35 - 2.5e-12, 2.5e-12])
        assert spontaneous_beta(fam, state_point(rho, fam).E) == math.inf
        sol = assert_matches_margin_rate(rho, sigma, fam)
        assert (sol.phi_kind, sol.phi_beta) == ("thermal", math.inf)
        assert sol.r == pytest.approx(0.440596826821, abs=1e-12)

    def test_ray_leaving_the_sentinel_band(self):
        # from the sentinel rho of SPLIT_GROUND, a slowly rising ray has left
        # the ground's mean energy when S reaches ln 2: a finite exit, sought
        # from beta~ there
        fam = GibbsFamily(HermitianOperator.diagonal(SPLIT_GROUND))
        rho = DensityMatrix.diagonal(SPLIT_GROUND_RHO)
        sigma = DensityMatrix.diagonal([0.6, 0.4 - 6e-13, 6e-13])
        assert spontaneous_beta(fam, state_point(rho, fam).E) == math.inf
        sol = assert_matches_margin_rate(rho, sigma, fam)
        assert sol.phi_kind == "thermal" and math.isfinite(sol.phi_beta)

    @pytest.mark.parametrize("excess", [0.0, 3e-12])
    def test_level_or_falling_ray_from_the_sentinel_band(self, excess):
        # sigma = diag(p, 1 - p, 0) with S(sigma) = S(rho) + excess, from the
        # sentinel rho of SPLIT_GROUND: the ray never rises to ln 2, misses S = 0
        # and the wall, and meets the curve at beta < 0, sought from beta = 0
        fam = GibbsFamily(HermitianOperator.diagonal(SPLIT_GROUND))
        rho = DensityMatrix.diagonal(SPLIT_GROUND_RHO)
        assert spontaneous_beta(fam, state_point(rho, fam).E) == math.inf
        p = brentq(lambda p: entropy(DensityMatrix.diagonal([p, 1 - p, 0.0]))
                   - entropy(rho) - excess, 0.5, 0.7, xtol=1e-16)
        sol = assert_matches_margin_rate(rho, DensityMatrix.diagonal([p, 1 - p, 0.0]), fam)
        assert sol.phi_kind == "thermal" and sol.phi_beta < 0

    @pytest.mark.parametrize("pops", [([0.25, 0.5, 0.25], [0.45, 0.1, 0.45]),
                                      ([0.3, 0.4, 0.3], [0.4, 0.2, 0.4]),
                                      ([0.2, 0.5, 0.3], [0.4, 0.1, 0.5])])
    def test_vertical_rays(self, qutrit, pops):
        # E(rho) = E(sigma), up to the rounding of a phase rotation: the curve
        # point above x_rho is the exit, at the root's u = 0 to rounding
        rng = np.random.default_rng(3)
        sigma = DensityMatrix.diagonal(pops[1])
        for _ in range(4):
            phases = np.exp(1j * rng.uniform(0.0, 2 * math.pi, 3))
            rho = DensityMatrix(np.outer(phases, phases.conj()) * np.diag(pops[0]))
            assert_matches_margin_rate(rho, sigma, qutrit)


# curve exits on integer spectra: (levels, unit, populations of rho and sigma)
MP_CURVE_EXITS = [
    ([0, 0, 1, 2], 100.0, [0.3, 0.25, 0.3, 0.15], [0.1, 0.2, 0.3, 0.4]),
    ([0, 1, 1], 100.0, [0.5, 0.3, 0.2], [0.2, 0.5, 0.3]),
    ([0, 0, 2, 2], 100.0, [0.2, 0.3, 0.4, 0.1], [0.4, 0.4, 0.1, 0.1]),
    ([0, 1, 1, 2, 2], 100.0, [0.1, 0.2, 0.2, 0.25, 0.25], [0.3, 0.3, 0.2, 0.1, 0.1]),
    ([0, 0, 1], 1.0, [0.4, 0.2, 0.4], [0.5, 0.45, 0.05]),
    ([0, 1, 2], 1.0, [0.25, 0.45, 0.3], [0.7, 0.2, 0.1]),
    ([0, 1, 1, 3], 1.0, [0.4, 0.2, 0.3, 0.1], [0.1, 0.3, 0.2, 0.4]),
    ([0, 2, 2], 0.01, [0.2, 0.35, 0.45], [0.5, 0.3, 0.2]),
    ([0, 0, 1, 1], 0.01, [0.3, 0.2, 0.25, 0.25], [0.45, 0.45, 0.05, 0.05]),
    ([0, 1, 2, 2], 0.01, [0.5, 0.3, 0.1, 0.1], [0.1, 0.1, 0.4, 0.4]),
]


@pytest.mark.parametrize("levels,unit,p_rho,p_sigma", MP_CURVE_EXITS)
def test_curve_exit_against_mpmath(levels, unit, p_rho, p_sigma):
    fam = GibbsFamily(HermitianOperator.diagonal(unit * np.array(levels, dtype=float)))
    rho, sigma = DensityMatrix.diagonal(p_rho), DensityMatrix.diagonal(p_sigma)
    sol = conversion_rate(rho, sigma, fam)
    assert sol.phi_kind == "thermal" and math.isfinite(sol.phi_beta)
    assert sol.r == pytest.approx(mp_ray_curve_rate(fam, rho, sigma, sol.phi_beta)[0], abs=1e-11)


def rate_case(levels, split, unit, rotate, beta_norms, weights, seed, end=None):
    """A family unit * (levels + split * index), in a Haar basis if `rotate`,
    and two states (1 - w) gamma(b / ||H||) + w * (a random state), where
    ||H|| is the width of the spectrum; on a flat spectrum every gamma is I/d.
    With `end` ("ground" or "top") both states live on that end level's
    degenerate subspace, where every gamma is uniform, so the ray runs along
    the wall."""
    rng = np.random.default_rng(seed)
    h = unit * (np.array(levels, dtype=float) + split * np.arange(len(levels)))
    u = haar_unitary(len(levels), rng) if rotate else np.eye(len(levels))
    fam = GibbsFamily(HermitianOperator((u * h) @ u.conj().T))
    if end is not None:
        v = u[:, h == (h.min() if end == "ground" else h.max())]
        g = v.shape[1]
        rho, sigma = (DensityMatrix(v @ ((1 - w) * np.eye(g) / g
                                         + w * random_density(g, rng).entries) @ v.conj().T)
                      for w in weights)
        return fam, rho, sigma
    width = fam.energy_max - fam.energy_min if np.ptp(h) else math.inf
    rho, sigma = (DensityMatrix((1 - w) * gibbs_state(fam, b / width).entries
                                + w * random_density(len(levels), rng).entries)
                  for b, w in zip(beta_norms, weights))
    return fam, rho, sigma


RATE_CASES = dict(
    levels=st.lists(st.integers(0, 4), min_size=2, max_size=5),
    split=st.one_of(st.just(0.0), st.floats(1e-6, 1e-3)),
    unit=st.floats(-2.0, 2.0).map(lambda x: 10.0 ** x),
    rotate=st.booleans(),
    beta_norms=st.lists(st.floats(-700.0, 700.0), min_size=2, max_size=2),
    weights=st.lists(st.sampled_from([0.0, 1e-6, 1e-3, 0.1, 0.5, 1.0]),
                     min_size=2, max_size=2),
    seed=st.integers(0, 2**32 - 1),
    end=st.sampled_from([None, "ground", "top"]),
)
SENTINEL_EDGE_CASE = dict(levels=[0, 0, 1], split=0.0, unit=1.0, rotate=False,
                          beta_norms=[700.0, 0.0], weights=[1e-6, 0.5], seed=0, end=None)


class TestRateProperties:
    """Degenerate and near-degenerate spectra, states up to |beta| ||H|| = 700."""

    @settings(max_examples=150, deadline=None)
    @given(**RATE_CASES)
    @example(**SENTINEL_EDGE_CASE)
    # rho on the curve, to rounding
    @example(levels=[1, 2], split=0.0, unit=10.0 ** 1.890625, rotate=False,
             beta_norms=[1.5, 0.0], weights=[0.0, 0.0], seed=0, end=None)
    # two copies of the ground state of a narrow spectrum, E a few ulps below E_min: r = 1
    # before any solve for beta, which rejects that E
    @example(levels=[3, 3], split=1e-6, unit=0.162868102685084, rotate=True,
             beta_norms=[0.0, 0.0], weights=[1.0, 0.0], seed=3, end="ground")
    def test_collinearity(self, levels, split, unit, rotate, beta_norms, weights, seed, end):
        fam, rho, sigma = rate_case(levels, split, unit, rotate, beta_norms, weights, seed, end)
        sol = conversion_rate(rho, sigma, fam)
        if sol.phi_kind != "source-degenerate":
            assert sol.collinearity_residual <= 1e-8
            assert 0.0 <= sol.r <= 1.0

    @settings(max_examples=150, deadline=None)
    @given(**RATE_CASES)
    @example(**SENTINEL_EDGE_CASE)
    # a wall exit on a top face of coinciding levels
    @example(levels=[4, 0, 4, 0, 2], split=0.0, unit=1.0, rotate=True, beta_norms=[-8.0, -5.0],
             weights=[0.5, 0.5], seed=0, end=None)
    # nearly tangent rays: the thermal exit's optimum sits at nu ~ 1e9-1e12, where g
    # is a sum of terms of that size and cannot be resolved to 1e-16 of itself
    @example(levels=[0, 0, 1], split=0.0, unit=10.0, rotate=False, beta_norms=[2.0, 2.0],
             weights=[10**-4.5] * 2, seed=11, end=None)
    @example(levels=[0, 0, 1], split=0.0, unit=10.0, rotate=False, beta_norms=[-3.0, -3.0],
             weights=[1e-5] * 2, seed=2, end=None)
    @example(levels=[0, 1, 2], split=0.0, unit=10.0, rotate=False, beta_norms=[0.5, 0.5],
             weights=[10**-4.5] * 2, seed=3, end=None)
    @example(levels=[0, 1, 1, 3], split=0.0, unit=10.0, rotate=False, beta_norms=[-3.0, -3.0],
             weights=[1e-5] * 2, seed=9, end=None)
    @example(levels=[0, 0, 1], split=0.0, unit=10.0, rotate=False, beta_norms=[6.0, 6.0],
             weights=[1e-6] * 2, seed=0, end=None)
    @example(levels=[0, 0, 1], split=0.0, unit=10.0, rotate=False, beta_norms=[-3.0, -3.0],
             weights=[1e-5] * 2, seed=8, end=None)
    @example(levels=[0, 1, 1, 3], split=0.0, unit=10.0, rotate=False, beta_norms=[-3.0, -3.0],
             weights=[1e-5] * 2, seed=8, end=None)
    # Gibbs sources whose scalar gap is a few rounding units of E times beta~ from 0:
    # one layer reads "thermal" (r = 2.7e-9 here) or "pure" (r = 0.548 below), the
    # other "source-degenerate"
    @example(levels=[2, 2], split=1e-6, unit=10**0.125, rotate=True, beta_norms=[0.5, 0.0],
             weights=[0.0, 0.0], seed=0, end=None)
    @example(levels=[1, 1], split=1e-6, unit=1.0, rotate=False, beta_norms=[-14.0, -14.0],
             weights=[0.0, 1e-6], seed=0, end=None)
    def test_q1_reduction(self, levels, split, unit, rotate, beta_norms, weights, seed, end):
        """conversion_rate_charges on the one-charge family exits the same way,
        on flat spectra and rays along a wall (`end`) too (both layers share
        `rates.ray_exit`), with r within 1e-12 on pure exits, 1e-8 where the
        filler's beta is a sentinel (wall exits come from an LP's equalities,
        as in test_charges), and on curve exits within NEWTON_TOL carried
        through the root: NEWTON_TOL |beta| / |beta dE - dS| / t*^2. On a flat
        spectrum both layers round S_max = ln d alike, so r agrees to the bit
        there. Where both read source-degenerate, r = 0 in both. Where only
        one does, the source is on the curve to the rounding of its scalar gap
        S(gamma(beta~)) - S(rho), |beta~| times the rounding of E, and r is
        ill-conditioned: r jumps from 0 within that rounding."""
        fam, rho, sigma = rate_case(levels, split, unit, rotate, beta_norms, weights, seed, end)
        single = conversion_rate(rho, sigma, fam)
        multi = conversion_rate_charges(rho, sigma, GGEFamily(ChargeSet((fam.hamiltonian,))))
        degenerate = [sol.phi_kind == "source-degenerate" for sol in (single, multi)]
        if all(degenerate):
            assert single.r == multi.r == 0.0
            return
        if any(degenerate):
            x_rho = state_point(rho, fam)
            b = spontaneous_beta(fam, x_rho.E)
            e_ulp = math.ulp(max(-fam.energy_min, fam.energy_max))
            gap = boundary_entropy(fam, b) - x_rho.S
            assert abs(gap) <= 1e-12 + 8 * fam.dim * abs(b) * e_ulp
            return
        assert multi.phi_kind == single.phi_kind
        beta = single.phi_beta
        if multi.phi_beta is not None and not np.isfinite(multi.phi_beta).all():
            assert multi.phi_beta.tolist() == [beta]  # a wall exit: the face's limit
        elif beta is not None and math.isinf(beta) and multi.phi_kind == "thermal":
            assert multi.phi_beta is not None  # on the curve at the sentinel: a finite beta_vec
        if beta is None:
            tol = 1e-12
        elif math.isinf(beta):
            tol = 1e-8
        else:
            x_rho, x_sigma = state_point(rho, fam), state_point(sigma, fam)
            slope = abs(beta * (x_rho.E - x_sigma.E) - (x_rho.S - x_sigma.S))
            tol = 1e-12 + NEWTON_TOL * abs(beta) / slope * (1.0 - single.r) ** 2
        assert multi.r == pytest.approx(single.r, abs=tol)

    def test_q1_reduction_trial_points_stay_finite(self, monkeypatch):
        # on this case the charges rate once took a step of -3.9e307 with an
        # infinite slope; its ascents now meet no singular or overflowing point
        # (the largest |z| tried is 1.2e7), so this checks the exit and the
        # size of the trial points. The ascent's guards against such points
        # are pinned on `_ascend` itself, in test_charges.py's TestMaxEntropy
        from isotherm import charges as charges_module

        points = []
        weights = charges_module._boltzmann_weights

        def recording(x):  # the trial point z of the ascent's Newton evaluation
            points.append(float(np.max(np.abs(sys._getframe(1).f_locals["z"]))))
            return weights(x)

        monkeypatch.setattr(charges_module, "_boltzmann_weights", recording)
        fam, rho, sigma = rate_case([0, 0, 1], 0.0, 10.0, False, [-18.0, -18.0],
                                    [1e-6, 1e-6], 109154)
        multi = conversion_rate_charges(rho, sigma, GGEFamily(ChargeSet((fam.hamiltonian,))))
        assert multi.phi_kind == conversion_rate(rho, sigma, fam).phi_kind == "thermal"
        assert points and max(points) <= 1e300


class TestEntropyOnlyRate:
    def test_ratio(self, rng):
        rho = random_density(3, rng)
        sigma = random_density(3, rng)
        assert rate_entropy_only(rho, sigma) == pytest.approx(
            entropy(rho) / entropy(sigma), abs=1e-12)

    def test_pure_target_rejected(self, rng):
        sigma = DensityMatrix.diagonal([1.0, 0.0])
        with pytest.raises(ValueError):
            rate_entropy_only(random_density(2, rng), sigma)

    def test_pure_to_pure_is_one(self):
        pure = DensityMatrix.diagonal([1.0, 0.0])
        assert rate_entropy_only(pure, pure) == 1.0

    def test_dominates_full_rate(self, rng):
        # adding the energy constraint can only reduce the achievable rate
        for _ in range(20):
            fam = GibbsFamily(random_hamiltonian(3, rng))
            rho = random_density(3, rng)
            sigma = random_density(3, rng)
            sol = conversion_rate(rho, sigma, fam)
            if sol.phi_kind == "source-degenerate":
                continue
            if entropy(rho) <= entropy(sigma):
                assert sol.r <= rate_entropy_only(rho, sigma) + 1e-9
