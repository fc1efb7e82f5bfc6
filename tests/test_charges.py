import json
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, linprog, nnls

from isotherm import charges as charges_module
from isotherm.charges import (
    FACE_RTOL,
    NEWTON_TOL,
    ChargeSet,
    GGEFamily,
    InfeasibleTargetError,
    _boltzmann_weights,
    _gge_weights,
    _lp_face,
    _max_entropy,
    absolute_athermality,
    beta_vec_athermality,
    bound_charge,
    bound_potential,
    charges_point,
    conversion_rate_charges,
    gge_charges,
    gge_covariance,
    gge_entropy,
    gge_log_partition,
    gge_solve,
    gge_state,
    second_law_charges_check,
)
from isotherm.energetics import bound_energy, relative_entropy
from isotherm.gibbs import (
    ConvergenceError,
    GibbsFamily,
    boundary_energy,
    gibbs_state,
    intrinsic_beta,
    log_partition,
    spontaneous_beta,
)
from isotherm.operators import (
    DensityMatrix,
    HermitianOperator,
    SubsystemSplit,
    entropy,
    haar_unitary,
    random_density,
    spectrum_entropy,
    tensor,
)


PINNED = Path(__file__).parent / "data" / "charges_pinned.json"


def bisection_rate(rho, sigma, fam):
    """The charges rate route that the LP exits replaced, kept as an oracle:
    double t from 2, then bisect 80 times on an inside margin that reads -1
    where gge_solve fails, with S_max corrected to first order in gge_solve's
    charge residual (dS_max/dL = beta_vec), each solve cold from 0. Returns
    (r, kind); r is None if source-degenerate."""
    x_rho, x_sigma = charges_point(rho, fam), charges_point(sigma, fam)
    d_l, d_s = x_rho.L - x_sigma.L, x_rho.S - x_sigma.S

    def margin(t):
        s = x_sigma.S + t * d_s
        if s < 0:
            return s
        target = x_sigma.L + t * d_l
        try:
            beta = gge_solve(fam, target)
        except InfeasibleTargetError:
            return -1.0
        s_max = gge_entropy(fam, beta) + beta @ (target - gge_charges(fam, beta))
        return min(s, s_max - s)

    if margin(1.0) <= 1e-10:
        return None, "source-degenerate"
    t_lo, t_hi = 1.0, 2.0
    while margin(t_hi) > 0:
        t_lo, t_hi = t_hi, t_hi * 2.0
    for _ in range(80):
        mid = (t_lo + t_hi) / 2
        if margin(mid) > 0:
            t_lo = mid
        else:
            t_hi = mid
    t_star = (t_lo + t_hi) / 2
    return 1.0 - 1.0 / t_star, "pure" if x_sigma.S + t_star * d_s <= 1e-9 else "thermal"


def segment_bound(fam, rho, k=0, n=20001):
    """Brute-force B_k when q = d - 1: the populations with the other charges
    fixed form a segment p0 + s v, L_k is linear in s, and the entropy is
    concave in s, so the minimum sits at an end of the segment or where the
    entropy crosses S(rho); a grid scan finds the crossings, brentq refines."""
    ells, pt = fam.joint_eigenvalues, charges_point(rho, fam)
    rows = np.vstack([np.delete(ells, k, axis=0), np.ones(fam.dim)])
    assert np.linalg.matrix_rank(rows) == fam.dim - 1
    p0 = np.linalg.lstsq(rows, np.append(np.delete(pt.L, k), 1.0), rcond=None)[0]
    v = np.linalg.svd(rows)[2][-1]
    lo = max(-p0[i] / v[i] for i in range(fam.dim) if v[i] > 0)
    hi = min(-p0[i] / v[i] for i in range(fam.dim) if v[i] < 0)

    def excess(s):
        return spectrum_entropy(np.clip(p0 + s * v, 0.0, None)) - pt.S

    grid = np.linspace(lo, hi, n)
    ok = np.array([excess(s) >= 0 for s in grid])
    ends = [s for s, keep in ((lo, ok[0]), (hi, ok[-1])) if keep]
    ends += [brentq(excess, grid[i], grid[i + 1], xtol=1e-15)
             for i in np.flatnonzero(ok[:-1] != ok[1:])]
    return min(float(ells[k] @ (p0 + s * v)) for s in ends)


def nested_bound_charge(rho, fam, k=0):
    """The active branch of bound_charge before its Newton in theta = beta_k,
    kept as an oracle (for inputs off the LP floor): brentq in theta over
    the bracket grown from 1/ptp(L_k), with a max-entropy ascent in the other
    charges' lam at every theta, started from the last lam/theta ratio.
    Returns (B_k, beta_vec)."""
    pt = charges_point(rho, fam)
    ells, idx = fam.joint_eigenvalues, [i for i in range(fam.q) if i != k]
    unit = np.eye(fam.q)
    embed = unit[:, idx]
    ratio = np.zeros(fam.q - 1)

    def tilted(theta):
        nonlocal ratio
        lam = _max_entropy(lambda b: _gge_weights(fam, embed @ b + theta * unit[k]),
                           ells[idx], pt.L[idx], theta * ratio)[0]
        ratio = lam / theta if theta > 0 else ratio
        return embed @ lam + theta * unit[k]

    def excess(theta):
        return gge_entropy(fam, tilted(theta)) - pt.S

    hi = 1.0 / np.ptp(ells[k])
    while excess(hi) > 0:
        hi *= 2.0
    theta = brentq(excess, 0.0, hi, xtol=1e-12)
    beta = tilted(theta)
    return float(gge_charges(fam, beta)[k]), beta


def benchmark_case(f):
    """Family f of the 32 in the benchmark's charges workload (population seed
    20170706, shapes (d, q) cycling (4, 2), (4, 3), (8, 2), (8, 3)), before
    its per-round rotation, with its state pair (rho, sigma)."""
    base = np.random.default_rng(20170706)
    population = [(haar_unitary(d, base), base.standard_normal((q, d)))
                  for _ in range(8) for d, q in ((4, 2), (4, 3), (8, 2), (8, 3))]
    states = [(random_density(u.shape[0], base), random_density(u.shape[0], base),
               base.uniform(0.1, 1.0, len(spectra))) for u, spectra in population]
    u, spectra = population[f]
    ops = tuple(HermitianOperator((u * lam) @ u.conj().T) for lam in spectra)
    return GGEFamily(ChargeSet(ops)), states[f][0], states[f][1]


@pytest.fixture
def single_charge_family(qutrit):
    """q = 1 wrapper around the plain qutrit Hamiltonian."""
    return GGEFamily(ChargeSet((qutrit.hamiltonian,)))


class TestChargeSet:
    def test_rejects_noncommuting(self):
        x = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
        z = HermitianOperator.diagonal([1.0, -1.0])
        with pytest.raises(ValueError):
            ChargeSet((z, x))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one charge"):
            ChargeSet(())

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="one Hilbert space"):
            ChargeSet((HermitianOperator.diagonal([0.0, 1.0]),
                       HermitianOperator.diagonal([0.0, 1.0, 2.0])))

    def test_common_eigenbasis_diagonalizes_all(self, charge_family):
        for op in charge_family.charge_set.charges:
            rotated = charge_family.basis.conj().T @ op.entries @ charge_family.basis
            off = rotated - np.diag(np.diag(rotated))
            assert np.max(np.abs(off)) <= 1e-8


class TestGGEState:
    def test_q1_reduces_to_gibbs(self, qutrit, single_charge_family):
        for beta in (0.3, 1.0, 2.5):
            rho = gge_state(single_charge_family, [beta])
            assert np.allclose(rho.entries, gibbs_state(qutrit, beta).entries,
                               atol=1e-10)
            assert gge_log_partition(single_charge_family, [beta]) == pytest.approx(
                log_partition(qutrit, beta), abs=1e-10)

    def test_known_spectrum_matches_eigh_route(self, charge_family, rng, eigh_calls,
                                               assert_matches_eigh_route):
        rho = random_density(4, rng)
        eigh_calls.clear()
        states = [gge_state(charge_family, beta) for beta in
                  ([0.0, 0.0], [0.7, -0.4], [300.0, 100.0], [-80.0, 250.0])]
        assert eigh_calls == []
        _, gamma = bound_potential(rho, charge_family, [0.6, 0.8])
        assert eigh_calls == []  # the effective Hamiltonian takes the charges' eigenbasis
        for state in states + [gamma]:
            assert_matches_eigh_route(state)

    def test_charges_and_entropy_consistent(self, charge_family):
        beta = np.array([0.7, -0.4])
        rho = gge_state(charge_family, beta)
        pt = charges_point(rho, charge_family)
        assert np.allclose(pt.L, gge_charges(charge_family, beta), atol=1e-10)
        assert pt.S == pytest.approx(gge_entropy(charge_family, beta), abs=1e-10)

    def test_covariance_is_spd_generically(self, charge_family):
        cov = gge_covariance(charge_family, np.array([0.5, 0.2]))
        assert np.allclose(cov, cov.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(cov) > 0)

    def test_covariance_is_charge_jacobian(self, charge_family):
        # dL_j/dbeta_k = -Cov(L_j, L_k), finite-difference check
        beta = np.array([0.6, -0.3])
        cov = gge_covariance(charge_family, beta)
        eps = 1e-6
        for k in range(2):
            dv = np.zeros(2)
            dv[k] = eps
            fd = (gge_charges(charge_family, beta + dv)
                  - gge_charges(charge_family, beta - dv)) / (2 * eps)
            assert np.max(np.abs(fd + cov[:, k])) <= 1e-5


class TestSolve:
    def test_round_trip(self, charge_family, rng):
        for _ in range(20):
            beta = rng.uniform(-2.0, 2.0, size=2)
            target = gge_charges(charge_family, beta)
            rec = gge_solve(charge_family, target, rng=rng)
            assert np.max(np.abs(gge_charges(charge_family, rec) - target)) <= 1e-7
            assert np.max(np.abs(rec - beta)) <= 1e-6

    def test_infeasible_target_raises(self, charge_family):
        # charge values outside the convex hull of the joint spectrum
        with pytest.raises(InfeasibleTargetError):
            gge_solve(charge_family, [10.0, 10.0])

    @settings(max_examples=200, deadline=None)
    @given(levels=st.lists(st.integers(0, 3), min_size=2, max_size=5),
           unit=st.floats(1e-7, 10.0), split=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]),
           beta_width=st.floats(-700.0, 700.0))
    @example(levels=[0, 1], unit=1e-6, split=0.0, beta_width=0.5)  # beta = 5e5
    def test_q1_reduces_to_spontaneous_beta(self, levels, unit, split, beta_width):
        # degenerate integer levels, near-degenerate once split apart
        spectrum = unit * (np.array(levels, dtype=float) + split * np.arange(len(levels)))
        width = float(np.ptp(spectrum))
        assume(width > 0)
        beta = beta_width / width
        h = HermitianOperator.diagonal(list(spectrum))
        gibbs = GibbsFamily(h)
        energy = boundary_energy(gibbs, beta)
        fam = GGEFamily(ChargeSet((h,)))
        rec = gge_solve(fam, [energy])
        assert abs(gge_charges(fam, rec)[0] - energy) <= NEWTON_TOL
        expected = spontaneous_beta(gibbs, energy)
        if math.isfinite(expected):
            w = _boltzmann_weights(spectrum, beta)
            var = float(w @ (spectrum - w @ spectrum) ** 2)
            # var underflows to 0 where the energy no longer pins beta
            slack = NEWTON_TOL / var if var > 0 else math.inf
            tol = 2 * (slack + 1e-11 * max(1.0, abs(expected)))
            assert abs(rec[0] - expected) <= tol


class TestAffineDependence:
    H = HermitianOperator.diagonal([0.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize("extra", [
        np.full(4, 2.5),                  # a constant charge
        2.0 * np.arange(4.0) - 1.0,       # an affine function of H
    ])
    def test_dependent_charge_raises(self, extra, rng):
        u = haar_unitary(4, rng)
        ops = tuple(HermitianOperator((u * lam) @ u.conj().T)
                    for lam in (self.H.eigenvalues, extra))
        with pytest.raises(ValueError, match="charge 1 is constant or an affine combination"):
            GGEFamily(ChargeSet(ops))

    def test_flat_lone_charge_is_allowed(self):
        fam = GGEFamily(ChargeSet((HermitianOperator.diagonal([1.0, 1.0]),)))
        assert gge_solve(fam, [1.0]) == pytest.approx([0.0])


class TestAthermality:
    def test_beta_vec_athermality_is_relative_entropy(self, charge_family, rng):
        for _ in range(10):
            rho = random_density(4, rng)
            beta = rng.uniform(-1.5, 1.5, size=2)
            assert beta_vec_athermality(rho, charge_family, beta) == pytest.approx(
                relative_entropy(rho, gge_state(charge_family, beta)), abs=1e-10)

    def test_absolute_athermality_nonnegative_and_zero_on_gge(self, charge_family, rng):
        rho = random_density(4, rng)
        assert absolute_athermality(rho, charge_family, rng=rng) >= -1e-10
        gamma = gge_state(charge_family, [0.8, 0.1])
        assert absolute_athermality(gamma, charge_family, rng=rng) == pytest.approx(
            0.0, abs=1e-8)

    def test_absolute_is_the_minimum_over_beta(self, charge_family, rng):
        rho = random_density(4, rng)
        a_min = absolute_athermality(rho, charge_family, rng=rng)
        for _ in range(20):
            beta = rng.uniform(-2.0, 2.0, size=2)
            assert beta_vec_athermality(rho, charge_family, beta) >= a_min - 1e-8


class TestBoundCharge:
    def test_q1_reduces_to_bound_energy(self, qutrit, single_charge_family, rng):
        for _ in range(5):
            rho = random_density(3, rng)
            sol = bound_charge(rho, single_charge_family, 0, rng=rng)
            assert sol.value == pytest.approx(bound_energy(rho, qutrit), abs=1e-8)
            assert sol.free_charge == pytest.approx(
                charges_point(rho, single_charge_family).L[0] - sol.value, abs=1e-10)

    def test_constraints_hold_at_minimizer(self, charge_family, rng):
        rho = random_density(4, rng)
        pt = charges_point(rho, charge_family)
        sol = bound_charge(rho, charge_family, 0, rng=rng)
        gpt = charges_point(sol.gamma, charge_family)
        assert gpt.S == pytest.approx(pt.S, abs=1e-7)
        assert gpt.L[1] == pytest.approx(pt.L[1], abs=1e-7)
        assert sol.value <= pt.L[0] + 1e-9

    def test_certificate_sign(self, charge_family, rng):
        rho = random_density(4, rng)
        sol = bound_charge(rho, charge_family, 0, rng=rng)
        if sol.certified:
            assert sol.beta_vec[0] > 0


class TestBoundPotential:
    def test_q1_direction_reduces_to_bound_energy(self, qutrit, single_charge_family, rng):
        rho = random_density(3, rng)
        value, gamma = bound_potential(rho, single_charge_family, [1.0])
        assert value == pytest.approx(bound_energy(rho, qutrit), abs=1e-8)
        assert entropy(gamma) == pytest.approx(entropy(rho), abs=1e-7)

    def test_state_is_gge_along_mu(self, charge_family, single_charge_family, rng):
        # the effective family's Gibbs state is the GGE at beta_vec = beta mu
        for fam, mu in ((charge_family, [0.6, 0.8]), (charge_family, [1.0, 0.0]),
                        (charge_family, [0.0, 1.0]), (single_charge_family, [1.0])):
            v_mu = sum(m * op.entries for m, op in zip(mu, fam.charge_set.charges))
            for rho in (random_density(fam.dim, rng), random_density(fam.dim, rng, rank=2)):
                value, gamma = bound_potential(rho, fam, mu)
                beta = intrinsic_beta(GibbsFamily(HermitianOperator(v_mu)), entropy(rho))
                expected = gge_state(fam, beta * np.asarray(mu))
                assert np.max(np.abs(gamma.entries - expected.entries)) <= 1e-12
                assert value == pytest.approx(np.trace(v_mu @ gamma.entries).real, abs=1e-12)

    def test_unit_normalization(self, charge_family, rng):
        rho = random_density(4, rng)
        v1, _ = bound_potential(rho, charge_family, [3.0, 4.0])
        v2, _ = bound_potential(rho, charge_family, [0.6, 0.8])
        assert v1 == pytest.approx(v2, abs=1e-10)

    def test_rejects_negative_weights(self, charge_family, rng):
        with pytest.raises(ValueError):
            bound_potential(random_density(4, rng), charge_family, [1.0, -0.5])


class TestSecondLaw:
    def test_random_gge_bath_processes(self, charge_family, rng):
        split = SubsystemSplit((4, 4))
        beta = np.array([0.8, -0.3])
        gamma = gge_state(charge_family, beta)
        for _ in range(50):
            initial = tensor(random_density(4, rng), gamma)
            u = haar_unitary(16, rng)
            final = DensityMatrix(u @ initial.entries @ u.conj().T)
            assert second_law_charges_check(initial, final, split,
                                            charge_family, beta)

    def test_rejects_mismatched_bath(self, charge_family, rng):
        split = SubsystemSplit((4, 4))
        initial = tensor(random_density(4, rng), random_density(4, rng))
        with pytest.raises(ValueError):
            second_law_charges_check(initial, initial, split,
                                     charge_family, [0.8, -0.3])


class TestZeroEntropySurface:
    def test_superposition_convexity_identity(self, charge_family, rng):
        # coordinates of cos(t)|i> + sin(t)|j> are the cos^2-combinations of
        # the eigenvector coordinates, exactly on the zero-entropy surface
        basis = charge_family.basis
        for _ in range(20):
            i, j = rng.choice(charge_family.dim, size=2, replace=False)
            t = float(rng.uniform(0.1, 1.4))
            vec = math.cos(t) * basis[:, i] + math.sin(t) * basis[:, j]
            pure = DensityMatrix.pure(vec)
            pt = charges_point(pure, charge_family)
            w = math.cos(t) ** 2
            expected = (w * charge_family.joint_eigenvalues[:, i]
                        + (1 - w) * charge_family.joint_eigenvalues[:, j])
            assert np.max(np.abs(pt.L - expected)) <= 1e-10
            assert pt.S <= 1e-10


class TestChargesRate:
    def test_q1_agrees_with_single_charge_rate(self, qutrit, single_charge_family, rng):
        from isotherm.rates import conversion_rate

        for _ in range(5):
            rho = random_density(3, rng)
            sigma = random_density(3, rng)
            single = conversion_rate(rho, sigma, qutrit)
            multi = conversion_rate_charges(rho, sigma, single_charge_family)
            if single.phi_kind == "source-degenerate" or multi.phi_kind == "source-degenerate":
                assert single.phi_kind == multi.phi_kind
                continue
            assert multi.r == pytest.approx(single.r, abs=1e-6)

    def test_source_on_wall_face_is_source_degenerate(self):
        # the LP puts t_wall at 1.0 to rounding; the ray leaves at t = 1
        from isotherm.rates import conversion_rate

        h = HermitianOperator.diagonal([0.0, 0.0, 0.0, 1.0])
        rho = gibbs_state(GibbsFamily(h), 36.0)
        sigma = DensityMatrix.maximally_mixed(4)
        sol = conversion_rate_charges(rho, sigma, GGEFamily(ChargeSet((h,))))
        assert (sol.r, sol.phi_kind) == (0.0, "source-degenerate")
        single = conversion_rate(rho, sigma, GibbsFamily(h))
        assert (single.r, single.phi_kind) == (0.0, "source-degenerate")

    def test_equal_charges_rising_entropy(self, qutrit, single_charge_family, charge_family):
        # a vertical ray (no t_pure, no wall) exits on the thermal surface
        from isotherm.rates import conversion_rate

        rho = DensityMatrix.diagonal([0.3, 0.4, 0.3])
        sigma = DensityMatrix.diagonal([0.45, 0.1, 0.45])
        sol = conversion_rate_charges(rho, sigma, single_charge_family)
        assert sol.phi_kind == "thermal"
        assert sol.r == pytest.approx(conversion_rate(rho, sigma, qutrit).r, abs=1e-12)
        # q = 2 at the polytope's centre: the filler is the maximally mixed state
        rho = DensityMatrix.diagonal([0.3, 0.2, 0.2, 0.3])
        sigma = DensityMatrix.diagonal([0.4, 0.1, 0.1, 0.4])
        sol = conversion_rate_charges(rho, sigma, charge_family)
        t_star = (math.log(4) - entropy(sigma)) / (entropy(rho) - entropy(sigma))
        assert sol.phi_kind == "thermal"
        assert sol.r == pytest.approx(1 - 1 / t_star, abs=1e-12)

    @pytest.mark.parametrize("a,tol", [(1e-4, 1e-9), (1e-6, 1e-9), (1e-8, 1e-4)])
    def test_q1_ground_corner(self, a, tol):
        # near the ground corner gge_solve's absolute charge residual NEWTON_TOL
        # is a large part of L itself: the exit must still match the single
        # charge rate (r = 0.0789886 for every small a), and a Gibbs source
        # must still read source-degenerate
        from isotherm.rates import conversion_rate

        h = HermitianOperator.diagonal([0.0, 1.0, 1.0])
        fam = GGEFamily(ChargeSet((h,)))
        sigma = DensityMatrix.diagonal([1.0, 0.0, 0.0])
        rho = DensityMatrix.diagonal([1.0 - a, 0.3 * a, 0.7 * a])
        sol = conversion_rate_charges(rho, sigma, fam)
        single = conversion_rate(rho, sigma, GibbsFamily(h))
        assert sol.phi_kind == single.phi_kind == "thermal"
        assert sol.r == pytest.approx(single.r, abs=tol)
        assert sol.r == pytest.approx(0.0789886, abs=1e-4)
        gibbs = DensityMatrix.diagonal([1.0 - a, a / 2, a / 2])
        assert conversion_rate_charges(gibbs, sigma, fam).phi_kind == "source-degenerate"

    def test_flat_lone_charge(self):
        # a one-state family: S_max = ln d along the whole ray and no wall, so
        # the ray leaves where S(t) = ln d, or at S = 0 when the entropy falls
        fam = GGEFamily(ChargeSet((HermitianOperator.diagonal([1.0, 1.0, 1.0]),)))
        sigma = DensityMatrix.diagonal([0.6, 0.3, 0.1])
        rho = DensityMatrix.diagonal([0.5, 0.3, 0.2])
        s_sigma, s_rho = entropy(sigma), entropy(rho)
        sol = conversion_rate_charges(rho, sigma, fam)
        t_star = (math.log(3) - s_sigma) / (s_rho - s_sigma)
        assert sol.phi_kind == "thermal"
        assert sol.r == pytest.approx(1 - 1 / t_star, abs=1e-12)
        back = conversion_rate_charges(sigma, rho, fam)
        t_pure = s_rho / (s_rho - s_sigma)
        assert back.phi_kind == "pure"
        assert back.r == pytest.approx(1 - 1 / t_pure, abs=1e-12)

    def test_identical_points_rate_one(self, charge_family, rng):
        rho = random_density(4, rng)
        sol = conversion_rate_charges(rho, rho, charge_family)
        assert sol.r == 1.0

    def test_collinearity(self, charge_family, rng):
        rho = random_density(4, rng)
        sigma = random_density(4, rng)
        sol = conversion_rate_charges(rho, sigma, charge_family)
        if sol.phi_kind != "source-degenerate":
            assert sol.collinearity_residual <= 1e-6
            assert 0.0 <= sol.r <= 1.0 + 1e-12


class TestMaxEntropy:
    LEVELS = np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 2.0]])

    @staticmethod
    def _solve(levels, target):
        return _max_entropy(lambda b: _boltzmann_weights(levels, b), levels,
                            np.asarray(target, dtype=float), np.zeros(len(levels)))

    def test_converges_to_the_gge_of_the_target(self):
        lam = np.array([1.3, -0.7])
        target = self.LEVELS @ _boltzmann_weights(self.LEVELS, lam)
        rec, w = self._solve(self.LEVELS, target)
        assert np.array_equal(w, _boltzmann_weights(self.LEVELS, rec))  # its final weights
        assert np.max(np.abs(self.LEVELS @ w - target)) <= NEWTON_TOL
        assert rec == pytest.approx(lam, abs=1e-7)

    def test_singular_covariance_raises(self):
        # a constant row has zero variance under every weight
        levels = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 0.0]])
        with pytest.raises(InfeasibleTargetError):
            self._solve(levels, [0.5, 0.1])

    def test_target_outside_hull_raises(self):
        with pytest.raises(InfeasibleTargetError):
            self._solve(self.LEVELS, [4.0, 1.0])

    def test_overflowing_step_raises_without_warnings(self):
        # at lam = 709.45 the lone level's weight is subnormal, so its variance
        # is too, and the Newton step grad / var overflows to -inf
        levels = np.array([[1.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleTargetError):
                _max_entropy(lambda b: _boltzmann_weights(levels, b), levels,
                             np.array([0.99938968]), np.array([709.45259616]))


def linprog_face(c, a_eq, b_eq, n_free=0):
    """_lp_face's oracle: the same LP by scipy's linprog (HiGHS, at its
    smallest feasibility tolerances), with the same outputs and errors."""
    n = len(c) - n_free
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * n + [(None, None)] * n_free,
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status == 3:
        return None
    if res.status == 2:
        raise InfeasibleTargetError(res.message)
    assert res.status == 0, res.message
    cost = res.lower.marginals[:n]
    return res.eqlin.marginals, cost <= FACE_RTOL * cost.max()


class TestLPFace:
    """_lp_face against linprog on the module's two LP shapes: the floor LP
    (min L_0 at the other charges and unit trace) and the rate LP (max t
    with L_sigma + t dL on the polytope, t free)."""

    @staticmethod
    def lp(shape, ells, p_sigma, p_rho):
        q, d = ells.shape
        l_sigma, d_l = ells @ p_sigma, ells @ (p_rho - p_sigma)
        if shape == "floor":
            return ells[0], np.vstack([ells[1:], np.ones(d)]), np.append(l_sigma[1:], 1.0), 0
        a_eq = np.vstack([np.column_stack([ells, -d_l]), np.append(np.ones(d), 0.0)])
        return -np.eye(d + 1)[-1], a_eq, np.append(l_sigma, 1.0), 1

    @settings(max_examples=150, deadline=None)
    @given(q=st.integers(1, 3), d=st.integers(2, 7), seed=st.integers(0, 2**32 - 1),
           shape=st.sampled_from(["floor", "rate"]),
           target=st.sampled_from(["inside", "outside", "still"]))
    @example(q=2, d=4, seed=0, shape="rate", target="still")
    @example(q=2, d=4, seed=0, shape="floor", target="outside")
    @example(q=2, d=4, seed=0, shape="rate", target="outside")
    def test_agrees_with_linprog(self, q, d, seed, shape, target):
        # rounded-degenerate levels: integers 0-3, so levels repeat within and
        # across charges; "still" gives rho sigma's charges (an unbounded rate
        # ray), "outside" moves sigma's first charge off the polytope
        rng = np.random.default_rng(seed)
        ells = rng.integers(0, 4, (q, d)).astype(float)
        assume(np.linalg.matrix_rank(np.vstack([ells, np.ones(d)])) == q + 1)
        p_sigma, p_rho = rng.dirichlet(np.ones(d), 2)
        if target == "still":
            p_rho = p_sigma
        c, a_eq, b_eq, n_free = self.lp(shape, ells, p_sigma, p_rho)
        if target == "outside":
            b_eq[0] = np.max(a_eq[0, :d]) + 0.5
        try:
            expected = linprog_face(c, a_eq, b_eq, n_free)
        except InfeasibleTargetError:
            with pytest.raises(InfeasibleTargetError):
                _lp_face(c, a_eq, b_eq, n_free)
            return
        got = _lp_face(c, a_eq, b_eq, n_free)
        if expected is None:
            assert got is None
            return
        assert np.array_equal(got[1], expected[1])
        assert np.max(np.abs(got[0] - expected[0])) <= 1e-10

    def test_levels_1e10_apart_stay_distinct(self):
        # the first column entering is the upper level; the lower one, 1e-10
        # below, must still replace it, so the dual is the lower level
        duals, face = _lp_face(np.array([1e-10, 0.0, 1.0, 2.0]), np.ones((1, 4)), [1.0])
        assert duals[0] == 0.0
        assert face.tolist() == [True, True, False, False]  # within FACE_RTOL of 2

    def test_pivot_bound_raises(self, monkeypatch):
        monkeypatch.setattr(charges_module, "SIMPLEX_MAXITER", 0)
        with pytest.raises(ConvergenceError):
            _lp_face(np.array([0.0, 1.0]), np.ones((1, 2)), [1.0])


class TestPinnedSolverValues:
    """gge_solve, bound_charge and conversion_rate_charges on rotated
    (non-diagonal) charge families, pinned in tests/data."""

    @staticmethod
    def _case(seed, d, q):
        rng = np.random.default_rng(seed)
        u = haar_unitary(d, rng)
        ops = tuple(HermitianOperator((u * lam) @ u.conj().T)
                    for lam in rng.standard_normal((q, d)))
        return GGEFamily(ChargeSet(ops)), random_density(d, rng), random_density(d, rng)

    @pytest.mark.parametrize("pin", json.loads(PINNED.read_text(encoding="utf-8")),
                             ids=lambda pin: f"seed{pin['seed']}-d{pin['d']}-q{pin['q']}")
    def test_matches_pinned(self, pin):
        fam, rho, sigma = self._case(pin["seed"], pin["d"], pin["q"])
        beta = gge_solve(fam, charges_point(rho, fam).L)
        assert beta == pytest.approx(pin["gge_solve_beta"], abs=1e-12)
        bound = bound_charge(rho, fam, 0)
        assert bound.value == pytest.approx(pin["bound_charge_value"], abs=1e-9)
        assert bound.beta_vec == pytest.approx(pin["bound_charge_beta"], rel=1e-7)
        assert bound.certified == pin["bound_charge_certified"]
        rate = conversion_rate_charges(rho, sigma, fam)
        assert rate.r == pytest.approx(pin["rate_r"], abs=1e-12)
        assert rate.phi_kind == pin["rate_kind"]


class TestBoundChargeOracles:
    """bound_charge against a brute-force scan of the one-dimensional
    feasible segment of q = d - 1 families."""

    @pytest.mark.parametrize("f", [1, 5, 9, 13, 17, 25, 29])
    def test_benchmark_d4_q3_families(self, f):
        # the d = 4, q = 3 benchmark families whose bound is the LP floor
        # (six) or a cold minimizer (25)
        fam, rho, _ = benchmark_case(f)
        sol = bound_charge(rho, fam, 0)
        assert sol.certified and sol.beta_vec[0] > 0
        assert sol.value == pytest.approx(segment_bound(fam, rho), abs=1e-9)
        assert sol.free_charge >= 0.0
        if f == 25:  # the one family whose entropy constraint is active
            assert sol.value == pytest.approx(0.3099, abs=1e-4)
            assert sol.beta_vec[0] == pytest.approx(31.5, abs=0.1)
        else:
            assert sol.beta_vec[0] == math.inf

    def test_pinned_seed2_floor(self):
        fam, rho, _ = TestPinnedSolverValues._case(2, 4, 3)
        sol = bound_charge(rho, fam, 0)
        assert sol.value == pytest.approx(segment_bound(fam, rho), abs=1e-9)
        assert sol.value == pytest.approx(0.3612, abs=1e-4)
        assert sol.value < charges_point(rho, fam).L[0]

    def test_floor_gamma_keeps_entropy_and_other_charges(self):
        fam, rho, _ = benchmark_case(13)
        pt = charges_point(rho, fam)
        sol = bound_charge(rho, fam, 0)
        gpt = charges_point(sol.gamma, fam)
        assert gpt.S == pytest.approx(pt.S, abs=1e-10)
        assert gpt.L[1:] == pytest.approx(pt.L[1:], abs=1e-10)
        assert gpt.L[0] == pytest.approx(sol.value, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(levels=st.lists(st.integers(0, 3), min_size=2, max_size=5),
           seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 5))
    @example(levels=[0, 0, 1], seed=0, rank=1)
    @example(levels=[1, 1, 1, 3], seed=1, rank=2)
    def test_q1_reduces_to_bound_energy_on_degenerate_spectra(self, levels, seed, rank):
        h = HermitianOperator.diagonal([float(x) for x in levels])
        rank = min(rank, len(levels))
        rho = random_density(len(levels), np.random.default_rng(seed),
                             rank=None if rank == len(levels) else rank)
        gibbs = GibbsFamily(h)
        sol = bound_charge(rho, GGEFamily(ChargeSet((h,))), 0)
        assert sol.value == pytest.approx(bound_energy(rho, gibbs), abs=1e-8)
        if entropy(rho) < math.log(gibbs.ground_degeneracy) - 1e-9:
            # below ln g0: the E_min sentinel, beta = +inf
            assert sol.value == pytest.approx(gibbs.energy_min, abs=1e-12)
            assert sol.beta_vec[0] == math.inf


    @settings(max_examples=60, deadline=None)
    @given(levels=st.lists(st.integers(0, 3), min_size=2, max_size=5),
           seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 5))
    @example(levels=[0, 1, 2], seed=0, rank=3)
    def test_q1_agrees_with_nested_route(self, levels, seed, rank):
        h = HermitianOperator.diagonal([float(x) for x in levels])
        rank = min(rank, len(levels))
        rho = random_density(len(levels), np.random.default_rng(seed),
                             rank=None if rank == len(levels) else rank)
        fam = GGEFamily(ChargeSet((h,)))
        sol = bound_charge(rho, fam, 0)
        assume(math.isfinite(sol.beta_vec[0]) and sol.beta_vec[0] > 0)
        value, beta = nested_bound_charge(rho, fam)
        assert sol.value == pytest.approx(value, abs=1e-9)
        assert sol.beta_vec == pytest.approx(beta, rel=1e-7)

    @pytest.mark.parametrize("f", range(32))
    def test_benchmark_families_agree_with_nested_route(self, f, monkeypatch):
        fam, rho, _ = benchmark_case(f)
        sol = bound_charge(rho, fam, 0)
        if not math.isfinite(sol.beta_vec[0]):
            return  # the LP floor: no theta root
        value, beta = nested_bound_charge(rho, fam)
        assert sol.value == pytest.approx(value, abs=1e-9)
        assert sol.beta_vec == pytest.approx(beta, rel=1e-7)
        # the nested route with its ascents solved to near rounding: B_k to
        # first order in the charge residual is nearer it than the plain route
        monkeypatch.setattr(charges_module, "NEWTON_TOL", 2e-14)
        assert sol.value == pytest.approx(nested_bound_charge(rho, fam)[0], abs=1e-12)

    def test_q1_near_degenerate_ground(self):
        # levels 1e-7 apart are distinct (bound_energy's threshold is 1e-10):
        # the LP must not stop on the upper one within its feasibility tolerance
        h = HermitianOperator.diagonal([0.0, 1e-7, 1.0, 2.0])
        rho = DensityMatrix.diagonal([0.97, 0.02, 0.01, 0.0])
        sol = bound_charge(rho, GGEFamily(ChargeSet((h,))), 0)
        assert sol.value == pytest.approx(bound_energy(rho, GibbsFamily(h)), abs=1e-12)
        assert math.isfinite(sol.beta_vec[0])


def mp_thermal_exit(fam, rho, sigma, beta, t, dps=40):
    """r from a dps-digit root of the thermal exit, taking the joint spectrum,
    x_rho and x_sigma as exact: Newton in (beta_vec, t) from the given guess
    on L(gamma(beta_vec)) = L_sigma + t dL and S(gamma(beta_vec)) = S_sigma
    + t dS, whose Jacobian holds dL/dbeta = -Cov and dS/dbeta = -Cov beta_vec."""
    x_rho, x_sigma = charges_point(rho, fam), charges_point(sigma, fam)
    with mpmath.workdps(dps):
        ells = mpmath.matrix(fam.joint_eigenvalues.tolist())
        q, d = ells.rows, ells.cols
        l_s, s_s = mpmath.matrix(x_sigma.L.tolist()), mpmath.mpf(x_sigma.S)
        d_l, d_s = mpmath.matrix((x_rho.L - x_sigma.L).tolist()), mpmath.mpf(x_rho.S) - s_s
        x = mpmath.matrix([float(b) for b in beta] + [float(t)])
        for _ in range(60):
            e = [-mpmath.fsum(x[j] * ells[j, i] for j in range(q)) for i in range(d)]
            top = max(e)
            w = [mpmath.exp(ei - top) for ei in e]
            z = mpmath.fsum(w)
            p = [wi / z for wi in w]
            l = [mpmath.fsum(p[i] * ells[j, i] for i in range(d)) for j in range(q)]
            cov = mpmath.matrix(q, q)
            for j in range(q):
                for k in range(q):
                    cov[j, k] = mpmath.fsum(p[i] * (ells[j, i] - l[j]) * (ells[k, i] - l[k])
                                            for i in range(d))
            s = -mpmath.fsum(pi * mpmath.log(pi) for pi in p if pi > 0)
            f = mpmath.matrix([l[j] - l_s[j] - x[q] * d_l[j] for j in range(q)]
                              + [s - s_s - x[q] * d_s])
            jac = mpmath.matrix(q + 1, q + 1)
            for j in range(q):
                for k in range(q):
                    jac[j, k] = -cov[j, k]
                    jac[q, k] -= cov[j, k] * x[j]
                jac[j, q] = -d_l[j]
            jac[q, q] = -d_s
            step = mpmath.lu_solve(jac, f)
            x -= step
            if mpmath.norm(step) < mpmath.mpf(10) ** (5 - dps):
                return float(1 - 1 / x[q])
    raise AssertionError("mpmath Newton did not converge")


class TestChargesRateOracle:
    """conversion_rate_charges against the bisection route it replaced."""

    @pytest.mark.parametrize("f", [0, 2, 3, 9, 12, 20, 25, 27])
    def test_agrees_with_bisection(self, f):
        fam, rho, sigma = benchmark_case(f)
        sol = conversion_rate_charges(rho, sigma, fam)
        r_old, kind_old = bisection_rate(rho, sigma, fam)
        assert sol.phi_kind == kind_old
        if sol.phi_kind == "thermal" and sol.phi_beta is None:
            # a wall exit: the bisection ends just outside the polytope, while
            # phi lies on it, to the rounding of the LP equalities
            assert sol.r == pytest.approx(r_old, abs=1e-8)
            ells = fam.joint_eigenvalues
            _, resid = nnls(np.vstack([ells, np.ones(fam.dim)]),
                            np.append(sol.phi_point.L, 1.0))
            assert resid <= 1e-12
        else:
            assert sol.r == pytest.approx(r_old, abs=1e-12)
        assert sol.collinearity_residual <= 1e-12

    @pytest.mark.parametrize("case", [("pinned", 1, 4, 2), ("pinned", 1, 4, 3),
                                      ("pinned", 1, 8, 2), ("pinned", 1, 8, 3),
                                      ("pinned", 2, 4, 3), ("pinned", 3, 8, 3),
                                      ("benchmark", 0), ("benchmark", 3), ("benchmark", 25)],
                             ids=lambda c: "-".join(map(str, c)))
    def test_thermal_exit_against_mpmath(self, case):
        if case[0] == "pinned":
            fam, rho, sigma = TestPinnedSolverValues._case(*case[1:])
        else:
            fam, rho, sigma = benchmark_case(case[1])
        sol = conversion_rate_charges(rho, sigma, fam)
        assert sol.phi_kind == "thermal" and sol.phi_beta is not None
        ref = mp_thermal_exit(fam, rho, sigma, sol.phi_beta, 1.0 / (1.0 - sol.r))
        assert sol.r == pytest.approx(ref, abs=1e-12)

    def test_wall_face_with_repeated_levels(self):
        # joint eigenvalues (0, 0), (1, 0), (1, 0), (0, 1): the wall L_1 = 0 is
        # an edge with three levels, so its maximum entropy at L = (x, 0) is
        # h(x) + x ln 2, above the entropy of any one LP vertex solution
        fam = GGEFamily(ChargeSet((HermitianOperator.diagonal([0.0, 1.0, 1.0, 0.0]),
                                   HermitianOperator.diagonal([0.0, 0.0, 0.0, 1.0]))))
        sigma = DensityMatrix.diagonal([0.4, 0.15, 0.15, 0.3])
        rho = DensityMatrix.diagonal([0.45, 0.3, 0.05, 0.2])
        x_rho, x_sigma = charges_point(rho, fam), charges_point(sigma, fam)
        s_wall = x_sigma.S + 3.0 * (x_rho.S - x_sigma.S)  # t_wall = 3, L = (0.45, 0)
        h = -(0.45 * math.log(0.45) + 0.55 * math.log(0.55))
        assert h < s_wall < h + 0.45 * math.log(2)
        sol = conversion_rate_charges(rho, sigma, fam)
        assert sol.phi_kind == "thermal" and sol.phi_beta is None
        assert sol.r == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert sol.phi_point.L == pytest.approx([0.45, 0.0], abs=1e-12)
        assert sol.r == pytest.approx(bisection_rate(rho, sigma, fam)[0], abs=1e-8)


class TestSolverGuards:
    """The two charges roots (the active bound_charge in theta, the thermal
    exit in t): cost, independence from brentq, and the warm-start retry."""

    # _gge_weights calls over the 32 benchmark families before the roots took
    # their slopes (nested brentq over cold or ratio-started ascents)
    NESTED_WEIGHT_CALLS = {"bound_charge": 1452, "conversion_rate_charges": 1810}

    @staticmethod
    def _run(name, f):
        fam, rho, sigma = benchmark_case(f)
        if name == "bound_charge":
            return bound_charge(rho, fam, 0)
        return conversion_rate_charges(rho, sigma, fam)

    @pytest.mark.parametrize("name", ["bound_charge", "conversion_rate_charges"])
    def test_weight_evaluations(self, name, monkeypatch):
        calls = []
        weights = charges_module._gge_weights

        def counting(*args):
            calls.append(None)
            return weights(*args)

        monkeypatch.setattr(charges_module, "_gge_weights", counting)
        for f in range(32):
            self._run(name, f)
        assert len(calls) <= 0.6 * self.NESTED_WEIGHT_CALLS[name]

    def test_roots_do_not_use_brentq(self, monkeypatch):
        import scipy.optimize

        def refuse(*args, **kwargs):
            raise AssertionError("brentq called")

        monkeypatch.setattr(scipy.optimize, "brentq", refuse)
        for f in (0, 3, 25):  # active bounds and thermal exits
            assert math.isfinite(self._run("bound_charge", f).beta_vec[0])
            assert self._run("conversion_rate_charges", f).phi_beta is not None

    @pytest.mark.parametrize("name,refused", [("bound_charge", 2), ("bound_charge", 3),
                                              ("conversion_rate_charges", 2)])
    def test_failed_warm_start_retries_along_the_path(self, name, refused, monkeypatch):
        # refuse one tangent start and retry from the nearest solve. The bound's
        # first tangent start lies at the second-order guess, far from the one
        # solve at theta = 0, and the retry from lam(0) fails there too: the
        # point halfway back is solved first, then the refused point from it
        expected = self._run(name, 25)
        starts, solved, points = [], [], []
        ascent, path_ascent = charges_module._max_entropy, charges_module._path_ascent

        def refusing_once(weights, levels, target, lam):
            starts.append(lam)
            if len(starts) == refused:
                raise InfeasibleTargetError("refused")
            solved.append(ascent(weights, levels, target, lam)[0])
            return solved[-1], weights(solved[-1])

        def recording(solve, path, x, *args):
            points.append(x)
            return path_ascent(solve, path, x, *args)

        monkeypatch.setattr(charges_module, "_max_entropy", refusing_once)
        monkeypatch.setattr(charges_module, "_path_ascent", recording)
        sol = self._run(name, 25)
        assert not np.any(starts[0])  # the first solve is cold
        assert np.array_equal(starts[refused], solved[refused - 2])  # the nearest solve
        if refused == 2 and name == "bound_charge":
            assert points[:3] == [points[0], points[0] / 2, points[0]]
        else:
            assert len(points) == len(set(points))  # no halving
        if name == "bound_charge":
            assert sol.value == pytest.approx(expected.value, abs=1e-12)
        else:
            assert sol.r == pytest.approx(expected.r, abs=1e-12)
