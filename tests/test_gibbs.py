import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isotherm
from isotherm.gibbs import (
    BRACKET_CAP,
    BracketError,
    ConvergenceError,
    GibbsFamily,
    _boundary_grid,
    _boundary_point,
    boundary_energy,
    boundary_entropy,
    gibbs_state,
    intrinsic_beta,
    log_partition,
    newton_root,
    spontaneous_beta,
)
from isotherm.operators import (
    DensityMatrix,
    HermitianOperator,
    entropy,
    expectation,
    random_hamiltonian,
)
from isotherm.processes import DegenerateEngineError, carnot_engine

LN2 = math.log(2)
LN9 = math.log(9)


class TestGibbsState:
    def test_infinite_temperature_is_uniform(self, qutrit):
        rho = gibbs_state(qutrit, 0.0)
        assert np.allclose(np.diag(rho.entries).real, np.full(3, 1 / 3), atol=1e-12)

    def test_qubit_closed_form(self, qubit):
        # beta = ln 9 puts the populations at (0.9, 0.1)
        rho = gibbs_state(qubit, LN9)
        assert np.allclose(np.diag(rho.entries).real, [0.9, 0.1], atol=1e-12)

    def test_zero_temperature_ground_projector(self, degenerate_qutrit):
        rho = gibbs_state(degenerate_qutrit, math.inf)
        assert np.allclose(np.diag(rho.entries).real, [0.5, 0.5, 0.0], atol=1e-12)

    def test_negative_zero_temperature_top_projector(self, qutrit):
        rho = gibbs_state(qutrit, -math.inf)
        assert np.allclose(np.diag(rho.entries).real, [0.0, 0.0, 1.0], atol=1e-12)

    def test_family_shares_hamiltonian_spectrum(self, rng):
        h = random_hamiltonian(5, rng)
        assert GibbsFamily(h).eigenvalues is h.eigenvalues

    def test_basis_independence(self, rng):
        h = random_hamiltonian(4, rng)
        fam = GibbsFamily(h)
        rho = gibbs_state(fam, 0.7)
        direct = np.linalg.eigvalsh(rho.entries)
        w = np.exp(-0.7 * np.linalg.eigvalsh(h.entries))
        assert np.allclose(np.sort(direct), np.sort(w / w.sum()), atol=1e-10)


class TestKnownSpectrum:
    """gibbs_state takes its Boltzmann weights as the spectrum, against the eigh route."""

    def test_matches_eigh_route(self, degenerate_cases, assert_matches_eigh_route):
        for fam, beta in degenerate_cases(40, 64):
            assert_matches_eigh_route(gibbs_state(fam, beta))

    def test_entropy_is_boundary_entropy(self, degenerate_cases):
        # the eigh route misses this by up to 1.2e-13 on pure states at d = 64
        for fam, beta in degenerate_cases(40, 64):
            assert entropy(gibbs_state(fam, beta)) == pytest.approx(
                boundary_entropy(fam, beta), abs=1e-14)

    def test_runs_no_eigh(self, rng, eigh_calls):
        fam = GibbsFamily(random_hamiltonian(64, rng))
        eigh_calls.clear()
        for beta in (0.0, 0.3, -2.0, math.inf, -math.inf):
            gibbs_state(fam, beta)
        assert eigh_calls == []


class TestBoundaryGrid:
    """_boundary_grid row by row against the scalar kernels."""

    def test_matches_scalar_kernels(self, rng):
        for d in (2, 3, 5, 8, 16, 33, 64):
            fam = GibbsFamily(random_hamiltonian(d, rng))
            betas = np.concatenate([[-math.inf, 0.0, math.inf], rng.uniform(-40, 40, 60)])
            e, s, log_z = _boundary_grid(fam, betas)
            for k, beta in enumerate(betas):
                e_k, s_k, _ = _boundary_point(fam, beta)
                assert abs(e[k] - e_k) <= 1e-13 and abs(s[k] - s_k) <= 1e-13
                if math.isinf(beta):
                    assert math.isnan(log_z[k])
                else:
                    assert abs(log_z[k] - log_partition(fam, beta)) <= 1e-13

    def test_entropy_relative_to_scalar_kernel(self, degenerate_cases):
        # up to |beta| ||H|| = 700: a -p ln p sum loses the ground term there
        cases = []  # (family, its betas): the fixture yields each family's betas in a run
        for fam, beta in degenerate_cases(40, 64):
            if not cases or cases[-1][0] is not fam:
                cases.append((fam, []))
            cases[-1][1].append(beta)
        for fam, betas in cases:
            _, s, _ = _boundary_grid(fam, betas)
            for s_k, beta in zip(s, betas):
                assert s_k == pytest.approx(boundary_entropy(fam, beta), rel=1e-14, abs=0)


class TestLogPartition:
    def test_infinite_temperature(self, qutrit):
        assert log_partition(qutrit, 0.0) == pytest.approx(math.log(3), abs=1e-12)

    def test_qubit_value(self, qubit):
        assert log_partition(qubit, 1.0) == pytest.approx(
            math.log(1 + math.exp(-1)), abs=1e-12)

    def test_spectral_shift_invariance(self, rng):
        h = random_hamiltonian(4, rng)
        shifted = HermitianOperator(h.entries + 5.0 * np.eye(4))
        lz = log_partition(GibbsFamily(h), 2.0)
        lz_shift = log_partition(GibbsFamily(shifted), 2.0)
        assert lz_shift == pytest.approx(lz - 2.0 * 5.0, abs=1e-10)

    def test_sentinel_beta_rejected(self, degenerate_qutrit):
        # ln Z diverges linearly in beta; sentinel inputs are a caller bug
        with pytest.raises(ValueError):
            log_partition(degenerate_qutrit, math.inf)

    def test_zero_temperature_trend(self, degenerate_qutrit):
        # ln Z -> ln g0 - beta E_min: with E_min = 0 it flattens at ln 2
        assert log_partition(degenerate_qutrit, 40.0) == pytest.approx(LN2, abs=1e-12)


class TestBoundaryCurve:
    def test_matches_state_functions(self, qutrit):
        for beta in (-3.0, -0.5, 0.0, 0.5, 3.0):
            rho = gibbs_state(qutrit, beta)
            assert boundary_energy(qutrit, beta) == pytest.approx(
                expectation(qutrit.hamiltonian, rho), abs=1e-10)
            assert boundary_entropy(qutrit, beta) == pytest.approx(
                entropy(rho), abs=1e-10)

    def test_entropy_decreasing_in_beta(self, qutrit):
        betas = np.linspace(0.0, 10.0, 40)
        s = [boundary_entropy(qutrit, b) for b in betas]
        assert all(s[i] >= s[i + 1] - 1e-12 for i in range(len(s) - 1))

    def test_energy_decreasing_in_beta(self, qutrit):
        betas = np.linspace(-5.0, 5.0, 40)
        e = [boundary_energy(qutrit, b) for b in betas]
        assert all(e[i] >= e[i + 1] - 1e-12 for i in range(len(e) - 1))

    def test_slope_of_entropy_vs_energy_is_beta(self, qutrit):
        # dS/dE along the boundary equals beta
        for beta in (0.3, 1.0, 2.5):
            db = 1e-6
            ds = boundary_entropy(qutrit, beta + db) - boundary_entropy(qutrit, beta - db)
            de = boundary_energy(qutrit, beta + db) - boundary_energy(qutrit, beta - db)
            assert ds / de == pytest.approx(beta, abs=1e-4)

    def test_variance_gives_both_slopes(self, qutrit, degenerate_qutrit):
        # dE/dbeta = -Var and dS/dbeta = -beta Var: the root solvers' slopes
        db = 1e-6
        for beta in (-3.0, -0.5, 0.0, 0.5, 3.0):
            e_hi, s_hi, _ = _boundary_point(qutrit, beta + db)
            e_lo, s_lo, _ = _boundary_point(qutrit, beta - db)
            var = _boundary_point(qutrit, beta)[2]
            assert (e_hi - e_lo) / (2 * db) == pytest.approx(-var, abs=1e-8)
            assert (s_hi - s_lo) / (2 * db) == pytest.approx(-beta * var, abs=1e-8)
        assert _boundary_point(degenerate_qutrit, math.inf)[2] == 0.0
        assert _boundary_point(degenerate_qutrit, -math.inf)[2] == 0.0

    def test_limits(self, degenerate_qutrit):
        assert boundary_entropy(degenerate_qutrit, math.inf) == pytest.approx(LN2)
        assert boundary_energy(degenerate_qutrit, math.inf) == pytest.approx(0.0)
        assert boundary_entropy(degenerate_qutrit, -math.inf) == pytest.approx(0.0)
        assert boundary_energy(degenerate_qutrit, -math.inf) == pytest.approx(1.0)


class TestIntrinsicBeta:
    def test_qubit_closed_form(self, qubit):
        h2 = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        assert intrinsic_beta(qubit, h2) == pytest.approx(LN9, abs=1e-10)

    def test_full_entropy_gives_zero(self, qutrit):
        assert intrinsic_beta(qutrit, math.log(3)) == 0.0

    def test_zero_entropy_gives_inf(self, qutrit):
        assert intrinsic_beta(qutrit, 0.0) == math.inf

    def test_degenerate_sentinel(self, degenerate_qutrit):
        # any target at or below the ground floor ln 2 hits the sentinel
        assert intrinsic_beta(degenerate_qutrit, LN2) == math.inf
        assert intrinsic_beta(degenerate_qutrit, 0.3) == math.inf

    def test_out_of_range_raises(self, qubit):
        with pytest.raises(ValueError):
            intrinsic_beta(qubit, LN2 + 1e-6)
        with pytest.raises(ValueError):
            intrinsic_beta(qubit, -0.1)

    def test_round_trip(self, rng):
        for _ in range(20):
            fam = GibbsFamily(random_hamiltonian(rng.integers(2, 7), rng))
            beta = float(rng.uniform(0.05, 8.0))
            rec = intrinsic_beta(fam, boundary_entropy(fam, beta))
            assert rec == pytest.approx(beta, abs=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.01, max_value=20.0))
    def test_round_trip_qubit_property(self, beta):
        fam = GibbsFamily(HermitianOperator.diagonal([0.0, 1.0]))
        assert intrinsic_beta(fam, boundary_entropy(fam, beta)) == pytest.approx(
            beta, rel=1e-7, abs=1e-8)


class TestSpontaneousBeta:
    def test_sign_conventions(self, qubit):
        assert spontaneous_beta(qubit, 0.5) == pytest.approx(0.0, abs=1e-10)
        assert spontaneous_beta(qubit, 0.1) == pytest.approx(LN9, abs=1e-8)
        # inverted population: negative beta
        assert spontaneous_beta(qubit, 0.9) == pytest.approx(-LN9, abs=1e-8)

    def test_energy_limits(self, qubit):
        assert spontaneous_beta(qubit, 0.0) == math.inf
        assert spontaneous_beta(qubit, 1.0) == -math.inf

    def test_out_of_range_raises(self, qubit):
        with pytest.raises(ValueError):
            spontaneous_beta(qubit, -0.01)
        with pytest.raises(ValueError):
            spontaneous_beta(qubit, 1.01)

    def test_round_trip(self, rng):
        for _ in range(20):
            fam = GibbsFamily(random_hamiltonian(rng.integers(2, 7), rng))
            beta = float(rng.uniform(-4.0, 4.0))
            rec = spontaneous_beta(fam, boundary_energy(fam, beta))
            assert rec == pytest.approx(beta, abs=1e-8)

    def test_maximally_mixed_energy_gives_zero(self, qutrit):
        # the mean energy rounds an ulp off E(gamma(0)); a root solve alone
        # would return a rounding speck of either sign
        energy = expectation(qutrit.hamiltonian, DensityMatrix.maximally_mixed(3))
        assert spontaneous_beta(qutrit, energy) == 0.0

    def test_flat_spectrum(self):
        fam = GibbsFamily(HermitianOperator.diagonal([1.0, 1.0, 1.0]))
        assert spontaneous_beta(fam, 1.0) == 0.0

    def test_narrow_spectrum_far_from_zero(self):
        # E(gamma(-3e8)) rounds one ulp above E_max = 62.0000001, more than
        # 1e-9 of the width 1e-7 but within the rounding of the levels
        fam = GibbsFamily(HermitianOperator.diagonal([62.0, 62.0000001]))
        energy = boundary_energy(fam, -3e8)
        assert energy > fam.energy_max
        assert spontaneous_beta(fam, energy) == -math.inf
        with pytest.raises(ValueError):
            spontaneous_beta(fam, 62.0000002)


class TestNewtonRoot:
    """newton_root (rtsafe): f returns (f, f'), the ends are not evaluated."""

    @staticmethod
    def arctan(calls):
        def f(x):  # root at 7, flat tails that send a plain Newton far off
            calls.append(x)
            return -math.atan(x - 7.0), -1.0 / (1.0 + (x - 7.0) ** 2)

        return f

    def test_open_bracket_converges_without_scipy(self, monkeypatch):
        import scipy.optimize

        def refuse(*args, **kwargs):
            raise AssertionError("brentq called")

        monkeypatch.setattr(scipy.optimize, "brentq", refuse)
        calls = []
        assert newton_root(self.arctan(calls), 0.0, math.inf, start=1.0) == pytest.approx(
            7.0, abs=1e-12)
        assert 0.0 not in calls and len(calls) <= 40

    def test_newton_step_outside_the_bracket_bisects(self):
        calls = []
        root = newton_root(self.arctan(calls), 1.0, 50.0, start=40.0)
        assert root == pytest.approx(7.0, abs=1e-12)
        assert calls[1] == 20.5  # Newton from 40 lands below lo = 1

    def test_quadratic_convergence_stops_on_a_relative_step(self):
        calls = []

        def f(x):
            calls.append(x)
            return 2e6 - x * x, -2.0 * x

        root = newton_root(f, 1.0, 1e4, start=1e3)
        assert root == pytest.approx(math.sqrt(2e6), rel=1e-15)
        assert len(calls) <= 8

    def test_open_bracket_with_no_root_raises(self):
        calls = []

        def f(x):
            calls.append(x)
            return 1.0, 0.0

        with pytest.raises(BracketError):
            newton_root(f, 0.0, math.inf, start=1.0)
        assert len(calls) <= 62
        assert max(calls) <= BRACKET_CAP

    def test_doubles_without_a_slope_and_never_touches_lo(self):
        calls = []

        def f(x):
            calls.append(x)
            return 100.0 - x, 0.0

        assert newton_root(f, 0.0, math.inf, start=1.0) == pytest.approx(100.0, abs=1e-10)
        assert calls[:8] == [2.0 ** k for k in range(8)]
        assert 0.0 not in calls

    def test_wide_bracket_converges(self):
        # the flat tails withhold the slope, so about 1000 halvings reach the root
        calls = []

        def f(x):
            calls.append(x)
            t = math.tanh(x - 7.0)
            return -t, t * t - 1.0

        assert newton_root(f, 1.0, 1e300, start=5e299) == pytest.approx(7.0, abs=1e-10)
        assert len(calls) > 900

    def test_nonconvergence_raises_named_error(self):
        # halving toward an infinite lower end gives nan, so the bracket never shrinks
        with pytest.raises(ConvergenceError) as err:
            newton_root(lambda x: (-1.0, 0.0), -math.inf, 1.0, start=0.5)
        assert isinstance(err.value, ValueError)

    def test_open_bracket_needs_a_positive_start(self):
        with pytest.raises(ValueError):
            newton_root(lambda x: (1.0 - x, -1.0), -1.0, math.inf, start=0.0)

    def test_open_bracket_rejects_a_negative_start_unevaluated(self):
        calls = []

        def f(x):
            calls.append(x)
            return -1.0 - x, -1.0

        with pytest.raises(ValueError):
            newton_root(f, -2.0, math.inf, start=-1.0)
        assert calls == []

    def test_positive_asymptote_raises_within_cap(self):
        # f decreases toward 1 > 0: the first Newton step is taken, every later
        # one overshoots half the previous step, so x doubles up to the cap
        calls = []

        def f(x):
            calls.append(x)
            return 1.0 + math.exp(-x), -math.exp(-x)

        with pytest.raises(BracketError):
            newton_root(f, 0.0, math.inf, start=1.0)
        assert calls[1] == pytest.approx(2.0 + math.e, rel=1e-15)
        assert len(calls) <= 62
        assert max(calls) <= BRACKET_CAP


def mp_point(levels, beta):
    """(E, S, Var) of gamma(beta) for a float spectrum, at the working precision."""
    lv = [mpmath.mpf(float(x)) for x in levels]
    ref = min(lv) if beta >= 0 else max(lv)
    w = [mpmath.exp(-beta * (x - ref)) for x in lv]
    z = mpmath.fsum(w)
    e = mpmath.fsum(x * wi for x, wi in zip(lv, w)) / z
    var = mpmath.fsum((x - e) ** 2 * wi for x, wi in zip(lv, w)) / z
    return e, beta * (e - ref) + mpmath.log(z), var


class TestEntropyNearPureState:
    """The intrinsic beta of states within 1e-10 of pure: spectrum_entropy
    keeps the largest entry's term, so the roots keep their digits."""

    LEVELS = [0.0, 1.0, 2.0]

    def test_gibbs_round_trip(self):
        fam = GibbsFamily(HermitianOperator.diagonal(self.LEVELS))
        beta = intrinsic_beta(fam, entropy(gibbs_state(fam, 28.0)))
        assert beta == pytest.approx(28.0, rel=1e-13, abs=0)

    @pytest.mark.parametrize("a", [1e-10, 1e-12])
    def test_against_mpmath_root(self, a):
        fam = GibbsFamily(HermitianOperator.diagonal(self.LEVELS))
        probs = [1.0 - a, 0.3 * a, 0.7 * a]
        got = intrinsic_beta(fam, entropy(DensityMatrix.diagonal(probs)))
        with mpmath.workdps(50):
            # the state as its small entries fix it: the largest is 1 minus their sum
            small = [mpmath.mpf(p) for p in probs[1:]]
            p = small + [1 - mpmath.fsum(small)]
            target = -mpmath.fsum(x * mpmath.log(x) for x in p)
            root = TestMpmathOracle.newton(
                lambda b: (mp_point(self.LEVELS, b)[1] - target,
                           -b * mp_point(self.LEVELS, b)[2]), got)
        assert abs(got - root) <= 1e-12 * root


class TestMpmathOracle:
    """The scalar roots against 50-digit Newton roots of the same float targets,
    to 1e-10 relative in beta, on integer spectra at units 1e-2 to 2.5e3
    (||H|| up to 1e4), exactly degenerate or split by 1e-9 or 1e-6 of the
    unit, with |beta| ||H|| log-uniform in [0.01, 700]. A root is checked
    when the float residual pins it: 8 ulp of the residual's scale move it by
    at most 1e-11 relative (near-degenerate levels at large beta do not)."""

    EPS = np.finfo(float).eps

    @staticmethod
    def spectra(seed, n):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            unit = float(rng.choice([1e-2, 1.0, 1e2, 2.5e3]))
            split = float(rng.choice([0.0, 1e-9, 1e-6]))
            d = int(rng.integers(2, 7))
            ints = rng.integers(0, 5, d)
            ints[0] += np.ptp(ints) == 0
            levels = unit * (ints + split * rng.random(d))
            norm = float(np.max(np.abs(levels)))
            beta = 10 ** rng.uniform(-2, math.log10(700)) / norm
            yield GibbsFamily(HermitianOperator.diagonal(levels)), levels, norm, beta, rng

    @staticmethod
    def newton(f, beta):
        with mpmath.workdps(50):
            beta = mpmath.mpf(beta)
            for _ in range(20):
                value, slope = f(beta)
                step = value / slope
                beta -= step
                if abs(step) <= 1e-40 * abs(beta):
                    return beta
        raise AssertionError("the 50-digit Newton did not settle")

    def test_intrinsic_beta(self):
        checked = 0
        for fam, levels, _, beta, _ in self.spectra(1, 150):
            with mpmath.workdps(50):
                _, s, var = mp_point(levels, mpmath.mpf(beta))
                target = float(s)
            if target <= math.log(fam.ground_degeneracy) + 1e-12:
                assert intrinsic_beta(fam, target) == math.inf
                continue
            if 8 * self.EPS * target > 1e-11 * beta * beta * float(var):
                continue
            root = self.newton(lambda b: (mp_point(levels, b)[1] - target,
                                          -b * mp_point(levels, b)[2]), beta)
            assert abs(intrinsic_beta(fam, target) - root) <= 1e-10 * root
            checked += 1
        assert checked >= 75

    def test_spontaneous_beta_both_signs(self):
        checked = {1.0: 0, -1.0: 0}
        for fam, levels, norm, beta, rng in self.spectra(2, 150):
            sign = float(rng.choice([1.0, -1.0]))
            with mpmath.workdps(50):
                e, _, var = mp_point(levels, mpmath.mpf(sign * beta))
                target = float(e)
            if 8 * self.EPS * norm > 1e-11 * beta * float(var):
                continue
            got = spontaneous_beta(fam, target)
            if math.isinf(got):  # within 1e-10 of the width of a limit subspace's energy
                continue
            root = self.newton(lambda b: (mp_point(levels, b)[0] - target,
                                          -mp_point(levels, b)[2]), sign * beta)
            assert abs(got - root) <= 1e-10 * abs(root)
            checked[sign] += 1
        assert min(checked.values()) >= 30

    def test_engine_joint_beta(self):
        checked = 0
        pairs = zip(self.spectra(3, 60), self.spectra(4, 60))
        for (fam_a, lv_a, _, beta_a, rng), (fam_b, lv_b, _, beta_b, _) in pairs:
            if beta_a == beta_b:
                continue
            beta_b, beta_a = sorted((beta_a, beta_b))
            n_a, n_b = (int(n) for n in rng.integers(1, 5, 2))
            # the engine's own float entropy total
            s_total = n_a * boundary_entropy(fam_a, beta_a) + n_b * boundary_entropy(fam_b, beta_b)

            def resid(b):
                _, s_a, var_a = mp_point(lv_a, b)
                _, s_b, var_b = mp_point(lv_b, b)
                return n_a * s_a + n_b * s_b - s_total, -b * (n_a * var_a + n_b * var_b)

            try:
                run = carnot_engine((fam_a, beta_a, n_a), (fam_b, beta_b, n_b))
            except DegenerateEngineError:  # no heat drawn: the hot bath's entropy is frozen
                continue
            root = self.newton(resid, run.beta_joint)
            with mpmath.workdps(50):
                slope = resid(root)[1]
            if 8 * self.EPS * s_total > -1e-11 * root * slope:
                continue
            assert abs(run.beta_joint - root) <= 1e-10 * root
            checked += 1
        assert checked >= 25


def test_import_leaves_scipy_unloaded():
    src = str(Path(isotherm.__file__).resolve().parents[1])
    code = "import isotherm, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_charge_polytope_lp_leaves_scipy_unloaded():
    src = str(Path(isotherm.__file__).resolve().parents[1])
    code = ("import sys, numpy as np; from isotherm.charges import _lp_face; "
            "ells = np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 2.0]]); "
            "duals, face = _lp_face(ells[0], np.vstack([ells[1], np.ones(4)]), [1.2, 1.0]); "
            "assert face.any() and 'scipy' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


class TestProductStructure:
    def test_joint_gibbs_is_product(self, qubit, qutrit, rng):
        from isotherm.operators import SubsystemSplit, kron_sum, partial_trace, tensor

        joint = GibbsFamily(kron_sum(qubit.hamiltonian, qutrit.hamiltonian))
        beta = 1.3
        rho = gibbs_state(joint, beta)
        expected = tensor(gibbs_state(qubit, beta), gibbs_state(qutrit, beta))
        assert np.allclose(rho.entries, expected.entries, atol=1e-12)
        marg = partial_trace(rho, SubsystemSplit((2, 3)), [1])
        assert np.allclose(marg.entries, gibbs_state(qutrit, beta).entries, atol=1e-12)
