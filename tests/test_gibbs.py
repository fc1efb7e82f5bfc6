import math
import os
import subprocess
import sys
from pathlib import Path

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
    decreasing_root,
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
                e_k, s_k = _boundary_point(fam, beta)
                assert abs(e[k] - e_k) <= 1e-13 and abs(s[k] - s_k) <= 1e-13
                if math.isinf(beta):
                    assert math.isnan(log_z[k])
                else:
                    assert abs(log_z[k] - log_partition(fam, beta)) <= 1e-13


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
        # the mean energy rounds an ulp off E(gamma(0)); brentq alone would
        # return a rounding speck of either sign
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


class TestDecreasingRoot:
    def test_grows_hi_without_touching_nonnegative_lo(self):
        calls = []

        def f(x):
            calls.append(x)
            return 100.0 - x

        assert decreasing_root(f, 0.0, 1.0) == pytest.approx(100.0, abs=1e-10)
        assert calls[:8] == [2.0 ** k for k in range(8)]

    def test_grows_negative_lo(self):
        assert decreasing_root(lambda x: -50.0 - x, -1.0, 1.0) == pytest.approx(
            -50.0, abs=1e-10)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_no_sign_change_raises_within_cap(self, sign):
        calls = []

        def f(x):
            calls.append(x)
            return sign

        with pytest.raises(BracketError):
            decreasing_root(f, -1.0, 1.0)
        assert len(calls) <= 62
        assert max(abs(x) for x in calls) <= BRACKET_CAP

    def test_rejects_nonpositive_hi(self):
        with pytest.raises(ValueError):
            decreasing_root(lambda x: 1.0, -1.0, 0.0)

    def test_wide_bracket_converges(self):
        # the flat tails leave brentq bisecting, far past its default 100 iterations
        calls = []

        def f(x):
            calls.append(x)
            return -math.tanh(x - 7.0)

        assert decreasing_root(f, 1.0, 1e300) == pytest.approx(7.0, abs=1e-10)
        assert len(calls) > 900

    def test_nonconvergence_raises_named_error(self):
        # hi - lo overflows, so brentq never shrinks the bracket
        with pytest.raises(ConvergenceError) as err:
            decreasing_root(lambda x: 1.0 - x, -1.7e308, 1.7e308)
        assert isinstance(err.value, ValueError)


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

    def test_open_bracket_needs_a_positive_start(self):
        with pytest.raises(ValueError):
            newton_root(lambda x: (1.0 - x, -1.0), -1.0, math.inf, start=0.0)


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
