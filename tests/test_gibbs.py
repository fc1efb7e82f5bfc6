import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isotherm
from isotherm import gibbs
from isotherm.gibbs import (
    BRACKET_CAP,
    DEGENERACY_ATOL,
    BracketError,
    ConvergenceError,
    GibbsFamily,
    _boundary_grid,
    _boundary_point,
    _populations,
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
    haar_unitary,
    random_density,
    random_hamiltonian,
    spectrum_entropy,
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


def old_populations(fam, beta):
    """The populations-then-dot route that the gap form replaced: the exponents
    -beta eps_i shifted by the largest, which on a narrow spectrum far from 0
    keeps only the digits of -beta eps_i that survive the shift."""
    lv = fam.eigenvalues
    if math.isinf(beta):
        idx = lv <= lv[0] + DEGENERACY_ATOL if beta > 0 else lv >= lv[-1] - DEGENERACY_ATOL
        p = idx / idx.sum()
        return p, spectrum_entropy(p)
    x = -beta * lv
    x -= x[0] if beta >= 0 else x[-1]
    w = np.exp(x)
    rest = float(w[1:].sum() if beta >= 0 else w[:-1].sum())
    p = w / (1.0 + rest)
    return p, float(np.dot(p, -x)) + math.log1p(rest)


def old_point(fam, beta):
    """(E, S, Var) of the old route: the populations dotted with the levels."""
    p, s = old_populations(fam, beta)
    e = float(np.dot(p, fam.eigenvalues))
    dev = fam.eigenvalues - e
    return e, s, float(np.dot(p, dev * dev))


def old_log_partition(fam, beta):
    """The shifted-exponent ln Z that the gap form replaced: ln sum_i
    e^(-beta eps_i), with the largest exponent taken out."""
    x = -beta * fam.eigenvalues
    m = x.max()
    return float(m + np.log(np.sum(np.exp(x - m))))


def family_runs(cases):
    """(family, its betas) from a degenerate_cases run, which yields each
    family's betas in a row."""
    runs = []
    for fam, beta in cases:
        if not runs or runs[-1][0] is not fam:
            runs.append((fam, []))
        runs[-1][1].append(beta)
    return runs


class TestGapForm:
    """The gap form of the kernel against the old route, which it must match
    wherever that route keeps its digits: E to 1e-13 max(1, ||H||), S to
    1e-13 max(1, S), Var to 1e-10 relative where Var > 1e-200. The old route
    squares the rounding of its E into Var, so Var also gets (4 ulp ||H||)^2:
    that is the whole Var of a top level split by a few ulps at
    beta ||H|| = -700, where the old Var is up to 8% off a 50-digit sum and
    the gap form within 2e-15."""

    def test_point_and_populations_match_old_route(self, degenerate_cases):
        for fam, beta in degenerate_cases(60, 64):
            norm = max(abs(fam.energy_min), abs(fam.energy_max))
            e, s, var = _boundary_point(fam, beta)
            e_old, s_old, var_old = old_point(fam, beta)
            assert abs(e - e_old) <= 1e-13 * max(1.0, norm)
            assert abs(s - s_old) <= 1e-13 * max(1.0, s)
            if var_old > 1e-200:
                assert abs(var - var_old) <= 1e-10 * var_old + (4 * math.ulp(norm)) ** 2
            p, s_p = _populations(fam, beta)
            assert s_p == s  # the state and the curve share one entropy
            assert np.all(np.abs(p - old_populations(fam, beta)[0]) <= 1e-12 * p + 1e-300)

    def test_grid_matches_old_route(self, degenerate_cases):
        for fam, betas in family_runs(degenerate_cases(60, 64)):
            norm = max(abs(fam.energy_min), abs(fam.energy_max))
            e, s, log_z = _boundary_grid(fam, betas)
            for k, beta in enumerate(betas):
                e_old, s_old, _ = old_point(fam, beta)
                assert abs(e[k] - e_old) <= 1e-13 * max(1.0, norm)
                assert abs(s[k] - s_old) <= 1e-13 * max(1.0, s[k])
                if not math.isinf(beta):  # log_partition reads _gap_weights' sums
                    assert log_z[k] == pytest.approx(log_partition(fam, beta), rel=1e-13, abs=1e-13)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 8), st.floats(-1e3, 1e3),
           st.sampled_from([0.0, 1e-14, 1e-11, 1e-10, 3e-10, 1e-8, 1e-3, 1.0, 1e3]),
           st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_start_is_capped_and_flat_spectra_keep_their_sentinels(
            self, d, centre, spread, seed, s_frac, e_frac):
        u = np.random.default_rng(seed).random(d)
        fam = GibbsFamily(HermitianOperator.diagonal(centre + spread * (u - u.min()) / np.ptp(u)))
        starts = []
        solve = gibbs.newton_root

        def spy(f, lo, hi, start, **kwargs):
            starts.append(start)
            return solve(f, lo, hi, start, **kwargs)

        width = fam.energy_max - fam.energy_min
        with mock.patch.object(gibbs, "newton_root", spy):
            b_s = intrinsic_beta(fam, s_frac * math.log(d))
            b_e = spontaneous_beta(fam, fam.energy_min + e_frac * width)
        assert all(0 < start <= BRACKET_CAP for start in starts)
        if width <= DEGENERACY_ATOL:
            assert starts == [] and b_s in (0.0, math.inf) and b_e == 0.0


class TestGapFormAgainstMpmath:
    """_boundary_point and _populations against 50-digit sums on the same float
    levels: S to 1e-13 relative where S > 1e-100, E to 1e-14 of the width plus
    4 ulp of the largest |level|, Var to 1e-12 relative plus 1e-15 width^2.
    The populations are checked through their exact moments. On the narrow
    spectra the old route misses S by 8e-8 and Var by 1e-7 relative."""

    @staticmethod
    def check(fam, beta):
        lv = fam.eigenvalues
        width = fam.energy_max - fam.energy_min
        e_tol = 1e-14 * width + 4 * math.ulp(max(abs(fam.energy_min), abs(fam.energy_max)))
        p, s_p = _populations(fam, beta)
        with mpmath.workdps(50):
            e, s, var = mp_point(lv, mpmath.mpf(beta))
            pm, lm = [mpmath.mpf(float(x)) for x in p], [mpmath.mpf(float(x)) for x in lv]
            z = mpmath.fsum(pm)
            e_p = mpmath.fsum(x * y for x, y in zip(pm, lm)) / z
            var_p = mpmath.fsum(x * (y - e_p) ** 2 for x, y in zip(pm, lm)) / z
            for got_e, got_s, got_var in (_boundary_point(fam, beta), (e_p, s_p, var_p)):
                if s > 1e-100:
                    assert abs(got_s - s) <= 1e-13 * s
                assert abs(got_e - e) <= e_tol
                assert abs(got_var - var) <= 1e-12 * var + 1e-15 * width ** 2

    def test_narrow_spectra_far_from_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            d = int(rng.integers(2, 9))
            offsets = np.concatenate([[-0.5, 0.5], rng.random(d - 2) - 0.5])
            fam = GibbsFamily(HermitianOperator.diagonal(50.0 + 1e-6 * offsets))
            width = fam.energy_max - fam.energy_min
            for beta in rng.uniform(-20, 20, 4) / width:
                self.check(fam, float(beta))

    def test_degenerate_cases(self, degenerate_cases):
        for fam, beta in degenerate_cases(40, 64):
            if not math.isinf(beta):
                self.check(fam, beta)


class TestEvaluationCount:
    """Residual evaluations per root solve that reaches newton_root, on a
    seeded sweep over d = 2..64. Random states with their populations falling
    with energy (beta > 0) or rising (inverted, beta < 0) are the bulk, where
    the high-temperature start sits near the root: at most 5 per root on
    average (4.5; 6.7 from a start at beta = 1). Near-pure states, a Haar pure
    state mixed with weight a = 1e-1 ... 1e-4 of a random one, put the
    intrinsic root deep in the low-temperature tail, 9.2 on average; every
    solve stays within 16 evaluations."""

    def test_residual_evaluations_per_root(self, rng, monkeypatch):
        calls = []
        point = gibbs._joint_point

        def counting_point(fams, beta):
            calls.append(beta)
            return point(fams, beta)

        monkeypatch.setattr(gibbs, "_joint_point", counting_point)
        counts = {"bulk": [], "near_pure": []}
        for d in range(2, 65):
            fam = GibbsFamily(random_hamiltonian(d, rng))
            v = fam.hamiltonian.eigenvectors
            w = random_density(d, rng).spectrum  # descending
            psi = haar_unitary(d, rng)[:, :1]
            a = 10.0 ** -(1 + d % 4)
            states = {
                "bulk": [DensityMatrix((v * w) @ v.conj().T),
                         DensityMatrix((v * w[::-1]) @ v.conj().T)],
                "near_pure": [DensityMatrix((1 - a) * psi @ psi.conj().T
                                            + a * random_density(d, rng).entries)],
            }
            for kind, rhos in states.items():
                for rho in rhos:
                    for solve, target in ((intrinsic_beta, entropy(rho)),
                                          (spontaneous_beta, expectation(fam.hamiltonian, rho))):
                        calls.clear()
                        solve(fam, target)
                        if calls:
                            counts[kind].append(len(calls))
        assert len(counts["bulk"]) >= 240
        assert np.mean(counts["bulk"]) <= 5
        assert max(counts["bulk"] + counts["near_pure"]) <= 16


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

    def test_matches_shifted_route(self, degenerate_cases):
        # the gap form against the shifted exponents, up to |beta| ||H|| = 700
        for fam, beta in degenerate_cases(60, 64):
            if math.isinf(beta):
                continue
            old = old_log_partition(fam, beta)
            assert abs(log_partition(fam, beta) - old) <= 1e-13 * max(1.0, abs(old))


class TestLimitEntropy:
    """S at beta = +-inf is ln k, k the degeneracy of the limit subspace: the
    value intrinsic_beta's floor rule compares against, to the bit."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 6, 7, 31])
    def test_is_log_degeneracy(self, k):
        fam = GibbsFamily(HermitianOperator.diagonal([0.0] * k + [1.0] + [2.0] * k))
        assert fam.ground_degeneracy == k
        for beta in (math.inf, -math.inf):
            assert boundary_entropy(fam, beta) == math.log(k)
            assert _populations(fam, beta)[1] == math.log(k)


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

    def test_entropy_energy_slope_on_degenerate_spectra(self, degenerate_cases):
        # dS = beta dE along the curve, by central differences in beta. The
        # truncation error of ds - beta de is about (2h^3/3)|k3| with
        # |k3| <= width Var, so at most h^2 width |de| (|de| ~ 2h Var); the
        # rounding floor is a few ulps of S and of beta E
        eps = np.finfo(float).eps
        for fam, beta in degenerate_cases(60, 64):
            if math.isinf(beta):
                continue
            _, s, var = _boundary_point(fam, beta)
            if var == 0.0:
                continue
            norm = max(abs(fam.energy_min), abs(fam.energy_max))
            width = fam.energy_max - fam.energy_min
            h = 1e-4 * max(abs(beta), 1 / norm)
            e_hi, s_hi, _ = _boundary_point(fam, beta - h)
            e_lo, s_lo, _ = _boundary_point(fam, beta + h)
            de, ds = e_hi - e_lo, s_hi - s_lo
            tol = h * h * width * abs(de) + 64 * eps * (1 + abs(s) + abs(beta) * norm)
            assert abs(ds - beta * de) <= tol, (beta, ds, de)

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

    @pytest.mark.parametrize("energy", [0.9, 1.0 + 2e-9])
    def test_flat_spectrum_unattainable_energy(self, energy):
        fam = GibbsFamily(HermitianOperator.diagonal([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="unattainable for flat spectrum"):
            spontaneous_beta(fam, energy)

    def test_narrow_spectrum_far_from_zero(self):
        # one ulp above E_max = 62.0000001 is more than 1e-9 of the width 1e-7
        # but within the rounding of the levels
        fam = GibbsFamily(HermitianOperator.diagonal([62.0, 62.0000001]))
        energy = math.nextafter(fam.energy_max, math.inf)
        assert energy > fam.energy_max
        assert spontaneous_beta(fam, energy) == -math.inf
        with pytest.raises(ValueError):
            spontaneous_beta(fam, 62.0000002)
        # the gap form keeps the curve's energy inside the spectrum
        for beta in (3e8, -3e8):
            assert fam.energy_min <= boundary_energy(fam, beta) <= fam.energy_max


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
