import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isotherm.energetics import (
    athermality,
    beta_athermality,
    beta_free_energy,
    bound_energy,
    free_energy,
    relative_entropy,
    report,
)
from isotherm.gibbs import (
    GibbsFamily,
    boundary_energy,
    gibbs_state,
    intrinsic_beta,
    spontaneous_beta,
)
from isotherm.operators import (
    DensityMatrix,
    HermitianOperator,
    entropy,
    haar_unitary,
    expectation,
    random_density,
    random_hamiltonian,
)
from isotherm.oracles import (
    default_beta_grid,
    relative_entropy_check,
    symmetric_beta_grid,
    variational_athermality,
    variational_free_energy,
)

LN9 = math.log(9)


def brute_force_bound_energy(rho, fam, n=4001):
    """Independent check: scan the boundary for the energy at S(rho),
    coarse pass then a refined pass around the best grid point."""
    from isotherm.gibbs import boundary_entropy

    s = entropy(rho)

    def scan(betas):
        best_e, best_b = fam.energy_max, betas[0]
        for b in betas:
            if boundary_entropy(fam, b) >= s - 1e-13:
                e = boundary_energy(fam, b)
                if e < best_e:
                    best_e, best_b = e, b
        return best_e, best_b

    _, b0 = scan(np.geomspace(1e-4, 1e4, n))
    best, _ = scan(np.linspace(b0 * 0.99, b0 * 1.01, n))
    return best


class TestBoundAndFreeEnergy:
    def test_qubit_closed_form(self, qubit, rho_qubit_91):
        # inverted populations (0.1, 0.9): bound energy is the Gibbs energy
        # at the matching entropy, the rest (0.8) is free
        assert bound_energy(rho_qubit_91, qubit) == pytest.approx(0.1, abs=1e-12)
        assert free_energy(rho_qubit_91, qubit) == pytest.approx(0.8, abs=1e-12)

    def test_thermal_qubit(self, qubit):
        # populations (0.9, 0.1) are already Gibbs at beta = ln 9: same bound
        # energy as the inverted twin, zero free energy
        rho = DensityMatrix.diagonal([0.9, 0.1])
        assert bound_energy(rho, qubit) == pytest.approx(0.1, abs=1e-12)
        assert free_energy(rho, qubit) == pytest.approx(0.0, abs=1e-12)

    def test_pure_state(self, qubit):
        rho = DensityMatrix.diagonal([0.0, 1.0])
        assert bound_energy(rho, qubit) == pytest.approx(0.0, abs=1e-12)
        assert free_energy(rho, qubit) == pytest.approx(1.0, abs=1e-12)

    def test_gibbs_has_zero_free_energy(self, qutrit):
        for beta in (0.2, 1.0, 4.0):
            assert free_energy(gibbs_state(qutrit, beta), qutrit) == pytest.approx(
                0.0, abs=1e-10)

    def test_free_energy_nonnegative(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 6))
            fam = GibbsFamily(random_hamiltonian(d, rng))
            assert free_energy(random_density(d, rng), fam) >= -1e-12

    def test_against_boundary_scan(self, rng):
        for _ in range(10):
            fam = GibbsFamily(random_hamiltonian(4, rng))
            rho = random_density(4, rng)
            assert bound_energy(rho, fam) == pytest.approx(
                brute_force_bound_energy(rho, fam), abs=1e-5)

    def test_degenerate_ground_space(self, degenerate_qutrit):
        # entropy below the ground floor ln 2: bound energy pins to E_min
        rho = DensityMatrix.diagonal([0.95, 0.05, 0.0])
        assert bound_energy(rho, degenerate_qutrit) == pytest.approx(0.0, abs=1e-12)


class TestRelativeEntropy:
    def test_self_is_zero(self, rng):
        rho = random_density(3, rng)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_known_value(self):
        rho = DensityMatrix.diagonal([0.75, 0.25])
        sigma = DensityMatrix.diagonal([0.5, 0.5])
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert relative_entropy(rho, sigma) == pytest.approx(expected, abs=1e-12)

    def test_support_violation_rejected(self):
        rho = DensityMatrix.diagonal([0.5, 0.5])
        sigma = DensityMatrix.diagonal([1.0, 0.0])
        with pytest.raises(ValueError):
            relative_entropy(rho, sigma)

    def test_nonnegative(self, rng):
        for _ in range(30):
            assert relative_entropy(random_density(3, rng),
                                    random_density(3, rng)) >= -1e-10

    def test_matches_matmul_trace(self, rng):
        # the O(d^2) pairing against the d^3 route it replaced,
        # -Tr(rho @ log sigma) - S(rho), on the same eigh of sigma
        pairs = [(random_density(d, rng), random_density(d, rng))
                 for d in (2, 4, 16, 64) for _ in range(3)]
        # sigma singular, rho inside its support: log sigma clipped at 1e-300
        pairs.append((DensityMatrix.diagonal([0.6, 0.4, 0.0]),
                      DensityMatrix.diagonal([0.2, 0.8, 0.0])))
        for rho, sigma in pairs:
            w, v = np.linalg.eigh(sigma.entries)
            log_w = np.log(np.clip(w, 1e-300, None))
            oracle = -np.trace(rho.entries @ ((v * log_w) @ v.conj().T)).real - entropy(rho)
            norm = np.max(np.abs(log_w))
            assert abs(relative_entropy(rho, sigma) - oracle) <= 1e-13 * max(1.0, norm)

    @staticmethod
    def eigh_route(rho, sigma):
        """relative_entropy on its own eigh of sigma, the route it replaced."""
        w, v = np.linalg.eigh(sigma.entries)
        if w.min() <= 0:
            null = v[:, w <= 1e-14]
            if np.linalg.norm(null.conj().T @ rho.entries @ null) > 1e-12:
                raise ValueError("support of rho not contained in support of sigma")
            w = np.clip(w, 1e-300, None)
        log_sigma = (v * np.log(w)) @ v.conj().T
        return float(-np.trace(rho.entries @ log_sigma).real - entropy(rho))

    def test_reads_the_kept_eigenpairs(self, rng, eigh_calls):
        # a checked state computes its eigenvectors on first read, with one
        # eigh, and keeps them; a Gibbs state keeps the ones it was built from
        for d in (2, 16, 64):
            fam = GibbsFamily(random_hamiltonian(d, rng))
            sigma_r = random_density(d, rng, rank=d // 2)
            # rho inside sigma_r's support: a random state on its leading eigenvectors
            v = sigma_r.eigenvectors[:, : d // 2]
            inside = DensityMatrix((v * random_density(d // 2, rng).spectrum) @ v.conj().T)
            cases = [(random_density(d, rng), random_density(d, rng), 1),
                     (inside, DensityMatrix(sigma_r.entries), 1),
                     (random_density(d, rng), gibbs_state(fam, float(rng.uniform(0.1, 0.5))), 0)]
            for rho, sigma, first_read_eighs in cases:
                eigh_calls.clear()
                sigma.eigenvectors
                assert len(eigh_calls) == first_read_eighs
                eigh_calls.clear()
                sigma.eigenvectors
                assert eigh_calls == []
                got = relative_entropy(rho, sigma)
                assert eigh_calls == []
                assert abs(got - self.eigh_route(rho, sigma)) <= 1e-12


class TestBetaAthermality:
    def test_equals_relative_entropy_to_gibbs(self, rng):
        for _ in range(20):
            fam = GibbsFamily(random_hamiltonian(3, rng))
            rho = random_density(3, rng)
            beta = float(rng.uniform(0.1, 3.0))
            assert beta_athermality(rho, fam, beta) == pytest.approx(
                relative_entropy(rho, gibbs_state(fam, beta)), abs=1e-10)

    def test_check_helper_residual(self, rng):
        fam = GibbsFamily(random_hamiltonian(4, rng))
        rho = random_density(4, rng)
        assert relative_entropy_check(rho, fam) <= 1e-9

    def test_check_helper_inverted_low_entropy_d64(self):
        # populations proportional to e^(-k/2), highest on the top levels: an
        # eigh of the dense Gibbs matrix at this large beta reached 4e-6
        rng = np.random.default_rng(3)
        pops = np.exp(-np.arange(64) / 2)
        pops /= pops.sum()
        for _ in range(5):
            h = random_hamiltonian(64, rng)
            _, v = np.linalg.eigh(h.entries)
            rho = DensityMatrix((v * pops[::-1]) @ v.conj().T)
            assert relative_entropy_check(rho, GibbsFamily(h)) <= 1e-8

    def test_vanishes_on_gibbs(self, qutrit):
        assert beta_athermality(gibbs_state(qutrit, 1.2), qutrit, 1.2) == pytest.approx(
            0.0, abs=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(30):
            fam = GibbsFamily(random_hamiltonian(3, rng))
            rho = random_density(3, rng)
            assert beta_athermality(rho, fam, float(rng.uniform(0.05, 5.0))) >= -1e-12


class TestRelativeEntropyProperty:
    """F(rho) = T(rho) D(rho || gamma(beta*(rho))) through relative_entropy_check,
    within its documented 1e-8, on integer-degenerate and near-degenerate
    spectra and up to beta* ||H|| = 700."""

    @settings(max_examples=80, deadline=None)
    @given(levels=st.lists(st.integers(0, 4), min_size=2, max_size=6),
           jitter=st.sampled_from([0.0, 1e-11, 1e-9, 1e-6]),
           scale=st.floats(1e-2, 1e2),
           beta_norm=st.floats(1e-2, 700.0),
           seed=st.integers(0, 2**32 - 1))
    @example(levels=[0, 0, 1], jitter=0.0, scale=1.0, beta_norm=700.0, seed=0)
    @example(levels=[0, 0, 1], jitter=1e-11, scale=1.0, beta_norm=30.0, seed=1)
    @example(levels=[1, 3, 1, 1, 4, 0], jitter=1e-11, scale=72.0, beta_norm=0.13, seed=2)
    @example(levels=[0, 1], jitter=0.0, scale=100.0, beta_norm=1e-2, seed=3)
    def test_free_energy_is_temperature_times_divergence(self, levels, jitter, scale,
                                                         beta_norm, seed):
        rng = np.random.default_rng(seed)
        h = scale * (np.array(levels, dtype=float) + jitter * rng.standard_normal(len(levels)))
        norm = float(np.max(np.abs(h)))
        if norm == 0.0:
            h, norm = h + scale, scale  # keep ||H|| > 0; the spectrum stays flat
        # a rotated, permuted Gibbs state of beta_norm / ||H||: its intrinsic
        # beta is that beta, up to the eigh of the rotated matrix
        w = np.exp(-(beta_norm / norm) * (h - h.min()))
        u = haar_unitary(len(levels), rng)
        rho = DensityMatrix((u * rng.permutation(w / w.sum())) @ u.conj().T)
        fam = GibbsFamily(HermitianOperator.diagonal(h))
        if math.isinf(intrinsic_beta(fam, entropy(rho))):
            # at or below ln g0 the +inf sentinel has no finite temperature
            with pytest.raises(ValueError):
                relative_entropy_check(rho, fam)
        else:
            assert relative_entropy_check(rho, fam) <= 1e-8


    @pytest.mark.parametrize("scale", [1.0, 1e2, 1e3, 1e4])
    def test_residual_is_scale_free(self, scale):
        # the residual is |S(gamma(beta*)) - S(rho)| / beta*: an intrinsic beta
        # solved to an absolute 1e-12 reached 4e-5 at ||H|| = 4e4
        rng = np.random.default_rng(16)
        checked = 0
        for _ in range(75):
            ints = rng.integers(0, 5, int(rng.integers(2, 7)))
            ints[0] += np.ptp(ints) == 0
            levels = scale * ints.astype(float)
            beta = 10 ** rng.uniform(-2, math.log10(700)) / float(np.max(levels))
            w = np.exp(-beta * (levels - levels.min()))
            rho = DensityMatrix.diagonal(rng.permutation(w / w.sum()))
            fam = GibbsFamily(HermitianOperator.diagonal(levels))
            if math.isinf(intrinsic_beta(fam, entropy(rho))):
                continue
            assert relative_entropy_check(rho, fam) <= 1e-8
            checked += 1
        assert checked >= 50


class TestAthermality:
    def test_thermal_state_zero(self, qutrit):
        assert athermality(gibbs_state(qutrit, 0.8), qutrit) == pytest.approx(
            0.0, abs=1e-10)

    def test_pure_state_value(self, qubit):
        # E = 0.5 sits at beta~ = 0: athermality is the full ln 2
        rho = DensityMatrix.pure([1.0, 1.0])
        assert athermality(rho, qubit) == pytest.approx(math.log(2), abs=1e-10)

    def test_nonnegative(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 6))
            fam = GibbsFamily(random_hamiltonian(d, rng))
            assert athermality(random_density(d, rng), fam) >= -1e-10

    def test_exact_zero_on_gibbs_states(self, rng):
        # athermality snaps rounding residue as report and free_energy do
        for _ in range(60):
            d = int(rng.integers(2, 9))
            fam = GibbsFamily(random_hamiltonian(d, rng))
            gamma = gibbs_state(fam, float(rng.uniform(-5.0, 5.0)))
            assert athermality(gamma, fam) == report(gamma, fam).athermality == 0.0


class TestVariationalForms:
    def test_free_energy_grid_minimum(self, rng):
        # a log grid centered on beta(rho) resolves the quadratic minimum
        for _ in range(10):
            fam = GibbsFamily(random_hamiltonian(3, rng))
            rho = random_density(3, rng)
            beta = intrinsic_beta(fam, entropy(rho))
            grid = (np.geomspace(beta / 10, 10 * beta, 2001)
                    if math.isfinite(beta) and beta > 0 else default_beta_grid())
            val, arg = variational_free_energy(rho, fam, grid)
            assert val == pytest.approx(free_energy(rho, fam), abs=1e-6)
            if math.isfinite(beta) and grid[0] < beta < grid[-1]:
                step = grid[1] / grid[0]
                assert arg / step <= beta <= arg * step

    def test_default_grid_minimum_coarser(self, rng):
        # the default grid still localizes the minimum, at grid resolution
        fam = GibbsFamily(random_hamiltonian(3, rng))
        rho = random_density(3, rng)
        val, _ = variational_free_energy(rho, fam, default_beta_grid())
        assert val == pytest.approx(free_energy(rho, fam), abs=1e-4)
        assert val >= free_energy(rho, fam) - 1e-10  # grid never undershoots

    def test_athermality_grid_minimum(self, rng):
        from isotherm.gibbs import spontaneous_beta as sb

        for _ in range(10):
            fam = GibbsFamily(random_hamiltonian(3, rng))
            rho = random_density(3, rng)
            beta_s = sb(fam, expectation(fam.hamiltonian, rho))
            if math.isfinite(beta_s) and abs(beta_s) > 1e-12:
                grid = np.sort(np.sign(beta_s) * np.geomspace(
                    abs(beta_s) / 10, 10 * abs(beta_s), 2001))
            else:
                grid = symmetric_beta_grid()
            val, arg = variational_athermality(rho, fam, grid)
            assert val == pytest.approx(athermality(rho, fam), abs=1e-6)

    def test_grid_pass_matches_scalar_forms(self, rng):
        # one (n, d) pass per grid against beta_free_energy / beta_athermality point by point
        for d in (2, 4, 16, 64):
            fam = GibbsFamily(random_hamiltonian(d, rng))
            rho = random_density(d, rng)
            grid = default_beta_grid(201)
            vals = [beta_free_energy(rho, fam, b) for b in grid]
            val, arg = variational_free_energy(rho, fam, grid)
            assert abs(val - min(vals)) <= 1e-12
            assert abs(beta_free_energy(rho, fam, arg) - min(vals)) <= 1e-12
            grid = symmetric_beta_grid(201)
            vals = [beta_athermality(rho, fam, b) for b in grid]
            val, arg = variational_athermality(rho, fam, grid)
            assert abs(val - min(vals)) <= 1e-12
            assert abs(beta_athermality(rho, fam, arg) - min(vals)) <= 1e-12

    def test_default_grids(self, qubit, rho_qubit_91):
        # diag(0.1, 0.9) on a gap-1 qubit: F = 0.8 at beta = ln 9, and it is the
        # Gibbs state at beta~ = -ln 9, so A = 0 there; each minimum within a grid step
        val, arg = variational_free_energy(rho_qubit_91, qubit)
        assert (val, arg) == variational_free_energy(rho_qubit_91, qubit, default_beta_grid())
        assert val == pytest.approx(0.8, abs=1e-4)
        step = 1e6 ** (1 / 2000)
        assert arg / step <= LN9 <= arg * step
        val, arg = variational_athermality(rho_qubit_91, qubit)
        assert (val, arg) == variational_athermality(rho_qubit_91, qubit, symmetric_beta_grid())
        assert val == pytest.approx(0.0, abs=1e-4)
        step = 1e6 ** (1 / 999)
        assert -arg / step <= LN9 <= -arg * step

    def test_grids_reject_sentinels(self, qubit, rho_qubit_91):
        for bad in (0.0, math.inf):
            with pytest.raises(ValueError):
                variational_free_energy(rho_qubit_91, qubit, np.array([0.5, bad]))
        with pytest.raises(ValueError):
            variational_athermality(rho_qubit_91, qubit, np.array([0.5, -math.inf]))

    def test_beta_free_energy_above_free_energy(self, rng):
        fam = GibbsFamily(random_hamiltonian(3, rng))
        rho = random_density(3, rng)
        f = free_energy(rho, fam)
        for beta in (0.1, 0.5, 1.0, 5.0):
            assert beta_free_energy(rho, fam, beta) >= f - 1e-10

    def test_beta_free_energy_rejects_sentinels(self, qubit, rho_qubit_91):
        with pytest.raises(ValueError):
            beta_free_energy(rho_qubit_91, qubit, 0.0)
        with pytest.raises(ValueError):
            beta_free_energy(rho_qubit_91, qubit, math.inf)


class TestReport:
    def test_consistency(self, rng):
        fam = GibbsFamily(random_hamiltonian(4, rng))
        rho = random_density(4, rng)
        rep = report(rho, fam)
        assert rep.energy == pytest.approx(expectation(fam.hamiltonian, rho), abs=1e-12)
        assert rep.entropy == pytest.approx(entropy(rho), abs=1e-12)
        assert rep.free_energy == pytest.approx(rep.energy - rep.bound_energy, abs=1e-11)
        assert rep.intrinsic_beta == pytest.approx(
            intrinsic_beta(fam, rep.entropy), abs=1e-10)
        assert rep.spontaneous_beta == pytest.approx(
            spontaneous_beta(fam, rep.energy), abs=1e-10)

    def test_beta_ordering(self, rng):
        # intrinsic beta >= spontaneous beta, with equality exactly on the boundary
        for _ in range(30):
            d = int(rng.integers(2, 6))
            fam = GibbsFamily(random_hamiltonian(d, rng))
            rep = report(random_density(d, rng), fam)
            if math.isfinite(rep.intrinsic_beta) and math.isfinite(rep.spontaneous_beta):
                assert rep.intrinsic_beta >= rep.spontaneous_beta - 1e-9

    def test_qubit_fixture(self, qubit, rho_qubit_91):
        rep = report(rho_qubit_91, qubit)
        assert rep.intrinsic_beta == pytest.approx(LN9, abs=1e-10)
        # inverted populations: the energy match sits on the negative branch
        assert rep.spontaneous_beta == pytest.approx(-LN9, abs=1e-8)
        assert rep.athermality == pytest.approx(0.0, abs=1e-10)
