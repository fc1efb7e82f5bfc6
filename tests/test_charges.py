import json
import math
from pathlib import Path

import numpy as np
import pytest

from isotherm.charges import (
    NEWTON_TOL,
    ChargeSet,
    GGEFamily,
    InfeasibleTargetError,
    _damped_newton,
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
from isotherm.gibbs import GibbsFamily, gibbs_state, log_partition
from isotherm.operators import (
    DensityMatrix,
    HermitianOperator,
    SubsystemSplit,
    entropy,
    haar_unitary,
    random_density,
    tensor,
)


PINNED = Path(__file__).parent / "data" / "charges_pinned.json"


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

    def test_unit_normalization(self, charge_family, rng):
        rho = random_density(4, rng)
        v1, _ = bound_potential(rho, charge_family, [3.0, 4.0])
        v2, _ = bound_potential(rho, charge_family, [0.6, 0.8], renormalize=False)
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


class TestDampedNewton:
    def test_converges_on_nonlinear_system(self):
        def residual(x):
            return np.array([x[0] ** 2 + x[1] ** 2 - 4.0, x[0] - x[1]])

        def jacobian(x):
            return np.array([[2 * x[0], 2 * x[1]], [1.0, -1.0]])

        root = _damped_newton(residual, jacobian, np.array([1.0, 0.5]))
        assert np.max(np.abs(residual(root))) <= NEWTON_TOL
        assert root == pytest.approx([math.sqrt(2), math.sqrt(2)], abs=1e-8)

    def test_singular_jacobian_gives_none(self):
        assert _damped_newton(lambda x: x - 1.0, lambda x: np.zeros((2, 2)),
                              np.zeros(2)) is None

    def test_non_improving_step_gives_none(self):
        # the Jacobian has the wrong sign, so every damped step raises |r|
        assert _damped_newton(lambda x: x - 1.0, lambda x: -np.eye(2),
                              np.zeros(2)) is None

    def test_cap_gives_none_above_tolerance(self):
        # r = e^-x drops along every step but has no root; |x| passes the cap
        assert _damped_newton(lambda x: np.exp(-x), lambda x: np.diag(-np.exp(-x)),
                              np.zeros(1), cap=10.0) is None


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
        assert bound.value == pytest.approx(pin["bound_charge_value"], abs=1e-12)
        assert bound.beta_vec == pytest.approx(pin["bound_charge_beta"], abs=1e-12)
        assert bound.certified == pin["bound_charge_certified"]
        rate = conversion_rate_charges(rho, sigma, fam)
        assert rate.r == pytest.approx(pin["rate_r"], abs=1e-12)
        assert rate.phi_kind == pin["rate_kind"]
