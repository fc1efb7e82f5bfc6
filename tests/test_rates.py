import math

import numpy as np
import pytest

from isotherm import rates
from isotherm.gibbs import GibbsFamily, gibbs_state
from isotherm.operators import DensityMatrix, entropy, random_density, random_hamiltonian
from isotherm.rates import conversion_rate, rate_entropy_only

# frozen oracle (2x2 line intersection): source with eigenvalues (0.9, 0.1)
# rotated off-diagonal to E = 0.3, target = maximally mixed, gap-1 qubit;
# the filler is pure, so r = S(rho)/S(sigma) = H2(0.1)/ln 2
RATE_FIXTURE_R = 0.4689955935892812
RATE_FIXTURE_PHI_E = 0.12335529124535183


def rotated_qubit_source():
    s3 = math.sqrt(3) * 0.2
    return DensityMatrix(np.array([[0.7, -s3], [-s3, 0.3]]))


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
        if sol.phi_kind == "source-degenerate":
            assert sol.r == 0.0

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
        from isotherm.gibbs import boundary_entropy, spontaneous_beta

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

    def test_unbracketed_boundary_is_a_value_error(self, qubit, monkeypatch):
        # a ray that never leaves the diagram: the bracket hits its cap
        monkeypatch.setattr(rates, "_inside_margin", lambda fam, e, s: 1.0)
        with pytest.raises(ValueError):
            conversion_rate(rotated_qubit_source(), DensityMatrix.maximally_mixed(2), qubit)


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
