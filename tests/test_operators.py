import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isotherm.gibbs import gibbs_state
from isotherm.operators import (
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    SubsystemSplit,
    entropy,
    expectation,
    ginibre_matrix,
    haar_unitary,
    kron_sum,
    mutual_information,
    partial_trace,
    random_density,
    random_hamiltonian,
    tensor,
)

LN2 = math.log(2)


class TestConstruction:
    def test_hermitian_symmetrizes_small_asymmetry(self):
        a = np.array([[1.0, 0.5 + 1e-10], [0.5, 2.0]])
        op = HermitianOperator(a)
        assert np.allclose(op.entries, op.entries.conj().T)

    def test_hermitian_rejects_large_asymmetry(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_rejects_nonfinite_entries(self, bad):
        a = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
        a[1, 1] = bad
        for cls in (HermitianOperator, DensityMatrix):
            with pytest.raises(ValueError, match="non-finite"):
                cls(a)

    @pytest.mark.parametrize("cls", [HermitianOperator, DensityMatrix])
    def test_rejects_non_square(self, cls):
        with pytest.raises(ValueError, match="square"):
            cls(np.zeros((2, 3)))

    @pytest.mark.parametrize("dims", [(0, 2), (), (2, -1)])
    def test_split_rejects_empty_factor(self, dims):
        with pytest.raises(ValueError, match="invalid subsystem dims"):
            SubsystemSplit(dims)

    def test_density_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.6, 0.6]))

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.2, -0.2]))

    def test_density_clips_tiny_negative_eigenvalue(self):
        rho = DensityMatrix(np.diag([1.0 + 1e-13, -1e-13]))
        assert np.all(rho.spectrum >= 0)
        assert math.isclose(float(np.sum(rho.spectrum)), 1.0, abs_tol=1e-12)

    def test_pure_state_constructor(self):
        rho = DensityMatrix.pure([1.0, 1.0])
        assert math.isclose(rho.entries[0, 1].real, 0.5, abs_tol=1e-12)
        assert entropy(rho) == pytest.approx(0.0, abs=1e-12)


class TestEntropy:
    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            assert entropy(DensityMatrix.maximally_mixed(d)) == pytest.approx(
                math.log(d), abs=1e-12)

    def test_pure_is_zero(self):
        assert entropy(DensityMatrix.diagonal([1.0, 0.0, 0.0])) == pytest.approx(
            0.0, abs=1e-12)

    def test_binary_distribution(self):
        h2 = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        assert entropy(DensityMatrix.diagonal([0.9, 0.1])) == pytest.approx(
            h2, abs=1e-12)

    def test_unitary_invariance(self, rng):
        rho = random_density(5, rng)
        u = haar_unitary(5, rng)
        rotated = DensityMatrix(u @ rho.entries @ u.conj().T)
        assert entropy(rotated) == pytest.approx(entropy(rho), abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0),
                    min_size=2, max_size=8))
    def test_entropy_range(self, weights):
        probs = np.array(weights) / sum(weights)
        s = entropy(DensityMatrix.diagonal(probs))
        assert -1e-12 <= s <= math.log(len(probs)) + 1e-12


class TestExpectation:
    def test_diagonal_case(self):
        h = HermitianOperator.diagonal([0.0, 1.0])
        assert expectation(h, DensityMatrix.diagonal([0.3, 0.7])) == pytest.approx(0.7)

    def test_linearity(self, rng):
        a = random_hamiltonian(4, rng)
        b = random_hamiltonian(4, rng)
        rho = random_density(4, rng)
        lhs = expectation(HermitianOperator(a.entries + 2 * b.entries), rho)
        assert lhs == pytest.approx(
            expectation(a, rho) + 2 * expectation(b, rho), abs=1e-10)

    def test_dimension_mismatch(self):
        h = HermitianOperator.diagonal([0.0, 1.0, 2.0])
        with pytest.raises(DimensionMismatchError):
            expectation(h, DensityMatrix.maximally_mixed(2))

    def test_rejects_imaginary_residue(self):
        # validated operands pair to a real trace; only entries set past the
        # constructor's symmetrization reach the residue check
        h = HermitianOperator.diagonal([0.0, 1.0])
        object.__setattr__(h, "entries", np.array([[0.0, 1j], [0.0, 0.0]]))
        rho = DensityMatrix(np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="imaginary residue"):
            expectation(h, rho)

    def test_matches_matmul_trace(self, rng, degenerate_cases):
        # the O(d^2) pairing against the d^3 route it replaced, Tr(A @ rho)
        pairs = [(random_hamiltonian(d, rng, scale), random_density(d, rng))
                 for d in (2, 4, 16, 64) for scale in (1e-2, 1.0, 1e2) for _ in range(3)]
        for fam, beta in degenerate_cases(40, 64):
            pairs.append((fam.hamiltonian, gibbs_state(fam, beta)))
            pairs.append((fam.hamiltonian, random_density(fam.dim, rng)))
        for a, rho in pairs:
            oracle = np.trace(a.entries @ rho.entries).real
            norm = np.max(np.abs(a.eigenvalues))
            assert abs(expectation(a, rho) - oracle) <= 1e-13 * max(1.0, norm)


class TestTensorAndKronSum:
    def test_tensor_trace_one(self, rng):
        rho = tensor(random_density(2, rng), random_density(3, rng))
        assert math.isclose(float(np.trace(rho.entries).real), 1.0, abs_tol=1e-10)

    def test_kron_sum_spectrum(self):
        h = HermitianOperator.diagonal([0.0, 1.0])
        total = kron_sum(h, h)
        assert np.allclose(np.sort(np.diag(total.entries).real), [0, 1, 1, 2])

    def test_kron_sum_energy_is_additive(self, rng):
        ha, hb = random_hamiltonian(2, rng), random_hamiltonian(3, rng)
        ra, rb = random_density(2, rng), random_density(3, rng)
        joint = expectation(kron_sum(ha, hb), tensor(ra, rb))
        assert joint == pytest.approx(
            expectation(ha, ra) + expectation(hb, rb), abs=1e-10)


class TestKnownSpectrum:
    """tensor of two states and DensityMatrix._from_eigenpairs against the eigh route."""

    def test_gibbs_products_match_eigh_route(self, degenerate_cases, assert_matches_eigh_route):
        cases = list(degenerate_cases(40, 8))
        for (fam_a, beta_a), (fam_b, beta_b) in zip(cases, cases[::-1]):
            a, b = gibbs_state(fam_a, beta_a), gibbs_state(fam_b, beta_b)
            product = tensor(a, b)
            assert_matches_eigh_route(product)
            assert entropy(product) == pytest.approx(entropy(a) + entropy(b), abs=1e-14)

    def test_random_products_match_eigh_route(self, rng, assert_matches_eigh_route):
        for _ in range(20):
            a = random_density(int(rng.integers(2, 9)), rng, rank=int(rng.integers(1, 3)))
            assert_matches_eigh_route(tensor(a, random_density(int(rng.integers(2, 9)), rng)))

    @pytest.mark.parametrize("shift, match", [
        (np.array([-0.25, 0.25, 0.0]), "negative eigenvalue"),
        (np.array([0.0, 0.0, 1e-9]), "trace is"),
        (np.array([np.nan, 0.0, 0.0]), "non-finite entries"),
    ])
    def test_bad_spectrum_raises_like_eigh_route(self, rng, shift, match):
        v = haar_unitary(3, rng)
        w = np.array([0.2, 0.3, 0.5]) + shift
        entries = (v * w) @ v.conj().T
        with pytest.raises(ValueError, match=match):
            DensityMatrix(entries)
        with pytest.raises(ValueError, match=match):
            DensityMatrix._from_eigenpairs(entries, w, v)

    def test_non_finite_known_spectrum_rejected(self, rng):
        v = haar_unitary(2, rng)
        entries = (v * [0.5, 0.5]) @ v.conj().T
        with pytest.raises(ValueError, match="non-finite eigenvalues"):
            DensityMatrix._from_eigenpairs(entries, [np.nan, 0.5], v)

    def test_tensor_of_states_runs_no_eigh(self, rng, eigh_calls):
        a, b = random_density(8, rng), random_density(8, rng)
        eigh_calls.clear()
        tensor(a, b)
        assert eigh_calls == []

    @pytest.mark.parametrize("second", ["operator", "array"])
    def test_tensor_takes_states_only(self, second):
        rho = DensityMatrix.maximally_mixed(2)
        other = {"operator": HermitianOperator.diagonal([0.0, 1.0]),
                 "array": np.eye(2) / 2}[second]
        with pytest.raises(TypeError, match="two DensityMatrix"):
            tensor(rho, other)


class TestPartialTrace:
    def test_product_recovery(self, rng):
        ra, rb = random_density(2, rng), random_density(3, rng)
        split = SubsystemSplit((2, 3))
        joint = tensor(ra, rb)
        assert np.allclose(partial_trace(joint, split, [0]).entries, ra.entries,
                           atol=1e-12)
        assert np.allclose(partial_trace(joint, split, [1]).entries, rb.entries,
                           atol=1e-12)

    def test_bell_marginal_is_maximally_mixed(self):
        bell = DensityMatrix.pure([1.0, 0.0, 0.0, 1.0])
        marg = partial_trace(bell, SubsystemSplit((2, 2)), [0])
        assert np.allclose(marg.entries, np.eye(2) / 2, atol=1e-12)

    def test_classical_correlations(self):
        rho = DensityMatrix.diagonal([0.4, 0.1, 0.3, 0.2])
        split = SubsystemSplit((2, 2))
        a = partial_trace(rho, split, [0])
        assert np.allclose(np.diag(a.entries).real, [0.5, 0.5], atol=1e-12)

    def test_split_must_match_dimension(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace(DensityMatrix.maximally_mixed(4), SubsystemSplit((2, 3)), [0])

    @pytest.mark.parametrize("keep", [[2], [-1], [0, 5]])
    def test_keep_index_out_of_range(self, keep):
        with pytest.raises(ValueError, match="out of range"):
            partial_trace(DensityMatrix.maximally_mixed(4), SubsystemSplit((2, 2)), keep)


class TestMutualInformation:
    def test_product_state_zero(self, rng):
        joint = tensor(random_density(2, rng), random_density(2, rng))
        assert mutual_information(joint, SubsystemSplit((2, 2))) == pytest.approx(
            0.0, abs=1e-10)

    def test_bell_state(self):
        bell = DensityMatrix.pure([1.0, 0.0, 0.0, 1.0])
        assert mutual_information(bell, SubsystemSplit((2, 2))) == pytest.approx(
            2 * LN2, abs=1e-10)

    def test_classically_correlated(self):
        rho = DensityMatrix.diagonal([0.5, 0.0, 0.0, 0.5])
        assert mutual_information(rho, SubsystemSplit((2, 2))) == pytest.approx(
            LN2, abs=1e-10)

    def test_nonnegative_on_random_states(self, rng):
        split = SubsystemSplit((2, 3))
        for _ in range(50):
            assert mutual_information(random_density(6, rng), split) >= -1e-10

    def test_needs_bipartite_split(self):
        with pytest.raises(ValueError, match="bipartite"):
            mutual_information(DensityMatrix.maximally_mixed(8), SubsystemSplit((2, 2, 2)))


class TestSampling:
    def test_haar_unitary_is_unitary(self, rng):
        u = haar_unitary(6, rng)
        assert np.allclose(u @ u.conj().T, np.eye(6), atol=1e-10)

    def test_ginibre_shape(self, rng):
        assert ginibre_matrix(4, rng).shape == (4, 4)

    def test_random_density_valid(self, rng):
        for _ in range(20):
            rho = random_density(5, rng)
            assert np.all(rho.spectrum >= -1e-12)
            assert math.isclose(float(np.sum(rho.spectrum)), 1.0, abs_tol=1e-10)

    def test_random_density_rank_control(self, rng):
        rho = random_density(6, rng, rank=2)
        assert np.sum(rho.spectrum > 1e-10) <= 2

    def test_random_hamiltonian_hermitian(self, rng):
        h = random_hamiltonian(5, rng)
        assert np.allclose(h.entries, h.entries.conj().T)

    def test_seed_reproducibility(self):
        a = random_density(4, np.random.default_rng(7))
        b = random_density(4, np.random.default_rng(7))
        assert np.array_equal(a.entries, b.entries)
