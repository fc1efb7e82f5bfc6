import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isotherm import charges as charges_module
from isotherm import gibbs, operators
from isotherm.charges import ChargeSet, GGEFamily, bound_potential, gge_state
from isotherm.diagram import project_state
from isotherm.energetics import bound_energy, report
from isotherm.gibbs import GibbsFamily, gibbs_state
from isotherm.operators import (
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    SubsystemSplit,
    _kron,
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
from isotherm.rates import conversion_rate

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

    @pytest.mark.parametrize("dims", [(2.5, 2), (True, 2), (2, False), (2, math.inf),
                                      (2, math.nan), ("2", 2)])
    def test_split_rejects_non_integral_dims(self, dims):
        with pytest.raises(ValueError, match="invalid subsystem dims"):
            SubsystemSplit(dims)

    def test_split_accepts_integral_floats_and_numpy_integers(self):
        assert SubsystemSplit((2.0, np.int64(3))).dims == (2, 3)
        assert all(type(d) is int for d in SubsystemSplit((np.int32(2), 3.0)).dims)

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


def validated_state(entries, w, v):
    """The checked route for a state with known eigenpairs that `_derived`
    replaced in gibbs_state, gge_state and tensor: the public constructor's
    checks (square, finite, Hermitian, unit trace of the spectrum, no
    eigenvalue below the clip) on the given pairs, with no `eigh`."""
    a = operators._hermitian_entries(entries, "state")
    w = np.asarray(w, dtype=float)
    operators._check_trace(w.sum())
    state = object.__new__(DensityMatrix)
    state._store(a, *operators._state_spectrum(w, np.asarray(v, dtype=complex)))
    return state


def validated_operator(entries, w, v):
    """The checked route for an operator with known eigenpairs that `_derived`
    replaced in kron_sum and bound_potential: square, finite and Hermitian,
    with the pairs in ascending order."""
    a = operators._hermitian_entries(entries, "matrix")
    w = np.asarray(w, dtype=float)
    order = np.argsort(w)
    op = object.__new__(HermitianOperator)
    op._store(a, w[order], np.asarray(v, dtype=complex)[:, order])
    return op


class TestKnownSpectrum:
    """tensor of two states and the checked known-pairs route against the eigh route."""

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
        # the oracle of TestDerivedStates rejects what the public route rejects
        v = haar_unitary(3, rng)
        w = np.array([0.2, 0.3, 0.5]) + shift
        entries = (v * w) @ v.conj().T
        with pytest.raises(ValueError, match=match):
            DensityMatrix(entries)
        with pytest.raises(ValueError, match=match):
            validated_state(entries, w, v)

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

    @pytest.mark.parametrize("keep", [[0.7], [True], [0, 1.5]])
    def test_keep_index_not_integral(self, keep):
        with pytest.raises(ValueError, match="must be integers"):
            partial_trace(DensityMatrix.maximally_mixed(4), SubsystemSplit((2, 2)), keep)

    def test_keep_index_integral_float_and_numpy_integer(self):
        rho = tensor(DensityMatrix.diagonal([0.9, 0.1]), DensityMatrix.maximally_mixed(2))
        split = SubsystemSplit((2, 2))
        expected = partial_trace(rho, split, [0]).entries
        for keep in ([0.0], [np.int64(0)], (k for k in [0])):
            assert np.array_equal(partial_trace(rho, split, keep).entries, expected)


def old_partial_trace(rho, split, keep):
    """The validated route `partial_trace` replaced: the np.trace loop over the
    traced factors, then the public constructor."""
    dims = list(split.dims)
    t = rho.entries.reshape(dims + dims)
    traced = 0
    for i in range(len(dims)):
        if i not in keep:
            ax = i - traced
            t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
            traced += 1
    d_keep = int(np.prod([dims[k] for k in keep], dtype=int))
    return DensityMatrix(t.reshape(d_keep, d_keep))


def old_tensor(a, b):
    """The validated route `tensor` replaced: np.kron, then the checked
    known-pairs route."""
    return validated_state(np.kron(a.entries, b.entries), np.kron(a.spectrum, b.spectrum),
                           np.kron(a.eigenvectors, b.eigenvectors))


def old_kron_sum(*hamiltonians):
    """The validated route `kron_sum` replaced: np.kron sums, then the checked
    known-pairs route."""
    total, levels, vecs = 0, np.zeros(1), np.ones((1, 1))
    for i, h in enumerate(hamiltonians):
        left = int(np.prod([g.dim for g in hamiltonians[:i]], dtype=int))
        right = int(np.prod([g.dim for g in hamiltonians[i + 1:]], dtype=int))
        total = total + np.kron(np.kron(np.eye(left), h.entries), np.eye(right))
        levels = np.add.outer(levels, h.eigenvalues).ravel()
        vecs = np.kron(vecs, h.eigenvectors)
    return validated_operator(total, levels, vecs)


def assert_same_state(state, ref):
    for name in ("entries", "spectrum", "eigenvectors"):
        assert getattr(state, name).tobytes() == getattr(ref, name).tobytes(), name


def assert_same_operator(op, ref):
    for name in ("entries", "eigenvalues", "eigenvectors"):
        assert getattr(op, name).tobytes() == getattr(ref, name).tobytes(), name


def gge_families(rng):
    """q = 1 and q = 2 families of integer levels 0-3 (degenerate within and
    across charges) at units 1e-2, 1 and 1e2, in a Haar basis."""
    fams = []
    for q in (1, 2):
        for unit in (1e-2, 1.0, 1e2):
            for d in range(q + 1, 9, 2):
                u = haar_unitary(d, rng)
                while True:
                    ells = rng.integers(0, 4, (q, d)) * unit
                    rows = np.vstack([ells, np.ones(d)])
                    if np.ptp(ells) > 0 and np.linalg.matrix_rank(rows) == q + 1:
                        break
                ops = tuple(HermitianOperator((u * row) @ u.conj().T) for row in ells)
                fams.append(GGEFamily(ChargeSet(ops)))
    return fams


SPLITS = [(2, 2), (2, 3), (3, 3), (4, 4), (2, 2, 2)]


def haar_states(dim, rng):
    """A Haar pure state, a full-rank and a rank-2 Hilbert-Schmidt state."""
    return [DensityMatrix.pure(haar_unitary(dim, rng)[:, 0]), random_density(dim, rng),
            random_density(dim, rng, rank=2)]


def degenerate_states(dims, cases, rng):
    """Products of Gibbs states of `degenerate_cases` families on the factors of
    `dims`, as they are and turned by a joint Haar unitary, which keeps their
    degenerate spectra and correlates the factors."""
    states = []
    for parts in zip(*(cases[d] for d in dims)):
        product = parts[0]
        for part in parts[1:]:
            product = old_tensor(product, part)
        u = haar_unitary(product.dim, rng)
        states += [product, DensityMatrix(u @ product.entries @ u.conj().T)]
    return states


@pytest.fixture
def degenerate_by_dim(degenerate_cases):
    by_dim = {}
    for fam, beta in degenerate_cases(60, 4):
        by_dim.setdefault(fam.dim, []).append(gibbs_state(fam, beta))
    return by_dim


class TestDerivedStates:
    """The broadcast Kronecker product and the derived marginals and products
    against the routes they replaced, byte for byte."""

    @pytest.mark.parametrize("dtypes", [(float, float), (complex, complex), (float, complex)],
                             ids=["real", "complex", "mixed"])
    def test_kron_matches_numpy(self, rng, dtypes):
        def draw(shape, dtype):
            x = rng.standard_normal(shape)
            x = x + 1j * rng.standard_normal(shape) if dtype is complex else x
            x.flat[0] = -0.0  # signed zeros keep their signs
            return x

        shapes = [(1,), (3,), (8,), (1, 1), (2, 3), (4, 4), (8, 8), (5, 2)]
        for shape_a, shape_b in itertools.product(shapes, repeat=2):
            if len(shape_a) == len(shape_b):
                a, b = draw(shape_a, dtypes[0]), draw(shape_b, dtypes[1])
                expected = np.kron(a, b)
                assert _kron(a, b).shape == expected.shape
                assert _kron(a, b).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dims", SPLITS, ids=str)
    def test_marginals_match_validated_route(self, dims, rng, degenerate_by_dim):
        split = SubsystemSplit(dims)
        n = len(dims)
        keeps = [list(c) for r in range(n + 1) for c in itertools.combinations(range(n), r)]
        states = haar_states(split.joint_dim, rng) + degenerate_states(dims, degenerate_by_dim, rng)
        for rho in states:
            for keep in keeps:
                assert_same_state(partial_trace(rho, split, keep),
                                  old_partial_trace(rho, split, keep))

    @pytest.mark.parametrize("dims", SPLITS, ids=str)
    def test_products_match_validated_route(self, dims, rng, degenerate_by_dim):
        factors = [haar_states(d, rng) + degenerate_by_dim[d][:8] for d in dims]
        for parts in zip(*factors):
            new, old = parts[0], parts[0]
            for part in parts[1:]:
                new, old = tensor(new, part), old_tensor(old, part)
                assert_same_state(new, old)

    def test_gibbs_states_match_validated_route(self, degenerate_cases):
        # beta = 0, +-inf, |beta| ||H|| = 700 and a random one on each family
        for fam, beta in degenerate_cases(60, 64):
            w, v = gibbs._populations(fam, beta)[0], fam.hamiltonian.eigenvectors
            assert_same_state(gibbs_state(fam, beta), validated_state((v * w) @ v.conj().T, w, v))

    def test_gge_states_match_validated_route(self, rng):
        for fam in gge_families(rng):
            for _ in range(5):
                beta = rng.uniform(-3, 3, fam.q) / np.abs(fam.joint_eigenvalues).max()
                for beta_vec in (np.zeros(fam.q), beta, 20 * beta):
                    w = charges_module._gge_weights(fam, beta_vec)[0]
                    v = fam.basis
                    assert_same_state(gge_state(fam, beta_vec),
                                      validated_state((v * w) @ v.conj().T, w, v))

    def test_kron_sums_match_validated_route(self, degenerate_cases):
        hams = {}
        for fam, beta in degenerate_cases(30, 4):
            if beta == 0.0:  # the first of each family's six temperatures
                hams.setdefault(fam.dim, []).append(fam.hamiltonian)
        for dims in SPLITS:
            for parts in zip(*(hams[d] for d in dims)):
                assert_same_operator(kron_sum(*parts), old_kron_sum(*parts))

    def test_derived_states_skip_second_validation(self, rng, monkeypatch, charge_family):
        rho = random_density(6, rng)
        fam = GibbsFamily(random_hamiltonian(3, rng))
        sigma = random_density(4, rng)
        calls = []
        checked = operators._hermitian_entries

        def counting(*args):
            calls.append(args[1])
            return checked(*args)

        monkeypatch.setattr(operators, "_hermitian_entries", counting)
        split = SubsystemSplit((2, 3))
        rho_a, rho_b = partial_trace(rho, split, [0]), partial_trace(rho, split, [1])
        tensor(rho_a, rho_b)
        for beta in (0.0, 1.3, -math.inf):
            gibbs_state(fam, beta)
        gge_state(charge_family, [0.4, -0.2])
        kron_sum(fam.hamiltonian, fam.hamiltonian)
        bound_potential(sigma, charge_family, [1.0, 2.0])
        assert calls == []


DEFERRED_DIMS = (2, 4, 9, 16, 64)
TENSOR_FACTORS = {2: (2, 1), 4: (2, 2), 9: (3, 3), 16: (4, 4), 64: (8, 8)}
EPS = np.finfo(float).eps


def eager_pairs(state):
    """The eager route that the deferred read replaced in the checked
    constructor and in a marginal: an `eigh` of the entries, then
    `_state_spectrum`'s clip, renormalization and descending order."""
    return operators._state_spectrum(*np.linalg.eigh(state.entries))


def checked_entries(d, rng):
    """Entries of a maximally mixed state, Hilbert-Schmidt states of full rank
    and of rank d // 2, a Haar pure state, and that pure state mixed with
    weight 1e-4 and 1e-10 of a random one (near-pure)."""
    psi = haar_unitary(d, rng)[:, :1]
    pure = psi @ psi.conj().T
    return ([np.eye(d) / d, random_density(d, rng).entries,
             random_density(d, rng, rank=max(1, d // 2)).entries, pure]
            + [(1 - a) * pure + a * random_density(d, rng).entries for a in (1e-4, 1e-10)])


def marginals(d, rng):
    """Both d-dimensional marginals of each checked state on d x 2 and 2 x d:
    a pure joint state gives a marginal of rank 2 at most."""
    states = []
    for dims, keep in (((d, 2), [0]), ((2, d), [1])):
        split = SubsystemSplit(dims)
        states += [partial_trace(DensityMatrix(e), split, keep)
                   for e in checked_entries(2 * d, rng)]
    return states


def products(d, rng):
    """(a, b) factor pairs whose tensor product has dimension d."""
    d_a, d_b = TENSOR_FACTORS[d]
    return [(DensityMatrix(e_a), DensityMatrix(e_b))
            for e_a, e_b in zip(checked_entries(d_a, rng), checked_entries(d_b, rng))]


def assert_read_only_eigenpairs(state):
    """Every kept array is read-only, and the eigenvectors take the spectrum
    to within rounding: ||rho v - v diag(spectrum)|| <= 4 d eps."""
    v = state.eigenvectors
    for array in (state.entries, state.spectrum, v):
        assert not array.flags.writeable
    residual = np.linalg.norm(state.entries @ v - v * state.spectrum)
    assert residual <= 4 * state.dim * EPS


class TestDeferredEigenvectors:
    """A state's spectrum from `eigvalsh` and its eigenvectors on first read,
    against the eager route they replaced: checked states and marginals
    against `eager_pairs`, tensor products against `old_tensor`."""

    @pytest.mark.parametrize("d", DEFERRED_DIMS)
    def test_checked_states_and_marginals_match_eager_route(self, d, rng):
        states = [DensityMatrix(e) for e in checked_entries(d, rng)] + marginals(d, rng)
        for state in states:
            spectrum, v = eager_pairs(state)
            # an ulp of the unit trace: the scale of either solver's rounding
            assert np.max(np.abs(state.spectrum - spectrum)) <= 4 * EPS
            assert state.eigenvectors.tobytes() == v.tobytes()
            assert_read_only_eigenpairs(state)

    @pytest.mark.parametrize("d", DEFERRED_DIMS)
    def test_tensor_products_match_old_tensor(self, d, rng):
        for a, b in products(d, rng):
            product = tensor(a, b)
            assert_same_state(product, old_tensor(a, b))
            assert_read_only_eigenpairs(product)

    @pytest.mark.parametrize("d", DEFERRED_DIMS)
    def test_builds_run_no_eigh(self, d, rng, eigh_calls):
        entries = checked_entries(d, rng)
        eigh_calls.clear()
        states = [DensityMatrix(e) for e in entries] + marginals(d, rng)
        for a, b in products(d, rng):
            tensor(a, b)
        assert eigh_calls == []
        # the first read makes one eigh, which the state keeps
        states[1].eigenvectors
        states[1].eigenvectors
        assert len(eigh_calls) == 1

    def test_product_of_read_factors_runs_no_eigh(self, rng, eigh_calls):
        a, b = random_density(4, rng), random_density(3, rng, rank=2)
        a.eigenvectors, b.eigenvectors
        eigh_calls.clear()
        product = tensor(a, b)
        product.eigenvectors
        assert eigh_calls == []

    def test_quantities_on_fresh_states_run_no_eigh(self, rng, eigh_calls):
        for d in DEFERRED_DIMS:
            fam = GibbsFamily(random_hamiltonian(d, rng))
            entries = checked_entries(d, rng)
            eigh_calls.clear()
            for rho_entries, sigma_entries in zip(entries, entries[1:]):
                rho = DensityMatrix(rho_entries)
                report(rho, fam)
                project_state(rho, fam)
                conversion_rate(rho, DensityMatrix(sigma_entries), fam)
                bound_energy(rho, fam)
            assert eigh_calls == []

    def test_pickle_round_trip(self, rng, charge_family):
        fam = GibbsFamily(random_hamiltonian(3, rng))
        read = random_density(4, rng)
        read.eigenvectors
        states = {
            "checked": random_density(6, rng),
            "checked, read": read,
            "marginal": partial_trace(random_density(6, rng), SubsystemSplit((2, 3)), [1]),
            "tensor": tensor(random_density(2, rng), random_density(3, rng, rank=1)),
            "tensor of read factors": tensor(read, read),
            "gibbs": gibbs_state(fam, 0.7),
            "gge": gge_state(charge_family, [0.4, -0.2]),
        }
        for kind, state in states.items():
            copy = pickle.loads(pickle.dumps(state))
            for name in ("entries", "spectrum", "eigenvectors"):
                assert getattr(copy, name).tobytes() == getattr(state, name).tobytes(), kind


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
