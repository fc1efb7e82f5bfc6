import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isotherm import equilibrium
from isotherm.equilibrium import (
    equilibrate_isoenergetic,
    equilibrate_isoentropic,
    joint_family,
)
from isotherm.gibbs import (
    GibbsFamily,
    boundary_energy,
    boundary_entropy,
    gibbs_state,
    intrinsic_beta,
    spontaneous_beta,
)
from isotherm.operators import (
    DensityMatrix,
    HermitianOperator,
    SubsystemSplit,
    entropy,
    expectation,
    haar_unitary,
    mutual_information,
    partial_trace,
    random_density,
    random_hamiltonian,
    tensor,
)
from isotherm.oracles import is_equilibrium, lemma3_check

# frozen oracle: gap-1 qubits with populations (0.9, 0.1) and (0.7, 0.3),
# i.e. beta = ln 9 and ln(7/3), equilibrating iso-entropically
QUBIT_PAIR_BETA_JOINT = 1.5316255950049886
QUBIT_PAIR_WORK = 0.04448806735030442


class TestIsoentropic:
    def test_qubit_pair_fixture(self, qubit):
        pairs = [(gibbs_state(qubit, math.log(9)), qubit),
                 (gibbs_state(qubit, math.log(7 / 3)), qubit)]
        out = equilibrate_isoentropic(pairs)
        assert out.beta_joint == pytest.approx(QUBIT_PAIR_BETA_JOINT, abs=1e-9)
        assert out.work_released == pytest.approx(QUBIT_PAIR_WORK, abs=1e-9)
        assert out.mode == "iso-entropic"
        assert not out.degenerate

    def test_entropy_conserved(self, qubit, qutrit, rng):
        pairs = [(random_density(2, rng), qubit), (random_density(3, rng), qutrit)]
        out = equilibrate_isoentropic(pairs)
        s_in = sum(entropy(rho) for rho, _ in pairs)
        assert entropy(out.final_state) == pytest.approx(s_in, abs=1e-8)

    def test_work_released_nonnegative(self, rng):
        for _ in range(20):
            fams = [GibbsFamily(random_hamiltonian(int(rng.integers(2, 5)), rng))
                    for _ in range(2)]
            pairs = [(random_density(f.dim, rng), f) for f in fams]
            out = equilibrate_isoentropic(pairs)
            assert out.work_released >= -1e-9

    def test_equal_temperatures_release_nothing(self, qubit, qutrit):
        pairs = [(gibbs_state(qubit, 2.0), qubit), (gibbs_state(qutrit, 2.0), qutrit)]
        out = equilibrate_isoentropic(pairs)
        assert out.beta_joint == pytest.approx(2.0, abs=1e-9)
        assert out.work_released == pytest.approx(0.0, abs=1e-10)

    def test_final_state_is_product_gibbs(self, qubit, qutrit, rng):
        pairs = [(random_density(2, rng), qubit), (random_density(3, rng), qutrit)]
        out = equilibrate_isoentropic(pairs)
        split = SubsystemSplit((2, 3))
        expected = tensor(gibbs_state(qubit, out.beta_joint),
                          gibbs_state(qutrit, out.beta_joint))
        assert np.allclose(out.final_state.entries, expected.entries, atol=1e-10)
        assert mutual_information(out.final_state, split) == pytest.approx(0.0, abs=1e-10)

    def test_correlated_joint_input(self, qubit, rng):
        # a correlated joint state conserves its own (smaller) entropy
        joint = random_density(4, rng)
        split = SubsystemSplit((2, 2))
        marginals = [partial_trace(joint, split, [i]) for i in (0, 1)]
        pairs = [(m, qubit) for m in marginals]
        out = equilibrate_isoentropic(pairs, joint_state=joint)
        assert entropy(out.final_state) == pytest.approx(entropy(joint), abs=1e-8)
        out_marg = equilibrate_isoentropic(pairs)
        assert out.beta_joint >= out_marg.beta_joint - 1e-9

    def test_degenerate_flag(self, qubit):
        pairs = [(DensityMatrix.diagonal([1.0, 0.0]), qubit),
                 (DensityMatrix.diagonal([1.0, 0.0]), qubit)]
        out = equilibrate_isoentropic(pairs)
        assert out.degenerate
        assert out.beta_joint == math.inf

    def test_needs_two_systems(self, qubit, rho_qubit_91):
        with pytest.raises(ValueError):
            equilibrate_isoentropic([(rho_qubit_91, qubit)])


class TestIsoenergetic:
    def test_energy_conserved(self, qubit, qutrit, rng):
        pairs = [(random_density(2, rng), qubit), (random_density(3, rng), qutrit)]
        out = equilibrate_isoenergetic(pairs)
        e_in = sum(expectation(f.hamiltonian, rho) for rho, f in pairs)
        e_out = expectation(joint_family([qubit, qutrit]).hamiltonian, out.final_state)
        assert e_out == pytest.approx(e_in, abs=1e-9)

    def test_entropy_produced_nonnegative(self, rng):
        for _ in range(20):
            fams = [GibbsFamily(random_hamiltonian(int(rng.integers(2, 5)), rng))
                    for _ in range(2)]
            pairs = [(random_density(f.dim, rng), f) for f in fams]
            out = equilibrate_isoenergetic(pairs)
            assert out.entropy_produced >= -1e-9

    def test_negative_beta_for_inverted_inputs(self, qubit):
        pairs = [(DensityMatrix.diagonal([0.1, 0.9]), qubit),
                 (DensityMatrix.diagonal([0.2, 0.8]), qubit)]
        out = equilibrate_isoenergetic(pairs)
        assert out.beta_joint < 0

    def test_beta_ordering_vs_isoentropic(self, rng):
        # max-entropy beta never exceeds min-energy beta on the same inputs
        for _ in range(20):
            fams = [GibbsFamily(random_hamiltonian(3, rng)) for _ in range(2)]
            pairs = [(random_density(3, rng), f) for f in fams]
            b_s = equilibrate_isoentropic(pairs).beta_joint
            b_e = equilibrate_isoenergetic(pairs).beta_joint
            assert b_s >= b_e - 1e-9

    def test_needs_two_systems(self, qubit, rho_qubit_91):
        with pytest.raises(ValueError):
            equilibrate_isoenergetic([(rho_qubit_91, qubit)])

    def test_ground_state_pairs_are_sentinel(self, qubit, qutrit, degenerate_qutrit):
        # E(beta) only reaches the total ground energy at beta = +inf, where the
        # pure inputs spread over the ground subspace: ln g0 is produced
        for fams, s_out in (([qubit, qutrit], 0.0), ([qubit, qubit], 0.0),
                            ([degenerate_qutrit, qubit], math.log(2))):
            pairs = [(DensityMatrix.pure(np.eye(f.dim)[0]), f) for f in fams]
            out = equilibrate_isoenergetic(pairs)
            assert out.beta_joint == math.inf
            assert out.degenerate
            assert out.entropy_produced == pytest.approx(s_out, abs=1e-15)

    def test_top_state_pairs_are_sentinel(self, qubit, qutrit):
        for fams in ([qubit, qutrit], [qubit, qubit]):
            pairs = [(DensityMatrix.pure(np.eye(f.dim)[-1]), f) for f in fams]
            out = equilibrate_isoenergetic(pairs)
            assert out.beta_joint == -math.inf
            assert out.degenerate
            assert out.entropy_produced == 0.0

    def test_maximally_mixed_pair_is_zero(self, qubit, qutrit):
        pairs = [(DensityMatrix.maximally_mixed(f.dim), f) for f in (qubit, qutrit)]
        out = equilibrate_isoenergetic(pairs)
        assert out.beta_joint == 0.0
        assert not out.degenerate


class TestKnownSpectrum:
    def test_final_states_run_no_eigh(self, rng, eigh_calls, assert_matches_eigh_route):
        # products of local Gibbs states take their spectra from the families
        fams = [GibbsFamily(random_hamiltonian(d, rng)) for d in (64, 2)]
        pairs = [(random_density(f.dim, rng), f) for f in fams]
        eigh_calls.clear()
        outcomes = [equilibrate_isoentropic(pairs), equilibrate_isoenergetic(pairs)]
        assert eigh_calls == []
        for out in outcomes:
            assert_matches_eigh_route(out.final_state)


class TestLazyFinalState:
    def test_final_state_built_on_first_read_and_kept(self, rng, monkeypatch):
        # every reported number comes from beta_joint: the dense product state
        # is built only when final_state is read, and then kept
        calls = []
        for name in ("gibbs_state", "tensor"):
            def counting(*args, _build=getattr(equilibrium, name), _name=name):
                calls.append(_name)
                return _build(*args)
            monkeypatch.setattr(equilibrium, name, counting)
        fams = [GibbsFamily(random_hamiltonian(d, rng)) for d in (64, 2)]
        pairs = [(random_density(f.dim, rng), f) for f in fams]
        for equilibrate in (equilibrate_isoentropic, equilibrate_isoenergetic):
            calls.clear()
            out = equilibrate(pairs)
            assert calls == []
            state = out.final_state
            assert calls == ["gibbs_state", "gibbs_state", "tensor"]
            assert out.final_state is state
            assert len(calls) == 3


class TestEquilibriumPredicate:
    def test_joint_family_runs_no_eigh(self, rng, eigh_calls):
        # the Kronecker-sum Hamiltonian takes its levels and eigenvectors
        # from the two families
        fams = [GibbsFamily(random_hamiltonian(8, rng)) for _ in range(2)]
        rho = random_density(64, rng)
        eigh_calls.clear()
        is_equilibrium(rho, fams, SubsystemSplit((8, 8)))
        joint = joint_family(fams)
        assert eigh_calls == []
        h = joint.hamiltonian
        w = np.linalg.eigvalsh(h.entries)
        norm = np.max(np.abs(w))
        assert np.max(np.abs(joint.eigenvalues - w)) <= 1e-14 * norm
        assert np.max(np.abs((h.eigenvectors * h.eigenvalues) @ h.eigenvectors.conj().T
                             - h.entries)) <= 1e-14 * norm

    def test_joint_gibbs_is_equilibrium(self, qubit, qutrit):
        rho = tensor(gibbs_state(qubit, 1.7), gibbs_state(qutrit, 1.7))
        ok, f = is_equilibrium(rho, [qubit, qutrit], SubsystemSplit((2, 3)))
        assert ok and f <= 1e-8

    def test_mismatched_temperatures_are_not(self, qubit, qutrit):
        rho = tensor(gibbs_state(qubit, 1.0), gibbs_state(qutrit, 3.0))
        ok, f = is_equilibrium(rho, [qubit, qutrit], SubsystemSplit((2, 3)))
        assert not ok and f > 1e-4


class TestIntermediateTemperature:
    def test_joint_beta_between_inputs(self, rng):
        for _ in range(30):
            fams = [GibbsFamily(random_hamiltonian(int(rng.integers(2, 5)), rng))
                    for _ in range(2)]
            b_a, b_b = sorted(rng.uniform(0.1, 5.0, size=2))
            pairs = [(gibbs_state(fams[0], b_a), fams[0]),
                     (gibbs_state(fams[1], b_b), fams[1])]
            out = equilibrate_isoentropic(pairs)
            assert lemma3_check(b_a, b_b, out)


STATE_KINDS = ("random", "ground", "top", "pure", "mixed")


def oracle_family(levels, split, scale, rotate, rng):
    """scale * (levels + split * index): equal integer levels end up at
    least `split` apart; `rotate` hides the spectrum in a Haar basis."""
    h = scale * (np.array(levels, dtype=float) + split * np.arange(len(levels)))
    if not rotate:
        return GibbsFamily(HermitianOperator.diagonal(h))
    u = haar_unitary(len(levels), rng)
    return GibbsFamily(HermitianOperator((u * h) @ u.conj().T))


def oracle_state(fam, kind, rng):
    """A state at an energy extreme (ground, top), an entropy extreme (pure,
    mixed), or a random one."""
    vecs = fam.hamiltonian.eigenvectors[:, np.argsort(fam.hamiltonian.eigenvalues)]
    if kind == "ground":
        return DensityMatrix.pure(vecs[:, 0])
    if kind == "top":
        return DensityMatrix.pure(vecs[:, -1])
    if kind == "pure":
        return DensityMatrix.pure(rng.standard_normal(fam.dim) + 1j * rng.standard_normal(fam.dim))
    if kind == "mixed":
        return DensityMatrix.maximally_mixed(fam.dim)
    return random_density(fam.dim, rng)


def assert_joint_beta_agrees(beta, oracle, residual, atol):
    """The same sentinel, or the same beta within 1e-8 max(1, |beta|). Where
    the root is too flat for that (a tiny variance under large energies, so
    rounding of the spectrum moves the root), beta must still solve the
    oracle's own equation: |residual(beta)| <= atol."""
    if math.isinf(beta) or math.isinf(oracle):
        assert beta == oracle
    elif abs(beta - oracle) > 1e-8 * max(1.0, abs(oracle)):
        assert abs(residual(beta)) <= atol, (beta, oracle)


def assert_matches_joint_family(pairs):
    """Both equilibrations against intrinsic_beta and spontaneous_beta of the
    explicit Kronecker-sum family: an independent route, solved on the full
    d_a * d_b spectrum instead of a sum over the families."""
    joint = joint_family([fam for _, fam in pairs])
    s_total = sum(entropy(rho) for rho, _ in pairs)
    e_total = sum(expectation(fam.hamiltonian, rho) for rho, fam in pairs)
    norm = max(1.0, float(np.max(np.abs(joint.eigenvalues))))

    out = equilibrate_isoentropic(pairs)
    assert_joint_beta_agrees(out.beta_joint, intrinsic_beta(joint, s_total),
                             lambda b: boundary_entropy(joint, b) - s_total, 1e-12)
    assert out.degenerate == math.isinf(out.beta_joint)
    out = equilibrate_isoenergetic(pairs)
    assert_joint_beta_agrees(out.beta_joint, spontaneous_beta(joint, e_total),
                             lambda b: boundary_energy(joint, b) - e_total, 1e-12 * norm)
    assert out.degenerate == math.isinf(out.beta_joint)


class TestJointFamilyOracle:
    def test_random_pairs(self, rng):
        for _ in range(60):
            fams = [GibbsFamily(random_hamiltonian(int(rng.integers(2, 5)), rng))
                    for _ in range(2)]
            assert_matches_joint_family([(random_density(f.dim, rng), f) for f in fams])

    @settings(max_examples=150, deadline=None)
    @given(levels=st.lists(st.lists(st.integers(0, 4), min_size=2, max_size=4),
                           min_size=2, max_size=2),
           split=st.sampled_from([0.0, 1e-6, 1e-4]),
           scale=st.floats(1e-2, 1e2),
           rotate=st.booleans(),
           kinds=st.lists(st.sampled_from(STATE_KINDS), min_size=2, max_size=2),
           seed=st.integers(0, 2**32 - 1))
    @example(levels=[[0, 1], [0, 1, 2]], split=0.0, scale=1.0, rotate=False,
             kinds=["ground", "ground"], seed=0)
    @example(levels=[[0, 1], [0, 1, 2]], split=0.0, scale=1.0, rotate=False,
             kinds=["top", "top"], seed=0)
    @example(levels=[[0, 0, 1], [1, 1]], split=1e-6, scale=3.0, rotate=True,
             kinds=["ground", "mixed"], seed=1)
    @example(levels=[[0, 1], [0, 1, 2]], split=0.0, scale=1.0, rotate=False,
             kinds=["mixed", "mixed"], seed=0)
    def test_degenerate_spectra_and_extreme_states(self, levels, split, scale, rotate,
                                                  kinds, seed):
        rng = np.random.default_rng(seed)
        fams = [oracle_family(lv, split, scale, rotate, rng) for lv in levels]
        assert_matches_joint_family([(oracle_state(f, k, rng), f)
                                     for f, k in zip(fams, kinds)])
