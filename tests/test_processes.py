import math

import numpy as np
import pytest

from isotherm.energetics import bound_energy, free_energy
from isotherm.equilibrium import joint_family
from isotherm.gibbs import GibbsFamily, gibbs_state, intrinsic_beta
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
from isotherm.processes import (
    DegenerateEngineError,
    LedgerEntry,
    ProcessRecord,
    carnot_engine,
    clausius_check,
    erasure,
    extractable_work,
    first_law_residual,
    heat,
    heat_bounds_check,
    heat_integral_check,
    is_gibbs,
    kelvin_planck_check,
    random_process,
    work_ledger,
)

# frozen oracle: two gap-1 qubits, cold at beta_a = ln 9 (populations
# 0.9/0.1), hot at beta_b = ln(7/3) (populations 0.7/0.3), single copies
ENGINE_BETA_A = math.log(9)
ENGINE_BETA_B = math.log(7 / 3)
ENGINE_ETA = 0.36392833263769536
ENGINE_CARNOT = 0.6143781254192888


def gap_family(gap: float) -> GibbsFamily:
    return GibbsFamily(HermitianOperator.diagonal([0.0, gap]))


class TestProcessRecord:
    def test_rejects_entropy_change(self, qubit, rng):
        initial = random_density(4, rng)
        final = random_density(4, rng)
        with pytest.raises(ValueError):
            ProcessRecord(initial=initial, final=final,
                          split=SubsystemSplit((2, 2)), fam_a=qubit, fam_b=qubit)

    def test_accepts_unitary_evolution(self, qubit, rng):
        initial = random_density(4, rng)
        u = haar_unitary(4, rng)
        final = DensityMatrix(u @ initial.entries @ u.conj().T)
        proc = ProcessRecord(initial=initial, final=final,
                             split=SubsystemSplit((2, 2)), fam_a=qubit, fam_b=qubit)
        a0, b0 = proc.marginals("initial")
        assert a0.dim == 2 and b0.dim == 2

    def test_rejects_non_bipartite_split(self, qubit):
        rho = DensityMatrix.maximally_mixed(8)
        with pytest.raises(ValueError, match="bipartite"):
            ProcessRecord(initial=rho, final=rho, split=SubsystemSplit((2, 2, 2)),
                          fam_a=qubit, fam_b=qubit)

    def test_rejects_family_dimension_mismatch(self, qubit, qutrit):
        rho = DensityMatrix.maximally_mixed(4)
        with pytest.raises(ValueError, match="family dimensions"):
            ProcessRecord(initial=rho, final=rho, split=SubsystemSplit((2, 2)),
                          fam_a=qubit, fam_b=qutrit)

    @pytest.mark.parametrize("which", ["inital", "Final", ""])
    def test_marginals_rejects_unknown_which(self, which, rng):
        proc = random_process((2, 3), rng)
        with pytest.raises(ValueError, match="initial"):
            proc.marginals(which)

    def test_final_marginals(self, rng):
        proc = random_process((2, 3), rng)
        a1, b1 = proc.marginals("final")
        assert np.array_equal(a1.entries, partial_trace(proc.final, proc.split, [0]).entries)
        assert np.array_equal(b1.entries, partial_trace(proc.final, proc.split, [1]).entries)


# ---------------------------------------------------------------- oracle
# The uncached route the record's cached marginals, betas and ledger replaced:
# fresh partial traces, bound_energy and mutual_information on every call.

def _fresh_marginals(rho, split):
    return partial_trace(rho, split, [0]), partial_trace(rho, split, [1])


def oracle_ledger(proc):
    a0, b0 = _fresh_marginals(proc.initial, proc.split)
    a1, b1 = _fresh_marginals(proc.final, proc.split)
    h_a, h_b = proc.fam_a.hamiltonian, proc.fam_b.hamiltonian
    e_a0, e_a1 = expectation(h_a, a0), expectation(h_a, a1)
    e_b0, e_b1 = expectation(h_b, b0), expectation(h_b, b1)
    ba0, ba1 = bound_energy(a0, proc.fam_a), bound_energy(a1, proc.fam_a)
    bb0, bb1 = bound_energy(b0, proc.fam_b), bound_energy(b1, proc.fam_b)
    w = (e_a1 - e_a0) + (e_b1 - e_b0)
    d_f_b = (e_b1 - bb1) - (e_b0 - bb0)
    return LedgerEntry(
        dQ=bb1 - bb0, dQ_A=ba1 - ba0, W=w, dW_A=w - d_f_b,
        dE_A=e_a1 - e_a0, dE_B=e_b1 - e_b0,
        dF_A=(e_a1 - ba1) - (e_a0 - ba0), dF_B=d_f_b,
        dS_A=entropy(a1) - entropy(a0), dS_B=entropy(b1) - entropy(b0),
        dI=mutual_information(proc.final, proc.split)
        - mutual_information(proc.initial, proc.split))


def oracle_heat(proc):
    b0 = partial_trace(proc.initial, proc.split, [1])
    b1 = partial_trace(proc.final, proc.split, [1])
    return bound_energy(b1, proc.fam_b) - bound_energy(b0, proc.fam_b)


def oracle_first_law(proc):
    led = oracle_ledger(proc)
    return led.dE_A - (led.dW_A - led.dQ)


def oracle_kelvin_planck(proc):
    led = oracle_ledger(proc)
    residual = abs((led.dQ_A + led.dQ) - (-(led.dF_A + led.dF_B) + led.W))
    a0, b0 = _fresh_marginals(proc.initial, proc.split)
    corollary = None
    if led.W < 0 and is_gibbs(a0, proc.fam_a) and is_gibbs(b0, proc.fam_b):
        corollary = bool(led.dQ_A + led.dQ <= led.W + 1e-9)
    return residual, corollary


def oracle_clausius(proc):
    a0, b0 = _fresh_marginals(proc.initial, proc.split)
    betas = (intrinsic_beta(proc.fam_a, entropy(a0)),
             intrinsic_beta(proc.fam_b, entropy(b0)))
    if any(math.isinf(b) or b == 0.0 for b in betas):
        raise ValueError("sentinel intrinsic temperature")
    t_a, t_b = 1.0 / betas[0], 1.0 / betas[1]
    led = oracle_ledger(proc)
    lhs = (t_b - t_a) * led.dS_A
    rhs = led.dF_A + led.dF_B + t_b * led.dI - led.W
    return lhs, rhs, bool(lhs >= rhs - 1e-9)


def oracle_heat_bounds(proc):
    b0 = partial_trace(proc.initial, proc.split, [1])
    if not is_gibbs(b0, proc.fam_b):
        raise ValueError("not thermal")
    beta = intrinsic_beta(proc.fam_b, entropy(b0))
    led = oracle_ledger(proc)
    t_ds = 0.0 if math.isinf(beta) else led.dS_B / beta if beta > 0 else -math.inf
    return bool(t_ds <= led.dQ + 1e-9 and led.dQ <= led.dE_B + 1e-9)


def oracle_extractable_work(rho, fam):
    beta = intrinsic_beta(fam, entropy(rho))
    return free_energy(rho, fam), gibbs_state(fam, beta)


def outcome(fn, proc):
    """The value fn(proc) returns, or ValueError if it raises one."""
    try:
        return fn(proc)
    except ValueError:
        return ValueError


CHECKS = {
    "work_ledger": (work_ledger, oracle_ledger),
    "first_law_residual": (first_law_residual, oracle_first_law),
    "kelvin_planck_check": (kelvin_planck_check, oracle_kelvin_planck),
    "clausius_check": (clausius_check, oracle_clausius),
    "heat": (heat, oracle_heat),
    "heat_bounds_check": (heat_bounds_check, oracle_heat_bounds),
}


def degenerate_ground_process(rng):
    """B on a two-fold degenerate ground, starting below ln 2 (beta = +inf)."""
    fam_a = GibbsFamily(random_hamiltonian(2, rng))
    fam_b = GibbsFamily(HermitianOperator.diagonal([0.0, 0.0, 1.0]))
    initial = tensor(random_density(2, rng), DensityMatrix.diagonal([0.9, 0.1, 0.0]))
    u = haar_unitary(6, rng)
    final = DensityMatrix(u @ initial.entries @ u.conj().T)
    return ProcessRecord(initial=initial, final=final, split=SubsystemSplit((2, 3)),
                         fam_a=fam_a, fam_b=fam_b)


def thermal_swap_process():
    """Two thermal qubits swapped: W < 0, so the Kelvin-Planck corollary applies."""
    fam_a, fam_b = gap_family(1.0), gap_family(2.0)
    initial = tensor(gibbs_state(fam_a, 3.0), gibbs_state(fam_b, 1.0))
    swap = np.eye(4)[[0, 2, 1, 3]]
    final = DensityMatrix(swap @ initial.entries @ swap.T)
    return ProcessRecord(initial=initial, final=final, split=SubsystemSplit((2, 2)),
                         fam_a=fam_a, fam_b=fam_b)


def oracle_cases():
    rng = np.random.default_rng(909)
    cases = []
    for dims in ((2, 2), (2, 3), (3, 3)):
        cases += [(f"random-{dims}", random_process(dims, rng)) for _ in range(6)]
        cases += [(f"thermal-b-{dims}",
                   random_process(dims, rng, thermal_b=True,
                                  beta_b=float(rng.uniform(0.3, 3.0))))
                  for _ in range(3)]
    cases += [("degenerate-ground", degenerate_ground_process(rng)) for _ in range(3)]
    cases.append(("thermal-swap", thermal_swap_process()))
    return cases


ORACLE_CASES = oracle_cases()


def fresh_copy(proc):
    return ProcessRecord(initial=proc.initial, final=proc.final, split=proc.split,
                         fam_a=proc.fam_a, fam_b=proc.fam_b)


class TestCachedRecordOracle:
    """The cached ledger and checks equal the uncached route bit for bit."""

    @pytest.mark.parametrize("name,proc", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
    def test_ledger_fields_equal(self, name, proc):
        led, ref = work_ledger(fresh_copy(proc)), oracle_ledger(proc)
        for field in vars(ref):
            assert getattr(led, field) == getattr(ref, field), field

    @pytest.mark.parametrize("name,proc", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
    def test_checks_equal(self, name, proc):
        for check, (fn, ref) in CHECKS.items():
            assert outcome(fn, fresh_copy(proc)) == outcome(ref, proc), check
        w, witness = extractable_work(proc.initial, joint_family([proc.fam_a, proc.fam_b]))
        w_ref, witness_ref = oracle_extractable_work(
            proc.initial, joint_family([proc.fam_a, proc.fam_b]))
        assert w == w_ref
        assert np.array_equal(witness.entries, witness_ref.entries)
        for rho, fam in zip(proc.marginals("final"), (proc.fam_a, proc.fam_b)):
            w, witness = extractable_work(rho, fam)
            w_ref, witness_ref = oracle_extractable_work(rho, fam)
            assert w == w_ref
            assert np.array_equal(witness.entries, witness_ref.entries)

    def test_cases_cover_sentinels_and_corollary(self):
        procs = dict(ORACLE_CASES)
        assert outcome(clausius_check, procs["degenerate-ground"]) is ValueError
        assert math.isinf(intrinsic_beta(
            procs["degenerate-ground"].fam_b,
            entropy(procs["degenerate-ground"].marginals("initial")[1])))
        assert kelvin_planck_check(procs["thermal-swap"])[1] is True

    @pytest.mark.parametrize("name", ["random-(2, 3)", "thermal-b-(3, 3)",
                                      "degenerate-ground", "thermal-swap"])
    def test_order_independent(self, name):
        # every check fills the cache first once, in both cyclic directions
        proc = dict(ORACLE_CASES)[name]
        expected = {check: outcome(ref, proc) for check, (_, ref) in CHECKS.items()}
        names = list(CHECKS)
        for order in ([names[i:] + names[:i] for i in range(len(names))]
                      + [names[::-1][i:] + names[::-1][:i] for i in range(len(names))]):
            record = fresh_copy(proc)
            got = {check: outcome(CHECKS[check][0], record) for check in order}
            assert got == expected, order


class TestLedgerIdentities:
    def test_first_law_is_identity(self, rng):
        for _ in range(50):
            proc = random_process((2, 3), rng)
            assert abs(first_law_residual(proc)) <= 1e-12

    def test_kelvin_planck_balance_is_identity(self, rng):
        for _ in range(50):
            proc = random_process((3, 2), rng)
            residual, _ = kelvin_planck_check(proc)
            assert residual <= 1e-10

    def test_ledger_internal_consistency(self, rng):
        proc = random_process((2, 2), rng)
        led = work_ledger(proc)
        assert led.W == pytest.approx(led.dE_A + led.dE_B, abs=1e-12)
        assert led.dW_A == pytest.approx(led.W - led.dF_B, abs=1e-12)
        assert led.dQ == pytest.approx(heat(proc), abs=1e-12)
        # global unitarity: entropy bookkeeping closes through the correlations
        assert led.dI == pytest.approx(led.dS_A + led.dS_B, abs=1e-8)


class TestHeat:
    def test_integral_agrees_with_bound_energy_change(self, rng):
        for _ in range(10):
            proc = random_process((2, 3), rng, thermal_b=True, beta_b=1.0)
            assert heat_integral_check(proc) <= 1e-7

    def test_bounds_for_thermal_bath(self, rng):
        for _ in range(30):
            proc = random_process((2, 3), rng, thermal_b=True,
                                  beta_b=float(rng.uniform(0.3, 3.0)))
            assert heat_bounds_check(proc)

    def test_bounds_for_maximally_mixed_bath(self, rng):
        # beta_B = 0: T = inf and dS_B <= 0, so T dS_B = -inf
        for _ in range(50):
            proc = random_process((2, 2), rng, thermal_b=True, beta_b=0.0,
                                  fam_b=gap_family(1.0))
            b0 = partial_trace(proc.initial, proc.split, [1])
            assert intrinsic_beta(proc.fam_b, entropy(b0)) == 0.0
            assert heat_bounds_check(proc)

    def test_bounds_require_thermal_bath(self, rng):
        proc = random_process((2, 2), rng)
        with pytest.raises(ValueError):
            heat_bounds_check(proc)

    def test_perturbative_coincidence_slope(self, qubit):
        # dQ - T dS_B vanishes quadratically as the kick strength delta -> 0
        beta_b = 1.0
        fam_b = qubit
        rho_b = gibbs_state(fam_b, beta_b)
        deltas = np.geomspace(1e-3, 1e-1, 9)
        gaps = []
        for delta in deltas:
            # a partial A-B swap in the |01>, |10> block: a kick on B alone
            # would leave B's spectrum, and so every gap, at exactly 0
            c, s = math.cos(delta), math.sin(delta)
            u = np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]])
            initial = tensor(DensityMatrix.diagonal([0.6, 0.4]), rho_b)
            final = DensityMatrix(u @ initial.entries @ u.conj().T)
            proc = ProcessRecord(initial=initial, final=final,
                                 split=SubsystemSplit((2, 2)),
                                 fam_a=qubit, fam_b=fam_b)
            led = work_ledger(proc)
            gaps.append(led.dQ - led.dS_B / beta_b)
        gaps = np.array(gaps)
        assert np.all(gaps >= -1e-14)
        slope = np.polyfit(np.log(deltas), np.log(np.maximum(gaps, 1e-300)), 1)[0]
        assert slope >= 1.9


class TestSecondLawChecks:
    def test_clausius_on_random_sweep(self, rng):
        checked = 0
        for _ in range(100):
            proc = random_process((2, 2), rng)
            try:
                lhs, rhs, holds = clausius_check(proc)
            except ValueError:
                continue  # sentinel temperature: check not applicable
            checked += 1
            assert holds, (lhs, rhs)
        assert checked > 50

    def test_kelvin_planck_corollary(self, qubit, rng):
        # thermal marginals at different temperatures, work-extracting swap
        fam_b = gap_family(2.0)
        initial = tensor(gibbs_state(qubit, 3.0), gibbs_state(fam_b, 1.0))
        swap = np.eye(4)[[0, 2, 1, 3]]
        final = DensityMatrix(swap @ initial.entries @ swap.T)
        proc = ProcessRecord(initial=initial, final=final,
                             split=SubsystemSplit((2, 2)), fam_a=qubit, fam_b=fam_b)
        led = work_ledger(proc)
        assert led.W < 0  # the swap extracts work here
        residual, corollary = kelvin_planck_check(proc)
        assert residual <= 1e-10
        assert corollary is True

    def test_extractable_work_is_free_energy(self, rng):
        fam = GibbsFamily(random_hamiltonian(3, rng))
        rho = random_density(3, rng)
        w, final = extractable_work(rho, fam)
        assert w == pytest.approx(free_energy(rho, fam), abs=1e-12)
        assert entropy(final) == pytest.approx(entropy(rho), abs=1e-8)
        assert free_energy(final, fam) == pytest.approx(0.0, abs=1e-9)

    def test_work_extraction_bound_on_sweep(self, rng):
        for _ in range(50):
            proc = random_process((2, 2), rng)
            led = work_ledger(proc)
            f_joint, _ = extractable_work(
                proc.initial, joint_family([proc.fam_a, proc.fam_b]))
            assert -led.W <= f_joint + 1e-9


class TestEngine:
    def test_fixture_efficiency(self):
        run = carnot_engine((gap_family(1.0), ENGINE_BETA_A, 1),
                            (gap_family(1.0), ENGINE_BETA_B, 1))
        assert run.efficiency == pytest.approx(ENGINE_ETA, abs=1e-9)
        assert run.bound_carnot == pytest.approx(ENGINE_CARNOT, abs=1e-9)
        assert run.work > 0
        assert run.efficiency < run.bound_carnot

    def test_gap_non_increasing_over_copies(self):
        gaps = []
        for n in (1, 2, 4, 8):
            run = carnot_engine((gap_family(1.0), ENGINE_BETA_A, n),
                                (gap_family(1.0), ENGINE_BETA_B, n))
            gaps.append(run.bound_carnot - run.efficiency)
        assert all(gaps[i] >= gaps[i + 1] - 1e-12 for i in range(len(gaps) - 1))

    def test_hot_bath_copies_push_toward_carnot(self):
        # growing only the hot bath makes it behave more like a reservoir
        gaps = []
        for n_b in (1, 2, 4, 8, 16):
            run = carnot_engine((gap_family(1.0), ENGINE_BETA_A, 1),
                                (gap_family(1.0), ENGINE_BETA_B, n_b))
            gaps.append(run.bound_carnot - run.efficiency)
        assert all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))

    def test_bounds_on_random_engines(self, rng):
        for _ in range(50):
            fam_a = GibbsFamily(random_hamiltonian(int(rng.integers(2, 5)), rng))
            fam_b = GibbsFamily(random_hamiltonian(int(rng.integers(2, 5)), rng))
            beta_b = float(rng.uniform(0.1, 1.0))
            beta_a = beta_b + float(rng.uniform(0.2, 3.0))
            try:
                run = carnot_engine((fam_a, beta_a, 1), (fam_b, beta_b, 1))
            except DegenerateEngineError:
                continue
            assert run.efficiency <= run.bound_finite + 1e-9
            assert run.bound_finite <= run.bound_carnot + 1e-9

    def test_flat_cold_bath_is_degenerate(self, rng):
        # a flat cold bath keeps its entropy at every beta, so the residual is
        # exactly 0 at beta_b, where the root in the Lemma-3 bracket [beta_b,
        # beta_a] starts, and no heat leaves the hot bath; a root started
        # elsewhere lands a rounding error away and reports efficiency 1
        flat = GibbsFamily(HermitianOperator.diagonal([0.5, 0.5]))
        for _ in range(40):
            hot = GibbsFamily(random_hamiltonian(3, rng))
            beta_b = float(rng.uniform(0.1, 1.0))
            with pytest.raises(DegenerateEngineError):
                carnot_engine((flat, beta_b + float(rng.uniform(0.2, 3.0)), 1), (hot, beta_b, 1))

    def test_extreme_cold_bath(self, qubit):
        # the joint-beta bracket [1, 1e300] spans 300 decades
        run = carnot_engine((qubit, 1e300, 1), (qubit, 1.0, 1))
        assert run.beta_joint == pytest.approx(2.37471957239, abs=1e-9)
        assert run.efficiency < run.bound_carnot

    def test_zero_temperature_cold_bath(self, qubit):
        # the bracket is open above; the joint beta is that of 1e300
        run = carnot_engine((qubit, math.inf, 1), (qubit, 1.0, 1))
        assert run.beta_joint == pytest.approx(2.37471957239, abs=1e-9)
        assert run.bound_carnot == 1.0
        assert run.efficiency < run.bound_carnot

    def test_equal_temperatures_degenerate(self, qubit):
        with pytest.raises(DegenerateEngineError):
            carnot_engine((qubit, 1.0, 1), (qubit, 1.0, 1))

    def test_wrong_ordering_rejected(self, qubit):
        with pytest.raises(ValueError):
            carnot_engine((qubit, 0.5, 1), (qubit, 2.0, 1))


def oracle_erasure(rho_s, fam_s, rho_b, fam_b):
    """The joint-free-energy route of erasure, kept as an oracle: the free
    energy of |0><0| (x) gamma_B(beta_final) minus that of rho_S (x) rho_B,
    on the joint family, with dense product states."""
    s_s, s_b = entropy(rho_s), entropy(rho_b)
    if s_s > math.log(fam_b.dim) - s_b + 1e-12:
        return False, None
    rho_b_final = gibbs_state(fam_b, intrinsic_beta(fam_b, s_b + s_s))
    target = np.zeros((fam_s.dim, fam_s.dim))
    target[0, 0] = 1.0
    joint = joint_family([fam_s, fam_b])
    f_after = free_energy(tensor(DensityMatrix(target), rho_b_final), joint)
    return True, f_after - free_energy(tensor(rho_s, rho_b), joint)


def erasure_cases(rng):
    """(rho_S, fam_S, rho_B, fam_B): registers nondegenerate, degenerate or
    flat in a Haar basis; register and bath states full-rank, rank-deficient
    or thermal, the bath also frozen in its degenerate ground space."""
    deg_ground = GibbsFamily(HermitianOperator.diagonal([0.0, 0.0, 1.0]))
    yield (DensityMatrix.diagonal([0.9, 0.1]), gap_family(1.0),
           DensityMatrix.diagonal([1.0, 0.0, 0.0]), deg_ground)  # beta_final = inf
    yield (DensityMatrix.diagonal([1.0, 0.0]), gap_family(1.0),
           gibbs_state(deg_ground, 2.0), deg_ground)
    for _ in range(300):
        d_s, d_b = int(rng.integers(2, 4)), int(rng.integers(2, 6))
        u = haar_unitary(d_s, rng)
        levels = rng.choice([rng.random(d_s), np.zeros(d_s), np.append(np.zeros(d_s - 1), 1.0)])
        fam_s = GibbsFamily(HermitianOperator((u * levels) @ u.conj().T))
        fam_b = GibbsFamily(random_hamiltonian(d_b, rng))
        kind_s, kind_b = rng.integers(0, 3, 2)
        rho_s = (random_density(d_s, rng) if kind_s == 0 else
                 random_density(d_s, rng, rank=1) if kind_s == 1 else
                 gibbs_state(fam_s, float(rng.uniform(0.5, 5.0))))
        rho_b = (gibbs_state(fam_b, float(rng.uniform(0.5, 5.0))) if kind_b < 2 else
                 random_density(d_b, rng, rank=int(rng.integers(1, d_b))))
        yield rho_s, fam_s, rho_b, fam_b


class TestErasure:
    def test_matches_joint_free_energy_oracle(self, rng):
        feasible = 0
        for rho_s, fam_s, rho_b, fam_b in erasure_cases(rng):
            ok, cost = erasure(rho_s, fam_s, rho_b, fam_b)
            ok_ref, cost_ref = oracle_erasure(rho_s, fam_s, rho_b, fam_b)
            assert ok == ok_ref
            if ok:
                assert abs(cost - cost_ref) <= 1e-13
                feasible += 1
        assert feasible >= 100

    def test_feasible_with_cold_bath(self, qutrit):
        # ln 3 - S(gamma_3) ~ 0.89 nats of capacity comfortably holds ln 2;
        # with a degenerate register the cost is pure bath heating, > 0
        flat = gap_family(0.0)
        rho_s = DensityMatrix.maximally_mixed(2)
        rho_b = gibbs_state(qutrit, 3.0)
        feasible, cost = erasure(rho_s, flat, rho_b, qutrit)
        assert feasible
        assert cost is not None and cost > 0

    def test_infeasible_with_full_bath(self, qubit):
        rho_s = DensityMatrix.maximally_mixed(2)
        rho_b = DensityMatrix.maximally_mixed(2)
        feasible, cost = erasure(rho_s, qubit, rho_b, qubit)
        assert not feasible and cost is None

    def test_pure_state_is_free(self, qubit, qutrit):
        rho_s = DensityMatrix.diagonal([1.0, 0.0])
        feasible, cost = erasure(rho_s, qubit, gibbs_state(qutrit, 1.0), qutrit)
        assert feasible
        assert cost == pytest.approx(0.0, abs=1e-9)

    def test_cost_at_least_landauer(self, qutrit):
        # degenerate register: cost >= T S(rho_S) at the bath's initial
        # intrinsic temperature (the bath only gets hotter along the way)
        flat = gap_family(0.0)
        rho_s = DensityMatrix.maximally_mixed(2)
        rho_b = gibbs_state(qutrit, 3.0)
        feasible, cost = erasure(rho_s, flat, rho_b, qutrit)
        t_b = 1.0 / intrinsic_beta(qutrit, entropy(rho_b))
        assert feasible
        assert cost >= t_b * entropy(rho_s) - 1e-9

    def test_energetic_register_can_subsidize(self, qubit, qutrit):
        # a register state with free energy can pay for its own erasure
        rho_s = DensityMatrix.maximally_mixed(2)
        rho_b = gibbs_state(qutrit, 3.0)
        feasible, cost = erasure(rho_s, qubit, rho_b, qutrit)
        assert feasible
        assert cost < 0.45  # strictly cheaper than the degenerate-register cost
