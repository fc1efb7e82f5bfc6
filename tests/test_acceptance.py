"""End-to-end acceptance suite: one pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they print.
All tolerances are pinned in the asserts.
"""

import json
import math
import sys
import time

import numpy as np
import pytest

from isotherm.charges import (
    ChargeSet,
    GGEFamily,
    bound_charge,
    charges_point,
    gge_charges,
    gge_covariance,
    gge_solve,
    gge_state,
)
from isotherm.cli import main as cli_main
from isotherm.energetics import (
    athermality,
    bound_energy,
    free_energy,
)
from isotherm.equilibrium import equilibrate_isoenergetic, equilibrate_isoentropic
from isotherm.gibbs import (
    GibbsFamily,
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
    partial_trace,
    random_density,
    random_hamiltonian,
    tensor,
)
from isotherm.oracles import (
    heat_integral_check,
    second_law_charges_check,
    variational_athermality,
    variational_free_energy,
)
from isotherm.processes import (
    DegenerateEngineError,
    ProcessRecord,
    carnot_engine,
    clausius_check,
    extractable_work,
    first_law_residual,
    kelvin_planck_check,
    random_process,
    work_ledger,
)
from isotherm.rates import conversion_rate, rate_entropy_only


# one line per criterion; conftest echoes these in the terminal summary
VERDICT_LINES: list[str] = []


def verdict(n: int, label: str, ok: bool):
    line = f"{'PASS' if ok else 'FAIL'} criterion {n:2d}: {label}"
    VERDICT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {n}: {label}"


def test_01_solver_correctness():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    ok = True
    for _ in range(200):
        d = int(rng.integers(2, 17))
        fam = GibbsFamily(random_hamiltonian(d, rng))
        beta = float(rng.uniform(0.05, 8.0))
        s_target = boundary_entropy(fam, beta)
        beta_rec = intrinsic_beta(fam, s_target)
        ok &= abs(boundary_entropy(fam, beta_rec) - s_target) <= 1e-10
        ok &= abs(beta_rec - beta) <= 1e-8
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    verdict(1, f"entropy solver round-trip, 200 systems in {elapsed:.2f}s "
               "(|dS| <= 1e-10, |dbeta| <= 1e-8, < 5s)", ok)


def test_02_two_level_closed_forms():
    fam = GibbsFamily(HermitianOperator.diagonal([0.0, 1.0]))
    rho = DensityMatrix.diagonal([0.1, 0.9])
    # analytic inversion, recomputed here: populations (p, 1-p) sorted
    # descending are Gibbs at beta = ln(p/(1-p)) for a gap-1 Hamiltonian
    p = 0.9
    beta_exact = math.log(p / (1 - p))
    b_exact = 1 - p        # energy of diag(0.9, 0.1) under diag(0, 1)
    f_exact = 0.9 - b_exact
    ok = abs(intrinsic_beta(fam, entropy(rho)) - beta_exact) <= 1e-10
    ok &= abs(bound_energy(rho, fam) - b_exact) <= 1e-12
    ok &= abs(free_energy(rho, fam) - f_exact) <= 1e-12
    verdict(2, "two-level closed forms beta = ln 9 (1e-10), B = 0.1, F = 0.8 (1e-12)", ok)


def test_03_bound_free_energy_properties():
    rng = np.random.default_rng(103)
    t0 = time.monotonic()
    ok = True
    for d_a in (2, 3, 4):
        for d_b in (2, 3, 4):
            fam_a = GibbsFamily(random_hamiltonian(d_a, rng))
            fam_b = GibbsFamily(random_hamiltonian(d_b, rng))
            from isotherm.operators import kron_sum
            fam_ab = GibbsFamily(kron_sum(fam_a.hamiltonian, fam_b.hamiltonian))
            split = SubsystemSplit((d_a, d_b))
            for _ in range(1000):
                rho = random_density(d_a * d_b, rng)
                rho_a = partial_trace(rho, split, [0])
                rho_b = partial_trace(rho, split, [1])
                prod = tensor(rho_a, rho_b)
                b_ab = bound_energy(rho, fam_ab)
                b_prod = bound_energy(prod, fam_ab)
                b_a = bound_energy(rho_a, fam_a)
                b_b = bound_energy(rho_b, fam_b)
                e_ab = expectation(fam_ab.hamiltonian, rho)
                ok &= b_ab <= b_prod + 1e-9          # correlations lower bound energy
                ok &= b_prod <= b_a + b_b + 1e-9     # subadditive across parts
                ok &= e_ab - b_prod <= e_ab - b_ab + 1e-9  # correlations carry free energy
                ok &= ((expectation(fam_a.hamiltonian, rho_a) - b_a)
                       + (expectation(fam_b.hamiltonian, rho_b) - b_b)
                       <= e_ab - b_prod + 1e-9)  # local free energies sum below joint
    # equality cases
    fam = GibbsFamily(HermitianOperator.diagonal([0.0, 1.0]))
    fam2 = GibbsFamily(kron_sum(fam.hamiltonian, fam.hamiltonian))
    split = SubsystemSplit((2, 2))
    prod = tensor(random_density(2, rng), random_density(2, rng))
    pa, pb = partial_trace(prod, split, [0]), partial_trace(prod, split, [1])
    ok &= abs(bound_energy(prod, fam2)
              - bound_energy(tensor(pa, pb), fam2)) <= 1e-8  # product saturates
    both = tensor(gibbs_state(fam, 1.3), gibbs_state(fam, 1.3))
    ok &= abs(bound_energy(both, fam2)
              - 2 * bound_energy(gibbs_state(fam, 1.3), fam)) <= 1e-8  # equal-beta pair saturates
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    verdict(3, f"bound/free-energy composition properties, 9000 trials in {elapsed:.1f}s "
               "(slack 1e-9, equalities 1e-8, < 60s)", ok)


def test_04_variational_forms():
    from isotherm.oracles import default_beta_grid, symmetric_beta_grid

    def within_one_step(grid, arg, target):
        i = int(np.argmin(np.abs(grid - arg)))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, len(grid) - 1)]
        return lo - 1e-12 <= target <= hi + 1e-12

    rng = np.random.default_rng(104)
    ok = True
    for _ in range(100):
        d = int(rng.integers(2, 5))
        fam = GibbsFamily(random_hamiltonian(d, rng))
        rho = random_density(d, rng)
        # 2001-point log grid centered on the state's own temperature
        beta = intrinsic_beta(fam, entropy(rho))
        if math.isfinite(beta) and beta > 0:
            f_grid = np.geomspace(beta / 10, 10 * beta, 2001)
        else:
            f_grid = default_beta_grid()
        f_val, f_arg = variational_free_energy(rho, fam, f_grid)
        ok &= abs(f_val - free_energy(rho, fam)) <= 1e-6
        if math.isfinite(beta) and f_grid[0] < beta < f_grid[-1]:
            ok &= within_one_step(f_grid, f_arg, beta)
        beta_s = spontaneous_beta(fam, expectation(fam.hamiltonian, rho))
        if math.isfinite(beta_s) and abs(beta_s) > 1e-12:
            a_grid = np.sign(beta_s) * np.geomspace(abs(beta_s) / 10,
                                                    10 * abs(beta_s), 2001)
            a_grid = np.sort(a_grid)
        else:
            a_grid = symmetric_beta_grid()
        a_val, a_arg = variational_athermality(rho, fam, a_grid)
        ok &= abs(a_val - athermality(rho, fam)) <= 1e-6
        if math.isfinite(beta_s) and a_grid[0] < beta_s < a_grid[-1]:
            ok &= within_one_step(a_grid, a_arg, beta_s)
    verdict(4, "variational F and A grid minima within 1e-6, argmin within one "
               "grid step, 100 random states", ok)


def test_05_first_law_and_kelvin_planck():
    rng = np.random.default_rng(105)
    ok = True
    for i in range(1000):
        dims = [(2, 2), (2, 3), (3, 2)][i % 3]
        proc = random_process(dims, rng)
        ok &= abs(first_law_residual(proc)) <= 1e-12
        residual, _ = kelvin_planck_check(proc)
        ok &= residual <= 1e-10
    verdict(5, "first-law residual <= 1e-12 and energy-balance residual <= 1e-10 "
               "on 1000 Haar-random processes", ok)


def test_06_clausius_and_work_extraction():
    from isotherm.equilibrium import joint_family

    rng = np.random.default_rng(106)
    ok = True
    checked = 0
    for i in range(1000):
        dims = [(2, 2), (2, 3), (3, 2)][i % 3]
        proc = random_process(dims, rng)
        try:
            lhs, rhs, holds = clausius_check(proc)
            checked += 1
            ok &= holds
        except ValueError:
            pass  # sentinel temperature: inequality not applicable
        led = work_ledger(proc)
        f_joint, _ = extractable_work(proc.initial,
                                      joint_family([proc.fam_a, proc.fam_b]))
        ok &= -led.W <= f_joint + 1e-9
    ok &= checked > 900
    verdict(6, "entropy-flow and work-extraction inequalities, zero violations at "
               "1e-9 slack on the same 1000-process sweep", ok)


def test_07_heat_definitions():
    rng = np.random.default_rng(107)
    ok = True
    fam_s = GibbsFamily(HermitianOperator.diagonal([0.0, 1.0]))
    for _ in range(50):
        proc = random_process((2, 3), rng, thermal_b=True,
                              beta_b=float(rng.uniform(0.3, 2.0)))
        ok &= heat_integral_check(proc) <= 1e-7
        led = work_ledger(proc)
        beta_b = intrinsic_beta(proc.fam_b, entropy(proc.marginals("initial")[1]))
        ok &= led.dS_B / beta_b <= led.dQ + 1e-9 <= led.dE_B + 2e-9  # sandwich
    # perturbative coincidence: dQ - T dS_B vanishes at order delta^2
    gaps = []
    deltas = np.geomspace(1e-3, 1e-1, 9)
    bath = gibbs_state(fam_s, 1.0)
    for delta in deltas:
        # a partial A-B swap in the |01>, |10> block: a kick on B alone would
        # leave B's spectrum, and so every gap, at exactly 0
        c, s = math.cos(delta), math.sin(delta)
        u = np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]])
        initial = tensor(DensityMatrix.diagonal([0.6, 0.4]), bath)
        final = DensityMatrix(u @ initial.entries @ u.conj().T)
        proc = ProcessRecord(initial=initial, final=final,
                             split=SubsystemSplit((2, 2)), fam_a=fam_s, fam_b=fam_s)
        led = work_ledger(proc)
        gaps.append(max(led.dQ - led.dS_B / 1.0, 1e-300))
    slope = float(np.polyfit(np.log(deltas), np.log(gaps), 1)[0])
    ok &= slope >= 1.9
    verdict(7, "heat quadrature residual <= 1e-7, thermal-bath sandwich holds, "
               f"perturbative log-log slope {slope:.2f} >= 1.9", ok)


def test_08_equilibration_ordering_and_fixture():
    rng = np.random.default_rng(108)
    ok = True
    for _ in range(200):
        fams = [GibbsFamily(random_hamiltonian(int(rng.integers(2, 5)), rng))
                for _ in range(2)]
        betas = sorted(rng.uniform(0.1, 5.0, size=2))
        pairs = [(gibbs_state(fams[0], betas[0]), fams[0]),
                 (gibbs_state(fams[1], betas[1]), fams[1])]
        out_s = equilibrate_isoentropic(pairs)
        out_e = equilibrate_isoenergetic(pairs)
        ok &= betas[0] - 1e-9 <= out_s.beta_joint <= betas[1] + 1e-9
        ok &= out_s.beta_joint >= out_e.beta_joint - 1e-9
    # qubit fixture (populations 0.9/0.1 and 0.7/0.3), oracle recomputed by
    # entropy bisection before the assert
    fam = GibbsFamily(HermitianOperator.diagonal([0.0, 1.0]))
    beta_hot, beta_cold = math.log(7 / 3), math.log(9)
    s_total = boundary_entropy(fam, beta_hot) + boundary_entropy(fam, beta_cold)
    lo, hi = beta_hot, beta_cold
    for _ in range(60):
        mid = (lo + hi) / 2
        if 2 * boundary_entropy(fam, mid) > s_total:
            lo = mid
        else:
            hi = mid
    beta_oracle = (lo + hi) / 2
    pairs = [(gibbs_state(fam, beta_hot), fam), (gibbs_state(fam, beta_cold), fam)]
    out = equilibrate_isoentropic(pairs)
    ok &= abs(out.beta_joint - beta_oracle) <= 1e-9
    ok &= abs(out.beta_joint - 1.53) <= 0.01
    ok &= abs(out.work_released - 0.045) <= 0.001
    verdict(8, "joint-temperature ordering on 200 Gibbs pairs; qubit fixture "
               "beta_joint = 1.53 +/- 0.01, W = 0.045 +/- 0.001", ok)


def test_09_engine_bounds():
    rng = np.random.default_rng(109)
    t0 = time.monotonic()
    fam = GibbsFamily(HermitianOperator.diagonal([0.0, 1.0]))
    beta_a, beta_b = math.log(9), math.log(7 / 3)
    run = carnot_engine((fam, beta_a, 1), (fam, beta_b, 1))
    ok = abs(run.efficiency - 0.36392833263769536) <= 1e-9
    ok &= abs(run.bound_carnot - 0.6143781254192888) <= 1e-9
    ok &= run.efficiency < run.bound_carnot
    gaps = []
    for n in (1, 2, 4, 8):
        r = carnot_engine((fam, beta_a, n), (fam, beta_b, n))
        gaps.append(r.bound_carnot - r.efficiency)
    ok &= all(gaps[i] >= gaps[i + 1] - 1e-12 for i in range(3))
    # growing the hot bath alone approaches the reservoir limit strictly
    hot_gaps = [run.bound_carnot - carnot_engine((fam, beta_a, 1),
                                                 (fam, beta_b, n)).efficiency
                for n in (1, 2, 4, 8)]
    ok &= all(hot_gaps[i] > hot_gaps[i + 1] for i in range(3))
    count = 0
    while count < 100:
        fa = GibbsFamily(random_hamiltonian(int(rng.integers(2, 5)), rng))
        fb = GibbsFamily(random_hamiltonian(int(rng.integers(2, 5)), rng))
        beta_b = float(rng.uniform(0.1, 1.0))
        beta_a = beta_b + float(rng.uniform(0.2, 3.0))
        try:
            r = carnot_engine((fa, beta_a, 1), (fb, beta_b, 1))
        except DegenerateEngineError:
            continue
        count += 1
        ok &= r.efficiency <= r.bound_finite + 1e-9 <= r.bound_carnot + 2e-9
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    verdict(9, f"engine eta = 0.364 < 0.614, gap non-increasing over copies, "
               f"bounds hold on 100 random engines in {elapsed:.1f}s (< 30s)", ok)


def test_10_interconversion_rates():
    rng = np.random.default_rng(110)
    fam = GibbsFamily(HermitianOperator.diagonal([0.0, 1.0]))
    s3 = math.sqrt(3) * 0.2
    rho = DensityMatrix(np.array([[0.7, -s3], [-s3, 0.3]]))
    sigma = DensityMatrix.maximally_mixed(2)
    sol = conversion_rate(rho, sigma, fam)
    ok = abs(sol.r - 0.4691) <= 1e-3
    ok &= sol.collinearity_residual <= 1e-8
    ok &= sol.phi_kind == "pure" and abs(sol.phi_point.E - 0.1233) <= 1e-3
    ok &= abs(sol.r - rate_entropy_only(rho, sigma)) <= 1e-8
    # pure-filler case: the ray exits through the S = 0 edge, so the rate
    # collapses to the entropy ratio
    rho_p = DensityMatrix(np.array([[0.5, 0.49], [0.49, 0.5]]))
    sigma_p = DensityMatrix.diagonal([0.45, 0.55])
    sol_p = conversion_rate(rho_p, sigma_p, fam)
    ok &= sol_p.phi_kind == "pure"
    ok &= abs(sol_p.r - rate_entropy_only(rho_p, sigma_p)) <= 1e-8
    for _ in range(50):
        d = int(rng.integers(2, 5))
        f = GibbsFamily(random_hamiltonian(d, rng))
        s = conversion_rate(random_density(d, rng), random_density(d, rng), f)
        if s.phi_kind == "source-degenerate":
            continue
        ok &= s.collinearity_residual <= 1e-8
    verdict(10, "rate collinearity <= 1e-8, pure-filler entropy ratio, qubit "
                "fixture r = 0.4691 +/- 1e-3", ok)


def test_11_charges():
    rng = np.random.default_rng(111)
    h = HermitianOperator.diagonal([0.0, 1.0, 2.0, 3.0])
    l1 = HermitianOperator.diagonal([0.0, 1.0, 1.0, 2.0])
    fam = GGEFamily(ChargeSet((h, l1)))
    ok = True
    # round-trip and Jacobian
    for _ in range(20):
        beta = rng.uniform(-2.0, 2.0, size=2)
        rec = gge_solve(fam, gge_charges(fam, beta), rng=rng)
        ok &= float(np.max(np.abs(gge_charges(fam, rec)
                                  - gge_charges(fam, beta)))) <= 1e-7
    beta = np.array([0.6, -0.3])
    cov = gge_covariance(fam, beta)
    eps = 1e-6
    for k in range(2):
        dv = np.zeros(2)
        dv[k] = eps
        fd = (gge_charges(fam, beta + dv) - gge_charges(fam, beta - dv)) / (2 * eps)
        ok &= float(np.max(np.abs(fd + cov[:, k]))) <= 1e-5
    # q = 1 reductions
    qutrit = GibbsFamily(HermitianOperator.diagonal([0.0, 1.0, 2.0]))
    fam1 = GGEFamily(ChargeSet((qutrit.hamiltonian,)))
    for _ in range(5):
        rho = random_density(3, rng)
        ok &= abs(gge_state(fam1, [1.2]).entries
                  - gibbs_state(qutrit, 1.2).entries).max() <= 1e-8
        sol = bound_charge(rho, fam1, 0, rng=rng)
        ok &= abs(sol.value - bound_energy(rho, qutrit)) <= 1e-8
    # second law with a GGE bath, 500 random processes
    split = SubsystemSplit((4, 4))
    beta_bath = np.array([0.8, -0.3])
    gamma = gge_state(fam, beta_bath)
    for _ in range(500):
        initial = tensor(random_density(4, rng), gamma)
        u = haar_unitary(16, rng)
        final = DensityMatrix(u @ initial.entries @ u.conj().T)
        ok &= second_law_charges_check(initial, final, split, fam, beta_bath)
    # zero-entropy convexity identity
    for _ in range(20):
        i, j = rng.choice(4, size=2, replace=False)
        t = float(rng.uniform(0.1, 1.4))
        vec = math.cos(t) * fam.basis[:, i] + math.sin(t) * fam.basis[:, j]
        pt = charges_point(DensityMatrix.pure(vec), fam)
        w = math.cos(t) ** 2
        expected = (w * fam.joint_eigenvalues[:, i]
                    + (1 - w) * fam.joint_eigenvalues[:, j])
        ok &= float(np.max(np.abs(pt.L - expected))) <= 1e-10
    verdict(11, "multi-charge solve round-trip 1e-7, Jacobian 1e-5, q = 1 "
                "reductions 1e-8, 500 bath processes, convexity 1e-10", ok)


def test_12_cli_determinism(tmp_path, capsys):
    system = tmp_path / "qubit.json"
    system.write_text(json.dumps({"dim": 2, "hamiltonian": {"diagonal": [0.0, 1.0]}}))
    state = tmp_path / "p91.json"
    state.write_text(json.dumps({"diagonal": [0.1, 0.9]}))
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli_main(["boundary", str(system), "--beta-min", "-4",
                         "--beta-max", "4", "--points", "17",
                         "--state", str(state), "-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    capsys.readouterr()
    infos = []
    for _ in range(2):
        assert cli_main(["info", "--json", str(system), str(state)]) == 0
        infos.append(capsys.readouterr().out)
    ok = outputs[0] == outputs[1] and infos[0] == infos[1]
    verdict(12, "CLI golden-file determinism: diagram CSV and info --json "
                "byte-identical across runs", ok)
