"""Inputs, operations and correctness checks of the three benchmark workloads.

Every input is drawn with numpy in `build`, before the first operation. An
operation ("op") turns those arrays into library objects and calls the
public functions, so per-call validation and `eigh` stay inside its timing.
Each library call goes through `call(name, fn, *args)`; the untraced run
passes `direct`, the traced run a `spans.Tracer`, so both time the same code.
Ops and `build` take the library package as `lib`, so that the same ops run
on the frozen copy the reference times (see reference.py).

`check` runs after the op, outside its timed span, and returns the list of
violated conditions (empty when the op's outputs are correct). Calls that
raise, or return a result they flag as uncertified, are listed by the op
itself in `out["errors"]`; they fail the op without making it incorrect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import isotherm

WORKLOADS = ("process_sweep", "state_report", "charges")

# A run cycles through its pool: a 30 s run takes 1700-2400 process_sweep
# ops and 1200-1700 state_report ops at the commit that added this
# benchmark, so every input repeats about ten times (see
# worker.timing_metrics). 128 inputs leave 13 above p90. Pool sizes are
# multiples of the round.
PROCESS_POOL = 128
REPORT_POOL = 128
PROCESS_DIMS = ((2, 2), (2, 3), (3, 3), (4, 4))
REPORT_DIMS = (2, 4, 16, 64)
BOUNDARY_POINTS = 129

# conversion_rate_charges costs 20 ms to 3 s per call depending on where the
# ray leaves the charges-entropy region, and the cost differs tenfold between
# families. A run holds only ~130-220 ops, so any input property that moves
# with the seed moves the run's metrics: freshly drawn inputs moved means by
# 25% from seed to seed, and a fixed population mixed with 1-5% of fresh
# random states still moved ops_per_s and op_ms_p90 by 15-20%, because such
# a small change can make one op several times dearer. The charges workload
# therefore draws a fixed population from CHARGES_POPULATION_SEED (32
# families, each with its charge spectra, eigenbasis and one state pair) and
# --seed draws, for every family in each of CHARGES_ROUNDS rounds, a Haar
# unitary W that rotates the charges and both states: Q -> W Q W+, rho ->
# W rho W+. Every input matrix changes with the seed; the spectra and the
# states' populations in the charges' eigenbasis, which set what the solvers
# do, stay. Each round holds every family once.
CHARGES_SHAPES = ((4, 2), (4, 3), (8, 2), (8, 3))
CHARGES_FAMILIES_PER_SHAPE = 8
CHARGES_POPULATION_SEED = 20170706
CHARGES_ROUNDS = 8

# ---------------------------------------------------------------- drawing

def _ginibre(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _hamiltonian(rng, d):
    g = _ginibre(rng, d, d)
    return (g + g.conj().T) / 2


def _state(rng, d):
    g = _ginibre(rng, d, d)
    m = g @ g.conj().T
    return m / np.trace(m).real


def _unitary(rng, d):
    q, r = np.linalg.qr(_ginibre(rng, d, d))
    ph = np.diagonal(r)
    return q * (ph / np.abs(ph))


def _order_populations(h, rho, inverted):
    """Permute rho's populations in h's eigenbasis so they rise with energy
    (inverted) or fall with it; by Chebyshev's sum inequality the energy then
    sits at or above (below) Tr(h)/d, so the spontaneous beta is <= 0 (>= 0).
    The spectrum, hence the entropy, is unchanged."""
    _, v = np.linalg.eigh(h)
    rho_e = v.conj().T @ rho @ v
    pops = np.real(np.diagonal(rho_e))
    order = np.argsort(pops) if inverted else np.argsort(pops)[::-1]
    rho_e = rho_e[np.ix_(order, order)]
    return v @ rho_e @ v.conj().T


@dataclass(frozen=True)
class ProcessInput:
    dims: tuple
    rho: np.ndarray
    u: np.ndarray
    h_a: np.ndarray
    h_b: np.ndarray


@dataclass(frozen=True)
class ReportInput:
    h: np.ndarray
    rho: np.ndarray
    sigma: np.ndarray
    h_q: np.ndarray
    rho_q: np.ndarray
    beta_q: float
    beta_hot: float
    beta_cold: float


@dataclass(frozen=True)
class ChargesInput:
    family: int  # index in the population
    fam: object  # GGEFamily of the rotated charges
    probe_fam: object  # GibbsFamily of the rotated charge 0, for the probe
    rho: np.ndarray
    sigma: np.ndarray
    mu: np.ndarray


@dataclass
class Setup:
    """Everything built before the first op.

    The pool cycles through input classes (dims, d, or charge family) with
    period `round`; runs stop only at a round boundary, so every run weighs
    the classes equally however fast the code is.
    """

    workload: str
    pool: list
    round: int
    lib: object  # the library package the ops call


def _process_inputs(rng):
    pool = []
    for i in range(PROCESS_POOL):
        d_a, d_b = PROCESS_DIMS[i % len(PROCESS_DIMS)]
        pool.append(ProcessInput(
            dims=(d_a, d_b), rho=_state(rng, d_a * d_b), u=_unitary(rng, d_a * d_b),
            h_a=_hamiltonian(rng, d_a), h_b=_hamiltonian(rng, d_b)))
    return pool


def _report_inputs(rng):
    pool = []
    for i in range(REPORT_POOL):
        d = REPORT_DIMS[i % len(REPORT_DIMS)]
        h = _hamiltonian(rng, d)
        # the d-cycle has even length, so alternate inversion in pairs of
        # cycles to give every dimension both branches
        inverted = (i // len(REPORT_DIMS)) % 2 == 1
        beta_hot = float(rng.uniform(0.1, 1.0))
        pool.append(ReportInput(
            h=h, rho=_order_populations(h, _state(rng, d), inverted),
            sigma=_state(rng, d), h_q=_hamiltonian(rng, 2), rho_q=_state(rng, 2),
            beta_q=float(rng.uniform(0.2, 3.0)), beta_hot=beta_hot,
            beta_cold=beta_hot + float(rng.uniform(0.2, 3.0))))
    return pool


def _charges_inputs(rng, lib):
    base = np.random.default_rng(CHARGES_POPULATION_SEED)
    population = []
    for _ in range(CHARGES_FAMILIES_PER_SHAPE):
        for d, q in CHARGES_SHAPES:
            population.append((_unitary(base, d), base.standard_normal((q, d))))
    states = [(_state(base, u.shape[0]), _state(base, u.shape[0]),
               base.uniform(0.1, 1.0, len(spectra))) for u, spectra in population]
    pool = []
    for _ in range(CHARGES_ROUNDS):
        for f, ((u, spectra), (rho, sigma, mu)) in enumerate(zip(population, states)):
            w = _unitary(rng, u.shape[0])
            wu = w @ u
            ops = tuple(lib.HermitianOperator((wu * lam) @ wu.conj().T) for lam in spectra)
            pool.append(ChargesInput(
                family=f, fam=lib.GGEFamily(lib.ChargeSet(ops)),
                probe_fam=lib.GibbsFamily(ops[0]), rho=w @ rho @ w.conj().T,
                sigma=w @ sigma @ w.conj().T, mu=mu))
    return pool


def build(workload: str, seed: int, lib=isotherm) -> Setup:
    rng = np.random.default_rng(seed)
    if workload == "process_sweep":
        return Setup(workload, _process_inputs(rng), len(PROCESS_DIMS), lib)
    if workload == "state_report":
        return Setup(workload, _report_inputs(rng), 2 * len(REPORT_DIMS), lib)
    if workload == "charges":
        return Setup(workload, _charges_inputs(rng, lib),
                     len(CHARGES_SHAPES) * CHARGES_FAMILIES_PER_SHAPE, lib)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


# ---------------------------------------------------------------- ops

def direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _attempt(lib, call, errors, name, fn, *args, **kwargs):
    """Call a charges function that signals an unattainable target by raising
    InfeasibleTargetError; record the error and let the op go on, so a failed
    op still does the same calls as a successful one."""
    try:
        return call(name, fn, *args, **kwargs)
    except lib.charges.InfeasibleTargetError as exc:
        errors.append(f"{name}: {exc}")
        return None


def op_process_sweep(inp: ProcessInput, call, setup) -> dict:
    lib = setup.lib
    d_a, d_b = inp.dims
    split = call("operators.subsystem_split", lib.SubsystemSplit, (d_a, d_b))
    fam_a = call("gibbs.gibbs_family", lib.GibbsFamily,
                 call("operators.hermitian_operator", lib.HermitianOperator, inp.h_a))
    fam_b = call("gibbs.gibbs_family", lib.GibbsFamily,
                 call("operators.hermitian_operator", lib.HermitianOperator, inp.h_b))
    initial = call("operators.density_matrix", lib.DensityMatrix, inp.rho)
    final = call("operators.density_matrix", lib.DensityMatrix,
                 inp.u @ inp.rho @ inp.u.conj().T)
    proc = call("processes.process_record", lib.processes.ProcessRecord, initial=initial,
                final=final, split=split, fam_a=fam_a, fam_b=fam_b)
    # the four `isotherm laws` checks
    first = call("processes.first_law_residual", lib.processes.first_law_residual, proc)
    kp_residual, _ = call("processes.kelvin_planck_check", lib.kelvin_planck_check, proc)
    try:
        clausius = call("processes.clausius_check", lib.clausius_check, proc)
    except ValueError:
        clausius = None  # sentinel intrinsic temperature: not applicable
    ledger = call("processes.work_ledger", lib.work_ledger, proc)
    fam_ab = call("equilibrium.joint_family", lib.equilibrium.joint_family, [fam_a, fam_b])
    f_joint, _ = call("processes.extractable_work", lib.extractable_work, initial, fam_ab)
    # criterion 3: B_AB <= B_{A(x)B} <= B_A + B_B
    rho_a = call("operators.partial_trace", lib.partial_trace, initial, split, [0])
    rho_b = call("operators.partial_trace", lib.partial_trace, initial, split, [1])
    prod = call("operators.tensor", lib.tensor, rho_a, rho_b)
    b_ab = call("energetics.bound_energy", lib.bound_energy, initial, fam_ab)
    b_prod = call("energetics.bound_energy", lib.bound_energy, prod, fam_ab)
    b_a = call("energetics.bound_energy", lib.bound_energy, rho_a, fam_a)
    b_b = call("energetics.bound_energy", lib.bound_energy, rho_b, fam_b)
    return dict(first=first, kp_residual=kp_residual, clausius=clausius, work=ledger.W,
                f_joint=f_joint, b_ab=b_ab, b_prod=b_prod, b_a=b_a, b_b=b_b,
                probe=(fam_ab, initial), errors=[])


def op_state_report(inp: ReportInput, call, setup) -> dict:
    lib = setup.lib
    fam = call("gibbs.gibbs_family", lib.GibbsFamily,
               call("operators.hermitian_operator", lib.HermitianOperator, inp.h))
    rho = call("operators.density_matrix", lib.DensityMatrix, inp.rho)
    sigma = call("operators.density_matrix", lib.DensityMatrix, inp.sigma)
    rep = call("energetics.report", lib.report, rho, fam)
    proj = call("diagram.project_state", lib.project_state, rho, fam)
    rate = call("rates.conversion_rate", lib.conversion_rate, rho, sigma, fam)
    fam_q = call("gibbs.gibbs_family", lib.GibbsFamily,
                 call("operators.hermitian_operator", lib.HermitianOperator, inp.h_q))
    # iso-entropic: rho's thermal counterpart meets a thermal qubit (Lemma 3)
    gamma = call("gibbs.gibbs_state", lib.gibbs_state, fam, rep.intrinsic_beta)
    gamma_q = call("gibbs.gibbs_state", lib.gibbs_state, fam_q, inp.beta_q)
    iso_s = call("equilibrium.equilibrate_isoentropic", lib.equilibrate_isoentropic,
                 [(gamma, fam), (gamma_q, fam_q)])
    # iso-energetic: rho itself, so inverted inputs reach beta_E < 0
    rho_q = call("operators.density_matrix", lib.DensityMatrix, inp.rho_q)
    call("equilibrium.equilibrate_isoenergetic", lib.equilibrate_isoenergetic,
         [(rho, fam), (rho_q, fam_q)])
    engine = call("processes.carnot_engine", lib.carnot_engine,
                  (fam_q, inp.beta_cold, 1), (fam, inp.beta_hot, 1))
    call("diagram.sample_boundary", lib.sample_boundary, fam, n_points=BOUNDARY_POINTS)
    return dict(fam=fam, rep=rep, proj=proj, rate=rate, iso_s=iso_s, beta_q=inp.beta_q,
                engine=engine, probe=(fam, rho), errors=[])


def op_charges(inp: ChargesInput, call, setup) -> dict:
    lib = setup.lib
    fam, probe_fam = inp.fam, inp.probe_fam
    errors = []
    rho = call("operators.density_matrix", lib.DensityMatrix, inp.rho)
    sigma = call("operators.density_matrix", lib.DensityMatrix, inp.sigma)
    point = call("charges.charges_point", lib.charges.charges_point, rho, fam)
    beta = _attempt(lib, call, errors, "charges.gge_solve", lib.gge_solve, fam, point.L)
    _attempt(lib, call, errors, "charges.absolute_athermality", lib.absolute_athermality,
             rho, fam)
    bound = _attempt(lib, call, errors, "charges.bound_charge", lib.bound_charge, rho, fam,
                     0)
    if bound is not None and not bound.certified:
        # no minimizer with beta_0 > 0 was found; the value is not a bound
        errors.append("charges.bound_charge: uncertified solution")
    rate = _attempt(lib, call, errors, "charges.conversion_rate_charges",
                    lib.conversion_rate_charges, rho, sigma, fam)
    _attempt(lib, call, errors, "charges.bound_potential", lib.bound_potential, rho, fam,
             inp.mu)
    return dict(fam=fam, point=point, beta=beta, bound=bound, rate=rate,
                probe=(probe_fam, rho), errors=errors)


OPS = {"process_sweep": op_process_sweep, "state_report": op_state_report,
       "charges": op_charges}


def probe(call, out) -> float:
    """The gibbs-layer probe: both temperature solvers on the op's state
    against the op's (or, for charges, the Hamiltonian's) Gibbs family.
    Returns the spontaneous beta, whose sign marks inverted populations."""
    fam, rho = out["probe"]
    call("gibbs.intrinsic_beta", isotherm.intrinsic_beta, fam, isotherm.entropy(rho))
    return call("gibbs.spontaneous_beta", isotherm.spontaneous_beta, fam,
                isotherm.expectation(fam.hamiltonian, rho))


# ---------------------------------------------------------------- checks

def check(workload: str, out: dict) -> list:
    violated = []
    if workload == "process_sweep":
        if not abs(out["first"]) <= 1e-12:
            violated.append(f"first law residual {out['first']:.3e} > 1e-12")
        if not out["kp_residual"] <= 1e-10:
            violated.append(f"Kelvin-Planck balance {out['kp_residual']:.3e} > 1e-10")
        if out["clausius"] is not None and not out["clausius"][2]:
            violated.append("Clausius inequality violated")
        if not -out["work"] <= out["f_joint"] + 1e-9:
            violated.append("extracted work exceeds joint free energy")
        if not out["b_ab"] <= out["b_prod"] + 1e-9:
            violated.append("B_AB > B_(A(x)B)")
        if not out["b_prod"] <= out["b_a"] + out["b_b"] + 1e-9:
            violated.append("B_(A(x)B) > B_A + B_B")
    elif workload == "state_report":
        rep, proj, rate, engine = out["rep"], out["proj"], out["rate"], out["engine"]
        s_gap = abs(isotherm.boundary_entropy(out["fam"], rep.intrinsic_beta) - rep.entropy)
        if not s_gap <= 1e-10:
            violated.append(f"|S(gamma(beta)) - S| = {s_gap:.3e} > 1e-10")
        if not rep.free_energy >= 0.0:
            violated.append(f"free energy {rep.free_energy:.3e} < 0")
        gap = max(abs(proj.free_energy_horizontal - rep.free_energy),
                  abs(proj.bound_energy_horizontal - rep.bound_energy),
                  abs(proj.athermality_vertical - rep.athermality))
        if not gap <= 1e-8:
            violated.append(f"project_state differs from report by {gap:.3e} > 1e-8")
        if rate.phi_kind != "source-degenerate" and not rate.collinearity_residual <= 1e-8:
            violated.append(f"rate collinearity {rate.collinearity_residual:.3e} > 1e-8")
        if not isotherm.lemma3_check(rep.intrinsic_beta, out["beta_q"], out["iso_s"]):
            violated.append("Lemma 3: joint beta outside the input betas")
        if not (engine.efficiency <= engine.bound_finite + 1e-9
                and engine.bound_finite <= engine.bound_carnot + 1e-9):
            violated.append("engine efficiency above its finite-bath or Carnot bound")
    elif workload == "charges":
        if out["beta"] is not None:
            charges = isotherm.charges.gge_charges(out["fam"], out["beta"])
            resid = float(np.max(np.abs(charges - out["point"].L)))
            if not resid <= 1e-7:
                violated.append(f"GGE charge residual {resid:.3e} > 1e-7")
        bound = out["bound"]
        if bound is not None and bound.certified and not bound.free_charge >= 0.0:
            violated.append(f"free charge {bound.free_charge:.3e} < 0")
        rate = out["rate"]
        if (rate is not None and rate.phi_kind != "source-degenerate"
                and not rate.collinearity_residual <= 1e-8):
            violated.append(f"rate collinearity {rate.collinearity_residual:.3e} > 1e-8")
    return violated


def describe(workload: str, inp) -> dict:
    """Identify an input in a failure listing."""
    if workload == "process_sweep":
        return {"dims": "x".join(map(str, inp.dims))}
    if workload == "state_report":
        return {"d": int(inp.h.shape[0])}
    return {"family": inp.family, "d": int(inp.rho.shape[0]), "q": int(inp.mu.shape[0])}


def tally(workload: str, out: dict, counts) -> None:
    """Count the outcomes behind the useful-work ratios and input-property
    shares of the per-layer report."""
    if workload == "process_sweep":
        counts["clausius.calls"] += 1
        counts["clausius.applicable"] += out["clausius"] is not None
    elif workload == "state_report":
        counts["rate.calls"] += 1
        counts["rate.pure"] += out["rate"].phi_kind == "pure"
    elif workload == "charges":
        counts["bound_charge.calls"] += 1
        counts["bound_charge.certified"] += bool(out["bound"] is not None
                                                and out["bound"].certified)
        if out["rate"] is not None:
            counts["rate_charges.calls"] += 1
            counts["rate_charges.pure"] += out["rate"].phi_kind == "pure"
