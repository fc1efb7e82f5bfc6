"""Heat, work, the first law, second-law checks, erasure, and the engine.

A process is an entropy-preserving transformation of a bipartite system
(A = working system, B = environment) with fixed non-interacting local
Hamiltonians. Heat is the change in the bound energy of the environment;
work on A is the global energy cost minus the environment's free-energy
change. All four law statements below evaluate as numerical identities or
inequalities on such records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .energetics import bound_energy, free_energy
from .gibbs import (
    GibbsFamily,
    _boundary_point,
    boundary_energy,
    boundary_entropy,
    gibbs_state,
    intrinsic_beta,
    newton_root,
)
from .operators import (
    DensityMatrix,
    SubsystemSplit,
    entropy,
    expectation,
    haar_unitary,
    partial_trace,
    random_density,
    random_hamiltonian,
    tensor,
)
from .tolerances import ENGINE_HEAT_ATOL, ENTROPY_SLACK, GIBBS_ATOL, ISENTROPIC_ATOL, LAW_SLACK


class DegenerateEngineError(ValueError):
    """Engine run draws no heat from the hot bath; efficiency undefined."""


@dataclass(frozen=True)
class ProcessRecord:
    """An entropy-preserving transformation rho_AB -> rho'_AB.

    The marginals and the ledger are computed on first use and kept: the
    states are read-only, so the kept values cannot go stale, and every law
    check reads the same ones. Each check takes the intrinsic betas of the
    marginals from `gibbs`, whose kept roots serve the repeats.
    """

    initial: DensityMatrix
    final: DensityMatrix
    split: SubsystemSplit
    fam_a: GibbsFamily
    fam_b: GibbsFamily

    def __post_init__(self):
        if len(self.split.dims) != 2:
            raise ValueError("ProcessRecord needs a bipartite split")
        self.split.check(self.initial.dim)
        self.split.check(self.final.dim)
        d_a, d_b = self.split.dims
        if self.fam_a.dim != d_a or self.fam_b.dim != d_b:
            raise ValueError("local family dimensions do not match the split")
        ds = entropy(self.final) - entropy(self.initial)
        if abs(ds) > ISENTROPIC_ATOL:
            raise ValueError(f"process is not entropy preserving (dS = {ds:.3e})")

    def marginals(self, which: str = "initial") -> tuple[DensityMatrix, DensityMatrix]:
        """(rho_A, rho_B) of the "initial" or the "final" state."""
        if which == "initial":
            return self._initial_marginals
        if which == "final":
            return self._final_marginals
        raise ValueError(f"marginals: which must be 'initial' or 'final', got {which!r}")

    @cached_property
    def _initial_marginals(self) -> tuple[DensityMatrix, DensityMatrix]:
        return _marginals(self.initial, self.split)

    @cached_property
    def _final_marginals(self) -> tuple[DensityMatrix, DensityMatrix]:
        return _marginals(self.final, self.split)

    @cached_property
    def _ledger(self) -> LedgerEntry:
        return _build_ledger(self)


def _marginals(rho: DensityMatrix, split: SubsystemSplit) -> tuple[DensityMatrix, DensityMatrix]:
    return partial_trace(rho, split, [0]), partial_trace(rho, split, [1])


@dataclass(frozen=True)
class LedgerEntry:
    """Full energy/entropy bookkeeping of one process."""

    dQ: float       # heat dissipated by A (bound-energy change of B)
    dQ_A: float     # bound-energy change of A (symmetric counterpart)
    W: float        # global work cost dE_A + dE_B
    dW_A: float     # work performed on A: W - dF_B
    dE_A: float
    dE_B: float
    dF_A: float
    dF_B: float
    dS_A: float
    dS_B: float
    dI: float       # mutual-information change; equals dS_A + dS_B


def heat(proc: ProcessRecord) -> float:
    """dQ = B(rho'_B) - B(rho_B)."""
    return work_ledger(proc).dQ


def work_ledger(proc: ProcessRecord) -> LedgerEntry:
    return proc._ledger


def _build_ledger(proc: ProcessRecord) -> LedgerEntry:
    a0, b0 = proc.marginals("initial")
    a1, b1 = proc.marginals("final")
    e_a0 = expectation(proc.fam_a.hamiltonian, a0)
    e_a1 = expectation(proc.fam_a.hamiltonian, a1)
    e_b0 = expectation(proc.fam_b.hamiltonian, b0)
    e_b1 = expectation(proc.fam_b.hamiltonian, b1)
    ba0 = bound_energy(a0, proc.fam_a)
    ba1 = bound_energy(a1, proc.fam_a)
    bb0 = bound_energy(b0, proc.fam_b)
    bb1 = bound_energy(b1, proc.fam_b)
    d_e_a, d_e_b = e_a1 - e_a0, e_b1 - e_b0
    d_q_a, d_q = ba1 - ba0, bb1 - bb0
    d_f_a = (e_a1 - ba1) - (e_a0 - ba0)
    d_f_b = (e_b1 - bb1) - (e_b0 - bb0)
    w = d_e_a + d_e_b
    s_a0, s_b0, s_a1, s_b1 = entropy(a0), entropy(b0), entropy(a1), entropy(b1)
    # I(A:B) = S_A + S_B - S_AB, as in operators.mutual_information
    d_i = (s_a1 + s_b1 - entropy(proc.final)) - (s_a0 + s_b0 - entropy(proc.initial))
    return LedgerEntry(
        dQ=d_q, dQ_A=d_q_a, W=w, dW_A=w - d_f_b,
        dE_A=d_e_a, dE_B=d_e_b, dF_A=d_f_a, dF_B=d_f_b,
        dS_A=s_a1 - s_a0, dS_B=s_b1 - s_b0, dI=d_i,
    )


def first_law_residual(proc: ProcessRecord) -> float:
    """dE_A - (dW_A - dQ); an algebraic identity, residual at rounding level."""
    led = work_ledger(proc)
    return led.dE_A - (led.dW_A - led.dQ)


def is_gibbs(rho: DensityMatrix, fam: GibbsFamily) -> bool:
    """rho equals the Gibbs state at its intrinsic beta, entrywise to GIBBS_ATOL."""
    gamma = gibbs_state(fam, intrinsic_beta(fam, entropy(rho)))
    return bool(np.max(np.abs(rho.entries - gamma.entries)) <= GIBBS_ATOL)


def heat_bounds_check(proc: ProcessRecord) -> bool:
    """For an initially thermal environment: T dS_B <= dQ <= dE_B."""
    b0 = proc.marginals("initial")[1]
    if not is_gibbs(b0, proc.fam_b):
        raise ValueError("heat_bounds_check requires an initially thermal environment")
    beta = intrinsic_beta(proc.fam_b, entropy(b0))
    led = work_ledger(proc)
    # T = 0 at beta = inf; at beta = 0, B starts maximally mixed, dS_B <= 0 and T = inf
    t_ds = 0.0 if math.isinf(beta) else led.dS_B / beta if beta > 0 else -math.inf
    return bool(t_ds <= led.dQ + LAW_SLACK and led.dQ <= led.dE_B + LAW_SLACK)


def extractable_work(rho: DensityMatrix, fam: GibbsFamily) -> tuple[float, DensityMatrix]:
    """Maximum work under entropy-preserving maps: F(rho), with the witness
    final state gamma(beta(rho))."""
    return free_energy(rho, fam), gibbs_state(fam, intrinsic_beta(fam, entropy(rho)))


def _initial_temperatures(proc: ProcessRecord) -> tuple[float, float]:
    betas = [intrinsic_beta(fam, entropy(rho))
             for rho, fam in zip(proc.marginals("initial"), (proc.fam_a, proc.fam_b))]
    for beta in betas:
        if math.isinf(beta) or beta == 0.0:
            raise ValueError("clausius_check needs finite nonzero intrinsic temperatures")
    return 1.0 / betas[0], 1.0 / betas[1]


def clausius_check(proc: ProcessRecord) -> tuple[float, float, bool]:
    """(T_B - T_A) dS_A >= dF_A + dF_B + T_B dI - W, with the initial
    intrinsic temperatures."""
    t_a, t_b = _initial_temperatures(proc)
    led = work_ledger(proc)
    lhs = (t_b - t_a) * led.dS_A
    rhs = led.dF_A + led.dF_B + t_b * led.dI - led.W
    return lhs, rhs, bool(lhs >= rhs - LAW_SLACK)


def kelvin_planck_check(proc: ProcessRecord) -> tuple[float, bool | None]:
    """Balance dQ_A + dQ_B = -(dF_A + dF_B) + W (identity residual), plus the
    corollary dQ_A + dQ_B <= W < 0 when both marginals start thermal and the
    process extracts work."""
    led = work_ledger(proc)
    residual = abs((led.dQ_A + led.dQ) - (-(led.dF_A + led.dF_B) + led.W))
    a0, b0 = proc.marginals("initial")
    corollary = None
    if led.W < 0 and is_gibbs(a0, proc.fam_a) and is_gibbs(b0, proc.fam_b):
        corollary = bool(led.dQ_A + led.dQ <= led.W + LAW_SLACK)
    return residual, corollary


@dataclass(frozen=True)
class EngineRun:
    work: float
    efficiency: float
    bound_finite: float   # 1 - dB_A / (-dB_B)
    bound_carnot: float   # 1 - T_A / T_B
    beta_joint: float


def carnot_engine(bath_a: tuple[GibbsFamily, float, int],
                  bath_b: tuple[GibbsFamily, float, int]) -> EngineRun:
    """One-shot engine: iso-entropic joint equilibration of a cold bath A
    (n_A copies at beta_a) and a hot bath B (n_B copies at beta_b).

    Copies enter through multiplicities in the entropy/energy balance; no
    tensor-power matrices are built.
    """
    fam_a, beta_a, n_a = bath_a
    fam_b, beta_b, n_b = bath_b
    if beta_a == beta_b:
        raise DegenerateEngineError("equal bath temperatures: no work, efficiency undefined")
    if not (beta_a > beta_b > 0):
        raise ValueError("engine needs beta_a > beta_b > 0 (A cold, B hot)")
    s_total = n_a * boundary_entropy(fam_a, beta_a) + n_b * boundary_entropy(fam_b, beta_b)

    def resid(b):
        _, s_a, var_a = _boundary_point(fam_a, b)
        _, s_b, var_b = _boundary_point(fam_b, b)
        return n_a * s_a + n_b * s_b - s_total, -b * (n_a * var_a + n_b * var_b)

    # a zero-temperature cold bath (beta_a = inf) leaves the bracket open above
    beta_j = newton_root(resid, beta_b, beta_a, start=beta_b)
    d_e_a = n_a * (boundary_energy(fam_a, beta_j) - boundary_energy(fam_a, beta_a))
    d_e_b = n_b * (boundary_energy(fam_b, beta_j) - boundary_energy(fam_b, beta_b))
    work = -(d_e_a + d_e_b)
    if d_e_b >= -ENGINE_HEAT_ATOL:
        raise DegenerateEngineError("no heat drawn from the hot bath")
    # thermal in, thermal out: bound-energy changes equal energy changes
    bound_finite = 1.0 - d_e_a / (-d_e_b)
    bound_carnot = 1.0 - beta_b / beta_a
    return EngineRun(
        work=work,
        efficiency=work / (-d_e_b),
        bound_finite=bound_finite,
        bound_carnot=bound_carnot,
        beta_joint=beta_j,
    )


def erasure(rho_s: DensityMatrix, fam_s: GibbsFamily,
            rho_b: DensityMatrix, fam_b: GibbsFamily) -> tuple[bool, float | None]:
    """Reset the system to |0><0| by dumping its entropy into a thermal bath.

    Feasible iff S(rho_S) <= ln d_B - S(rho_B); the bath ends Gibbs at the
    entropy-matched temperature. The total entropy is conserved, and with it
    the joint bound energy, so the work cost, the change in joint free energy,
    is the change in energy.
    """
    s_s = entropy(rho_s)
    s_b = entropy(rho_b)
    if s_s > math.log(fam_b.dim) - s_b + ENTROPY_SLACK:
        return False, None
    beta_final = intrinsic_beta(fam_b, s_b + s_s)
    e_after = fam_s.hamiltonian.entries[0, 0].real + boundary_energy(fam_b, beta_final)
    e_before = expectation(fam_s.hamiltonian, rho_s) + expectation(fam_b.hamiltonian, rho_b)
    return True, e_after - e_before


def random_process(dims: tuple[int, int], rng: np.random.Generator,
                   thermal_b: bool = False, beta_b: float = 1.0,
                   fam_a: GibbsFamily | None = None,
                   fam_b: GibbsFamily | None = None) -> ProcessRecord:
    """Haar-random entropy-preserving process generator for law sweeps."""
    d_a, d_b = dims
    split = SubsystemSplit((d_a, d_b))
    if fam_a is None:
        fam_a = GibbsFamily(random_hamiltonian(d_a, rng))
    if fam_b is None:
        fam_b = GibbsFamily(random_hamiltonian(d_b, rng))
    if thermal_b:
        initial = tensor(random_density(d_a, rng), gibbs_state(fam_b, beta_b))
    else:
        initial = random_density(d_a * d_b, rng)
    u = haar_unitary(d_a * d_b, rng)
    final = DensityMatrix._derived(u @ initial.entries @ u.conj().T)
    return ProcessRecord(initial=initial, final=final, split=split,
                         fam_a=fam_a, fam_b=fam_b)
