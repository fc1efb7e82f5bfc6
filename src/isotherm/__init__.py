"""Temperature-independent quantum thermodynamics from information conservation."""

from .operators import (
    DensityMatrix,
    HermitianOperator,
    SubsystemSplit,
    entropy,
    expectation,
    kron_sum,
    mutual_information,
    partial_trace,
    tensor,
)
from .gibbs import (
    GibbsFamily,
    boundary_energy,
    boundary_entropy,
    gibbs_state,
    intrinsic_beta,
    log_partition,
    spontaneous_beta,
)
from .energetics import (
    EnergeticsReport,
    athermality,
    beta_athermality,
    beta_free_energy,
    bound_energy,
    free_energy,
    report,
)
from .equilibrium import (
    EquilibrationOutcome,
    equilibrate_isoenergetic,
    equilibrate_isoentropic,
)
from .processes import (
    EngineRun,
    LedgerEntry,
    ProcessRecord,
    carnot_engine,
    clausius_check,
    erasure,
    extractable_work,
    heat,
    kelvin_planck_check,
    random_process,
    work_ledger,
)
from .diagram import BoundarySample, DiagramPoint, project_state, sample_boundary, tangent_line
from .rates import RateSolution, conversion_rate, rate_entropy_only
from .charges import (
    ChargeSet,
    ChargesPoint,
    GGEFamily,
    absolute_athermality,
    beta_vec_athermality,
    bound_charge,
    bound_potential,
    conversion_rate_charges,
    gge_solve,
    gge_state,
)
from .oracles import is_equilibrium, lemma3_check, second_law_charges_check

__version__ = "0.1.0"
