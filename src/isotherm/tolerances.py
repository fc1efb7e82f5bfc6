"""Every numerical tolerance of the library, one name per role.

A module imports the names it uses (`from .tolerances import NAME`), so each
tolerance decision is made here once. One number serving two roles keeps
two names; one role used in several modules keeps one name. Iteration caps,
clip floors and grid bounds sit here too: no other module writes a number in
e-notation.
"""

# states and operators
HERMITICITY_ATOL = 1e-8  # entrywise asymmetry of a Hermitian matrix
TRACE_ATOL = 1e-10  # |Tr rho - 1| of a state
EIGENVALUE_CLIP = 1e-12  # a state's negative eigenvalue clipped to 0; further below, rejected
IMAGINARY_ATOL = 1e-10  # imaginary residue of an expectation Tr(A rho)
GIBBS_ATOL = 1e-8  # entrywise distance of a state to a stated Gibbs or GGE state
ISENTROPIC_ATOL = 1e-9  # |dS| of a process that still counts as entropy preserving

# the edge rules of the Gibbs solvers
DEGENERACY_ATOL = 1e-10  # levels this close to an end level share its limit subspace
ENTROPY_SLACK = 1e-12  # entropy rounding: past [0, ln d], at the ln g0 floor, erasure's room
ENERGY_RANGE_RTOL = 1e-9  # target energy this far (x width) past [E_min, E_max] still attainable
FLAT_ENERGY_ATOL = 1e-9  # target energy this far from a flat spectrum's level still attainable

# the monotone root finder `gibbs.newton_root`
BETA_XTOL = 1e-12  # stop once the step or the bracket is below this x max(1, |x|)
BRACKET_CAP = 1e18  # an open bracket doubles up to here, then BracketError

# energetics
FREE_ENERGY_SNAP = 1e-12  # |F| or |A| below this reads as an exact zero
SUPPORT_ATOL = 1e-14  # an eigenvalue of sigma at most this is outside its support
SUPPORT_LEAK_ATOL = 1e-12  # weight of rho outside supp(sigma) still taken as none
LOG_FLOOR = 1e-300  # eigenvalues clipped up to this before a log

# law checks
LAW_SLACK = 1e-9  # rounding allowed to every law inequality
FIRST_LAW_ATOL = 1e-12  # first-law residual of the `laws` sweep
BALANCE_ATOL = 1e-10  # Kelvin-Planck balance residual of the `laws` sweep
ENGINE_HEAT_ATOL = 1e-15  # hot-bath energy change that counts as no heat drawn
EQUILIBRIUM_FREE_ENERGY_ATOL = 1e-8  # joint free energy of a mutual equilibrium

# interconversion rates
COINCIDENT_ATOL = 1e-12  # ray coordinates this close coincide: all (r = 1), or the L's (vertical)
SOURCE_DEGENERATE_ATOL = 1e-12  # source on the ray's boundary, r = 0 (`rates.ray_exit`)
PURE_SOURCE_ATOL = 1e-9  # a source-degenerate source this close to S = 0 has no phi_beta

# charges: the common eigenbasis, the dual Newton ascent and the simplex
COMMUTATOR_ATOL = 1e-10  # entrywise commutator of two charges
EIGENBASIS_ATOL = 1e-8  # off-diagonal residue of a charge in the common eigenbasis
NEWTON_TOL = 1e-9  # max |gradient| (x max(1, max |level|)) ending an ascent that can take no step
NEWTON_MAXITER = 200  # Newton steps of one ascent
DECREMENT_RTOL = 1e-16  # Newton decrement (x max(1, sum of |terms of g|)) ending an ascent
STEP_FLOOR = 1e-12  # a step is halved down to this fraction of its first trial
HOT_START_DECREMENT = 1e-2  # DECREMENT_RTOL's role for the bound's start ascent
FACE_RTOL = 1e-9  # relative reduced cost (or singular value) counted as zero
ENTROPY_ATOL = 1e-10  # entropy shortfall of an LP face still taken as reaching S
# simplex reduced costs and pivots within this of zero, relative to the LP's
# largest datum, count as zero: levels 1e-10 apart stay distinct
PIVOT_TOL = 1e-12
SIMPLEX_MAXITER = 500  # pivots of one simplex phase

# verification routes (`oracles`) and plot grids
QUAD_TOL = 1e-12  # absolute and relative accuracy asked of the heat quadrature
EMPTY_SEGMENT_ATOL = 1e-14  # an entropy segment this short has no integral
BETA_GRID_LO = 1e-3  # smallest |beta| of the variational grids
BETA_GRID_HI = 1e3  # largest |beta| of the variational grids
TANH_CLIP = 1e-15  # the diagram's warped grid stays this far inside (-1, 1)
