import itertools
import json
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, linprog, nnls

from isotherm import charges as charges_module
from isotherm.charges import (
    FACE_RTOL,
    HOT_START_DECREMENT,
    NEWTON_TOL,
    ChargeSet,
    GGEFamily,
    InfeasibleTargetError,
    NEWTON_MAXITER,
    _ascend,
    _boltzmann_weights,
    _covariance,
    _face_max_entropy,
    _gge_weights,
    _lp_face,
    _max_entropy,
    absolute_athermality,
    beta_vec_athermality,
    bound_charge,
    bound_potential,
    charges_point,
    conversion_rate_charges,
    gge_charges,
    gge_covariance,
    gge_entropy,
    gge_log_partition,
    gge_solve,
    gge_state,
)
from isotherm.energetics import bound_energy, relative_entropy
from isotherm.gibbs import (
    ConvergenceError,
    GibbsFamily,
    boundary_energy,
    gibbs_state,
    intrinsic_beta,
    log_partition,
    spontaneous_beta,
)
from isotherm.operators import (
    DensityMatrix,
    HermitianOperator,
    SubsystemSplit,
    entropy,
    haar_unitary,
    random_density,
    spectrum_entropy,
    tensor,
)
from isotherm.oracles import second_law_charges_check
from isotherm.rates import RateSolution


PINNED = Path(__file__).parent / "data" / "charges_pinned.json"


def bisection_rate(rho, sigma, fam):
    """The charges rate route that the LP exits replaced, kept as an oracle:
    double t from 2, then bisect 80 times on an inside margin that reads -1
    where the nnls residual of [levels; 1] p = [L; 1] exceeds 1e-13 (the
    polytope's wall, found apart from gge_solve), with S_max corrected to
    first order in gge_solve's charge residual (dS_max/dL = beta_vec), each
    solve cold from 0. Returns (r, kind); r is None if source-degenerate."""
    x_rho, x_sigma = charges_point(rho, fam), charges_point(sigma, fam)
    d_l, d_s = x_rho.L - x_sigma.L, x_rho.S - x_sigma.S
    rows = np.vstack([fam.joint_eigenvalues, np.ones(fam.dim)])

    def margin(t):
        s = x_sigma.S + t * d_s
        if s < 0:
            return s
        target = x_sigma.L + t * d_l
        if nnls(rows, np.append(target, 1.0))[1] > 1e-13:
            return -1.0
        beta = gge_solve(fam, target)
        s_max = gge_entropy(fam, beta) + beta @ (target - gge_charges(fam, beta))
        return min(s, s_max - s)

    if margin(1.0) <= 1e-10:
        return None, "source-degenerate"
    t_lo, t_hi = 1.0, 2.0
    while margin(t_hi) > 0:
        t_lo, t_hi = t_hi, t_hi * 2.0
    for _ in range(80):
        mid = (t_lo + t_hi) / 2
        if margin(mid) > 0:
            t_lo = mid
        else:
            t_hi = mid
    t_star = (t_lo + t_hi) / 2
    return 1.0 - 1.0 / t_star, "pure" if x_sigma.S + t_star * d_s <= 1e-9 else "thermal"


def segment_bound(fam, rho, k=0, n=20001):
    """Brute-force B_k when q = d - 1: the populations with the other charges
    fixed form a segment p0 + s v, L_k is linear in s, and the entropy is
    concave in s, so the minimum sits at an end of the segment or where the
    entropy crosses S(rho); a grid scan finds the crossings, brentq refines."""
    ells, pt = fam.joint_eigenvalues, charges_point(rho, fam)
    rows = np.vstack([np.delete(ells, k, axis=0), np.ones(fam.dim)])
    assert np.linalg.matrix_rank(rows) == fam.dim - 1
    p0 = np.linalg.lstsq(rows, np.append(np.delete(pt.L, k), 1.0), rcond=None)[0]
    v = np.linalg.svd(rows)[2][-1]
    lo = max(-p0[i] / v[i] for i in range(fam.dim) if v[i] > 0)
    hi = min(-p0[i] / v[i] for i in range(fam.dim) if v[i] < 0)

    def excess(s):
        return spectrum_entropy(np.clip(p0 + s * v, 0.0, None)) - pt.S

    grid = np.linspace(lo, hi, n)
    ok = np.array([excess(s) >= 0 for s in grid])
    ends = [s for s, keep in ((lo, ok[0]), (hi, ok[-1])) if keep]
    ends += [brentq(excess, grid[i], grid[i + 1], xtol=1e-15)
             for i in np.flatnonzero(ok[:-1] != ok[1:])]
    return min(float(ells[k] @ (p0 + s * v)) for s in ends)


def nested_ascent(weights, levels, target, lam, tol=NEWTON_TOL):
    """The max-entropy ascent of the nested route, kept with it as an oracle:
    the lam at which weights(lam), proportional to e^(-lam.levels) times
    fixed factors, give levels @ w = target to tol, with those weights, by
    Newton steps from `lam`, each halved from 1 until the slope along it is
    at least -1/2 of its starting value. Raises InfeasibleTargetError after
    NEWTON_MAXITER steps, on a singular covariance or a step not taken."""
    w = weights(lam)
    grad = levels @ w - target
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(NEWTON_MAXITER):
            if np.max(np.abs(grad), initial=0.0) <= tol:
                return lam, w
            try:  # the Hessian is -Cov(levels)
                step = np.linalg.solve(_covariance(levels, w), grad)
            except np.linalg.LinAlgError:
                break
            t, slope = 1.0, grad @ step
            while t >= 1e-12:
                w = weights(lam + t * step)
                if (levels @ w - target) @ step >= -slope / 2:
                    break
                t /= 2.0
            else:
                break
            lam = lam + t * step
            grad = levels @ w - target
    raise InfeasibleTargetError(f"no maximum-entropy state with charges {target}")


def nested_bound_charge(rho, fam, k=0, tol=NEWTON_TOL):
    """The active branch of bound_charge as a root around ascents, kept as
    an oracle (for inputs off the LP floor): brentq in theta = beta_k over
    the bracket grown from 1/ptp(L_k), with a max-entropy ascent to tol in
    the other charges' lam at every theta, started from the last lam/theta
    ratio. Returns (B_k, beta_vec)."""
    pt = charges_point(rho, fam)
    ells, idx = fam.joint_eigenvalues, [i for i in range(fam.q) if i != k]
    unit = np.eye(fam.q)
    embed = unit[:, idx]
    ratio = np.zeros(fam.q - 1)

    def tilted(theta):
        nonlocal ratio
        lam = nested_ascent(lambda b: _gge_weights(fam, embed @ b + theta * unit[k])[0],
                            ells[idx], pt.L[idx], theta * ratio, tol)[0]
        ratio = lam / theta if theta > 0 else ratio
        return embed @ lam + theta * unit[k]

    def excess(theta):
        return gge_entropy(fam, tilted(theta)) - pt.S

    hi = 1.0 / np.ptp(ells[k])
    while excess(hi) > 0:
        hi *= 2.0
    theta = brentq(excess, 0.0, hi, xtol=1e-12)
    beta = tilted(theta)
    return float(gge_charges(fam, beta)[k]), beta


def benchmark_case(f):
    """Family f of the 32 in the benchmark's charges workload (population seed
    20170706, shapes (d, q) cycling (4, 2), (4, 3), (8, 2), (8, 3)), before
    its per-round rotation, with its state pair (rho, sigma)."""
    base = np.random.default_rng(20170706)
    population = [(haar_unitary(d, base), base.standard_normal((q, d)))
                  for _ in range(8) for d, q in ((4, 2), (4, 3), (8, 2), (8, 3))]
    states = [(random_density(u.shape[0], base), random_density(u.shape[0], base),
               base.uniform(0.1, 1.0, len(spectra))) for u, spectra in population]
    u, spectra = population[f]
    ops = tuple(HermitianOperator((u * lam) @ u.conj().T) for lam in spectra)
    return GGEFamily(ChargeSet(ops)), states[f][0], states[f][1]


@pytest.fixture
def single_charge_family(qutrit):
    """q = 1 wrapper around the plain qutrit Hamiltonian."""
    return GGEFamily(ChargeSet((qutrit.hamiltonian,)))


class TestChargeSet:
    def test_rejects_noncommuting(self):
        x = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
        z = HermitianOperator.diagonal([1.0, -1.0])
        with pytest.raises(ValueError):
            ChargeSet((z, x))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one charge"):
            ChargeSet(())

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="one Hilbert space"):
            ChargeSet((HermitianOperator.diagonal([0.0, 1.0]),
                       HermitianOperator.diagonal([0.0, 1.0, 2.0])))

    def test_families_compare_and_hash_by_identity(self, charge_family):
        twin = GGEFamily(charge_family.charge_set)
        assert charge_family == charge_family and charge_family != twin
        assert len({charge_family, twin, charge_family}) == 2

    def test_common_eigenbasis_diagonalizes_all(self, charge_family):
        for op in charge_family.charge_set.charges:
            rotated = charge_family.basis.conj().T @ op.entries @ charge_family.basis
            off = rotated - np.diag(np.diag(rotated))
            assert np.max(np.abs(off)) <= 1e-8


class TestGGEState:
    def test_q1_reduces_to_gibbs(self, qutrit, single_charge_family):
        for beta in (0.3, 1.0, 2.5):
            rho = gge_state(single_charge_family, [beta])
            assert np.allclose(rho.entries, gibbs_state(qutrit, beta).entries,
                               atol=1e-10)
            assert gge_log_partition(single_charge_family, [beta]) == pytest.approx(
                log_partition(qutrit, beta), abs=1e-10)

    def test_known_spectrum_matches_eigh_route(self, charge_family, rng, eigh_calls,
                                               assert_matches_eigh_route):
        rho = random_density(4, rng)
        eigh_calls.clear()
        states = [gge_state(charge_family, beta) for beta in
                  ([0.0, 0.0], [0.7, -0.4], [300.0, 100.0], [-80.0, 250.0])]
        assert eigh_calls == []
        _, gamma = bound_potential(rho, charge_family, [0.6, 0.8])
        assert eigh_calls == []  # the effective Hamiltonian takes the charges' eigenbasis
        for state in states + [gamma]:
            assert_matches_eigh_route(state)

    @pytest.mark.parametrize("beta_vec", [[math.inf, 0.0], [math.nan, 0.0], [0.3, -math.inf]],
                             ids=["inf", "nan", "minus-inf"])
    def test_rejects_non_finite_beta_vec(self, charge_family, beta_vec):
        # checked where it enters, before any weight is taken: no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="beta_vec .* is not finite"):
                gge_state(charge_family, beta_vec)

    def test_charges_and_entropy_consistent(self, charge_family):
        beta = np.array([0.7, -0.4])
        rho = gge_state(charge_family, beta)
        pt = charges_point(rho, charge_family)
        assert np.allclose(pt.L, gge_charges(charge_family, beta), atol=1e-10)
        assert pt.S == pytest.approx(gge_entropy(charge_family, beta), abs=1e-10)

    def test_covariance_is_spd_generically(self, charge_family):
        cov = gge_covariance(charge_family, np.array([0.5, 0.2]))
        assert np.allclose(cov, cov.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(cov) > 0)

    def test_covariance_is_charge_jacobian(self, charge_family):
        # dL_j/dbeta_k = -Cov(L_j, L_k), finite-difference check
        beta = np.array([0.6, -0.3])
        cov = gge_covariance(charge_family, beta)
        eps = 1e-6
        for k in range(2):
            dv = np.zeros(2)
            dv[k] = eps
            fd = (gge_charges(charge_family, beta + dv)
                  - gge_charges(charge_family, beta - dv)) / (2 * eps)
            assert np.max(np.abs(fd + cov[:, k])) <= 1e-5


def shifted_weights(x):
    """The weight kernel that the gap form replaced, kept as the oracle for
    p: e^(x - max x) normalized by its sum."""
    w = np.exp(x - x.max())
    return w / w.sum()


def mp_kernel(x, dps=50):
    """(ln Z, H) of the weights e^x / Z at `dps` digits. ln Z and every
    ln p take log1p of the sum over all but one largest entry: the sum 1 +
    rest at dps digits would round away a rest below 10^-dps."""
    with mpmath.workdps(dps):
        xs = [mpmath.mpf(float(v)) for v in x]
        top = max(range(len(xs)), key=lambda i: xs[i])
        log1p_rest = mpmath.log1p(mpmath.fsum(
            mpmath.exp(v - xs[top]) for i, v in enumerate(xs) if i != top))
        log_p = [v - xs[top] - log1p_rest for v in xs]
        return (float(xs[top] + log1p_rest),
                float(-mpmath.fsum(mpmath.exp(v) * v for v in log_p)))


class TestKernel:
    """`_boltzmann_weights`: p against the shifted-exponent kernel, ln Z and
    H against 50-digit mpmath."""

    EXPONENTS = {
        "near-pure": [0.0, -40.0, -45.5, -60.0],
        "near-pure-wide": [78.10700613, -50.06720063],
        "tied": [1.5, 1.5, -0.3, 0.2],
        "all-tied": [0.0, 0.0, 0.0],
        "wide-spread": [300.0, -200.0, 0.1, 150.0, 299.0],
        "narrow": [1e-3, -2e-3, 0.0, 5e-4],
    }

    @staticmethod
    def _check(x):
        p, log_z, h = _boltzmann_weights(x)
        ref_log_z, ref_h = mp_kernel(x)
        np.testing.assert_allclose(p, shifted_weights(x), rtol=2e-15, atol=0)
        assert abs(log_z - ref_log_z) <= 1e-15 * max(abs(x.max()), abs(ref_log_z))
        # both kernels are within 1.5e-14 of H on the random draws below
        assert h == pytest.approx(ref_h, rel=5e-14, abs=0)

    @pytest.mark.parametrize("name", EXPONENTS)
    def test_known_exponents(self, name):
        self._check(np.array(self.EXPONENTS[name]))

    def test_random_exponents(self):
        # d = 2..8, spread 1e-3..1e2, three in ten with a tied maximum
        rng = np.random.default_rng(5)
        for _ in range(300):
            d = int(rng.integers(2, 9))
            x = rng.uniform(-1.0, 1.0, d) * 10 ** rng.uniform(-3.0, 2.0)
            if rng.random() < 0.3:
                x[rng.integers(d)] = x.max()
            self._check(x)

    def test_near_pure_log_partition(self):
        # ln Z = log1p(e^-40.5 + e^-42.5): the sum 1 + rest rounds it to 0
        fam = GGEFamily(ChargeSet((HermitianOperator.diagonal([0.0, 40.0, 41.0]),
                                   HermitianOperator.diagonal([0.0, 1.0, 3.0]))))
        assert gge_log_partition(fam, [1.0, 0.5]) == pytest.approx(2.9254832623544258e-18,
                                                                   rel=1e-15, abs=0)
        assert gge_entropy(fam, [1.0, 0.5]) == pytest.approx(
            mp_kernel([0.0, -40.5, -42.5])[1], rel=1e-15, abs=0)


class TestSolve:
    def test_round_trip(self, charge_family, rng):
        for _ in range(20):
            beta = rng.uniform(-2.0, 2.0, size=2)
            target = gge_charges(charge_family, beta)
            rec = gge_solve(charge_family, target, rng=rng)
            assert np.max(np.abs(gge_charges(charge_family, rec) - target)) <= 1e-7
            assert np.max(np.abs(rec - beta)) <= 1e-6

    def test_infeasible_target_raises(self, charge_family):
        # charge values outside the convex hull of the joint spectrum
        with pytest.raises(InfeasibleTargetError):
            gge_solve(charge_family, [10.0, 10.0])

    @settings(max_examples=200, deadline=None)
    @given(levels=st.lists(st.integers(0, 3), min_size=2, max_size=5),
           unit=st.floats(1e-7, 10.0), split=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]),
           beta_width=st.floats(-700.0, 700.0))
    @example(levels=[0, 1], unit=1e-6, split=0.0, beta_width=0.5)  # beta = 5e5
    def test_q1_reduces_to_spontaneous_beta(self, levels, unit, split, beta_width):
        # degenerate integer levels, near-degenerate once split apart
        spectrum = unit * (np.array(levels, dtype=float) + split * np.arange(len(levels)))
        width = float(np.ptp(spectrum))
        assume(width > 0)
        beta = beta_width / width
        h = HermitianOperator.diagonal(list(spectrum))
        gibbs = GibbsFamily(h)
        energy = boundary_energy(gibbs, beta)
        fam = GGEFamily(ChargeSet((h,)))
        rec = gge_solve(fam, [energy])
        assert abs(gge_charges(fam, rec)[0] - energy) <= NEWTON_TOL
        expected = spontaneous_beta(gibbs, energy)
        if math.isfinite(expected):
            w = _boltzmann_weights(-beta * spectrum)[0]
            var = float(w @ (spectrum - w @ spectrum) ** 2)
            # var underflows to 0 where the energy no longer pins beta
            slack = NEWTON_TOL / var if var > 0 else math.inf
            tol = 2 * (slack + 1e-11 * max(1.0, abs(expected)))
            assert abs(rec[0] - expected) <= tol


class TestAffineDependence:
    H = HermitianOperator.diagonal([0.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize("extra", [
        np.full(4, 2.5),                  # a constant charge
        2.0 * np.arange(4.0) - 1.0,       # an affine function of H
    ])
    def test_dependent_charge_raises(self, extra, rng):
        u = haar_unitary(4, rng)
        ops = tuple(HermitianOperator((u * lam) @ u.conj().T)
                    for lam in (self.H.eigenvalues, extra))
        with pytest.raises(ValueError, match="charge 1 is constant or an affine combination"):
            GGEFamily(ChargeSet(ops))

    def test_flat_lone_charge_is_allowed(self):
        fam = GGEFamily(ChargeSet((HermitianOperator.diagonal([1.0, 1.0]),)))
        assert gge_solve(fam, [1.0]) == pytest.approx([0.0])


class TestAthermality:
    def test_beta_vec_athermality_is_relative_entropy(self, charge_family, rng):
        for _ in range(10):
            rho = random_density(4, rng)
            beta = rng.uniform(-1.5, 1.5, size=2)
            assert beta_vec_athermality(rho, charge_family, beta) == pytest.approx(
                relative_entropy(rho, gge_state(charge_family, beta)), abs=1e-10)

    def test_absolute_athermality_nonnegative_and_zero_on_gge(self, charge_family, rng):
        rho = random_density(4, rng)
        assert absolute_athermality(rho, charge_family, rng=rng) >= -1e-10
        gamma = gge_state(charge_family, [0.8, 0.1])
        assert absolute_athermality(gamma, charge_family, rng=rng) == 0.0

    @pytest.mark.parametrize("a", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_zero_on_a_gibbs_state_near_the_ground(self, a):
        # diag(1 - a, a/2, a/2) is the Gibbs state of diag(0, 1, 1) at
        # beta = ln(2 (1 - a) / a); the uncorrected S(gamma(beta_hat)) is off
        # by up to 3e-9 here
        fam = GGEFamily(ChargeSet((HermitianOperator.diagonal([0.0, 1.0, 1.0]),)))
        rho = DensityMatrix.diagonal([1.0 - a, a / 2, a / 2])
        assert absolute_athermality(rho, fam) == 0.0

    def test_zero_on_gge_states_of_the_benchmark_families(self):
        rng = np.random.default_rng(0)
        for f in range(32):
            fam = benchmark_case(f)[0]
            for _ in range(8):
                gamma = gge_state(fam, rng.uniform(-1.0, 1.0, fam.q))
                assert absolute_athermality(gamma, fam) == 0.0

    def test_absolute_is_the_minimum_over_beta(self, charge_family, rng):
        rho = random_density(4, rng)
        a_min = absolute_athermality(rho, charge_family, rng=rng)
        for _ in range(20):
            beta = rng.uniform(-2.0, 2.0, size=2)
            assert beta_vec_athermality(rho, charge_family, beta) >= a_min - 1e-8


class TestBoundCharge:
    def test_q1_reduces_to_bound_energy(self, qutrit, single_charge_family, rng):
        for _ in range(5):
            rho = random_density(3, rng)
            sol = bound_charge(rho, single_charge_family, 0, rng=rng)
            assert sol.value == pytest.approx(bound_energy(rho, qutrit), abs=1e-8)
            assert sol.free_charge == pytest.approx(
                charges_point(rho, single_charge_family).L[0] - sol.value, abs=1e-10)

    def test_constraints_hold_at_minimizer(self, charge_family, rng):
        rho = random_density(4, rng)
        pt = charges_point(rho, charge_family)
        sol = bound_charge(rho, charge_family, 0, rng=rng)
        gpt = charges_point(sol.gamma, charge_family)
        assert gpt.S == pytest.approx(pt.S, abs=1e-7)
        assert gpt.L[1] == pytest.approx(pt.L[1], abs=1e-7)
        assert sol.value <= pt.L[0] + 1e-9

    def test_cold_start_when_the_hot_start_fails(self, charge_family, rng, monkeypatch):
        # the hot start's ascent at rho's other charges raised on no input
        # found (boundary charges included: its lax stop is met on the way
        # out), so it is made to raise here; the bound slice then starts at
        # lambda = 0, nu = ptp(L_0), and reaches the same maximizer
        rho = random_density(4, rng)
        hot = bound_charge(rho, charge_family, 0)
        max_entropy = charges_module._max_entropy

        def hot_start_fails(levels, target, rtol=None):
            if rtol is not None:
                raise InfeasibleTargetError("no hot start")
            return max_entropy(levels, target)

        monkeypatch.setattr(charges_module, "_max_entropy", hot_start_fails)
        cold = bound_charge(rho, charge_family, 0)
        assert math.isfinite(hot.beta_vec[0])  # the active branch, not the LP floor
        assert cold.value == pytest.approx(hot.value, abs=1e-12)
        assert cold.beta_vec == pytest.approx(hot.beta_vec, rel=1e-8)

    def test_certificate_sign(self, charge_family, rng):
        rho = random_density(4, rng)
        sol = bound_charge(rho, charge_family, 0, rng=rng)
        if sol.certified:
            assert sol.beta_vec[0] > 0


class TestBoundPotential:
    def test_q1_direction_reduces_to_bound_energy(self, qutrit, single_charge_family, rng):
        rho = random_density(3, rng)
        value, gamma = bound_potential(rho, single_charge_family, [1.0])
        assert value == pytest.approx(bound_energy(rho, qutrit), abs=1e-8)
        assert entropy(gamma) == pytest.approx(entropy(rho), abs=1e-7)

    def test_state_is_gge_along_mu(self, charge_family, single_charge_family, rng):
        # the effective family's Gibbs state is the GGE at beta_vec = beta mu
        for fam, mu in ((charge_family, [0.6, 0.8]), (charge_family, [1.0, 0.0]),
                        (charge_family, [0.0, 1.0]), (single_charge_family, [1.0])):
            v_mu = sum(m * op.entries for m, op in zip(mu, fam.charge_set.charges))
            for rho in (random_density(fam.dim, rng), random_density(fam.dim, rng, rank=2)):
                value, gamma = bound_potential(rho, fam, mu)
                beta = intrinsic_beta(GibbsFamily(HermitianOperator(v_mu)), entropy(rho))
                expected = gge_state(fam, beta * np.asarray(mu))
                assert np.max(np.abs(gamma.entries - expected.entries)) <= 1e-12
                assert value == pytest.approx(np.trace(v_mu @ gamma.entries).real, abs=1e-12)

    def test_unit_normalization(self, charge_family, rng):
        rho = random_density(4, rng)
        v1, _ = bound_potential(rho, charge_family, [3.0, 4.0])
        v2, _ = bound_potential(rho, charge_family, [0.6, 0.8])
        assert v1 == pytest.approx(v2, abs=1e-10)

    def test_rejects_negative_weights(self, charge_family, rng):
        with pytest.raises(ValueError):
            bound_potential(random_density(4, rng), charge_family, [1.0, -0.5])

    @pytest.mark.parametrize("mu", [[math.nan, 1.0], [math.inf, 1.0]], ids=["nan", "inf"])
    def test_rejects_non_finite_weights(self, charge_family, rng, mu):
        rho = random_density(4, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mu components must be finite"):
                bound_potential(rho, charge_family, mu)

    def test_rejects_zero_weights(self, charge_family, rng):
        with pytest.raises(ValueError, match="mu must have a nonzero component"):
            bound_potential(random_density(4, rng), charge_family, [0.0, 0.0])


class TestSecondLaw:
    def test_random_gge_bath_processes(self, charge_family, rng):
        split = SubsystemSplit((4, 4))
        beta = np.array([0.8, -0.3])
        gamma = gge_state(charge_family, beta)
        for _ in range(50):
            initial = tensor(random_density(4, rng), gamma)
            u = haar_unitary(16, rng)
            final = DensityMatrix(u @ initial.entries @ u.conj().T)
            assert second_law_charges_check(initial, final, split,
                                            charge_family, beta)

    def test_rejects_mismatched_bath(self, charge_family, rng):
        split = SubsystemSplit((4, 4))
        initial = tensor(random_density(4, rng), random_density(4, rng))
        with pytest.raises(ValueError):
            second_law_charges_check(initial, initial, split,
                                     charge_family, [0.8, -0.3])


class TestZeroEntropySurface:
    def test_superposition_convexity_identity(self, charge_family, rng):
        # coordinates of cos(t)|i> + sin(t)|j> are the cos^2-combinations of
        # the eigenvector coordinates, exactly on the zero-entropy surface
        basis = charge_family.basis
        for _ in range(20):
            i, j = rng.choice(charge_family.dim, size=2, replace=False)
            t = float(rng.uniform(0.1, 1.4))
            vec = math.cos(t) * basis[:, i] + math.sin(t) * basis[:, j]
            pure = DensityMatrix.pure(vec)
            pt = charges_point(pure, charge_family)
            w = math.cos(t) ** 2
            expected = (w * charge_family.joint_eigenvalues[:, i]
                        + (1 - w) * charge_family.joint_eigenvalues[:, j])
            assert np.max(np.abs(pt.L - expected)) <= 1e-10
            assert pt.S <= 1e-10


class TestChargesRate:
    def test_q1_agrees_with_single_charge_rate(self, qutrit, single_charge_family, rng):
        from isotherm.rates import conversion_rate

        for _ in range(5):
            rho = random_density(3, rng)
            sigma = random_density(3, rng)
            single = conversion_rate(rho, sigma, qutrit)
            multi = conversion_rate_charges(rho, sigma, single_charge_family)
            if single.phi_kind == "source-degenerate" or multi.phi_kind == "source-degenerate":
                assert single.phi_kind == multi.phi_kind
                continue
            assert multi.r == pytest.approx(single.r, abs=1e-6)

    def test_source_on_wall_face_is_source_degenerate(self):
        # the LP puts t_wall at 1.0 to rounding; the ray leaves at t = 1
        from isotherm.rates import conversion_rate

        h = HermitianOperator.diagonal([0.0, 0.0, 0.0, 1.0])
        rho = gibbs_state(GibbsFamily(h), 36.0)
        sigma = DensityMatrix.maximally_mixed(4)
        sol = conversion_rate_charges(rho, sigma, GGEFamily(ChargeSet((h,))))
        assert (sol.r, sol.phi_kind) == (0.0, "source-degenerate")
        single = conversion_rate(rho, sigma, GibbsFamily(h))
        assert (single.r, single.phi_kind) == (0.0, "source-degenerate")

    @pytest.mark.parametrize("p", [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.3, 0.7],
                                   [0.5, 0.0, 0.0, 0.5]])
    def test_source_charges_on_the_boundary(self, p):
        # rho's charges on the edge L_0 = max of the polytope: the ray from the
        # maximally mixed sigma leaves there, r = 0, at unit 1 and 1e8 alike.
        # The levels' rounding at 1e8 is far above 1e-9, and the max-entropy
        # ascent at rho's charges still ends, with the same athermality
        sigma = DensityMatrix.maximally_mixed(4)
        athermality = []
        for unit in (1.0, 1e8):
            ells = np.array([[2.0, 0.0, 2.0, 2.0], [3.0, 0.0, 1.0, 0.0]]) * unit
            fam = GGEFamily(ChargeSet(tuple(HermitianOperator.diagonal(row) for row in ells)))
            rho = DensityMatrix.diagonal(p)
            athermality.append(absolute_athermality(rho, fam))
            sol = conversion_rate_charges(rho, sigma, fam)
            assert (sol.r, sol.phi_kind) == (0.0, "source-degenerate")
        assert athermality[1] == pytest.approx(athermality[0], abs=1e-12)

    def test_equal_charges_rising_entropy(self, qutrit, single_charge_family, charge_family):
        # a vertical ray (no t_pure, no wall) exits on the thermal surface
        from isotherm.rates import conversion_rate

        rho = DensityMatrix.diagonal([0.3, 0.4, 0.3])
        sigma = DensityMatrix.diagonal([0.45, 0.1, 0.45])
        sol = conversion_rate_charges(rho, sigma, single_charge_family)
        assert sol.phi_kind == "thermal"
        assert sol.r == pytest.approx(conversion_rate(rho, sigma, qutrit).r, abs=1e-12)
        # q = 2 at the polytope's centre: the filler is the maximally mixed state
        rho = DensityMatrix.diagonal([0.3, 0.2, 0.2, 0.3])
        sigma = DensityMatrix.diagonal([0.4, 0.1, 0.1, 0.4])
        sol = conversion_rate_charges(rho, sigma, charge_family)
        t_star = (math.log(4) - entropy(sigma)) / (entropy(rho) - entropy(sigma))
        assert sol.phi_kind == "thermal"
        assert sol.r == pytest.approx(1 - 1 / t_star, abs=1e-12)

    @pytest.mark.parametrize("a", [1e-4, 1e-6, 1e-8, 1e-9])
    def test_q1_ground_corner(self, a):
        # near the ground corner L is far below 1e-9: the exit must still match
        # the single charge rate and a 50-digit root to 1e-13 and 1e-12 (r =
        # 0.0789886 for every small a), and a Gibbs source must still read
        # source-degenerate
        from isotherm.rates import conversion_rate

        h = HermitianOperator.diagonal([0.0, 1.0, 1.0])
        fam = GGEFamily(ChargeSet((h,)))
        sigma = DensityMatrix.diagonal([1.0, 0.0, 0.0])
        rho = DensityMatrix.diagonal([1.0 - a, 0.3 * a, 0.7 * a])
        sol = conversion_rate_charges(rho, sigma, fam)
        single = conversion_rate(rho, sigma, GibbsFamily(h))
        assert sol.phi_kind == single.phi_kind == "thermal"
        assert sol.r == pytest.approx(single.r, abs=1e-13)
        x_rho = charges_point(rho, fam)
        with mpmath.workdps(50):  # sigma = |0><0| at L = S = 0: S(beta) / E(beta) = S_rho / E_rho
            e_rho, s_rho = mpmath.mpf(float(x_rho.L[0])), mpmath.mpf(x_rho.S)

            def energy(beta):
                return 2 * mpmath.exp(-beta) / (1 + 2 * mpmath.exp(-beta))

            def excess(beta):
                slope = s_rho / e_rho
                return mpmath.log(1 + 2 * mpmath.exp(-beta)) + (beta - slope) * energy(beta)

            beta = mpmath.findroot(excess, mpmath.mpf(sol.phi_beta[0]))
            ref = float(1 - e_rho / energy(beta))
        assert sol.r == pytest.approx(ref, abs=1e-12)
        assert sol.r == pytest.approx(0.0789886, abs=1e-4)
        gibbs = DensityMatrix.diagonal([1.0 - a, a / 2, a / 2])
        assert conversion_rate_charges(gibbs, sigma, fam).phi_kind == "source-degenerate"

    @pytest.mark.parametrize("a", [1e-9, 1e-10])
    def test_gibbs_source_at_the_ground_corner(self, a):
        # a Gibbs source whose charge a is below 1e-9: source-degenerate, as in
        # the single charge layer
        from isotherm.rates import conversion_rate

        h = HermitianOperator.diagonal([0.0, 1.0, 1.0])
        rho = DensityMatrix.diagonal([1.0 - a, a / 2, a / 2])
        sigma = DensityMatrix.diagonal([1.0, 0.0, 0.0])
        assert conversion_rate(rho, sigma, GibbsFamily(h)).phi_kind == "source-degenerate"
        sol = conversion_rate_charges(rho, sigma, GGEFamily(ChargeSet((h,))))
        assert (sol.r, sol.phi_kind) == (0.0, "source-degenerate")

    def test_flat_lone_charge(self):
        # a one-state family: S_max = ln d along the whole ray and no wall, so
        # the ray leaves where S(t) = ln d, or at S = 0 when the entropy falls
        fam = GGEFamily(ChargeSet((HermitianOperator.diagonal([1.0, 1.0, 1.0]),)))
        sigma = DensityMatrix.diagonal([0.6, 0.3, 0.1])
        rho = DensityMatrix.diagonal([0.5, 0.3, 0.2])
        s_sigma, s_rho = entropy(sigma), entropy(rho)
        sol = conversion_rate_charges(rho, sigma, fam)
        t_star = (math.log(3) - s_sigma) / (s_rho - s_sigma)
        assert sol.phi_kind == "thermal"
        assert sol.r == pytest.approx(1 - 1 / t_star, abs=1e-12)
        back = conversion_rate_charges(sigma, rho, fam)
        t_pure = s_rho / (s_rho - s_sigma)
        assert back.phi_kind == "pure"
        assert back.r == pytest.approx(1 - 1 / t_pure, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_rotated_flat_lone_charge(self, seed):
        # in a rotated basis the charges of the two states round off 3 by an
        # ulp, so the ray is vertical only to rounding; from a pure sigma it
        # leaves at S = ln 3
        rng = np.random.default_rng(seed)
        u = haar_unitary(3, rng)
        fam = GGEFamily(ChargeSet((HermitianOperator((u * 3.0) @ u.conj().T),)))
        rho, sigma = random_density(3, rng), random_density(3, rng, rank=1)
        sol = conversion_rate_charges(rho, sigma, fam)
        assert sol.phi_kind == "thermal"
        assert sol.r == pytest.approx(1.0 - entropy(rho) / math.log(3), abs=1e-12)

    def test_identical_points_rate_one(self, charge_family, rng):
        rho = random_density(4, rng)
        sol = conversion_rate_charges(rho, rho, charge_family)
        assert sol.r == 1.0

    def test_collinearity(self, charge_family, rng):
        rho = random_density(4, rng)
        sigma = random_density(4, rng)
        sol = conversion_rate_charges(rho, sigma, charge_family)
        if sol.phi_kind != "source-degenerate":
            assert sol.collinearity_residual <= 1e-6
            assert 0.0 <= sol.r <= 1.0 + 1e-12


class TestMaxEntropy:
    LEVELS = np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 2.0]])

    @staticmethod
    def _solve(levels, target):
        return _max_entropy(levels, np.asarray(target, dtype=float))

    def test_converges_to_the_gge_of_the_target(self):
        lam = np.array([1.3, -0.7])
        target = self.LEVELS @ _boltzmann_weights(np.dot(-lam, self.LEVELS))[0]
        rec, w, _ = self._solve(self.LEVELS, target)
        assert np.array_equal(w, _boltzmann_weights(np.dot(-rec, self.LEVELS))[0])  # final weights
        assert np.max(np.abs(self.LEVELS @ w - target)) <= NEWTON_TOL
        assert rec == pytest.approx(lam, abs=1e-7)

    def test_singular_covariance_raises(self, monkeypatch):
        # a constant row has zero variance under every weight: no Newton step
        # exists at the start, so the ascent stops there, with no line search
        levels = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 0.0]])
        calls = TestSolverGuards._count_weight_calls(monkeypatch)
        with pytest.raises(InfeasibleTargetError):
            self._solve(levels, [0.5, 0.1])
        assert len(calls) == 1

    def test_target_outside_hull_raises(self):
        with pytest.raises(InfeasibleTargetError):
            self._solve(self.LEVELS, [4.0, 1.0])

    def test_overflowing_step_raises_without_warnings(self, monkeypatch):
        # at lam = 709.45 the lone level's weight is subnormal, so its variance
        # is too, and the Newton step grad / var overflows to -inf: the ascent
        # stops at the start and tries no step
        levels = np.array([[1.0, 0.0, 0.0]])
        calls = TestSolverGuards._count_weight_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleTargetError):
                _ascend(np.zeros(3), levels, np.array([0.99938968]), 0.0,
                        np.array([709.45259616, 1.0]), np.eye(2, 1))
        assert len(calls) == 1

    def test_singular_trial_point_is_not_taken(self, monkeypatch):
        # three affinely independent levels and a target inside their hull, at
        # p = (0.042, 0.958, 5.3e-9): from this start the full first step lands
        # where the third weight is 1e-19, below the rounding of the covariance,
        # which is singular there. The line search halves past that point, and
        # the ascent ends on the one solution, p itself
        levels = np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 0.0]])
        p = np.array([0.04220173199109838, 0.9577982627537166, 5.255184995415472e-09])
        target = np.array([1.0422017267359134, 2.87339478826115])
        assert levels @ p == pytest.approx(target, abs=1e-15)
        calls = TestSolverGuards._count_weight_calls(monkeypatch)
        _, _, weights = _ascend(np.zeros(3), levels, target, 0.0,
                                np.array([3.5293970204114418, 0.10498570370139663, 1.0]),
                                np.eye(3, 2))
        assert weights == pytest.approx(p, abs=1e-15)
        assert len(calls) <= 9

    def test_singular_covariance_at_the_maximizer_is_accepted(self):
        # a flat lone charge at its level, on the bound slice at S = ln 2: the
        # start is the maximizer (uniform p, zero gradient), and the covariance
        # of [levels; -x] is zero, so no Newton step exists. The decrement rule
        # has no step to judge; the gradient is within NEWTON_TOL max(1,
        # max|level|), so the ascent returns the start. Past that it raises
        args = (np.zeros(2), np.array([[1.0, 1.0]]), np.array([1.0]))
        z, value, p = _ascend(*args, math.log(2), np.array([0.0, 1.0]), np.eye(2))
        assert z.tolist() == [0.0, 1.0]
        assert p.tolist() == [0.5, 0.5]
        assert value == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(InfeasibleTargetError):
            _ascend(*args, math.log(2) + 1e-6, np.array([0.0, 1.0]), np.eye(2))

    def test_face_of_coinciding_levels_is_flat(self):
        # levels equal but for rounding (a rotated basis leaves ~1e-16 between
        # them) span no direction: the face's max-entropy state is uniform,
        # not the vertex that solves the rounding as if it were a simplex
        for levels in ([4.0, 4.0 + 8.9e-16], [4.5e-18, -3.5e-17]):
            p, s_max = _face_max_entropy(np.array([levels]), np.array([levels[0]]), 4.0)
            assert p == pytest.approx([0.5, 0.5], abs=1e-15)
            assert s_max == math.log(2)


def diagonal_family(ells) -> GGEFamily:
    return GGEFamily(ChargeSet(tuple(HermitianOperator.diagonal(row) for row in ells)))


def integer_level_cases(n, seed=11):
    """n draws of (levels, rho, k): q = 2, 3 charges with integer levels 0-3
    on d = q + 1 .. 6 affinely independent joint eigenvalues, and a diagonal
    state on a random support."""
    rng = np.random.default_rng(seed)
    while n:
        q = int(rng.integers(2, 4))
        d = int(rng.integers(q + 1, 7))
        ells = rng.integers(0, 4, (q, d)).astype(float)
        if np.linalg.matrix_rank(np.vstack([ells, np.ones(d)])) < q + 1:
            continue
        support = rng.random(d) < 0.7
        if not support.any():
            continue
        p = np.where(support, rng.dirichlet(np.ones(d)), 0.0)
        n -= 1
        yield ells, DensityMatrix.diagonal(p / p.sum()), int(rng.integers(0, q))


class TestScaleFreeStop:
    """The ascent's stop and its no-step test are relative to the charges'
    scale: the same state on levels times u gives the same answers, scaled,
    and a max-entropy p meets its charges to rounding at any scale."""

    EDGE_LEVELS = np.array([[2.0, 0.0, 2.0, 2.0], [3.0, 0.0, 1.0, 0.0]])

    @pytest.mark.parametrize("unit", [1.0, 1e4, 1e6, 1e8])
    def test_edge_state_athermality_against_mpmath(self, unit):
        # diag(0, 0, 0.3, 0.7) on the edge L_0 = 2u, whose levels of L_1 are
        # (3, 1, 0)u: S_max is that edge's maximum entropy at L_1 = 0.3u
        rho = DensityMatrix.diagonal([0.0, 0.0, 0.3, 0.7])
        with mpmath.workdps(40):
            edge, mean = [mpmath.mpf(3), mpmath.mpf(1), mpmath.mpf(0)], mpmath.mpf("0.3")

            def log_z(lam):
                return mpmath.log(sum(mpmath.exp(-lam * x) for x in edge))

            lam = mpmath.findroot(lambda lam: -mpmath.diff(log_z, lam) - mean, 1.0)
            s_rho = -(mean * mpmath.log(mean) + (1 - mean) * mpmath.log(1 - mean))
            ref = float(lam * mean + log_z(lam) - s_rho)
        assert ref == pytest.approx(0.032998892959148, abs=1e-15)
        athermality = absolute_athermality(rho, diagonal_family(self.EDGE_LEVELS * unit))
        assert athermality == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("unit", [1e7, 1e8, 1e9])
    def test_interior_states_at_large_units(self, unit):
        # 50 Hilbert-Schmidt states: beta_vec scales as 1/u
        levels = np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 2.0]])
        rng = np.random.default_rng(0)
        states = [random_density(4, rng) for _ in range(50)]
        fam_1, fam_u = diagonal_family(levels), diagonal_family(levels * unit)
        for rho in states:
            beta = gge_solve(fam_u, charges_point(rho, fam_u).L)
            assert beta * unit == pytest.approx(gge_solve(fam_1, charges_point(rho, fam_1).L),
                                                abs=1e-12)

    def test_bound_charge_at_unit_1e8(self):
        # an active bound or an LP floor: B_k at 1e8 is 1e8 times B_k at 1.
        # The no-step test reads the bound slice's entropy part against 1e-9
        # max|level| too
        for ells, rho, k in integer_level_cases(60):
            value = bound_charge(rho, diagonal_family(ells), k).value
            scaled = bound_charge(rho, diagonal_family(ells * 1e8), k).value / 1e8
            assert scaled == pytest.approx(value, rel=1e-12, abs=1e-12)

    def test_lp_floor_is_the_lp_optimum(self):
        # on the floor B_k = L_k of the face's maximum-entropy p, which equals
        # the LP's optimum as far as p meets the other charges
        floors = 0
        for ells, rho, k in integer_level_cases(300):
            sol = bound_charge(rho, diagonal_family(ells), k)
            if math.isfinite(sol.beta_vec[k]):
                continue
            floors += 1
            idx = [i for i in range(len(ells)) if i != k]
            res = linprog(ells[k], A_eq=np.vstack([ells[idx], np.ones(ells.shape[1])]),
                          b_eq=np.append(ells[idx] @ np.diagonal(rho.entries).real, 1.0),
                          bounds=(0, None))
            assert sol.value == pytest.approx(res.fun, abs=1e-12)
        assert floors > 100

    def test_narrow_lone_charge_gibbs_state(self):
        # levels (0, 3e-9): every diagonal state is Gibbs, so A = 0 and the
        # source is degenerate in both rate layers
        from isotherm.rates import conversion_rate

        h = HermitianOperator.diagonal([0.0, 3e-9])
        fam = GGEFamily(ChargeSet((h,)))
        rho, sigma = DensityMatrix.diagonal([0.9, 0.1]), DensityMatrix.diagonal([0.6, 0.4])
        assert absolute_athermality(rho, fam) == 0.0
        assert conversion_rate(rho, sigma, GibbsFamily(h)).phi_kind == "source-degenerate"
        sol = conversion_rate_charges(rho, sigma, fam)
        assert (sol.r, sol.phi_kind) == (0.0, "source-degenerate")


def linprog_face(c, a_eq, b_eq):
    """_lp_face's oracle: the same LP by scipy's linprog (HiGHS, at its
    smallest feasibility tolerances), with the same outputs and errors."""
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status == 3:
        return None
    if res.status == 2:
        raise InfeasibleTargetError(res.message)
    assert res.status == 0, res.message
    cost = res.lower.marginals
    return res.eqlin.marginals, cost <= FACE_RTOL * cost.max()


class TestLPFace:
    """_lp_face against linprog on the module's two LP shapes: the floor LP
    (min L_0 at the other charges and unit trace) and the rate LP (max t >= 0
    with L_sigma + t dL on the polytope)."""

    @staticmethod
    def lp(shape, ells, p_sigma, p_rho):
        q, d = ells.shape
        l_sigma, d_l = ells @ p_sigma, ells @ (p_rho - p_sigma)
        if shape == "floor":
            return ells[0], np.vstack([ells[1:], np.ones(d)]), np.append(l_sigma[1:], 1.0)
        a_eq = np.vstack([np.column_stack([ells, -d_l]), np.append(np.ones(d), 0.0)])
        return -np.eye(d + 1)[-1], a_eq, np.append(l_sigma, 1.0)

    @settings(max_examples=150, deadline=None)
    @given(q=st.integers(1, 3), d=st.integers(2, 7), seed=st.integers(0, 2**32 - 1),
           shape=st.sampled_from(["floor", "rate"]),
           target=st.sampled_from(["inside", "outside", "still"]))
    @example(q=2, d=4, seed=0, shape="rate", target="still")
    @example(q=2, d=4, seed=0, shape="floor", target="outside")
    def test_agrees_with_linprog(self, q, d, seed, shape, target):
        # rounded-degenerate levels: integers 0-3, so levels repeat within and
        # across charges; "still" gives rho sigma's charges (an unbounded rate
        # ray), "outside" moves the floor LP's first charge off the polytope.
        # The rate LP keeps sigma on the polytope, where t = 0 is feasible, as
        # every rate the library poses does
        assume(not (shape == "rate" and target == "outside"))
        rng = np.random.default_rng(seed)
        ells = rng.integers(0, 4, (q, d)).astype(float)
        assume(np.linalg.matrix_rank(np.vstack([ells, np.ones(d)])) == q + 1)
        p_sigma, p_rho = rng.dirichlet(np.ones(d), 2)
        if target == "still":
            p_rho = p_sigma
        c, a_eq, b_eq = self.lp(shape, ells, p_sigma, p_rho)
        if target == "outside":
            b_eq[0] = np.max(a_eq[0, :d]) + 0.5
        try:
            expected = linprog_face(c, a_eq, b_eq)
        except InfeasibleTargetError:
            with pytest.raises(InfeasibleTargetError):
                _lp_face(c, a_eq, b_eq)
            return
        got = _lp_face(c, a_eq, b_eq)
        if expected is None:
            assert got is None
            return
        assert np.array_equal(got[1], expected[1])
        assert np.max(np.abs(got[0] - expected[0])) <= 1e-10

    def test_levels_1e10_apart_stay_distinct(self):
        # the first column entering is the upper level; the lower one, 1e-10
        # below, must still replace it, so the dual is the lower level
        duals, face = _lp_face(np.array([1e-10, 0.0, 1.0, 2.0]), np.ones((1, 4)), [1.0])
        assert duals[0] == 0.0
        assert face.tolist() == [True, True, False, False]  # within FACE_RTOL of 2

    def test_drives_a_zero_artificial_out_of_the_basis(self):
        # min x0 - 2 x1 subject to x1 = 1 and 2 x0 + x1 = 1: the one feasible
        # point is (0, 1). Phase 1 ends with x1 basic in row 1 and row 0's
        # artificial basic at zero; x0, nonzero in row 0, replaces it. On the
        # basis {x0, x1} the duals solve 2 y1 = 1 and y0 + y1 = -2
        duals, face = _lp_face(np.array([1.0, -2.0]), np.array([[0.0, 1.0], [2.0, 1.0]]),
                               [1.0, 1.0])
        assert duals == pytest.approx([-2.5, 0.5], abs=1e-15)
        assert face.tolist() == [True, True]

    def test_pivot_bound_raises(self, monkeypatch):
        monkeypatch.setattr(charges_module, "SIMPLEX_MAXITER", 0)
        with pytest.raises(ConvergenceError):
            _lp_face(np.array([0.0, 1.0]), np.ones((1, 2)), [1.0])


class TestPinnedSolverValues:
    """gge_solve, bound_charge and conversion_rate_charges on rotated
    (non-diagonal) charge families, pinned in tests/data."""

    @staticmethod
    def _case(seed, d, q):
        rng = np.random.default_rng(seed)
        u = haar_unitary(d, rng)
        ops = tuple(HermitianOperator((u * lam) @ u.conj().T)
                    for lam in rng.standard_normal((q, d)))
        return GGEFamily(ChargeSet(ops)), random_density(d, rng), random_density(d, rng)

    @pytest.mark.parametrize("pin", json.loads(PINNED.read_text(encoding="utf-8")),
                             ids=lambda pin: f"seed{pin['seed']}-d{pin['d']}-q{pin['q']}")
    def test_matches_pinned(self, pin):
        fam, rho, sigma = self._case(pin["seed"], pin["d"], pin["q"])
        beta = gge_solve(fam, charges_point(rho, fam).L)
        assert beta == pytest.approx(pin["gge_solve_beta"], abs=1e-12)
        bound = bound_charge(rho, fam, 0)
        assert bound.value == pytest.approx(pin["bound_charge_value"], abs=1e-9)
        assert bound.beta_vec == pytest.approx(pin["bound_charge_beta"], rel=1e-7)
        assert bound.certified == pin["bound_charge_certified"]
        rate = conversion_rate_charges(rho, sigma, fam)
        assert rate.r == pytest.approx(pin["rate_r"], abs=1e-12)
        assert rate.phi_kind == pin["rate_kind"]


class TestBoundChargeOracles:
    """bound_charge against a brute-force scan of the one-dimensional
    feasible segment of q = d - 1 families."""

    @pytest.mark.parametrize("f", [1, 5, 9, 13, 17, 25, 29])
    def test_benchmark_d4_q3_families(self, f):
        # the d = 4, q = 3 benchmark families whose bound is the LP floor
        # (six) or a cold minimizer (25)
        fam, rho, _ = benchmark_case(f)
        sol = bound_charge(rho, fam, 0)
        assert sol.certified and sol.beta_vec[0] > 0
        assert sol.value == pytest.approx(segment_bound(fam, rho), abs=1e-9)
        assert sol.free_charge >= 0.0
        if f == 25:  # the one family whose entropy constraint is active
            assert sol.value == pytest.approx(0.3099, abs=1e-4)
            assert sol.beta_vec[0] == pytest.approx(31.5, abs=0.1)
        else:
            assert sol.beta_vec[0] == math.inf

    @pytest.mark.xfail(strict=True, raises=InfeasibleTargetError,
                       reason="the active ascent fails where rho's entropy lies just above "
                              "the LP face's maximum entropy")
    @pytest.mark.parametrize("ells, p", [
        ([[3, 3, 1, 3], [2, 0, 0, 2], [2, 0, 3, 1]],
         [0.026153088778559864, 0.448160598091631, 0.5256863131298092, 0.0]),
        ([[3, 0, 2], [3, 2, 2]], [0.97, 1e-4, 0.0299]),
    ])
    def test_entropy_just_above_the_lp_face(self, ells, p):
        # feasible inputs (rho itself meets every constraint) on which the
        # hot-start ascent raises; the first bound is 1.931375906320509
        fam, rho = diagonal_family(np.array(ells, dtype=float)), DensityMatrix.diagonal(p)
        sol = bound_charge(rho, fam, 0)
        assert sol.value == pytest.approx(segment_bound(fam, rho), abs=1e-9)

    def test_pinned_seed2_floor(self):
        fam, rho, _ = TestPinnedSolverValues._case(2, 4, 3)
        sol = bound_charge(rho, fam, 0)
        assert sol.value == pytest.approx(segment_bound(fam, rho), abs=1e-9)
        assert sol.value == pytest.approx(0.3612, abs=1e-4)
        assert sol.value < charges_point(rho, fam).L[0]

    def test_floor_gamma_keeps_entropy_and_other_charges(self):
        fam, rho, _ = benchmark_case(13)
        pt = charges_point(rho, fam)
        sol = bound_charge(rho, fam, 0)
        gpt = charges_point(sol.gamma, fam)
        assert gpt.S == pytest.approx(pt.S, abs=1e-10)
        assert gpt.L[1:] == pytest.approx(pt.L[1:], abs=1e-10)
        assert gpt.L[0] == pytest.approx(sol.value, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(levels=st.lists(st.integers(0, 3), min_size=2, max_size=5),
           seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 5))
    @example(levels=[0, 0, 1], seed=0, rank=1)
    @example(levels=[1, 1, 1, 3], seed=1, rank=2)
    def test_q1_reduces_to_bound_energy_on_degenerate_spectra(self, levels, seed, rank):
        h = HermitianOperator.diagonal([float(x) for x in levels])
        rank = min(rank, len(levels))
        rho = random_density(len(levels), np.random.default_rng(seed),
                             rank=None if rank == len(levels) else rank)
        gibbs = GibbsFamily(h)
        sol = bound_charge(rho, GGEFamily(ChargeSet((h,))), 0)
        assert sol.value == pytest.approx(bound_energy(rho, gibbs), abs=1e-8)
        if entropy(rho) < math.log(gibbs.ground_degeneracy) - 1e-9:
            # below ln g0: the E_min sentinel, beta = +inf
            assert sol.value == pytest.approx(gibbs.energy_min, abs=1e-12)
            assert sol.beta_vec[0] == math.inf


    @settings(max_examples=60, deadline=None)
    @given(levels=st.lists(st.integers(0, 3), min_size=2, max_size=5),
           seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 5))
    @example(levels=[0, 1, 2], seed=0, rank=3)
    @example(levels=[0, 0, 1, 1, 3], seed=56, rank=3)  # a nu step capped at 4x, then halved
    @example(levels=[0, 0, 1, 2, 2], seed=994, rank=4)  # a step past nu* to a vertex, halved
    def test_q1_agrees_with_nested_route(self, levels, seed, rank):
        h = HermitianOperator.diagonal([float(x) for x in levels])
        rank = min(rank, len(levels))
        rho = random_density(len(levels), np.random.default_rng(seed),
                             rank=None if rank == len(levels) else rank)
        fam = GGEFamily(ChargeSet((h,)))
        sol = bound_charge(rho, fam, 0)
        assume(math.isfinite(sol.beta_vec[0]) and sol.beta_vec[0] > 0)
        value, beta = nested_bound_charge(rho, fam)
        assert sol.value == pytest.approx(value, abs=1e-9)
        assert sol.beta_vec == pytest.approx(beta, rel=1e-7)

    @pytest.mark.parametrize("f", range(32))
    def test_benchmark_families_agree_with_nested_route(self, f):
        fam, rho, _ = benchmark_case(f)
        sol = bound_charge(rho, fam, 0)
        if not math.isfinite(sol.beta_vec[0]):
            return  # the LP floor: no theta root
        value, beta = nested_bound_charge(rho, fam)
        assert sol.value == pytest.approx(value, abs=1e-9)
        assert sol.beta_vec == pytest.approx(beta, rel=1e-7)
        # the nested route with its ascents solved to near rounding: B_k to
        # first order in the charge residual is nearer it than the plain route
        assert sol.value == pytest.approx(nested_bound_charge(rho, fam, tol=2e-14)[0],
                                          abs=1e-12)

    @pytest.mark.parametrize("f", [0, 3, 25])
    def test_active_bound_against_mpmath(self, f):
        fam, rho, _ = benchmark_case(f)
        sol = bound_charge(rho, fam, 0)
        assert math.isfinite(sol.beta_vec[0])
        assert sol.value == pytest.approx(mp_bound_charge(fam, rho, sol.beta_vec), abs=1e-12)

    def test_q1_near_degenerate_ground(self):
        # levels 1e-7 apart are distinct (bound_energy's threshold is 1e-10):
        # the LP must not stop on the upper one within its feasibility tolerance
        h = HermitianOperator.diagonal([0.0, 1e-7, 1.0, 2.0])
        rho = DensityMatrix.diagonal([0.97, 0.02, 0.01, 0.0])
        sol = bound_charge(rho, GGEFamily(ChargeSet((h,))), 0)
        assert sol.value == pytest.approx(bound_energy(rho, GibbsFamily(h)), abs=1e-12)
        assert math.isfinite(sol.beta_vec[0])


def mp_gge(ells, beta):
    """The GGE at beta_vec on an mpmath (q, d) joint spectrum, in the working
    precision: its populations, charges, charge covariance and entropy."""
    q, d = ells.rows, ells.cols
    e = [-mpmath.fsum(beta[j] * ells[j, i] for j in range(q)) for i in range(d)]
    top = max(e)
    w = [mpmath.exp(ei - top) for ei in e]
    z = mpmath.fsum(w)
    p = [wi / z for wi in w]
    l = [mpmath.fsum(p[i] * ells[j, i] for i in range(d)) for j in range(q)]
    cov = mpmath.matrix(q, q)
    for j in range(q):
        for k in range(q):
            cov[j, k] = mpmath.fsum(p[i] * (ells[j, i] - l[j]) * (ells[k, i] - l[k])
                                    for i in range(d))
    s = -mpmath.fsum(pi * mpmath.log(pi) for pi in p if pi > 0)
    return p, l, cov, s


def mp_thermal_exit(fam, rho, sigma, beta, t, dps=40):
    """r from a dps-digit root of the thermal exit, taking the joint spectrum,
    x_rho and x_sigma as exact: Newton in (beta_vec, t) from the given guess
    on L(gamma(beta_vec)) = L_sigma + t dL and S(gamma(beta_vec)) = S_sigma
    + t dS, whose Jacobian holds dL/dbeta = -Cov and dS/dbeta = -Cov beta_vec."""
    x_rho, x_sigma = charges_point(rho, fam), charges_point(sigma, fam)
    with mpmath.workdps(dps):
        ells = mpmath.matrix(fam.joint_eigenvalues.tolist())
        q = ells.rows
        l_s, s_s = mpmath.matrix(x_sigma.L.tolist()), mpmath.mpf(x_sigma.S)
        d_l, d_s = mpmath.matrix((x_rho.L - x_sigma.L).tolist()), mpmath.mpf(x_rho.S) - s_s
        x = mpmath.matrix([float(b) for b in beta] + [float(t)])
        for _ in range(60):
            _, l, cov, s = mp_gge(ells, x)
            f = mpmath.matrix([l[j] - l_s[j] - x[q] * d_l[j] for j in range(q)]
                              + [s - s_s - x[q] * d_s])
            jac = mpmath.matrix(q + 1, q + 1)
            for j in range(q):
                for k in range(q):
                    jac[j, k] = -cov[j, k]
                    jac[q, k] -= cov[j, k] * x[j]
                jac[j, q] = -d_l[j]
            jac[q, q] = -d_s
            step = mpmath.lu_solve(jac, f)
            x -= step
            if mpmath.norm(step) < mpmath.mpf(10) ** (5 - dps):
                return float(1 - 1 / x[q])
    raise AssertionError("mpmath Newton did not converge")


def mp_bound_charge(fam, rho, beta, k=0, dps=50):
    """B_k from a dps-digit solve of the active bound, taking the joint
    spectrum and x_rho as exact: Newton in beta_vec from the given guess on
    L_j(gamma(beta_vec)) = L_j(rho) for j != k and S(gamma(beta_vec)) = S(rho),
    whose Jacobian holds dL/dbeta = -Cov and dS/dbeta = -Cov beta_vec."""
    pt = charges_point(rho, fam)
    with mpmath.workdps(dps):
        ells = mpmath.matrix(fam.joint_eigenvalues.tolist())
        q = ells.rows
        idx = [j for j in range(q) if j != k]
        x = mpmath.matrix([float(b) for b in beta])
        for _ in range(60):
            _, l, cov, s = mp_gge(ells, x)
            f = mpmath.matrix([l[j] - mpmath.mpf(pt.L[j]) for j in idx] + [s - mpmath.mpf(pt.S)])
            jac = mpmath.matrix(q, q)
            for row, j in enumerate(idx):
                for m in range(q):
                    jac[row, m] = -cov[j, m]
            for m in range(q):
                jac[q - 1, m] = -mpmath.fsum(x[j] * cov[j, m] for j in range(q))
            step = mpmath.lu_solve(jac, f)
            x -= step
            if mpmath.norm(step) < mpmath.mpf(10) ** (-dps // 2):  # then quadratic: done
                return float(mp_gge(ells, x)[1][k])
    raise AssertionError("mpmath Newton did not converge")


class TestChargesRateOracle:
    """conversion_rate_charges against the bisection route it replaced."""

    @pytest.mark.parametrize("f", [0, 2, 3, 9, 12, 20, 25, 27])
    def test_agrees_with_bisection(self, f):
        fam, rho, sigma = benchmark_case(f)
        sol = conversion_rate_charges(rho, sigma, fam)
        r_old, kind_old = bisection_rate(rho, sigma, fam)
        assert sol.phi_kind == kind_old
        if sol.phi_kind == "thermal" and sol.phi_beta is None:
            # a wall exit: the bisection ends where nnls leaves the polytope,
            # while phi lies on it, to the rounding of the LP equalities
            assert sol.r == pytest.approx(r_old, abs=1e-11)
            ells = fam.joint_eigenvalues
            _, resid = nnls(np.vstack([ells, np.ones(fam.dim)]),
                            np.append(sol.phi_point.L, 1.0))
            assert resid <= 1e-12
        else:
            assert sol.r == pytest.approx(r_old, abs=1e-12)
        assert sol.collinearity_residual <= 1e-12

    @pytest.mark.parametrize("case", [("pinned", 1, 4, 2), ("pinned", 1, 4, 3),
                                      ("pinned", 1, 8, 2), ("pinned", 1, 8, 3),
                                      ("pinned", 2, 4, 3), ("pinned", 3, 8, 3),
                                      ("benchmark", 0), ("benchmark", 3), ("benchmark", 25)],
                             ids=lambda c: "-".join(map(str, c)))
    def test_thermal_exit_against_mpmath(self, case):
        if case[0] == "pinned":
            fam, rho, sigma = TestPinnedSolverValues._case(*case[1:])
        else:
            fam, rho, sigma = benchmark_case(case[1])
        sol = conversion_rate_charges(rho, sigma, fam)
        assert sol.phi_kind == "thermal" and sol.phi_beta is not None
        ref = mp_thermal_exit(fam, rho, sigma, sol.phi_beta, 1.0 / (1.0 - sol.r))
        assert sol.r == pytest.approx(ref, abs=1e-12)

    def test_wall_face_with_repeated_levels(self):
        # joint eigenvalues (0, 0), (1, 0), (1, 0), (0, 1): the wall L_1 = 0 is
        # an edge with three levels, so its maximum entropy at L = (x, 0) is
        # h(x) + x ln 2, above the entropy of any one LP vertex solution
        fam = GGEFamily(ChargeSet((HermitianOperator.diagonal([0.0, 1.0, 1.0, 0.0]),
                                   HermitianOperator.diagonal([0.0, 0.0, 0.0, 1.0]))))
        sigma = DensityMatrix.diagonal([0.4, 0.15, 0.15, 0.3])
        rho = DensityMatrix.diagonal([0.45, 0.3, 0.05, 0.2])
        x_rho, x_sigma = charges_point(rho, fam), charges_point(sigma, fam)
        s_wall = x_sigma.S + 3.0 * (x_rho.S - x_sigma.S)  # t_wall = 3, L = (0.45, 0)
        h = -(0.45 * math.log(0.45) + 0.55 * math.log(0.55))
        assert h < s_wall < h + 0.45 * math.log(2)
        sol = conversion_rate_charges(rho, sigma, fam)
        assert sol.phi_kind == "thermal" and sol.phi_beta is None
        assert sol.r == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert sol.phi_point.L == pytest.approx([0.45, 0.0], abs=1e-12)
        assert sol.r == pytest.approx(bisection_rate(rho, sigma, fam)[0], abs=1e-8)


class TestSolverGuards:
    """The two free dual ascents (the active bound_charge, the thermal exit):
    cost, and independence from brentq; the cost of absolute_athermality, and
    of the benchmark op's four solves together."""

    # calls of the one weight kernel over the 32 benchmark families with the
    # bound and the thermal exit as roots around max-entropy ascents, and the
    # most the one dual ascent may take
    NESTED_WEIGHT_CALLS = {"bound_charge": 507, "conversion_rate_charges": 683}
    MOST_WEIGHT_CALLS = {"bound_charge": 300, "conversion_rate_charges": 410}
    OP_WEIGHT_CALLS = 720

    @staticmethod
    def _run(name, f):
        fam, rho, sigma = benchmark_case(f)
        if name == "bound_charge":
            return bound_charge(rho, fam, 0)
        return conversion_rate_charges(rho, sigma, fam)

    @staticmethod
    def _count_weight_calls(monkeypatch) -> list:
        calls = []
        weights = charges_module._boltzmann_weights

        def counting(*args):
            calls.append(None)
            return weights(*args)

        monkeypatch.setattr(charges_module, "_boltzmann_weights", counting)
        return calls

    @pytest.mark.parametrize("name", ["bound_charge", "conversion_rate_charges"])
    def test_weight_evaluations(self, name, monkeypatch):
        calls = self._count_weight_calls(monkeypatch)
        for f in range(32):
            self._run(name, f)
        most = self.MOST_WEIGHT_CALLS[name]
        assert len(calls) <= most < self.NESTED_WEIGHT_CALLS[name]

    def test_athermality_takes_one_max_entropy_solve(self, monkeypatch):
        # S_max is the ascent's own dual value: cold, absolute_athermality
        # costs what gge_solve costs at rho's charges, and right after
        # gge_solve there it shares that ascent and makes no kernel call
        calls = self._count_weight_calls(monkeypatch)
        for f in range(32):
            fam, rho, _ = benchmark_case(f)
            target = charges_point(rho, fam).L
            counts = []
            for fn, args in ((absolute_athermality, (rho, fam)), (gge_solve, (fam, target))):
                charges_module._max_entropy_solve.cache_clear()
                calls.clear()
                fn(*args)
                counts.append(len(calls))
            absolute_athermality(rho, fam)
            assert counts[0] == counts[1] > 0 and len(calls) == counts[1]

    def test_op_weight_evaluations(self, monkeypatch):
        # the benchmark op's calls in its order on each of the 32 families:
        # 1,026 kernel calls when each function runs its own max-entropy
        # ascent at rho's charges, 686 when the three share one
        calls = self._count_weight_calls(monkeypatch)
        for f in range(32):
            fam, rho, sigma = benchmark_case(f)
            gge_solve(fam, charges_point(rho, fam).L)
            absolute_athermality(rho, fam)
            bound_charge(rho, fam, 0)
            conversion_rate_charges(rho, sigma, fam)
        assert len(calls) <= self.OP_WEIGHT_CALLS

    def test_roots_do_not_use_brentq(self, monkeypatch):
        import scipy.optimize

        def refuse(*args, **kwargs):
            raise AssertionError("brentq called")

        monkeypatch.setattr(scipy.optimize, "brentq", refuse)
        for f in (0, 3, 25):  # active bounds and thermal exits
            assert math.isfinite(self._run("bound_charge", f).beta_vec[0])
            assert self._run("conversion_rate_charges", f).phi_beta is not None


# ---------------------------------------------------------------- shared solve
# The uncached route the two kept max-entropy solves replaced: every call of
# `_max_entropy` runs its own ascent.

def uncached(fn, *args):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(charges_module, "_max_entropy_solve",
                      charges_module._max_entropy_solve.__wrapped__)
        return fn(*args)


def result_bytes(result):
    """A result of gge_solve, absolute_athermality, conversion_rate_charges or
    `_max_entropy` as bytes and strings, equal only when bit-identical."""
    if isinstance(result, tuple):
        return tuple(map(result_bytes, result))
    if isinstance(result, RateSolution):
        beta = None if result.phi_beta is None else np.asarray(result.phi_beta).tobytes()
        floats = [result.r, result.phi_point.S, result.collinearity_residual]
        return (result.phi_kind, beta, result.phi_point.L.tobytes(), np.array(floats).tobytes())
    return np.asarray(result, dtype=float).tobytes()


def shared_solve_calls(f):
    """The three functions that ask for the max-entropy state at rho's
    charges, on benchmark family f, by name."""
    fam, rho, sigma = benchmark_case(f)
    return {"gge_solve": (gge_solve, fam, charges_point(rho, fam).L),
            "absolute_athermality": (absolute_athermality, rho, fam),
            "conversion_rate_charges": (conversion_rate_charges, rho, sigma, fam)}


class TestSharedSolve:
    """`_max_entropy` keeps its two most recent solves: whatever was solved
    before, every result is bit-identical to the uncached route's, and no
    caller holds the kept arrays."""

    @pytest.mark.parametrize("order", list(itertools.permutations(
        ["gge_solve", "absolute_athermality", "conversion_rate_charges"])),
        ids=lambda order: "-".join(name.split("_")[0] for name in order))
    def test_warm_equals_cold_in_every_order(self, order):
        for f in range(8):  # every (d, q) shape twice
            calls = shared_solve_calls(f)
            cold = {name: result_bytes(uncached(*call)) for name, call in calls.items()}
            charges_module._max_entropy_solve.cache_clear()
            for name in order:
                fn, *args = calls[name]
                assert result_bytes(fn(*args)) == cold[name], (f, name)
            assert charges_module._max_entropy_solve.cache_info().hits == 2

    def test_handed_out_arrays_are_copies(self):
        fam, _, sigma = benchmark_case(1)
        gamma = gge_state(fam, [0.3, -0.2, 0.1])
        target = charges_point(gamma, fam).L
        cold = result_bytes(uncached(gge_solve, fam, target))
        beta = gge_solve(fam, target)
        beta[:] = np.nan
        assert result_bytes(gge_solve(fam, target)) == cold
        # a source-degenerate rate hands out the max-entropy beta_vec at rho's charges
        rate = conversion_rate_charges(gamma, sigma, fam)
        assert rate.phi_kind == "source-degenerate" and rate.phi_beta is not None
        rate.phi_beta[:] = np.nan
        assert result_bytes(gge_solve(fam, target)) == cold
        assert result_bytes(conversion_rate_charges(gamma, sigma, fam)) == result_bytes(
            uncached(conversion_rate_charges, gamma, sigma, fam))
        lam, p, _ = _max_entropy(fam.joint_eigenvalues, target)
        lam[:], p[:] = np.nan, np.nan
        assert result_bytes(_max_entropy(fam.joint_eigenvalues, target)) == result_bytes(
            uncached(_max_entropy, fam.joint_eigenvalues, target))

    @pytest.mark.parametrize("between", [1, 2, 3])
    def test_solves_in_between_change_nothing(self, between):
        # another family, another target of the same family, and the same
        # levels and target at the hot start's rtol are other keys
        calls = shared_solve_calls(2)
        _, fam, target = calls["gge_solve"]
        sigma = calls["conversion_rate_charges"][2]
        other_fam, other_rho, _ = benchmark_case(6)
        hot_start = (fam.joint_eigenvalues, target, HOT_START_DECREMENT)
        others = [lambda: gge_solve(other_fam, charges_point(other_rho, other_fam).L),
                  lambda: gge_solve(fam, charges_point(sigma, fam).L),
                  lambda: _max_entropy(*hot_start)]
        cold = {name: result_bytes(uncached(*call)) for name, call in calls.items()}
        gge_solve(fam, target)
        for other in others[:between]:
            other()
        for name, (fn, *args) in calls.items():
            assert result_bytes(fn(*args)) == cold[name], name
        assert result_bytes(_max_entropy(*hot_start)) == result_bytes(
            uncached(_max_entropy, *hot_start))


# ---------------------------------------------------------------- dual evaluation
# The evaluation `_dual_newton` replaced, kept as its oracle: the stack
# [levels; -x] rebuilt at every point, and the slice covariance by `_covariance`.

def stacked_newton(c, levels, b, s, basis, z):
    e = -(c + np.dot(z[:-1], levels)) / z[-1]
    p, _, h = _boltzmann_weights(e)
    full = np.append(levels @ p - b, s - h)
    value = float(c @ p + z @ full)
    grad = basis.T @ full
    cov = _covariance(basis.T @ np.vstack([levels, e]), p)
    try:
        step = z[-1] * np.linalg.solve(cov, grad)
    except np.linalg.LinAlgError:
        step = np.full_like(grad, np.nan)
    return value, p, grad, step, cov, full


class TestDualEvaluation:
    def test_every_iterate_matches_the_stacked_formula(self, monkeypatch):
        # every point at which the 32 benchmark families' solves evaluate the
        # dual: the same weights; g and its slice gradient within 4 ulp of
        # g's rounding floor max(1, size), size the sum of the magnitudes of
        # g's terms; a step that solves the stacked Newton system to the same
        # rounding (backward error), or none where neither formula has one
        points = []
        dual_newton = charges_module._dual_newton

        def recording(*args):
            newton = dual_newton(*args)

            def record(z):
                out = newton(z)
                points.append((args, z.copy(), out))
                return out

            return record

        monkeypatch.setattr(charges_module, "_dual_newton", recording)
        for f in range(32):
            fam, rho, sigma = benchmark_case(f)
            gge_solve(fam, charges_point(rho, fam).L)
            bound_charge(rho, fam, 0)
            conversion_rate_charges(rho, sigma, fam)
        assert len(points) > 600
        eps = np.finfo(float).eps
        for (c, levels, b, s, basis), z, (value, p, grad, step, slope, full) in points:
            ref_value, ref_p, ref_grad, ref_step, cov, ref_full = stacked_newton(
                c, levels, b, s, basis, z)
            assert np.array_equal(p, ref_p)
            size = max(1.0, np.abs(c) @ p + np.abs(z[:-1]) @ (np.abs(levels @ p) + np.abs(b))
                       + z[-1] * (abs(s) + s - ref_full[-1]))
            assert abs(value - ref_value) <= 4 * eps * size
            assert np.max(np.abs(full - ref_full)) <= 4 * eps * size
            assert np.max(np.abs(grad - ref_grad)) <= 4 * eps * size
            assert np.isfinite(step).all() == np.isfinite(ref_step).all()
            if np.isfinite(step).all():
                residual = np.max(np.abs(cov @ step / z[-1] - ref_grad))
                scale = size + np.abs(cov).max() * np.abs(step).max() / z[-1]
                assert residual <= 4 * eps * scale
                assert slope == grad @ step
