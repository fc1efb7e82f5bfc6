import math
import sys

import numpy as np
import pytest

from isotherm.charges import ChargeSet, GGEFamily, _max_entropy_solve
from isotherm.gibbs import GibbsFamily, _solve
from isotherm.operators import DensityMatrix, HermitianOperator, entropy, haar_unitary


@pytest.fixture(autouse=True)
def cold_max_entropy_solves():
    """Every test starts with none of `charges`' two kept max-entropy solves
    and none of `gibbs`' kept beta roots, so what a test counts does not
    depend on the tests run before it."""
    _max_entropy_solve.cache_clear()
    _solve.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20240824)


@pytest.fixture
def qubit():
    """Two-level family with gap 1."""
    return GibbsFamily(HermitianOperator.diagonal([0.0, 1.0]))


@pytest.fixture
def qutrit():
    return GibbsFamily(HermitianOperator.diagonal([0.0, 1.0, 2.0]))


@pytest.fixture
def degenerate_qutrit():
    """Two-fold degenerate ground space: ground entropy floor ln 2."""
    return GibbsFamily(HermitianOperator.diagonal([0.0, 0.0, 1.0]))


@pytest.fixture
def rho_qubit_91():
    """Eigenvalues (0.9, 0.1): the standard closed-form fixture."""
    return DensityMatrix.diagonal([0.1, 0.9])


@pytest.fixture
def charge_family():
    """d = 4, q = 2: Hamiltonian plus one commuting diagonal charge."""
    h = HermitianOperator.diagonal([0.0, 1.0, 2.0, 3.0])
    l1 = HermitianOperator.diagonal([0.0, 1.0, 1.0, 2.0])
    return GGEFamily(ChargeSet((h, l1)))


@pytest.fixture
def degenerate_cases(rng):
    """cases(n, max_dim) yields (family, beta) pairs: n families with integer
    levels 0-4, exactly degenerate or split by up to 1e-6-1e-3, at units 1e-2,
    1 and 1e2 in a Haar basis, each at beta = 0, +-inf, |beta| ||H|| = 700 of
    either sign, and one random |beta| ||H|| <= 20."""
    def cases(n, max_dim):
        for _ in range(n):
            d = int(rng.integers(2, max_dim + 1))
            split = rng.choice([0.0, 1e-6, 1e-5, 1e-4, 1e-3])
            levels = (rng.integers(0, 5, d) + split * rng.random(d)) * rng.choice([1e-2, 1.0, 1e2])
            u = haar_unitary(d, rng)
            fam = GibbsFamily(HermitianOperator((u * levels) @ u.conj().T))
            norm = max(abs(fam.energy_min), abs(fam.energy_max)) or 1.0
            for beta in (0.0, math.inf, -math.inf, 700 / norm, -700 / norm,
                         rng.uniform(-20, 20) / norm):
                yield fam, beta

    return cases


@pytest.fixture
def eigh_calls(monkeypatch):
    """A list that records every numpy.linalg.eigh call made while the test runs."""
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


def _floor_entropy(spectrum):
    """The entropy carried by eigenvalues below 1e-13, at the rounding floor of an eigh."""
    p = spectrum[(spectrum > 0) & (spectrum < 1e-13)]
    return float(-(p * np.log(p)).sum())


@pytest.fixture
def assert_matches_eigh_route():
    """Check a state built from known eigenpairs against DensityMatrix(entries),
    the eigh route: bit-identical entries, spectra within 1e-15 d, and entropies
    within 1e-14 plus what eigenvalues below 1e-13 carry on either side. An eigh
    returns exact zeros as noise of about 1e-16, whose -p ln p adds up to about
    1.2e-13 nats on a pure state at d = 64, where the known spectrum reads 0."""
    def check(state):
        ref = DensityMatrix(state.entries)
        assert np.array_equal(state.entries, ref.entries)
        assert np.max(np.abs(state.spectrum - ref.spectrum)) <= 1e-15 * state.dim
        slack = _floor_entropy(state.spectrum) + _floor_entropy(ref.spectrum)
        assert abs(entropy(state) - entropy(ref)) <= 1e-14 + slack

    return check


def pytest_terminal_summary(terminalreporter):
    # echo the acceptance verdicts so they survive output capture
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "VERDICT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
