import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from isotherm.diagram import (
    export_diagram,
    project_state,
    sample_boundary,
    state_point,
    tangent_line,
    warped_beta_grid,
)
from isotherm.energetics import athermality, bound_energy, free_energy, report
from isotherm.gibbs import (
    GibbsFamily,
    _boundary_point,
    boundary_energy,
    boundary_entropy,
    gibbs_state,
    log_partition,
)
from isotherm.operators import DensityMatrix, HermitianOperator, random_density, random_hamiltonian

LN2 = math.log(2)
DATA = Path(__file__).parent / "data"
GOLDEN_SHA256 = "17c9c2ec11eb86e0852e26fa261bbc8709b3fbd0063aa4d2e1cd635106bbd8bf"


class TestBoundary:
    def test_warped_grid_monotone_and_bounded(self):
        grid = warped_beta_grid(-20.0, 20.0, 101)
        assert grid[0] == pytest.approx(-20.0, abs=1e-9)
        assert grid[-1] == pytest.approx(20.0, abs=1e-9)
        assert np.all(np.diff(grid) > 0)

    def test_qubit_anchor_points(self, qubit):
        sample = sample_boundary(qubit, -10.0, 10.0, 101)
        mid = sample.points[50]
        assert mid.E == pytest.approx(0.5, abs=1e-12)
        assert mid.S == pytest.approx(LN2, abs=1e-12)
        assert sample.points[0].E > 0.5 > sample.points[-1].E

    @pytest.mark.parametrize("beta_min, beta_max, n_points, match", [
        (1.0, 1.0, 9, "below beta_max"), (2.0, -2.0, 9, "below beta_max"),
        (-2.0, 2.0, 2, "at least 3"),
    ])
    def test_rejects_bad_grid(self, qubit, beta_min, beta_max, n_points, match):
        with pytest.raises(ValueError, match=match):
            sample_boundary(qubit, beta_min, beta_max, n_points)

    def test_concavity(self, rng):
        # the boundary is the graph of a concave function S(E)
        fam = GibbsFamily(random_hamiltonian(4, rng))
        sample = sample_boundary(fam, -10.0, 10.0, 201)
        pts = sorted((p.E, p.S) for p in sample.points)
        e = np.array([p[0] for p in pts])
        s = np.array([p[1] for p in pts])
        for i in range(1, len(e) - 1):
            lam = (e[i] - e[i - 1]) / (e[i + 1] - e[i - 1])
            chord = (1 - lam) * s[i - 1] + lam * s[i + 1]
            assert s[i] >= chord - 1e-10

    def test_matches_scalar_boundary_points(self, rng):
        # the one (n, d) pass against n scalar passes
        for d in range(2, 65):
            fam = GibbsFamily(random_hamiltonian(d, rng))
            sample = sample_boundary(fam, -20.0, 20.0, 129)
            for beta, pt in zip(sample.betas, sample.points):
                e, s, _ = _boundary_point(fam, beta)
                assert abs(pt.E - e) <= 1e-13 and abs(pt.S - s) <= 1e-13

    def test_infinite_ends_are_the_pure_extremes(self):
        fam = GibbsFamily(HermitianOperator.diagonal([0.0, 1.0, 1.0, 3.0]))
        sample = sample_boundary(fam, -math.inf, math.inf, 5)
        assert (sample.points[0].E, sample.points[0].S) == (3.0, 0.0)
        assert (sample.points[-1].E, sample.points[-1].S) == (0.0, 0.0)
        assert all(math.isfinite(p.E) and math.isfinite(p.S) for p in sample.points)

    def test_flat_spectrum_degenerates_to_point(self):
        fam = GibbsFamily(HermitianOperator.diagonal([1.0, 1.0]))
        sample = sample_boundary(fam, -5.0, 5.0, 11)
        for p in sample.points:
            assert p.E == pytest.approx(1.0, abs=1e-12)
            assert p.S == pytest.approx(LN2, abs=1e-12)


class TestTangent:
    def test_slope_is_beta_intercept_is_log_partition(self, qutrit):
        for beta in (0.4, 1.0, 2.7):
            slope, intercept = tangent_line(qutrit, beta)
            assert slope == pytest.approx(beta, abs=1e-12)
            # S = beta E + ln Z along the tangent at the touching point
            assert intercept == pytest.approx(log_partition(qutrit, beta), abs=1e-10)

    def test_intercept_is_log_partition_exactly(self, rng):
        for d in (2, 5, 17):
            fam = GibbsFamily(random_hamiltonian(d, rng))
            for beta in (-30.0, -0.7, 0.0, 0.4, 12.0):
                assert tangent_line(fam, beta)[1] == log_partition(fam, beta)

    def test_sentinel_beta_rejected(self, qutrit):
        with pytest.raises(ValueError, match="finite beta"):
            tangent_line(qutrit, math.inf)

    def test_supporting_line(self, rng):
        # every interior state sits below the tangent
        fam = GibbsFamily(random_hamiltonian(3, rng))
        slope, intercept = tangent_line(fam, 1.3)
        for _ in range(30):
            pt = state_point(random_density(3, rng), fam)
            assert pt.S <= slope * pt.E + intercept + 1e-10


class TestProjection:
    def test_agrees_with_energetics(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            fam = GibbsFamily(random_hamiltonian(d, rng))
            rho = random_density(d, rng)
            proj = project_state(rho, fam)
            assert proj.free_energy_horizontal == pytest.approx(
                free_energy(rho, fam), abs=1e-8)
            assert proj.bound_energy_horizontal == pytest.approx(
                bound_energy(rho, fam), abs=1e-8)
            assert proj.athermality_vertical == pytest.approx(
                athermality(rho, fam), abs=1e-8)

    def test_reads_the_report(self, rng, qutrit, degenerate_qutrit):
        states = [(random_density(d, rng), GibbsFamily(random_hamiltonian(d, rng)))
                  for d in (2, 3, 5)]
        states += [(gibbs_state(qutrit, 1.1), qutrit),
                   (DensityMatrix.diagonal([0.6, 0.4, 0.0]), degenerate_qutrit),
                   (DensityMatrix.diagonal([0.0, 0.1, 0.9]), qutrit)]
        for rho, fam in states:
            proj, rep = project_state(rho, fam), report(rho, fam)
            assert (proj.point.E, proj.point.S) == (rep.energy, rep.entropy)
            assert proj.free_energy_horizontal == rep.free_energy
            assert proj.bound_energy_horizontal == rep.bound_energy
            assert proj.athermality_vertical == rep.athermality
            assert proj.tangent_beta == rep.intrinsic_beta

    def test_thermal_state_projects_onto_itself(self, qutrit):
        rho = gibbs_state(qutrit, 1.1)
        proj = project_state(rho, qutrit)
        assert proj.free_energy_horizontal == pytest.approx(0.0, abs=1e-9)
        assert proj.athermality_vertical == pytest.approx(0.0, abs=1e-9)
        assert proj.tangent_beta == pytest.approx(1.1, abs=1e-8)


class TestExport:
    def qubit_fixture_export(self, path):
        fam = GibbsFamily(HermitianOperator.diagonal([0.0, 1.0]))
        sample = sample_boundary(fam, -4.0, 4.0, 17)
        states = [("mixed", DensityMatrix.maximally_mixed(2)),
                  ("ground", DensityMatrix.diagonal([1.0, 0.0])),
                  ("p91", DensityMatrix.diagonal([0.1, 0.9]))]
        export_diagram(sample, states, path)

    def test_matches_frozen_golden_file(self, tmp_path):
        out = tmp_path / "diagram.csv"
        self.qubit_fixture_export(out)
        text = out.read_text(encoding="utf-8")
        assert text == (DATA / "qubit_diagram.csv").read_text(encoding="utf-8")
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256

    def test_schema(self, tmp_path):
        out = tmp_path / "diagram.csv"
        self.qubit_fixture_export(out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "beta,E,S"
        assert lines[18] == "label,E,S,F,B,A,beta_intrinsic,beta_spontaneous"
        assert len(lines) == 22
        # sentinel betas print as words, not numbers
        ground = lines[20].split(",")
        assert ground[6] == "inf" and ground[7] == "inf"

    def test_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.qubit_fixture_export(a)
        self.qubit_fixture_export(b)
        assert a.read_bytes() == b.read_bytes()
