import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from isotherm import cli
from isotherm.cli import main

LN9 = math.log(9)
DATA = Path(__file__).parent / "data"


@pytest.fixture
def qubit_system(tmp_path):
    path = tmp_path / "qubit.json"
    path.write_text(json.dumps({"dim": 2, "hamiltonian": {"diagonal": [0.0, 1.0]}}))
    return str(path)


@pytest.fixture
def charged_system(tmp_path):
    path = tmp_path / "charged.json"
    path.write_text(json.dumps({
        "dim": 4,
        "hamiltonian": {"diagonal": [0.0, 1.0, 2.0, 3.0]},
        "charges": [{"diagonal": [0.0, 1.0, 1.0, 2.0]}],
    }))
    return str(path)


@pytest.fixture
def p91_state(tmp_path):
    path = tmp_path / "p91.json"
    path.write_text(json.dumps({"diagonal": [0.1, 0.9]}))
    return str(path)


def state_file(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestInfo:
    def test_text_report(self, qubit_system, p91_state, capsys):
        assert main(["info", qubit_system, p91_state]) == 0
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["E"]) == pytest.approx(0.9)
        assert float(values["B"]) == pytest.approx(0.1, abs=1e-10)
        assert float(values["F"]) == pytest.approx(0.8, abs=1e-10)
        assert float(values["beta_intrinsic"]) == pytest.approx(LN9, abs=1e-9)

    def test_json_report(self, qubit_system, p91_state, capsys):
        assert main(["info", "--json", qubit_system, p91_state]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["S"] == pytest.approx(0.3250829733914482, abs=1e-10)
        assert data["beta_spontaneous"] == pytest.approx(-LN9, abs=1e-9)

    def test_sentinel_serialization(self, qubit_system, tmp_path, capsys):
        ground = state_file(tmp_path, "ground.json", {"diagonal": [1.0, 0.0]})
        assert main(["info", "--json", qubit_system, ground]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["beta_intrinsic"] == "inf"

    def test_deterministic_across_runs(self, qubit_system, p91_state, capsys):
        main(["info", qubit_system, p91_state])
        first = capsys.readouterr().out
        main(["info", qubit_system, p91_state])
        assert capsys.readouterr().out == first


class TestBoundary:
    def test_writes_csv(self, qubit_system, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["boundary", qubit_system, "--beta-min", "-4", "--beta-max", "4",
                     "--points", "17", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "beta,E,S"
        assert len(lines) == 19

    def test_with_states(self, qubit_system, p91_state, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["boundary", qubit_system, "--state", p91_state,
                     "--points", "9", "-o", str(out)]) == 0
        assert out.read_text().splitlines()[-1].startswith("state0,0.9,")


class TestRate:
    def test_qubit_pair(self, qubit_system, tmp_path, capsys):
        src = state_file(tmp_path, "src.json", {
            "matrix": {"re": [[0.7, -math.sqrt(3) * 0.2],
                              [-math.sqrt(3) * 0.2, 0.3]],
                       "im": [[0.0, 0.0], [0.0, 0.0]]}})
        tgt = state_file(tmp_path, "tgt.json", {"diagonal": [0.5, 0.5]})
        assert main(["rate", qubit_system, src, tgt]) == 0
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["r"]) == pytest.approx(0.4689955935892812, abs=1e-3)


class TestEquilibrate:
    def test_two_qubit_fixture(self, qubit_system, tmp_path, capsys):
        cold = state_file(tmp_path, "cold.json", {"diagonal": [0.9, 0.1]})
        hot = state_file(tmp_path, "hot.json", {"diagonal": [0.7, 0.3]})
        assert main(["equilibrate", "--system", qubit_system, qubit_system,
                     "--state", hot, cold]) == 0
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["beta_joint"]) == pytest.approx(1.5316255950049886, abs=1e-8)
        assert float(values["work_released"]) == pytest.approx(0.0444880673503, abs=1e-9)

    def test_isoenergetic_mode(self, qubit_system, tmp_path, capsys):
        a = state_file(tmp_path, "a.json", {"diagonal": [0.8, 0.2]})
        b = state_file(tmp_path, "b.json", {"diagonal": [1.0, 0.0]})
        assert main(["equilibrate", "--mode", "isoenergetic",
                     "--system", qubit_system, qubit_system,
                     "--state", a, b]) == 0
        values = dict(line.split(" = ")
                      for line in capsys.readouterr().out.strip().splitlines())
        assert float(values["entropy_produced"]) >= 0.0

    def test_isoenergetic_ground_states_give_sentinel(self, qubit_system, tmp_path, capsys):
        qutrit_system = state_file(tmp_path, "qutrit.json",
                                   {"dim": 3, "hamiltonian": {"diagonal": [0.0, 1.0, 2.0]}})
        a = state_file(tmp_path, "a.json", {"diagonal": [1.0, 0.0]})
        b = state_file(tmp_path, "b.json", {"diagonal": [1.0, 0.0, 0.0]})
        assert main(["equilibrate", "--mode", "isoenergetic",
                     "--system", qubit_system, qutrit_system, "--state", a, b]) == 0
        assert capsys.readouterr().out == "beta_joint = inf\nentropy_produced = 0\n"


class TestEngine:
    def test_csv_output(self, tmp_path, capsys):
        sys_a = state_file(tmp_path, "sa.json",
                           {"dim": 2, "hamiltonian": {"diagonal": [0.0, 1.0]}})
        sys_b = state_file(tmp_path, "sb.json",
                           {"dim": 2, "hamiltonian": {"diagonal": [0.0, 1.0]}})
        assert main(["engine", "--system-a", sys_a, "--system-b", sys_b,
                     "--beta-a", str(math.log(9)), "--beta-b", str(math.log(7 / 3)),
                     "--copies", "1,2,4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n_a,n_b,W,eta,bound_finite,bound_carnot,gap"
        assert len(lines) == 4
        eta = float(lines[1].split(",")[3])
        assert eta == pytest.approx(0.36392833263769536, abs=1e-8)

    def test_equal_temperatures_exit_4(self, qubit_system, capsys):
        code = main(["engine", "--system-a", qubit_system, "--system-b", qubit_system,
                     "--beta-a", "1.0", "--beta-b", "1.0"])
        assert code == 4
        assert capsys.readouterr().out == ""  # no partial CSV

    def test_wrong_ordering_exit_3(self, qubit_system, capsys):
        assert main(["engine", "--system-a", qubit_system, "--system-b", qubit_system,
                     "--beta-a", "0.5", "--beta-b", "2.0"]) == 3

    def test_extreme_cold_bath(self, qubit_system, capsys):
        assert main(["engine", "--system-a", qubit_system, "--system-b", qubit_system,
                     "--beta-a", "1e300", "--beta-b", "1"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_zero_temperature_cold_bath(self, qubit_system, capsys):
        # beta_a = inf is the ground-state limit of beta_a = 1e300
        argv = ["engine", "--system-a", qubit_system, "--system-b", qubit_system,
                "--beta-b", "1"]
        assert main(argv + ["--beta-a", "1e300"]) == 0
        limit = capsys.readouterr().out
        assert main(argv + ["--beta-a", "inf"]) == 0
        assert capsys.readouterr().out == limit

    @pytest.mark.parametrize("copies", ["1,x", "0", "-1", "1,,2"])
    def test_malformed_copies_exit_2(self, qubit_system, copies, capsys):
        assert main(["engine", "--system-a", qubit_system, "--system-b", qubit_system,
                     "--beta-a", "2.0", "--beta-b", "1.0", "--copies", copies]) == 2
        assert capsys.readouterr().out == ""


class TestLaws:
    def test_sweep_passes(self, capsys):
        assert main(["laws", "--trials", "25", "--seed", "7", "--dims", "2x2"]) == 0
        out = capsys.readouterr().out
        assert "trials = 25, failures = 0" in out

    def test_seed_reproducibility(self, capsys, monkeypatch):
        monkeypatch.setenv("ISOTHERM_SEED", "11")
        main(["laws", "--trials", "5"])
        first = capsys.readouterr().out
        main(["laws", "--trials", "5"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("flags", [
        ["--trials", "-3"], ["--trials", "0"],
        ["--dims", "0x2"], ["--dims", "2x0"], ["--dims=-1x2"],
    ], ids=["trials-3", "trials0", "dims0x2", "dims2x0", "dims-1x2"])
    def test_bad_flags_exit_2_before_drawing(self, flags, capsys, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a process was drawn")

        monkeypatch.setattr(cli, "random_process", no_draw)
        assert main(["laws"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "schema error" in captured.err


class TestCharges:
    def test_report(self, charged_system, tmp_path, capsys):
        rho = state_file(tmp_path, "gge.json", {"gge": {"beta_vec": [0.8, -0.3]}})
        assert main(["charges", charged_system, rho]) == 0
        values = dict(line.split(" = ")
                      for line in capsys.readouterr().out.strip().splitlines())
        assert float(values["A"]) == pytest.approx(0.0, abs=1e-7)
        betas = [float(x) for x in values["beta_vec"].split(",")]
        assert betas[0] == pytest.approx(0.8, abs=1e-6)
        assert betas[1] == pytest.approx(-0.3, abs=1e-6)

    def test_system_without_charges_exit_2(self, qubit_system, p91_state):
        assert main(["charges", qubit_system, p91_state]) == 2

    def test_affinely_dependent_charges_exit_2(self, tmp_path, capsys):
        system = state_file(tmp_path, "sys.json", {
            "dim": 4,
            "hamiltonian": {"diagonal": [0.0, 1.0, 2.0, 3.0]},
            "charges": [{"diagonal": [0.0, 1.0, 1.0, 2.0]}, {"diagonal": [1.0, 1.0, 1.0, 1.0]}],
        })
        rho = state_file(tmp_path, "rho.json", {"diagonal": [0.4, 0.3, 0.2, 0.1]})
        assert main(["charges", system, rho]) == 2
        assert "charge 2 is constant" in capsys.readouterr().err


class TestErrorPaths:
    @pytest.mark.parametrize("argv", [
        ["boundary", "{q}", "--beta-min", "nan"],
        ["boundary", "{q}", "--beta-max", "NaN"],
        ["engine", "--system-a", "{q}", "--system-b", "{q}", "--beta-a", "nan",
         "--beta-b", "1"],
        ["engine", "--system-a", "{q}", "--system-b", "{q}", "--beta-a", "2",
         "--beta-b", "nan"],
    ])
    def test_nan_beta_flag_exit_2(self, qubit_system, argv, tmp_path, capsys):
        argv = [a.format(q=qubit_system) for a in argv] + (
            ["-o", str(tmp_path / "d.csv")] if argv[0] == "boundary" else [])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_missing_file_exit_2(self, qubit_system):
        assert main(["info", qubit_system, "/nonexistent/state.json"]) == 2

    def test_malformed_json_exit_2(self, qubit_system, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["info", qubit_system, str(bad)]) == 2

    def test_wrong_dimension_exit_2(self, qubit_system, tmp_path):
        bad = state_file(tmp_path, "bad.json", {"diagonal": [0.5, 0.25, 0.25]})
        assert main(["info", qubit_system, bad]) == 2

    def test_invalid_state_exit_2(self, qubit_system, tmp_path):
        bad = state_file(tmp_path, "bad.json", {"diagonal": [0.7, 0.7]})
        assert main(["info", qubit_system, bad]) == 2

    @pytest.mark.parametrize("payload", [
        {"gibbs": {"beta": "abc"}},
        {"gibbs": {"beta": None}},
        {"diagonal": [None, 1.0]},
    ])
    def test_unparsable_number_exit_2(self, qubit_system, tmp_path, payload):
        bad = state_file(tmp_path, "bad.json", payload)
        assert main(["info", qubit_system, bad]) == 2

    @pytest.mark.parametrize("payload", [
        {"diagonal": ["nan", 1.0]},
        {"gibbs": {"beta": "nan"}},
    ])
    def test_nonfinite_state_exit_2(self, qubit_system, tmp_path, payload):
        bad = state_file(tmp_path, "bad.json", payload)
        assert main(["info", qubit_system, bad]) == 2

    def test_nonfinite_hamiltonian_exit_2(self, p91_state, tmp_path):
        bad = state_file(tmp_path, "sys.json",
                         {"dim": 2, "hamiltonian": {"diagonal": ["nan", 1.0]}})
        assert main(["info", bad, p91_state]) == 2

    def test_nonfinite_gge_beta_vec_exit_2(self, charged_system, tmp_path):
        bad = state_file(tmp_path, "bad.json", {"gge": {"beta_vec": [0.8, "nan"]}})
        assert main(["charges", charged_system, bad]) == 2

    def test_narrow_spectrum_gibbs_state_accepted(self, tmp_path, capsys):
        # E of this Gibbs state rounds one ulp past E_max
        system = state_file(tmp_path, "sys.json",
                            {"dim": 2, "hamiltonian": {"diagonal": [62.0, 62.0000001]}})
        gibbs = state_file(tmp_path, "g.json", {"gibbs": {"beta": -3e8}})
        assert main(["info", "--json", system, gibbs]) == 0
        assert json.loads(capsys.readouterr().out)["beta_spontaneous"] == "-inf"

    def test_infinite_gibbs_beta_is_sentinel(self, qubit_system, tmp_path, capsys):
        ground = state_file(tmp_path, "ground.json", {"gibbs": {"beta": "inf"}})
        assert main(["info", "--json", qubit_system, ground]) == 0
        assert json.loads(capsys.readouterr().out)["beta_intrinsic"] == "inf"

    def test_unparsable_gge_beta_vec_exit_2(self, charged_system, tmp_path):
        bad = state_file(tmp_path, "bad.json", {"gge": {"beta_vec": ["x", 1]}})
        assert main(["charges", charged_system, bad]) == 2

    def test_equilibrate_counts_checked_before_loading(self, capsys):
        assert main(["equilibrate", "--system", "/nonexistent/a.json",
                     "/nonexistent/b.json", "--state", "/nonexistent/c.json"]) == 2
        assert "one state file per system file" in capsys.readouterr().err

    def test_domain_error_exit_3(self, tmp_path):
        # a single-subsystem equilibration is a domain error, not a schema error
        sys_a = state_file(tmp_path, "s.json",
                           {"dim": 2, "hamiltonian": {"diagonal": [0.0, 1.0]}})
        st = state_file(tmp_path, "st.json", {"diagonal": [0.5, 0.5]})
        assert main(["equilibrate", "--system", sys_a,
                     "--state", st]) == 3


QUBIT = {"dim": 2, "hamiltonian": {"diagonal": [0.0, 1.0]}}
CHARGED = {"dim": 4, "hamiltonian": {"diagonal": [0.0, 1.0, 2.0, 3.0]},
           "charges": [{"diagonal": [0.0, 1.0, 1.0, 2.0]}]}
P91 = {"diagonal": [0.1, 0.9]}
ZERO2 = [[0.0, 0.0], [0.0, 0.0]]

# id: (argv with {sys} and {state} for the two files, system payload, state payload)
SCHEMA_ERRORS = {
    "top-level-not-object": ("info {sys} {state}", [QUBIT], P91),
    "matrix-without-im": ("info {sys} {state}", QUBIT,
                          {"matrix": {"re": [[0.5, 0.0], [0.0, 0.5]]}}),
    "matrix-unparsable": ("info {sys} {state}", QUBIT,
                          {"matrix": {"re": [[0.5, 0.0], [0.0]], "im": ZERO2}}),
    "matrix-wrong-shape": ("info {sys} {state}", QUBIT,
                           {"matrix": {"re": [[1.0]], "im": [[0.0]]}}),
    "matrix-not-hermitian": ("info {sys} {state}",
                             {"dim": 2, "hamiltonian": {"matrix": {
                                 "re": [[0.0, 1.0], [0.0, 1.0]], "im": ZERO2}}}, P91),
    "operator-not-object": ("info {sys} {state}",
                            {"dim": 2, "hamiltonian": [0.0, 1.0]}, P91),
    "operator-without-entries": ("info {sys} {state}", {"dim": 2, "hamiltonian": {}}, P91),
    "system-without-hamiltonian": ("info {sys} {state}", {"dim": 2}, P91),
    "system-without-dim": ("info {sys} {state}", {"hamiltonian": QUBIT["hamiltonian"]}, P91),
    "dim-unparsable": ("info {sys} {state}", {**QUBIT, "dim": "two"}, P91),
    "dim-string": ("info {sys} {state}", {**QUBIT, "dim": "2"}, P91),
    "dim-fractional": ("info {sys} {state}", {**QUBIT, "dim": 2.7}, P91),
    "dim-bool": ("info {sys} {state}",
                 {"dim": True, "hamiltonian": {"diagonal": [0.0]}}, {"diagonal": [1.0]}),
    "dim-zero": ("info {sys} {state}", {**QUBIT, "dim": 0}, P91),
    "charges-not-list": ("charges {sys} {state}",
                         {**QUBIT, "charges": {"diagonal": [0.0, 1.0]}}, P91),
    "gibbs-without-beta": ("info {sys} {state}", QUBIT, {"gibbs": {}}),
    "gge-without-charges": ("info {sys} {state}", QUBIT, {"gge": {"beta_vec": [0.8]}}),
    "gge-without-beta-vec": ("charges {sys} {state}", CHARGED, {"gge": {}}),
    "gge-wrong-length": ("charges {sys} {state}", CHARGED, {"gge": {"beta_vec": [0.8]}}),
    "state-without-key": ("info {sys} {state}", QUBIT, {"probabilities": [0.1, 0.9]}),
    "laws-dims-unparsable": ("laws --dims 2by2", None, None),
}


class TestSchemaErrors:
    """Every schema violation exits 2 with a `schema error:` line on stderr
    and nothing on stdout."""

    @pytest.mark.parametrize("case", SCHEMA_ERRORS.values(), ids=SCHEMA_ERRORS.keys())
    def test_exit_2(self, case, tmp_path, capsys):
        argv, system, state = case
        files = {"sys": state_file(tmp_path, "sys.json", system),
                 "state": state_file(tmp_path, "state.json", state)}
        assert main(argv.format(**files).split()) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("schema error:")
        assert captured.out == ""

    def test_integral_float_dim_accepted(self, p91_state, tmp_path, capsys):
        system = state_file(tmp_path, "sys.json", {**QUBIT, "dim": 2.0})
        assert main(["info", system, p91_state]) == 0
        assert capsys.readouterr().out == (DATA / "cli_info.txt").read_text(encoding="utf-8")


class TestLawsFailureReport:
    def test_each_failed_check_is_printed(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "first_law_residual", lambda proc: 1.0)
        assert main(["laws", "--trials", "3", "--seed", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" W=")[0] for line in lines[:-1]] == [
            "FAIL first-law: dims=(2, 2)"] * 3
        assert lines[-1] == "trials = 3, failures = 3"


class TestGoldenStdout:
    """Byte-exact stdout of the root- and Newton-solving commands, pinned in
    tests/data."""

    @pytest.mark.parametrize("name", [
        "cli_info.txt", "cli_rate.txt", "cli_equilibrate_isoentropic.txt",
        "cli_equilibrate_isoenergetic.txt", "cli_engine.txt", "cli_charges.txt",
    ])
    def test_matches_file(self, name, qubit_system, p91_state, charged_system, tmp_path,
                          capsys):
        argv = golden_commands(tmp_path, qubit_system, p91_state, charged_system)[name]
        assert main(argv) == 0
        assert capsys.readouterr().out == (DATA / name).read_text(encoding="utf-8")


def golden_commands(tmp_path, qubit_system, p91_state, charged_system):
    """The argv of each golden stdout file in tests/data, by file name."""
    s3 = math.sqrt(3) * 0.2
    src = state_file(tmp_path, "src.json", {
        "matrix": {"re": [[0.7, -s3], [-s3, 0.3]], "im": [[0.0, 0.0], [0.0, 0.0]]}})
    tgt = state_file(tmp_path, "tgt.json", {"diagonal": [0.5, 0.5]})
    cold = state_file(tmp_path, "cold.json", {"diagonal": [0.9, 0.1]})
    hot = state_file(tmp_path, "hot.json", {"diagonal": [0.7, 0.3]})
    a = state_file(tmp_path, "a.json", {"diagonal": [0.8, 0.2]})
    b = state_file(tmp_path, "b.json", {"diagonal": [1.0, 0.0]})
    gge = state_file(tmp_path, "gge.json", {"gge": {"beta_vec": [0.8, -0.3]}})
    return {
        "cli_info.txt": ["info", qubit_system, p91_state],
        "cli_rate.txt": ["rate", qubit_system, src, tgt],
        "cli_equilibrate_isoentropic.txt": [
            "equilibrate", "--system", qubit_system, qubit_system,
            "--state", hot, cold],
        "cli_equilibrate_isoenergetic.txt": [
            "equilibrate", "--mode", "isoenergetic",
            "--system", qubit_system, qubit_system, "--state", a, b],
        "cli_engine.txt": [
            "engine", "--system-a", qubit_system, "--system-b", qubit_system,
            "--beta-a", str(math.log(9)), "--beta-b", str(math.log(7 / 3)),
            "--copies", "1,2,4"],
        "cli_charges.txt": ["charges", charged_system, gge],
    }


def test_commands_run_without_scipy(qubit_system, p91_state, charged_system, tmp_path):
    """Every command in one interpreter where scipy cannot be imported: each
    golden command prints its file, and the others exit 0."""
    commands = golden_commands(tmp_path, qubit_system, p91_state, charged_system)
    commands["boundary"] = ["boundary", qubit_system, "--state", p91_state,
                            "-o", str(tmp_path / "diagram.csv")]
    commands["laws"] = ["laws", "--trials", "20", "--seed", "7"]
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from isotherm.cli import main\n"
        "results = {}\n"
        "for name, argv in json.loads(sys.argv[1]).items():\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(argv)\n"
        "    results[name] = [code, out.getvalue()]\n"
        "print(json.dumps(results))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert results.keys() == commands.keys()
    for name, (code, out) in results.items():
        assert code == 0, name
        if name.endswith(".txt"):
            assert out == (DATA / name).read_text(encoding="utf-8"), name
    assert (tmp_path / "diagram.csv").read_text().startswith("beta,E,S\n")
