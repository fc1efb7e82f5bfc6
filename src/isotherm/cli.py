"""Command-line surface over the library.

Subcommands: info, boundary, rate, equilibrate, engine, laws, charges.
Inputs are JSON system/state files; outputs are deterministic for a fixed
(inputs, seed) pair. Exit codes: 0 ok, 2 schema violation, 3 numeric-domain
error, 4 degenerate engine run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import charges as charges_mod
from . import energetics
from .diagram import _fmt, export_diagram, sample_boundary
from .equilibrium import equilibrate_isoenergetic, equilibrate_isoentropic, joint_family
from .gibbs import GibbsFamily, gibbs_state
from .operators import DensityMatrix, HermitianOperator
from .processes import (
    DegenerateEngineError,
    carnot_engine,
    clausius_check,
    first_law_residual,
    kelvin_planck_check,
    random_process,
    work_ledger,
)
from .rates import conversion_rate

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_DOMAIN = 3
EXIT_DEGENERATE = 4


class SchemaError(Exception):
    """Input file violates the SystemSpec/StateSpec schema."""


def _load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: cannot read JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: top level must be an object")
    return data


def _parse_matrix_spec(cls, spec: dict, dim: int, where: str):
    """A `cls` (HermitianOperator or DensityMatrix) from the 'diagonal' or
    'matrix' entry of `spec`; None when `spec` has neither."""
    if "diagonal" in spec:
        diag = spec["diagonal"]
        if not isinstance(diag, list) or len(diag) != dim:
            raise SchemaError(f"{where}.diagonal: expected {dim} reals")
        try:
            return cls.diagonal([float(x) for x in diag])
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{where}.diagonal: {exc}") from exc
    if "matrix" in spec:
        m = spec["matrix"]
        if not isinstance(m, dict) or "re" not in m or "im" not in m:
            raise SchemaError(f"{where}.matrix: needs 're' and 'im' arrays")
        try:
            a = np.asarray(m["re"], dtype=float) + 1j * np.asarray(m["im"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{where}.matrix: {exc}") from exc
        if a.shape != (dim, dim):
            raise SchemaError(f"{where}.matrix: expected shape ({dim}, {dim})")
        try:
            return cls(a)
        except ValueError as exc:
            raise SchemaError(f"{where}.matrix: {exc}") from exc
    return None


def _parse_operator(spec, dim: int, where: str) -> HermitianOperator:
    if not isinstance(spec, dict):
        raise SchemaError(f"{where}: operator spec must be an object")
    h = _parse_matrix_spec(HermitianOperator, spec, dim, where)
    if h is None:
        raise SchemaError(f"{where}: need 'diagonal' or 'matrix'")
    return h


def load_system(path):
    """Parse a SystemSpec file into (GibbsFamily, GGEFamily | None)."""
    data = _load_json(path)
    if "dim" not in data or "hamiltonian" not in data:
        raise SchemaError(f"{path}: need 'dim' and 'hamiltonian'")
    dim = data["dim"]  # a JSON number with no fractional part; no bool or string
    if type(dim) not in (int, float) or dim % 1 != 0 or dim < 1:
        raise SchemaError(f"{path}.dim: expected a positive integer, got {dim!r}")
    dim = int(dim)
    h = _parse_operator(data["hamiltonian"], dim, f"{path}.hamiltonian")
    fam = GibbsFamily(h)
    gge = None
    if "charges" in data:
        if not isinstance(data["charges"], list):
            raise SchemaError(f"{path}.charges: must be a list of operator specs")
        ops = [h] + [
            _parse_operator(spec, dim, f"{path}.charges[{i}]")
            for i, spec in enumerate(data["charges"])
        ]
        try:
            gge = charges_mod.GGEFamily(charges_mod.ChargeSet(tuple(ops)))
        except ValueError as exc:
            raise SchemaError(f"{path}.charges: {exc}") from exc
    return fam, gge


def load_state(path, fam: GibbsFamily, gge=None) -> DensityMatrix:
    """Parse a StateSpec file against the system it applies to."""
    data = _load_json(path)
    rho = _parse_matrix_spec(DensityMatrix, data, fam.dim, path)
    if rho is not None:
        return rho
    if "gibbs" in data:
        g = data["gibbs"]
        if not isinstance(g, dict) or "beta" not in g:
            raise SchemaError(f"{path}.gibbs: needs 'beta'")
        try:
            return gibbs_state(fam, float(g["beta"]))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}.gibbs.beta: {exc}") from exc
    if "gge" in data:
        g = data["gge"]
        if gge is None:
            raise SchemaError(f"{path}.gge: system file declares no charges")
        if not isinstance(g, dict) or "beta_vec" not in g:
            raise SchemaError(f"{path}.gge: needs 'beta_vec'")
        vec = g["beta_vec"]
        if not isinstance(vec, list) or len(vec) != gge.q:
            raise SchemaError(f"{path}.gge.beta_vec: expected {gge.q} reals")
        try:
            return charges_mod.gge_state(gge, [float(x) for x in vec])
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}.gge.beta_vec: {exc}") from exc
    raise SchemaError(f"{path}: need one of 'diagonal', 'matrix', 'gibbs', 'gge'")


def _json_val(x: float):
    return _fmt(x) if math.isinf(x) else float(_fmt(x))


def _seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return int(os.environ.get("ISOTHERM_SEED", "0"))


def cmd_info(args) -> int:
    fam, gge = load_system(args.system)
    rho = load_state(args.state, fam, gge)
    rep = energetics.report(rho, fam)
    fields = [
        ("E", rep.energy), ("S", rep.entropy),
        ("beta_intrinsic", rep.intrinsic_beta),
        ("beta_spontaneous", rep.spontaneous_beta),
        ("B", rep.bound_energy), ("F", rep.free_energy),
        ("A", rep.athermality),
    ]
    if args.json:
        print(json.dumps({k: _json_val(v) for k, v in fields}))
    else:
        for k, v in fields:
            print(f"{k} = {_fmt(v)}")
    return EXIT_OK


def cmd_boundary(args) -> int:
    fam, gge = load_system(args.system)
    sample = sample_boundary(fam, args.beta_min, args.beta_max, args.points)
    states = []
    for i, path in enumerate(args.state):
        states.append((f"state{i}", load_state(path, fam, gge)))
    export_diagram(sample, states, args.output)
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_rate(args) -> int:
    fam, gge = load_system(args.system)
    rho = load_state(args.source, fam, gge)
    sigma = load_state(args.target, fam, gge)
    sol = conversion_rate(rho, sigma, fam)
    print(f"r = {_fmt(sol.r)}")
    print(f"phi_kind = {sol.phi_kind}")
    print(f"phi_E = {_fmt(sol.phi_point.E)}")
    print(f"phi_S = {_fmt(sol.phi_point.S)}")
    print(f"collinearity_residual = {_fmt(sol.collinearity_residual)}")
    return EXIT_OK


def cmd_equilibrate(args) -> int:
    if len(args.system) != len(args.state):
        raise SchemaError("need one state file per system file")
    pairs = []
    for sys_path, state_path in zip(args.system, args.state):
        fam, gge = load_system(sys_path)
        pairs.append((load_state(state_path, fam, gge), fam))
    if args.mode == "isoentropic":
        out = equilibrate_isoentropic(pairs)
        print(f"beta_joint = {_fmt(out.beta_joint)}")
        print(f"work_released = {_fmt(out.work_released)}")
    else:
        out = equilibrate_isoenergetic(pairs)
        print(f"beta_joint = {_fmt(out.beta_joint)}")
        print(f"entropy_produced = {_fmt(out.entropy_produced)}")
    return EXIT_OK


def cmd_engine(args) -> int:
    try:
        copies = [int(c) for c in args.copies.split(",")]
    except ValueError as exc:
        raise SchemaError(f"--copies: {exc}") from exc
    if min(copies) < 1:
        raise SchemaError(f"--copies: need positive integers, got {args.copies}")
    fam_a, _ = load_system(args.system_a)
    fam_b, _ = load_system(args.system_b)
    rows = []
    for n in copies:
        run = carnot_engine((fam_a, args.beta_a, n), (fam_b, args.beta_b, n))
        gap = run.bound_carnot - run.efficiency
        rows.append((n, n, run.work, run.efficiency,
                     run.bound_finite, run.bound_carnot, gap))
    print("n_a,n_b,W,eta,bound_finite,bound_carnot,gap")
    for row in rows:
        print(",".join(_fmt(v) for v in row))
    return EXIT_OK


def _digest(proc) -> str:
    led = work_ledger(proc)
    return (f"dims={proc.split.dims} W={led.W:.6g} dQ={led.dQ:.6g} "
            f"dS_A={led.dS_A:.6g} dS_B={led.dS_B:.6g}")


def cmd_laws(args) -> int:
    try:
        d_a, d_b = (int(x) for x in args.dims.lower().split("x"))
    except ValueError as exc:
        raise SchemaError(f"--dims must look like 2x2, got {args.dims}") from exc
    if min(d_a, d_b) < 1:
        raise SchemaError(f"--dims: need positive dimensions, got {args.dims}")
    if args.trials < 1:
        raise SchemaError(f"--trials: need a positive integer, got {args.trials}")
    rng = np.random.default_rng(_seed(args))
    failures = 0
    for _ in range(args.trials):
        proc = random_process((d_a, d_b), rng)
        checks = []
        checks.append(("first-law", abs(first_law_residual(proc)) <= 1e-12))
        kp_res, _ = kelvin_planck_check(proc)
        checks.append(("kelvin-planck-balance", kp_res <= 1e-10))
        try:
            _, _, holds = clausius_check(proc)
            checks.append(("clausius", holds))
        except ValueError:
            pass  # sentinel temperatures: check not applicable
        led = work_ledger(proc)
        f_joint = energetics.free_energy(proc.initial, joint_family([proc.fam_a, proc.fam_b]))
        checks.append(("work-extraction", -led.W <= f_joint + 1e-9))
        for name, ok in checks:
            if not ok:
                failures += 1
                print(f"FAIL {name}: {_digest(proc)}")
    print(f"trials = {args.trials}, failures = {failures}")
    return EXIT_OK if failures == 0 else 1


def cmd_charges(args) -> int:
    fam, gge = load_system(args.system)
    if gge is None:
        raise SchemaError(f"{args.system}: no charges declared")
    rho = load_state(args.state, fam, gge)
    pt = charges_mod.charges_point(rho, gge)
    try:
        beta = charges_mod.gge_solve(gge, pt.L)
        ath = charges_mod.gge_entropy(gge, beta) - pt.S
    except charges_mod.InfeasibleTargetError as exc:
        raise ValueError(str(exc)) from exc
    for k, val in enumerate(pt.L):
        print(f"L{k} = {_fmt(val)}")
    print(f"S = {_fmt(pt.S)}")
    print(f"A = {_fmt(ath)}")
    print("beta_vec = " + ",".join(_fmt(b) for b in beta))
    return EXIT_OK


def _beta(text: str) -> float:
    """argparse type of the beta flags: a float, inf (the sentinel) included,
    nan rejected."""
    value = float(text)
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="isotherm")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("info", help="thermodynamic report for one state")
    sp.add_argument("system")
    sp.add_argument("state")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_info)

    sp = sub.add_parser("boundary", help="export the energy-entropy diagram CSV")
    sp.add_argument("system")
    sp.add_argument("--state", nargs="*", default=[])
    sp.add_argument("--beta-min", type=_beta, default=-20.0)
    sp.add_argument("--beta-max", type=_beta, default=20.0)
    sp.add_argument("--points", type=int, default=513)
    sp.add_argument("-o", "--output", default="diagram.csv")
    sp.set_defaults(func=cmd_boundary)

    sp = sub.add_parser("rate", help="interconversion rate between two states")
    sp.add_argument("system")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.set_defaults(func=cmd_rate)

    sp = sub.add_parser("equilibrate", help="joint equilibration of local systems")
    sp.add_argument("--system", nargs="+", required=True)
    sp.add_argument("--state", nargs="+", required=True)
    sp.add_argument("--mode", choices=["isoentropic", "isoenergetic"],
                    default="isoentropic")
    sp.set_defaults(func=cmd_equilibrate)

    sp = sub.add_parser("engine", help="finite-bath heat engine run")
    sp.add_argument("--system-a", required=True)
    sp.add_argument("--system-b", required=True)
    sp.add_argument("--beta-a", type=_beta, required=True)
    sp.add_argument("--beta-b", type=_beta, required=True)
    sp.add_argument("--copies", default="1")
    sp.set_defaults(func=cmd_engine)

    sp = sub.add_parser("laws", help="random-process law-check sweep")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--dims", default="2x2")
    sp.set_defaults(func=cmd_laws)

    sp = sub.add_parser("charges", help="multi-charge report for one state")
    sp.add_argument("system")
    sp.add_argument("state")
    sp.set_defaults(func=cmd_charges)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except DegenerateEngineError as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
