"""The package's layout rules: one tolerance table, one oracle module and one
Kronecker route.

Every number written in e-notation with a negative exponent lives in
`tolerances.py`, and another module imports every name there; docstrings
and comments are STRING and COMMENT tokens, so the scan passes them by. The
verification routes live in `oracles.py`, which only the package's
`__init__.py` imports, and which alone imports scipy.
Every Kronecker product goes through `operators._kron`. A state or an
operator is built by its checked constructor or by its trusted `_derived`.
The coincident and source-degenerate rules of a rate are read in
`rates.py` alone, where `ray_exit` serves both rate layers. The stop
tolerances of the dual ascent are read in `charges.py` alone, and its
ascent takes them as numbers, not as stop callables. Every GGE exponent pass
there is its kernel's, `_boltzmann_weights`, and the max-entropy state at
a point's charges is reached through `_max_entropy` alone. The charge
polytope's faces are met by one routine, `_face_exit`: it alone calls the
simplex `_lp_face`, and no other function solves a least-squares system
for an exit. Both joint beta
solvers of `gibbs.py` take "at a sentinel" from one rounding rule, `_rounding`,
and a single family's beta has one route: `intrinsic_beta` and
`spontaneous_beta` alone reach the kept roots, `_solve`, and no caller
threads a solved beta through a private fork. In `operators.py` a state's
spectrum comes from `eigvalsh` alone, and `eigh` runs only in an operator's
checked constructor and in a state's one deferred eigenvector read.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "isotherm"
MODULES = sorted(PACKAGE.glob("*.py"))
NEGATIVE_EXPONENT = re.compile(r"[eE]-")


def imported_modules(path: Path) -> set[str]:
    """Every module an import statement of `path` names, relative ones with
    their leading dots dropped, plus each `from X import name` as X.name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}".lstrip(".") for alias in node.names)
    return names


def test_package_modules_found():
    assert {"tolerances.py", "oracles.py", "gibbs.py"} <= {p.name for p in MODULES}


def test_every_tolerance_is_read():
    # an entry whose role is gone leaves the table with it
    table = PACKAGE / "tolerances.py"
    names = {target.id for node in ast.parse(table.read_text(encoding="utf-8")).body
             if isinstance(node, ast.Assign) for target in node.targets}
    imported = set().union(*(imported_modules(path) for path in MODULES if path != table))
    assert sorted(name for name in names if f"tolerances.{name}" not in imported) == []


def test_no_tolerance_literal_outside_the_table():
    found = []
    for path in MODULES:
        if path.name == "tolerances.py":
            continue
        source = io.StringIO(path.read_text(encoding="utf-8"))
        for tok in tokenize.generate_tokens(source.readline):
            if tok.type == tokenize.NUMBER and NEGATIVE_EXPONENT.search(tok.string):
                found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert found == []


def test_only_the_package_imports_the_oracles():
    importers = {path.name for path in MODULES
                 if any(name.split(".")[-1] == "oracles" for name in imported_modules(path))}
    assert importers == {"__init__.py"}


def test_scipy_only_in_the_oracles():
    importers = {path.name for path in MODULES
                 if any(name.split(".")[0] == "scipy" for name in imported_modules(path))}
    assert importers == {"oracles.py"}


def test_no_numpy_kron_call():
    # np.kron(...) and a bare kron(...) imported from numpy alike
    calls = [f"{path.name}:{node.lineno}" for path in MODULES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) == "kron"]
    assert calls == []


def test_only_derived_skips_the_constructor():
    # object.__new__ builds an instance without __post_init__'s checks
    owners = [f"{path.name}:{fn.name}" for path in MODULES
              for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(fn, ast.FunctionDef)
              for node in ast.walk(fn)
              if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__new__"]
    assert owners == ["operators.py:_derived"] * 2


def test_only_rates_reads_the_ray_exit_tolerances():
    names = {"tolerances.COINCIDENT_ATOL", "tolerances.SOURCE_DEGENERATE_ATOL"}
    readers = {path.name for path in MODULES if names & imported_modules(path)}
    assert readers == {"rates.py"}


def test_only_charges_reads_the_ascent_tolerances():
    names = {"tolerances.NEWTON_TOL", "tolerances.DECREMENT_RTOL",
             "tolerances.HOT_START_DECREMENT"}
    readers = {path.name for path in MODULES if names & imported_modules(path)}
    assert readers == {"charges.py"}


def test_the_ascent_calls_no_argument():
    # one stop rule, given as a number: no parameter of `_ascend` or
    # `_max_entropy` is called, so none is a stop callable
    tree = ast.parse((PACKAGE / "charges.py").read_text(encoding="utf-8"))
    found = {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name in ("_ascend", "_max_entropy"):
            params = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
            found[fn.name] = sorted(node.func.id for node in ast.walk(fn)
                                    if isinstance(node, ast.Call)
                                    and isinstance(node.func, ast.Name) and node.func.id in params)
    assert found == {"_ascend": [], "_max_entropy": []}


def test_one_exp_pass_in_charges():
    # the weights, ln Z and H(p) of a GGE all come from the kernel's one exp pass
    tree = ast.parse((PACKAGE / "charges.py").read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.exp"]
    owners = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
              for node in ast.walk(fn) if node in calls]
    assert len(calls) == 1 and owners == ["_boltzmann_weights"]


def test_both_beta_solvers_read_one_rounding_rule():
    # a target is a sentinel beta (+-inf, 0) only within its own rounding
    tree = ast.parse((PACKAGE / "gibbs.py").read_text(encoding="utf-8"))
    callers = sorted(fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
                     for node in ast.walk(fn)
                     if isinstance(node, ast.Call) and ast.unparse(node.func) == "_rounding")
    assert callers == ["_joint_intrinsic_beta", "_joint_spontaneous_beta"]


def test_one_route_to_the_max_entropy_ascent():
    # the ascent's evaluation builds no stack per point; the three callers of
    # the max-entropy state at rho's charges reach the ascent only through
    # `_max_entropy`, whose kept solves they share, and only it reads them
    tree = ast.parse((PACKAGE / "charges.py").read_text(encoding="utf-8"))
    functions = {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}

    def called(name: str) -> set[str]:
        return {ast.unparse(node.func) for node in ast.walk(functions[name])
                if isinstance(node, ast.Call)}

    assert {"np.vstack", "np.append"} & (called("_ascend") | called("_dual_newton")) == set()
    for name in ("gge_solve", "absolute_athermality", "above"):  # `above`: the rate's S_max
        assert "_max_entropy" in called(name)
        assert {"_ascend", "_max_entropy_solve"} & called(name) == set(), name
    readers = sorted(name for name in functions if "_max_entropy_solve" in called(name))
    assert readers == ["_max_entropy"]


def test_one_route_to_a_single_family_beta():
    # one root per (family, target): only the two public solvers call the
    # kept roots, no module imports them, and the hand-threaded forks are gone
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    functions = [(name, fn) for name, tree in trees.items() for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef)]
    callers = sorted(f"{name}:{fn.name}" for name, fn in functions for node in ast.walk(fn)
                     if isinstance(node, ast.Call)
                     and ast.unparse(node.func).split(".")[-1] == "_solve")
    assert callers == ["gibbs.py:intrinsic_beta", "gibbs.py:spontaneous_beta"]
    assert not any(name.endswith("gibbs._solve") for path in MODULES
                   for name in imported_modules(path))
    forks = {"_free_energy_at", "_is_gibbs_at", "_initial_betas"}
    assert sorted(f"{name}:{fn.name}" for name, fn in functions if fn.name in forks) == []


def test_a_state_runs_eigh_only_on_its_eigenvector_read():
    # a state's spectrum needs no eigenvectors: the checked constructor and
    # `_derived` take it from `eigvalsh`, and only the deferred read of a
    # state's eigenvectors and an operator's checked constructor run `eigh`
    tree = ast.parse((PACKAGE / "operators.py").read_text(encoding="utf-8"))

    def callers(name: str) -> list[str]:
        found = []
        for node in tree.body:
            scopes = ([(f"{node.name}.", fn) for fn in node.body if isinstance(fn, ast.FunctionDef)]
                      if isinstance(node, ast.ClassDef) else [("", node)])
            found += [f"{owner}{fn.name}" for owner, fn in scopes for call in ast.walk(fn)
                      if isinstance(call, ast.Call)
                      and ast.unparse(call.func).split(".")[-1] == name]
        return sorted(found)

    assert callers("eigh") == ["DensityMatrix.eigenvectors", "HermitianOperator.__post_init__"]
    assert callers("eigvalsh") == ["DensityMatrix.__post_init__", "DensityMatrix._derived"]


def test_one_face_routine_for_the_charge_polytope():
    # the rate's wall, its vertical-face gap and the LP floor all ask one
    # exit LP: `_lp_face` has one caller in the package, and `lstsq` is
    # called nowhere else, as the exit point is the LP's own vertex
    def callers(name: str) -> list[str]:
        return sorted(f"{path.name}:{fn.name}" for path in MODULES
                      for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(fn, ast.FunctionDef) and fn.name != name
                      for node in ast.walk(fn) if isinstance(node, ast.Call)
                      and ast.unparse(node.func).split(".")[-1] == name)

    assert callers("_lp_face") == ["charges.py:_face_exit"]
    assert set(callers("lstsq")) <= {"charges.py:_face_exit"}
