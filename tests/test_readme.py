"""README's library tour runs as written and prints the values its comments claim."""

import math
import re
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"
# `expr   # value: ...`, value a number, `ln` of one, or `~` one to 1e-4
CLAIM = re.compile(r"^(?P<expr>[\w.]+)\s+# (?P<approx>~)?(?P<ln>ln )?(?P<num>\d[\d.]*)")


def tour_block() -> str:
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour"):]
    return re.search(r"```python\n(.*?)```", tour, re.S).group(1)


def test_tour_values():
    block = tour_block()
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    claims = [m for m in map(CLAIM.match, block.splitlines()) if m]
    assert [m["expr"] for m in claims] == [
        "rep.intrinsic_beta", "rep.bound_energy", "rep.free_energy",
        "out.beta_joint", "out.work_released"]
    for m in claims:
        value = float(m["num"])
        if m["ln"]:
            value = math.log(value)
        tol = 1e-4 if m["approx"] else 1e-12
        assert eval(m["expr"], namespace) == pytest.approx(value, abs=tol), m["expr"]
