"""The README's library example runs as written, and its cost table matches the suites."""

import re
from pathlib import Path

from corelattice import cli, suites
from corelattice.errors import CapExceededError

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    (block,) = re.findall(r"^```python\n(.*?)^```", library.split("\n## ", 1)[0], re.M | re.S)
    exec(compile(block, str(README), "exec"), {})


def refused_unit(name: str) -> str:
    """The unit that a build of ``name`` names when it is refused at a cap of 1 ("—" if it is never refused)."""
    huge = dict.fromkeys(("a_max", "b_max", "n_max", "k_max", "radius"), 10**6)
    try:
        suites.build_suite(name, **huge, cap=1)
    except CapExceededError as exc:
        return re.fullmatch(r"\S+\(.*\) brings the (.+?) to \S+, over the cap of 1", str(exc))[1]
    return "—"


def test_cost_table_matches_the_suites():
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| ([^|]+?) \|", README.read_text(encoding="utf-8"), re.M)
    assert [name for name, _ in rows] == [name for name in cli.SUITE_NAMES if name != "all"]
    for name, unit in rows:
        assert unit == refused_unit(name), name
