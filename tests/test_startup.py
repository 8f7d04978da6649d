"""What each command loads: a command imports only the modules it runs, and the package loads its names on use.

The import sets are read in a fresh interpreter per case, which runs
``corelattice.cli`` as ``python -m`` does and then lists the ``corelattice``
entries of ``sys.modules``.
"""

import json
import subprocess
import sys

import pytest

import corelattice

PROBE = """
import io, json, runpy, sys
sys.argv = ["corelattice", *sys.argv[1:]]
sys.stdout, code = io.StringIO(), None
try:
    runpy.run_module("corelattice.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
loaded = sorted(m.partition(".")[2] for m in sys.modules if m.startswith("corelattice."))
report = {"code": code, "loaded": loaded, "package": "corelattice" in sys.modules, "modules": sorted(sys.modules)}
print(json.dumps(report), file=sys.__stdout__)
"""

ENUMERATE_SET = ["abacus", "errors", "partitions", "simplex"]
EVERY_MODULE = ["abacus", "ehrhart", "errors", "partitions", "perms", "polys", "qpoly", "qt", "simplex", "suites"]


def loaded_by(*argv):
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "argv,loaded",
    [
        (("enumerate", "2", "1", "--summary"), ENUMERATE_SET),
        (("ehrhart", "4"), sorted([*ENUMERATE_SET, "ehrhart"])),
        (("search-age", "2", "--b-list", "3"), sorted([*ENUMERATE_SET, "polys", "qpoly"])),
        # a check imports the modules it runs when it runs: a build that draws no check loads none of them
        (("verify", "anderson", "--a-max", "0"), sorted([*ENUMERATE_SET, "suites"])),
        (("verify", "oracle", "--a-max", "2", "--b-max", "3"), sorted([*ENUMERATE_SET, "suites"])),
        (("verify", "coset-identities", "--k-max", "1"), sorted([*ENUMERATE_SET, "polys", "qpoly", "suites"])),
        (("verify", "all", "--a-max", "3", "--b-max", "4", "--n-max", "1", "--k-max", "1"), EVERY_MODULE),
        # the parser and the cap read only ``errors``: the brute force over S_n walks no simplex
        (("perm", "4"), ["errors", "perms", "polys"]),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else None,
)
def test_each_command_loads_only_its_modules(argv, loaded):
    probe = loaded_by(*argv)
    assert (probe["code"], probe["loaded"], probe["package"]) == (0, loaded, True)


def test_enumerate_loads_no_dataclasses_or_fractions():
    # a site .pth may load some of these before any corelattice code runs: count only what the command adds
    bare = subprocess.run(
        [sys.executable, "-c", "import json, sys; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True,
        text=True,
        check=True,
    )
    # ehrhart fits in Fraction, but its coefficient tuples need neither dataclasses nor inspect;
    # the age search and the permutation brute force evaluate no polynomial
    for argv, unwanted in (
        (("enumerate", "2", "1", "--summary"), {"dataclasses", "inspect", "fractions", "decimal"}),
        (("ehrhart", "4"), {"dataclasses", "inspect"}),
        (("search-age", "2", "--b-list", "3"), {"dataclasses", "inspect", "fractions", "decimal"}),
        (("perm", "4"), {"fractions", "decimal"}),
        (("verify", "oracle", "--a-max", "2", "--b-max", "3"), {"fractions", "decimal"}),
        (("verify", "coset-identities", "--k-max", "1"), {"fractions", "decimal"}),
    ):
        probe = loaded_by(*argv)
        assert probe["code"] == 0, argv
        added = set(probe["modules"]) - set(json.loads(bare.stdout))
        assert not added & unwanted, argv


def test_importing_the_package_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, corelattice; print([m for m in sys.modules if m.startswith('corelattice')])"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "['corelattice']\n"


EXPORTS = [name for name in corelattice.__all__ if name != "__version__"]


@pytest.mark.parametrize("name", EXPORTS)
def test_each_export_is_its_home_modules_object(name):
    obj = getattr(corelattice, name)
    home = sys.modules[obj.__module__]
    assert home.__name__ == f"corelattice.{corelattice._HOMES[name]}"
    assert getattr(home, name) is obj


def test_an_export_follows_its_home_modules_binding(monkeypatch):
    home = sys.modules[corelattice.cat_q.__module__]
    sentinel = object()
    monkeypatch.setattr(home, "cat_q", sentinel)
    assert corelattice.cat_q is sentinel


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from corelattice import *", namespace)
    assert set(corelattice.__all__) <= namespace.keys()
    assert namespace["__version__"] == corelattice.__version__
    assert set(corelattice.__all__) <= set(dir(corelattice))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
        corelattice.nosuch
    with pytest.raises(ImportError):
        exec("from corelattice import nosuch", {})
