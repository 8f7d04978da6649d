"""The CLI contract over generated argv: every subcommand exits 0, 1, 2 or 3, and no exception escapes.

Each example runs ``cli.main`` in-process with small values, often a small
``--cap``, and invalid inputs (negative numbers, ``--format xml``, an
unknown suite, a malformed ``--b-list`` or ``--cap``).  argparse answers a
usage error with ``SystemExit(2)``, which counts as exit 2.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from corelattice import cli
from corelattice.cli import SUITE_NAMES, main

EXIT_CODES = {0, 1, 2, 3}


def maybe(values):
    return st.none() | values


SMALL = st.integers(-2, 4)
# mostly left out, so that most examples get past the parser
FORMATS = st.sampled_from([None, None, None, "json", "csv", "xml"])
CAPS = st.sampled_from([None, None, None, "-1", "0", "1", "5", "100", "10000", "x"])
B_LISTS = st.lists(st.integers(-3, 30), max_size=4).map(lambda bs: ",".join(map(str, bs))) | st.sampled_from(["x,1", ","])

# command -> (its positionals, its options); a ``True`` option is a bare flag, ``None`` or ``False`` leaves it out
COMMANDS = {
    # Cat(7,13) = 3876: the largest walk here, whatever the cap
    "enumerate": (st.tuples(st.integers(-2, 7), st.integers(-2, 13)), {"--summary": st.booleans()}),
    "poly": (st.tuples(st.integers(-2, 6), st.integers(-2, 13)), {}),
    "verify": (
        st.tuples(st.sampled_from([*SUITE_NAMES, "nosuch"])),
        {
            "--a-max": maybe(SMALL),
            "--b-max": maybe(st.integers(-2, 9)),
            "--n-max": maybe(SMALL),
            "--k-max": maybe(SMALL),
            "--radius": maybe(st.integers(-2, 2)),
            "--jobs": maybe(st.integers(-1, 3)),
            "--summary": st.booleans(),
        },
    ),
    "perm": (st.tuples(st.integers(-3, 7)), {}),
    "ehrhart": (st.tuples(st.integers(-3, 12)), {"--residue": maybe(st.integers(-3, 12)), "--samples": maybe(st.integers(-2, 6))}),
    # a <= 4: at a = 5 a single usable b (--b-list 18, or 16,1) spends the default budget of 500,000 search nodes,
    # about 50 s each, before it reports "inconclusive"
    "search-age": (st.tuples(st.integers(-3, 4)), {"--b-list": maybe(B_LISTS)}),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    positionals, options = COMMANDS[command]
    argv = [command, *map(str, draw(positionals))]
    for flag, values in {**options, "--format": FORMATS, "--cap": CAPS}.items():
        value = draw(values)
        if value is True:
            argv.append(flag)
        elif value not in (None, False):
            argv += [flag, str(value)]
    return argv


def run(argv):
    """``main(argv)`` with stdout and stderr captured: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=500, deadline=None)
@given(argvs())
def test_every_generated_argv_exits_with_a_contract_code(argv):
    code, err = run(argv)
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err, argv
    if code == 2:
        assert "error:" in err, argv


def test_the_contract_covers_every_subcommand_and_each_kind_of_invalid_input():
    assert set(COMMANDS) == {"enumerate", "poly", "verify", "perm", "ehrhart", "search-age"}
    assert run(["verify", "nosuch"])[0] == 2
    assert run(["enumerate", "3", "4", "--format", "xml"])[0] == 2
    assert run(["perm", "-3"])[0] == 2
    assert run(["enumerate", "7", "13", "--cap", "5"])[0] == 3


def test_running_out_of_memory_is_one_error_line_and_exit_3(monkeypatch):
    def exhausted(args, out):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_poly", exhausted)
    code, err = run(["poly", "2", "3"])
    assert code == 3
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert "Traceback" not in err
