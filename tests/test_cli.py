"""Command-line behavior: records, formats, exit codes, determinism."""

import gc
import hashlib
import importlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

from corelattice import cli, ehrhart, perms, qpoly, qt, simplex, suites
from corelattice.cli import _core_json_line, _ratio_text, main
from corelattice.errors import FitValidationError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_records_and_footer(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "3", "4")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    cores = [rec for rec in lines if rec["type"] == "core"]
    footer = lines[-1]
    assert len(cores) == 5
    assert footer == {
        "type": "summary",
        "count": 5,
        "total_size": 10,
        "average_size": "2",
        "average_size_expected": "2",
    }
    assert {tuple(rec["partition"]) for rec in cores} == {(), (1,), (2,), (1, 1), (3, 1, 1)}
    for rec in cores:
        assert rec["co_skew_length"] == 3 - rec["skew_length"]


def test_ratio_text_is_the_fraction_string():
    for n in range(-30, 100):
        for d in range(1, 50):
            assert _ratio_text(n, d) == str(Fraction(n, d)), (n, d)


# the grid includes integral averages: (2,1) -> "0", (3,4) -> "2", (5,9) -> "20"
@pytest.mark.parametrize("a,b", [(a, b) for a in range(2, 7) for b in range(1, 10) if gcd(a, b) == 1])
def test_enumerate_footer_averages_are_the_fraction_strings(capsys, a, b):
    code, out, _ = run_cli(capsys, "enumerate", str(a), str(b), "--summary")
    footer = json.loads(out)
    count, total = footer["count"], footer["total_size"]
    assert code == 0 and footer["average_size"] == str(Fraction(total, count))
    assert footer["average_size_expected"] == str(simplex.armstrong_average(a, b))
    code, out, _ = run_cli(capsys, "enumerate", str(a), str(b), "--summary", "--format", "csv")
    assert code == 0 and out == f"# count={count} total_size={total} average_size={Fraction(total, count)}\n"


def test_enumerate_rejects_non_coprime(capsys):
    code, out, err = run_cli(capsys, "enumerate", "4", "6")
    assert code == 2
    assert "coprime" in err


def test_enumerate_cap_exit(capsys, monkeypatch):
    monkeypatch.setenv("CORELATTICE_CAP", "3")
    code, _, err = run_cli(capsys, "enumerate", "3", "4")
    assert code == 3
    assert "exceeds the cap" in err


def test_bad_env_cap_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CORELATTICE_CAP", "soon")
    code, _, err = run_cli(capsys, "enumerate", "3", "4")
    assert code == 2


def test_explicit_cap_flag(capsys):
    code, _, err = run_cli(capsys, "enumerate", "3", "4", "--cap", "4")
    assert code == 3


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_nonpositive_cap_flag_is_usage_error(capsys, cap):
    code, out, err = run_cli(capsys, "enumerate", "3", "4", "--cap", cap)
    assert code == 2 and out == ""
    assert err == "error: --cap must be positive\n"


def test_nonpositive_env_cap_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CORELATTICE_CAP", "0")
    code, _, err = run_cli(capsys, "enumerate", "3", "4")
    assert code == 2
    assert err == "error: CORELATTICE_CAP must be positive\n"


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run_cli(capsys, "enumerate", "3", "4", "--output", str(target))
    assert code == 2 and out == ""
    assert err == f"error: cannot write the output: {target}: No such file or directory\n"


CLI = [sys.executable, "-m", "corelattice.cli"]
linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux pipe and device semantics")
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # stdout buffered, as by default


def assert_one_error_line(err: str):
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and errors[0].startswith("error: cannot write the output: "), err
    assert "Traceback" not in err and "Exception ignored" not in err


@linux_only
def test_closed_pipe_exits_two_without_traceback(tmp_path):
    err_path = tmp_path / "stderr"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen([*CLI, "enumerate", "7", "24"], stdout=subprocess.PIPE, stderr=err, env=BUFFERED)
        first = proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 2
    assert json.loads(first)["type"] == "core"
    assert_one_error_line(err_path.read_text())


@linux_only
@needs_dev_full
@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "3", "4"],
        ["enumerate", "3", "4", "--output", "/dev/full"],
        ["verify", "anderson"],  # its records are still buffered when the final flush fails
    ],
    ids=" ".join,
)
def test_full_device_exits_two_without_traceback(argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run([*CLI, *argv], stdout=full, stderr=subprocess.PIPE, text=True, env=BUFFERED)
    assert proc.returncode == 2
    assert_one_error_line(proc.stderr)


def test_usage_error_leaves_existing_output_untouched(tmp_path, capsys):
    target = tmp_path / "cores.jsonl"
    target.write_text("precious")
    code, out, err = run_cli(capsys, "enumerate", "4", "6", "--output", str(target))
    assert code == 2 and out == "" and "coprime" in err
    assert target.read_text() == "precious"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "sizmaj2", "--n-max", "3"),
        ("perm", "3"),
        ("ehrhart", "3"),
        ("search-age", "2"),
    ],
    ids=lambda argv: argv[0],
)
def test_format_is_rejected_where_not_honoured(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--format", "csv"])
    assert excinfo.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_internal_assertion_exits_one_without_traceback(capsys, monkeypatch):
    real = simplex.rational_catalan
    monkeypatch.setattr(simplex, "rational_catalan", lambda a, b: real(a, b) + 1)
    code, out, err = run_cli(capsys, "enumerate", "3", "4")
    assert code == 1
    assert err.startswith("error: ") and "closed-form count" in err and "Traceback" not in err
    # records may stream out before the end-of-stream count check fails; the footer never comes
    assert all(json.loads(line)["type"] == "core" for line in out.splitlines())


def test_a_held_out_sample_that_contradicts_a_fit_exits_one(capsys, monkeypatch):
    # a FitValidationError is a ValueError, but a failed check and not a usage error
    real = ehrhart.core_moments

    def perturbed(spec):
        count, total = real(spec)
        return count + (spec.b == 17), total  # b = 17 is the last of the nine b the fit at a = 4 samples

    monkeypatch.setattr(ehrhart, "core_moments", perturbed)
    with pytest.raises(FitValidationError):
        ehrhart.fit_core_polynomials(4)
    code, out, err = run_cli(capsys, "ehrhart", "4")
    assert code == 1 and out == ""
    assert err.startswith("error: held-out sample at t=17 gives ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_an_off_by_one_size_form_fails_the_per_core_check(capsys, monkeypatch):
    real = simplex.size_of_charges
    monkeypatch.setattr(simplex, "size_of_charges", lambda a, c: real(a, c) + 1)
    code, out, err = run_cli(capsys, "enumerate", "3", "4")
    assert code == 1
    assert err == "error: assertion failed: the quadratic form must equal the core size\n"
    assert out == ""  # the first core fails, before any batch is written


# sha256 of stdout, recorded before enumeration was rewritten as a stream
GOLDEN_STDOUT = [
    (("enumerate", "5", "7"), "ddc906587bee831b1afa02884a668141082986adac4a4d5cf385a5d58b7a82c5"),
    (("enumerate", "4", "9", "--format", "csv"), "7e799c49b98b343f5028fea1e3b078944acf1937b61f537c1901293e75cf6894"),
    (("enumerate", "7", "9", "--summary"), "04925e779b3b7b205582004cc3ecbb9ee71fec9c1c1dce1493f8a94defbdb3af"),
    # recorded before each core's statistics moved onto one beta-set bitset; poly 6 19 scores cat_qt on it
    (("enumerate", "7", "17"), "bfe46322aae94237dab3b1cc3d2522b773519c572ee051aa69b5977a4d220f04"),
    (("enumerate", "5", "16", "--format", "csv"), "e643f7a72110590457540dd4f2ec7d61f06502334a438f567a132c77d6886890"),
    (("poly", "6", "19"), "67354e7aa4d38c15f5230e13ed5918d3d0a6829b6c68441048b9b7cb2c67a88d"),
    # recorded while --summary still built every core's record
    (("enumerate", "2", "20001", "--summary"), "a3fe52496fa41ca2d239d655cb985b4d1bf2b33ec441aad54a444c8d12b0f687"),
    (
        ("enumerate", "2", "20001", "--summary", "--format", "csv"),
        "cd512162428d2bc6b53d1bbf6807c072949088bd7dd68c5dc1e5b84bdd3e3f43",
    ),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUT)
def test_enumerate_stdout_is_byte_identical(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# sha256 of stdout, recorded before the fit moved from the enumeration onto the moment recursion
GOLDEN_EHRHART_STDOUT = [
    (("ehrhart", "6"), "6e5af01caa8971458505d90c18a7cad1bccfd5962f5ce13d7fb317f7b40eb88b"),
    (("ehrhart", "8"), "22fb04f834d473f9bab0290e63f0fb73575c0068703d9bace6d5a85a68f28096"),
    (("ehrhart", "3", "--residue", "1", "--samples", "6"), "26bf4177a15954445ca2537cf6774a10b749de38d6040b0fb0de29d65cffbba9"),
    # --residue alone takes 6 samples
    (("ehrhart", "3", "--residue", "1"), "26bf4177a15954445ca2537cf6774a10b749de38d6040b0fb0de29d65cffbba9"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_EHRHART_STDOUT)
def test_ehrhart_stdout_is_byte_identical(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# sha256 of the full stdout, recorded before the checks became module-level functions run in one serial loop
GOLDEN_VERIFY_AND_POLY_STDOUT = [
    (("verify", "all"), "3c9c2820179a9474adf4f924f614c24409a54fe24564fdba6cdc681296e59a7b"),
    (("verify", "oracle"), "a7157da042c21aa7eaeb0148dcde173d067c2207c4494b2ed7d0fecd785699a3"),
    (("verify", "moments"), "84c9f8187203dd892a71ebbb5f15b7920edc931e940eea0a5b115696cd077ca1"),
    (("poly", "5", "12"), "a48b61e9a127a505faa2f70a37de2a8acf5ce2058a70aeda645e8eef7b527612"),
    (("poly", "7", "17"), "11a678ee495a3b50872ed7d19409b58170050d720b2862ad3b84a934f5817b37"),
    (("poly", "4", "9", "--format", "csv"), "aecb2aa4bfae05ea1ed1f47581718e54a7d04771fe430250ad288fe2d3e2dd1a"),
    # recorded while the suite still clamped a to at most 5: the default bounds print the same 19 checks
    (("verify", "qt-symmetry"), "455790a9f366b8094504d80e496d8a619e61d9662d9244d7aba861c440124791"),
    # recorded before the left-decreasing code weights moved onto the one walk of S_n
    (("perm", "6"), "75a8e5a95a14a818bb4ff9163cb4229a727af3224d710035bdabab55e307c407"),
    (("perm", "7"), "ec1550c72f8a418dc7adcfe762708078b7a3c7eed130bc1ca2e7afe4ab3fefe5"),
    # the largest n whose walk fits in the tier-1 time; `perm 9` is pinned in CI
    (("perm", "8"), "6add62aa48adb2553db2baef34cca532af1f2b7da732d5a886aabf43290a1c66"),
]


@pytest.mark.parametrize(
    "argv,digest", GOLDEN_VERIFY_AND_POLY_STDOUT, ids=[" ".join(argv) for argv, _ in GOLDEN_VERIFY_AND_POLY_STDOUT]
)
def test_verify_and_poly_stdout_is_byte_identical(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,message",
    [
        # the fit of a = 6 samples b = 1, 5, 7, ..., 29, 31: 5 * (2 + 6 + 8 + ... + 30 + 32) = 960 steps
        (
            ("ehrhart", "6", "--cap", "959"),
            "error: the moment recursion at a=6 takes 960 steps up to b=31, over the cap of 959\n",
        ),
        # (a-1)(b+1) = 4 steps at the first b
        (
            ("ehrhart", "3", "--residue", "1", "--cap", "3"),
            "error: the moment recursion at a=3 takes 4 steps up to b=1, over the cap of 3\n",
        ),
        (
            ("ehrhart", "3", "--residue", "1", "--samples", "100000000000"),
            "error: the moment recursion at a=3 takes 10004654 steps up to b=5476, over the cap of 10000000\n",
        ),
    ],
    ids=["fit", "residue", "residue-before-the-b-list"],
)
def test_ehrhart_caps_the_moment_recursion_steps(capsys, monkeypatch, argv, message):
    monkeypatch.delenv("CORELATTICE_CAP", raising=False)
    calls = []
    monkeypatch.setattr(ehrhart, "core_moments", lambda spec: calls.append(spec))
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err == message
    assert calls == []  # refused before the recursion runs at any b


def test_ehrhart_cap_equal_to_the_steps_is_not_exceeded(capsys):
    code, out, _ = run_cli(capsys, "ehrhart", "6", "--cap", "960")
    assert code == 0 and hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_EHRHART_STDOUT[0][1]
    code, out, _ = run_cli(capsys, "ehrhart", "3", "--residue", "1", "--samples", "1", "--cap", "4")
    assert code == 0 and out == '{"a":3,"residue":1,"counts":[[1,1]],"size_sums":[[1,0]]}\n'


def test_ehrhart_refuses_a_huge_a_before_drawing_its_b_values(capsys, monkeypatch):
    # the a + 5 sample values of b are drawn one at a time, so the first one already passes the cap
    monkeypatch.delenv("CORELATTICE_CAP", raising=False)
    code, out, err = run_cli(capsys, "ehrhart", str(10**4000))
    assert (code, out) == (3, "")
    assert err == "error: the moment recursion at a=a 4001-digit number takes a 4001-digit number steps up to b=1, over the cap of 10000000\n"


def test_core_json_line_matches_the_encoder():
    seen_empty = seen_negative = False
    for a in range(2, 8):
        for b in range(1, 14):
            if gcd(a, b) != 1:
                continue
            spec = simplex.SimplexSpec(a, b)
            for z, charges in simplex.iter_cores(spec):
                r = simplex.core_record(spec, charges, z)
                record = dict(zip(simplex.CORE_FIELDS, r))
                expected = json.dumps({"type": "core", **record}, separators=(",", ":"))
                assert _core_json_line(r) == expected
                seen_empty |= record["partition"] == []
                seen_negative |= min(charges) < 0
    assert seen_empty and seen_negative


def test_enumerate_summary_honours_csv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "3", "4", "--summary", "--format", "csv")
    assert code == 0
    assert out == "# count=5 total_size=10 average_size=2\n"


def test_enumerate_summary_builds_no_record(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("--summary must not build a record")

    monkeypatch.setattr(simplex, "core_record", refuse)
    code, out, err = run_cli(capsys, "enumerate", "5", "12", "--summary")
    assert (code, err, json.loads(out)["count"]) == (0, "", 364)
    code, out, err = run_cli(capsys, "enumerate", "5", "12", "--summary", "--format", "csv")
    assert (code, err) == (0, "") and out.startswith("# count=364 ")
    assert run_cli(capsys, "enumerate", "3", "4")[0] == 1  # the record path still reaches it


def test_verify_honours_explicit_zero_bounds(capsys):
    code, out, _ = run_cli(capsys, "verify", "quadratic", "--radius", "0", "--a-max", "3")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["params"] for r in records[:-1]] == [{"a": 2, "radius": 0}, {"a": 3, "radius": 0}]
    code, out, _ = run_cli(capsys, "verify", "anderson", "--a-max", "0")
    assert code == 0
    assert json.loads(out) == {"type": "summary", "suite": "anderson", "checks": 0, "failures": 0}


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "quadratic", "--radius", "-1"),
        ("verify", "anderson", "--a-max", "-1"),
        ("verify", "anderson", "--b-max", "-3"),
        ("verify", "sizmaj2", "--n-max", "-1"),
        ("verify", "coset-identities", "--k-max", "-1"),
        ("verify", "anderson", "--jobs", "0"),
        ("verify", "anderson", "--jobs", "-2"),
        ("ehrhart", "3", "--residue", "1", "--samples", "-1"),
        ("ehrhart", "3", "--residue", "1", "--samples", "0"),
        ("ehrhart", "0"),
        ("ehrhart", "1", "--residue", "1"),
    ],
    ids=" ".join,
)
def test_out_of_range_options_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ") and "must be >= " in err


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "2", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "charges,z,partition,size,length,skew_length,co_skew_length"
    assert lines[1] == "0 0,1 2,,0,0,0,1"
    assert lines[-1] == "# count=2 total_size=1 average_size=1/2"


def test_enumerate_deterministic(capsys):
    _, first, _ = run_cli(capsys, "enumerate", "4", "7")
    _, second, _ = run_cli(capsys, "enumerate", "4", "7")
    assert first == second


def test_output_file(tmp_path, capsys):
    target = tmp_path / "cores.jsonl"
    code, out, _ = run_cli(capsys, "enumerate", "2", "5", "--output", str(target))
    assert code == 0 and out == ""
    lines = target.read_text().strip().splitlines()
    assert len(lines) == 4  # three cores plus the footer


def test_poly_report(capsys):
    code, out, _ = run_cli(capsys, "poly", "3", "4")
    assert code == 0
    report = json.loads(out)
    assert report["catalan"] == 5
    assert report["cat_q"] == [[0, "1"], [2, "1"], [3, "1"], [4, "1"], [6, "1"]]
    assert report["qt_symmetric"] is True
    assert report["qt_specialization"] is True
    assert report["cat_qt"] == [
        [0, 3, "1"],
        [1, 1, "1"],
        [1, 2, "1"],
        [2, 1, "1"],
        [3, 0, "1"],
    ]
    assert all(entry["unimodal"] for entry in report["unimodality"])


def test_poly_walks_the_simplex_once(capsys, monkeypatch):
    calls = []
    real = simplex.iter_cores

    def counted(spec, cap=simplex.DEFAULT_CAP):
        calls.append((spec.a, spec.b))
        return real(spec, cap)

    importlib.import_module("corelattice.qt")  # load it before the patch, so that its binding is restored after
    for module in list(sys.modules.values()):
        if module.__name__.startswith("corelattice") and getattr(module, "iter_cores", None) is real:
            monkeypatch.setattr(module, "iter_cores", counted)
    code, out, _ = run_cli(capsys, "poly", "5", "12")
    assert code == 0 and json.loads(out)["qt_specialization"] is True
    assert calls == [(5, 12)]


def test_poly_checks_the_cap_before_any_q_polynomial(capsys, monkeypatch):
    def refuse(a, b):
        raise AssertionError("cat_q was built before the cap was checked")

    monkeypatch.setattr(qpoly, "cat_q", refuse)
    code, out, err = run_cli(capsys, "poly", "90", "91")
    assert code == 3 and out == ""
    assert err.startswith("error: Cat(90,91) = ") and err.endswith(" exceeds the cap of 10000000\n")


@pytest.mark.parametrize("command", ["enumerate", "poly"])
def test_a_cat_past_the_int_string_limit_is_named_by_its_digit_count(capsys, command):
    # Cat(7200,7201) has 4,329 digits, past the 4,300 that str() of an int allows
    code, out, err = run_cli(capsys, command, "7200", "7201")
    assert code == 3 and out == ""
    assert err == "error: Cat(7200,7201) = a 4329-digit number exceeds the cap of 10000000\n"


@pytest.mark.parametrize("argv", [["poly", "2", "999"], ["poly", "2", "5001"], ["search-age", "2", "--b-list", "999"]])
def test_long_q_binomials_exit_zero_without_traceback(argv):
    proc = subprocess.run([sys.executable, "-m", "corelattice.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["a"] == 2


def test_poly_trivial_b(capsys):
    code, out, _ = run_cli(capsys, "poly", "5", "1")
    report = json.loads(out)
    assert report["catalan"] == 1
    assert report["cat_q"] == [[0, "1"]]
    assert report["cat_qt"] == [[0, 0, "1"]]


def test_poly_csv(capsys):
    code, out, _ = run_cli(capsys, "poly", "3", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    row = dict(line.split(",", 1) for line in lines[1:])
    assert json.loads(row["catalan"]) == 5


def test_verify_pass_and_records(capsys):
    code, out, err = run_cli(capsys, "verify", "sizmaj2", "--n-max", "5", "--jobs", "1")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[-1] == {"type": "summary", "suite": "sizmaj2", "checks": 5, "failures": 0}
    assert all(rec["pass"] for rec in lines[:-1])
    assert "ms" in err  # durations go to the log stream only


def test_verify_parallel_matches_serial(capsys):
    _, serial, _ = run_cli(capsys, "verify", "anderson", "--a-max", "4", "--b-max", "9", "--jobs", "1")
    _, parallel, _ = run_cli(capsys, "verify", "anderson", "--a-max", "4", "--b-max", "9", "--jobs", "4")
    assert serial == parallel


@pytest.mark.parametrize("suite", ["anderson", "armstrong", "self-conjugate"])
def test_fold_suites_refuse_an_exceeded_cap_before_any_record(capsys, suite):
    # Cat(2,3) + Cat(2,5) + Cat(3,4) + Cat(3,5) = 2 + 3 + 5 + 7 = 17 cores
    code, out, _ = run_cli(capsys, "verify", suite, "--a-max", "3", "--b-max", "5", "--cap", "17", "--summary")
    assert code == 0 and out.endswith('"checks":4,"failures":0}\n')
    code, out, err = run_cli(capsys, "verify", suite, "--a-max", "3", "--b-max", "5", "--cap", "16")
    assert (code, out, err) == (3, "", f"error: {suite}(a=3, b=5) brings the cores to 17, over the cap of 16\n")


@pytest.mark.parametrize(
    "argv,env,message",
    [
        (
            ("verify", "sizmaj1", "--a-max", "13", "--cap", "1000"),
            None,
            "sizmaj1(a=8) brings the orbifold cosets to 5913, over the cap of 1000",
        ),
        (("verify", "sizmaj1"), "152", "sizmaj1(a=6) brings the orbifold cosets to 153, over the cap of 152"),
        (
            ("verify", "quadratic", "--radius", "40", "--cap", "10000"),
            None,
            "quadratic(a=3, radius=40) brings the abacus beads to 813645, over the cap of 10000",
        ),
        (
            ("verify", "quadratic", "--a-max", "3"),
            "1304",
            "quadratic(a=3, radius=4) brings the abacus beads to 1305, over the cap of 1304",
        ),
    ],
    ids=["sizmaj1-a-max", "sizmaj1-env", "quadratic-box", "quadratic-env"],
)
def test_sizmaj1_and_quadratic_over_the_cap_are_refused_before_any_check(capsys, monkeypatch, argv, env, message):
    def walked(*args, **kwargs):
        raise AssertionError("no check may run")

    monkeypatch.setattr(qt, "check_sizmaj1", walked)
    monkeypatch.setattr(suites, "quadratic", walked)
    if env is not None:
        monkeypatch.setenv("CORELATTICE_CAP", env)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ("verify", "root-structure", "--a-max", "1000"),
            "root-structure(a=77) brings the moment-recursion steps to 10127936",
        ),
        (("verify", "root-structure", "--cap", "729"), "root-structure(a=5) brings the moment-recursion steps to 730"),
    ],
    ids=["a-max", "cap"],
)
def test_root_structure_over_the_cap_is_refused_before_any_check(capsys, monkeypatch, argv, message):
    def walked(*args, **kwargs):
        raise AssertionError("no check may run")

    monkeypatch.delenv("CORELATTICE_CAP", raising=False)
    monkeypatch.setattr(ehrhart, "check_root_structure", walked)
    code, out, err = run_cli(capsys, *argv)
    cap = argv[-1] if "--cap" in argv else "10000000"
    assert (code, out, err) == (3, "", f"error: {message}, over the cap of {cap}\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ("verify", "coset-identities", "--k-max", "100000"),
            "coset-identity-a3(k=1291, delta=0) brings the coefficients to 10005247",
        ),
        (
            ("verify", "coset-identities", "--k-max", "2", "--cap", "81"),
            "coset-identity-a4(k=2) brings the coefficients to 82",
        ),
        (
            ("verify", "all", "--k-max", "100000"),
            "coset-identity-a3(k=1291, delta=0) brings the coefficients to 10005247",
        ),
    ],
    ids=["k-max", "cap", "all"],
)
def test_coset_identities_over_the_cap_are_refused_before_any_check(capsys, monkeypatch, argv, message):
    def walked(*args, **kwargs):
        raise AssertionError("no check may run")

    monkeypatch.delenv("CORELATTICE_CAP", raising=False)
    monkeypatch.setattr(qpoly, "check_coset_identity_a3", walked)
    monkeypatch.setattr(qpoly, "check_coset_identity_a4", walked)
    start = time.monotonic()
    code, out, err = run_cli(capsys, *argv)
    assert time.monotonic() - start < 1.0
    cap = argv[-1] if "--cap" in argv else "10000000"
    assert (code, out, err) == (3, "", f"error: {message}, over the cap of {cap}\n")


def test_coset_identities_within_the_cap_keep_their_output(capsys):
    # the targets up to k = 2 hold 7 + 9 + 13 + 15 = 44 coefficients at a = 3 and 13 + 25 = 38 at a = 4
    code, out, _ = run_cli(capsys, "verify", "coset-identities", "--k-max", "2", "--cap", "82", "--summary")
    assert code == 0 and out.endswith('"checks":6,"failures":0}\n')
    code, out, _ = run_cli(capsys, "verify", "coset-identities", "--k-max", "40", "--summary")
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    # the digest perfbench/baseline.json records for this command
    assert code == 0 and digest == "b1d0b1d103b9ab91135a98de60874607984e0a9c39dcae067065e3a407357f4a"


def test_verify_keeps_nothing_once_it_ends(capsys):
    # each q-binomial dies with the check that built it: a cache across calls would grow with k past what the cap bounds
    run_cli(capsys, "verify", "coset-identities", "--k-max", "1", "--summary")  # load the modules the run imports
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code, out, _ = run_cli(capsys, "verify", "coset-identities", "--k-max", "60", "--summary")
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, '{"type":"summary","suite":"coset-identities","checks":180,"failures":0}\n')
    assert kept < 512 * 1024, kept
    assert [name for name, obj in vars(qpoly).items() if hasattr(obj, "cache_info")] == []


def test_root_structure_at_the_cap_runs(capsys):
    # the fits of a = 2 ... 5 take 56 + 112 + 270 + 292 = 730 steps
    code, out, _ = run_cli(capsys, "verify", "root-structure", "--cap", "730", "--summary")
    assert code == 0 and out.endswith('"checks":4,"failures":0}\n')


def test_sizmaj1_and_quadratic_at_the_cap_run(capsys):
    # 1! + ... + 5! = 153 cosets for a = 2 ... 6, and 2·5·9 + 3·5·9^2 = 1305 abacus beads for a = 2, 3 at radius 4
    code, out, _ = run_cli(capsys, "verify", "sizmaj1", "--cap", "153", "--summary")
    assert code == 0 and out.endswith('"checks":5,"failures":0}\n')
    code, out, _ = run_cli(capsys, "verify", "quadratic", "--a-max", "3", "--cap", "1305", "--summary")
    assert code == 0 and out.endswith('"checks":2,"failures":0}\n')


@pytest.mark.parametrize(
    "argv,total,message",
    [
        # 1 + Cat·(a²-1)(b²-1)/24 = 1 + 2·1 and 1 + 3·3 candidates at (2,3) and (2,5)
        (("verify", "oracle", "--a-max", "2", "--b-max", "5"), 13, "oracle(a=2, b=5) brings the brute-force candidates"),
        # 4a(a-1)² = 8 + 48 + 144 + 320 terms for a = 2 ... 5
        (("verify", "delta-table"), 520, "delta-table(a=5, b=11) brings the skew-length terms"),
    ],
    ids=["oracle", "delta-table"],
)
def test_oracle_and_delta_table_run_at_their_total_and_are_refused_one_below(capsys, argv, total, message):
    code, out, _ = run_cli(capsys, *argv, "--cap", str(total), "--summary")
    assert code == 0 and out.endswith('"failures":0}\n')
    code, out, err = run_cli(capsys, *argv, "--cap", str(total - 1))
    assert (code, out, err) == (3, "", f"error: {message} to {total}, over the cap of {total - 1}\n")


def test_unimodality_counts_a_read_of_each_coefficient_per_residue_class(capsys):
    # a((a-1)(b-1)+1) = 2·(1 + 3 + 5 + 7) + 3·(1 + 3 + 7 + 9 + 13 + 15) = 176 reads at b <= 8 coprime to a = 2, 3
    argv = ("verify", "unimodality", "--a-max", "3", "--b-max", "8")
    code, out, _ = run_cli(capsys, *argv, "--cap", "176", "--summary")
    assert code == 0 and out.endswith('"checks":10,"failures":0}\n')
    code, out, err = run_cli(capsys, *argv, "--cap", "175")
    message = "unimodality(a=3, b=8) brings the coefficient reads to 176, over the cap of 175"
    assert (code, out, err) == (3, "", f"error: {message}\n")


HUGE_BOUNDS = tuple(flag for key in ("a-max", "b-max", "n-max", "k-max", "radius") for flag in (f"--{key}", "1000000"))
OVERSIZED = (
    *(("verify", suite, *HUGE_BOUNDS) for suite in cli.SUITE_NAMES),
    # each of these ran past a 20 s timeout when the cap bounded one check at a time, not the run
    ("verify", "anderson", "--b-max", "100000"),
    ("verify", "self-conjugate", "--b-max", "100000"),
    ("verify", "armstrong", "--b-max", "100000"),
    ("verify", "moments", "--a-max", "4", "--b-max", "100000"),
    ("verify", "statistics", "--a-max", "3", "--b-max", "3000"),
    ("verify", "oracle", "--a-max", "3", "--b-max", "200"),
    ("verify", "qt3", "--b-max", "5000"),
    ("verify", "unimodality", "--a-max", "40", "--b-max", "400"),
    # 2,301,264 coefficients but 32,206,719 reads, a per coefficient; it ran 32 s on a 2-vCPU VM
    ("verify", "unimodality", "--a-max", "20", "--b-max", "200"),
    ("verify", "delta-table", "--a-max", "100"),
    ("verify", "root-structure", "--a-max", "1000"),
    ("verify", "coset-identities", "--k-max", "100000"),
    ("verify", "sizmaj1", "--a-max", "13"),
    # counted as charge tuples, these declared 8,001 and 11,999 and ran 23 and 25 s on a 2-vCPU VM
    ("verify", "quadratic", "--a-max", "2", "--radius", "4000"),
    ("verify", "quadratic", "--radius", "0", "--a-max", "12000"),
)


@pytest.mark.parametrize("argv", OVERSIZED, ids=lambda argv: " ".join(argv[1:]).replace(" ".join(HUGE_BOUNDS), "at 10^6"))
def test_oversized_suites_are_refused_at_once(capsys, monkeypatch, argv):
    monkeypatch.delenv("CORELATTICE_CAP", raising=False)
    start = time.monotonic()
    code, out, err = run_cli(capsys, *argv)
    assert time.monotonic() - start < 1.0
    if argv[1] == "reciprocity":  # a fixed grid of five polytopes, which no bound reaches
        assert code == 0 and out.endswith('"checks":5,"failures":0}\n')
    else:
        # a check that ran would have logged its timing on stderr before the error line
        assert (code, out) == (3, "") and err.startswith("error: ") and err.count("\n") == 1, err


def test_verify_exploration_suite_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "unimodality", "--a-max", "3", "--b-max", "8")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert all(rec.get("exploration") for rec in lines[:-1])


def test_qt_symmetry_honours_a_max(capsys):
    code, out, _ = run_cli(capsys, "verify", "qt-symmetry", "--a-max", "7")
    assert code == 0
    *records, summary = [json.loads(line) for line in out.splitlines()]
    assert summary == {"type": "summary", "suite": "qt-symmetry", "checks": 28, "failures": 0}
    assert {r["params"]["a"] for r in records} == {3, 4, 5, 6, 7}
    assert all(r.get("exploration", False) == (r["params"]["a"] > 3) for r in records)


def test_verify_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "nonsense"])
    assert excinfo.value.code == 2


def run_parser(capsys, monkeypatch, *argv):
    """``main(argv)`` for an argv that argparse itself answers: (exit code, stdout, stderr), at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    captured = capsys.readouterr()
    return excinfo.value.code, captured.out, captured.err


# sha256 of the --help stdout, recorded before the commands imported their modules on demand
GOLDEN_HELP_STDOUT = [
    ((), "94962f06c27995e2afa3346548d095507a819d12c1ba7e53765636be44401995"),
    (("enumerate",), "e1512a6720bef8b03f3f08ccc3fbdf89bb8adc879c2a5dc8c76e4011c9df3c38"),
    (("poly",), "429b9f05c618ca177f7efebd0bc63ee3aa2593c6137f782ef7e0092f97951c4c"),
    (("verify",), "ab699b0ae043a66acdb5a6dfb0f942eff0d6414744c4d8983c4ef396c872792e"),
    (("perm",), "9549f5b01d9fe08b821e188f48ee2dfda03b76e9dde20d2aede62a5636f51867"),
    (("ehrhart",), "f3df8137230e851fd890d6915aac7a8d9ca76fa47850d5657f226aed4a5920dc"),
    (("search-age",), "d6e583b35dd8bf6e191669c5ddf2d36c325d2ef72693c930d8d43f4984caa767"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_HELP_STDOUT, ids=[" ".join(("corelattice", *a)) for a, _ in GOLDEN_HELP_STDOUT])
def test_help_stdout_is_byte_identical(capsys, monkeypatch, argv, digest):
    code, out, err = run_parser(capsys, monkeypatch, *argv, "--help")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# recorded with the help pins above; argparse lists every suite name when it rejects one
GOLDEN_USAGE_STDERR = [
    (
        ("verify", "nosuch"),
        "usage: corelattice verify [-h] [--a-max A_MAX] [--b-max B_MAX] [--n-max N_MAX]\n"
        "                          [--k-max K_MAX] [--radius RADIUS] [--jobs JOBS]\n"
        "                          [--summary] [--output OUTPUT] [--cap CAP]\n"
        "                          {anderson,armstrong,self-conjugate,quadratic,oracle,moments,statistics,qt3,"
        "qt-symmetry,sizmaj1,sizmaj2,ld-weights,sqin,coset-identities,delta-table,reciprocity,root-structure,"
        "unimodality,all}\n"
        "corelattice verify: error: argument suite: invalid choice: 'nosuch' (choose from 'anderson', 'armstrong', "
        "'self-conjugate', 'quadratic', 'oracle', 'moments', 'statistics', 'qt3', 'qt-symmetry', 'sizmaj1', "
        "'sizmaj2', 'ld-weights', 'sqin', 'coset-identities', 'delta-table', 'reciprocity', 'root-structure', "
        "'unimodality', 'all')\n",
    ),
    (
        ("perm", "3", "--format", "csv"),
        "usage: corelattice [-h] {enumerate,poly,verify,perm,ehrhart,search-age} ...\n"
        "corelattice: error: unrecognized arguments: --format csv\n",
    ),
]


@pytest.mark.parametrize("argv,stderr", GOLDEN_USAGE_STDERR, ids=[" ".join(a) for a, _ in GOLDEN_USAGE_STDERR])
def test_usage_errors_are_byte_identical(capsys, monkeypatch, argv, stderr):
    assert run_parser(capsys, monkeypatch, *argv) == (2, "", stderr)


def test_perm_command(capsys):
    code, out, _ = run_cli(capsys, "perm", "3")
    report = json.loads(out)
    assert report["total"] == 6
    assert report["sizmaj2"] and report["ld_weights"] and report["sqin"]
    assert [0, 0, "1"] in report["distribution"]


def test_perm_walks_s_n_once(capsys, monkeypatch):
    calls = {"_permutations": 0, "_ld_tree": 0}
    visited = []

    def counted(name):
        original = getattr(perms, name)

        def wrapper(*args):
            calls[name] += 1
            for item in original(*args):
                visited.append(item)
                yield item

        monkeypatch.setattr(perms, name, wrapper)

    counted("_permutations")
    counted("_ld_tree")
    perms._joint_distributions.cache_clear()
    try:
        code, out, _ = run_cli(capsys, "perm", "6")
    finally:
        perms._joint_distributions.cache_clear()
    assert code == 0 and json.loads(out)["ld_weights"]
    assert calls == {"_permutations": 0, "_ld_tree": 1}
    assert len(visited) == len({sigma for sigma, *_ in visited}) == 720


def test_perm_command_respects_cap(capsys):
    code, _, err = run_cli(capsys, "perm", "11")
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("cap, code", [("100", 3), ("120", 0)])
def test_perm_honours_cap_flag(capsys, cap, code):
    # 5! = 120 permutations
    got, out, err = run_cli(capsys, "perm", "5", "--cap", cap)
    assert got == code
    if code:
        assert "cap" in err and out == ""
    else:
        assert json.loads(out)["total"] == 120


@pytest.mark.parametrize("suite", ["sizmaj2", "ld-weights", "sqin"])
def test_permutation_suites_honour_the_cap_flag(capsys, suite):
    # 1! + ... + 5! = 153 permutations; the refusal comes before any check runs
    code, out, _ = run_cli(capsys, "verify", suite, "--n-max", "5", "--cap", "153", "--summary")
    assert code == 0 and out.endswith('"checks":5,"failures":0}\n')
    code, out, err = run_cli(capsys, "verify", suite, "--n-max", "5", "--cap", "152", "--summary")
    assert (code, out, err) == (3, "", f"error: {suite}(n=5) brings the permutations to 153, over the cap of 152\n")


def test_perm_honours_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("CORELATTICE_CAP", "100")
    code, out, err = run_cli(capsys, "perm", "5")
    assert code == 3 and out == ""
    assert "cap" in err


def test_ehrhart_command(capsys):
    code, out, _ = run_cli(capsys, "ehrhart", "3")
    report = json.loads(out)
    assert report["root_structure"] is True
    assert report["average_poly"] == ["-1/3", "1/4", "1/12"]


def test_search_age_command(capsys):
    code, out, _ = run_cli(capsys, "search-age", "3", "--b-list", "4,7,10")
    assert code == 0
    report = json.loads(out)
    assert report["found"] and report["age_product_ok"]
    assert sorted(entry["shift"] for entry in report["shifts"]) == [0, 2, 4]


def test_search_age_default_blist(capsys):
    code, out, _ = run_cli(capsys, "search-age", "2")
    report = json.loads(out)
    assert report["found"] and report["b_list"] == [3, 5, 7]


@pytest.mark.parametrize("argv", [["search-age", "0"], ["search-age", "0", "--b-list", "3"]])
def test_search_age_rejects_small_a(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: a must be >= 2\n"


def test_search_age_refuses_a_census_over_the_cap_before_any_label(capsys, monkeypatch):
    def built(*args):
        raise AssertionError("no coset label may be built")

    monkeypatch.delenv("CORELATTICE_CAP", raising=False)
    with monkeypatch.context() as patched:
        patched.setattr(qpoly, "coset_labels", built)
        patched.setattr(qpoly, "coset_label", built)
        code, out, err = run_cli(capsys, "search-age", "10", "--b-list", "11")
        assert (code, out) == (3, "")
        assert err == "error: the coset census at a=10 builds 10^8 labels, over the cap of 10000000\n"
        code, out, err = run_cli(capsys, "search-age", "4", "--b-list", "5", "--cap", "15")
        assert (code, out, err) == (3, "", "error: the coset census at a=4 builds 4^2 labels, over the cap of 15\n")
    code, out, _ = run_cli(capsys, "search-age", "4", "--b-list", "5", "--cap", "16")
    assert code == 0 and json.loads(out)["found"] is False


def test_search_age_failure_still_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "search-age", "4", "--b-list", "5")
    assert code == 0
    report = json.loads(out)
    assert report["found"] is False
    assert report["reason"]


def test_enumerate_summary_flag(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "3", "4", "--summary")
    assert code == 0
    assert json.loads(out) == {
        "a": 3,
        "b": 4,
        "count": 5,
        "total_size": 10,
        "average_size": "2",
        "average_size_expected": "2",
    }


def test_verify_summary_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "ld-weights", "--n-max", "4", "--summary")
    assert code == 0
    assert json.loads(out) == {"type": "summary", "suite": "ld-weights", "checks": 4, "failures": 0}


def test_ehrhart_residue_series(capsys):
    code, out, _ = run_cli(capsys, "ehrhart", "3", "--residue", "1", "--samples", "3")
    assert code == 0
    report = json.loads(out)
    assert report["counts"] == [[1, 1], [4, 5], [7, 12]]
    assert report["size_sums"] == [[1, 0], [4, 10], [7, 66]]


@pytest.mark.parametrize("samples", ["5", "0"])
def test_ehrhart_samples_without_residue_is_a_usage_error(capsys, samples):
    code, out, err = run_cli(capsys, "ehrhart", "3", "--samples", samples)
    assert code == 2 and out == ""
    assert err == "error: --samples needs --residue\n"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "corelattice.cli", "enumerate", "2", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.count('"type":"core"') == 2
