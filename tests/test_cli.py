"""Command-line behavior: records, formats, exit codes, determinism."""

import hashlib
import json
import subprocess
import sys
from math import gcd

import pytest

from corelattice import simplex
from corelattice.cli import _core_json_line, main


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
    code, out, err = run_cli(capsys, "enumerate", "3", "4", "--output", str(tmp_path / "missing" / "x"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


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


# sha256 of stdout, recorded before enumeration was rewritten as a stream
GOLDEN_STDOUT = [
    (("enumerate", "5", "7"), "ddc906587bee831b1afa02884a668141082986adac4a4d5cf385a5d58b7a82c5"),
    (("enumerate", "4", "9", "--format", "csv"), "7e799c49b98b343f5028fea1e3b078944acf1937b61f537c1901293e75cf6894"),
    (("enumerate", "7", "9", "--summary"), "04925e779b3b7b205582004cc3ecbb9ee71fec9c1c1dce1493f8a94defbdb3af"),
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
        (("ehrhart", "6", "--cap", "1000"), "error: Cat(6,13) = 1428 exceeds the cap of 1000\n"),
        (("ehrhart", "3", "--residue", "1", "--cap", "3"), "error: Cat(3,4) = 5 exceeds the cap of 3\n"),
    ],
    ids=["fit", "residue"],
)
def test_ehrhart_checks_the_cap_on_the_closed_form_count(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err == message


def test_core_json_line_matches_the_encoder():
    seen_empty = seen_negative = False
    for a in range(2, 8):
        for b in range(1, 14):
            if gcd(a, b) != 1:
                continue
            spec = simplex.SimplexSpec(a, b)
            for z, charges in simplex.iter_cores(spec):
                record = simplex.core_record(spec, charges, z)
                expected = json.dumps({"type": "core", **record}, separators=(",", ":"))
                assert _core_json_line(record) == expected
                seen_empty |= record["partition"] == []
                seen_negative |= min(charges) < 0
    assert seen_empty and seen_negative


def test_enumerate_summary_honours_csv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "3", "4", "--summary", "--format", "csv")
    assert code == 0
    assert out == "# count=5 total_size=10 average_size=2\n"


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
    real = simplex.enumerate_cores

    def counted(spec, cap=simplex.DEFAULT_CAP):
        calls.append((spec.a, spec.b))
        return real(spec, cap)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("corelattice") and getattr(module, "enumerate_cores", None) is real:
            monkeypatch.setattr(module, "enumerate_cores", counted)
    code, out, _ = run_cli(capsys, "poly", "5", "12")
    assert code == 0 and json.loads(out)["qt_specialization"] is True
    assert calls == [(5, 12)]


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


def test_verify_streams_the_records_before_an_exceeded_cap(capsys):
    # Cat(2,3) = 2 and Cat(2,5) = 3 fit under the cap, Cat(3,4) = 5 does not
    code, out, err = run_cli(capsys, "verify", "anderson", "--a-max", "3", "--b-max", "5", "--cap", "4")
    assert code == 3 and err.endswith("exceeds the cap of 4\n")
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["params"] for r in records] == [{"a": 2, "b": 3}, {"a": 2, "b": 5}]


@pytest.mark.parametrize("suite", ["armstrong", "self-conjugate"])
def test_fold_suites_stop_at_an_exceeded_cap_after_the_records_before_it(capsys, suite):
    # the (a,b) walk is memoised per run, but the cap is still checked at each check
    code, out, err = run_cli(capsys, "verify", suite, "--a-max", "3", "--b-max", "5", "--cap", "4")
    assert code == 3 and err.endswith("\nerror: Cat(3,4) = 5 exceeds the cap of 4\n")
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["params"], r["pass"]) for r in records] == [({"a": 2, "b": 3}, True), ({"a": 2, "b": 5}, True)]


def test_verify_exploration_suite_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "unimodality", "--a-max", "3", "--b-max", "8")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert all(rec.get("exploration") for rec in lines[:-1])


def test_verify_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "nonsense"])
    assert excinfo.value.code == 2


def test_perm_command(capsys):
    code, out, _ = run_cli(capsys, "perm", "3")
    report = json.loads(out)
    assert report["total"] == 6
    assert report["sizmaj2"] and report["ld_weights"] and report["sqin"]
    assert [0, 0, "1"] in report["distribution"]


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


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "corelattice.cli", "enumerate", "2", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.count('"type":"core"') == 2
