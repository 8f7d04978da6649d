"""Output checks for the benchmark's CLI commands, from closed forms.

This module deliberately does not import ``corelattice``: every expected
value is computed here from the published formulas, so a defect in the
package cannot hide behind the package's own helpers.

``check(argv, stdout)`` returns ``(problems, facts)``: a list of readable
problems (empty when the output is correct) and a dict of facts read off
the output, such as the number of cores it reports.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial, gcd

TRACEBACK_MARK = "Traceback (most recent call last)"


def rational_catalan(a: int, b: int) -> int:
    return comb(a + b, a) // (a + b)


def average_size(a: int, b: int) -> Fraction:
    return Fraction((a + b + 1) * (a - 1) * (b - 1), 24)


def average_poly(a: int) -> list[Fraction]:
    """Coefficients in b of ``(a+b+1)(a-1)(b-1)/24``, constant term first."""
    return [Fraction(-(a * a - 1), 24), Fraction(a * (a - 1), 24), Fraction(a - 1, 24)]


def _eval(coeffs: list[Fraction], x: int) -> Fraction:
    return sum((c * x**i for i, c in enumerate(coeffs)), Fraction(0))


def _lines(stdout: bytes) -> list[dict]:
    return [json.loads(line) for line in stdout.decode("utf-8").splitlines() if line]


def _option(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def check_enumerate(argv: list[str], stdout: bytes) -> tuple[list[str], dict]:
    a, b = int(argv[1]), int(argv[2])
    count = rational_catalan(a, b)
    average = average_size(a, b)
    records = _lines(stdout)
    if not records:
        return ["no output"], {}
    summary = records[-1]
    problems = []
    if summary.get("count") != count:
        problems.append(f"count {summary.get('count')} != Cat({a},{b}) = {count}")
    if summary.get("average_size") != str(average):
        problems.append(f"average_size {summary.get('average_size')} != {average}")
    if summary.get("total_size") != count * average:
        problems.append(f"total_size {summary.get('total_size')} != {count * average}")
    if "--summary" not in argv:
        problems += _check_core_records(a, b, records[:-1], summary)
    return problems, {"cores": summary.get("count", 0)}


def _check_core_records(a: int, b: int, cores: list[dict], summary: dict) -> list[str]:
    """Per-record invariants that need no abacus: sizes, lengths, z-coordinates."""
    problems = []
    if summary.get("type") != "summary":
        problems.append("last line is not the summary")
    if len(cores) != summary.get("count"):
        problems.append(f"{len(cores)} core records but the summary says {summary.get('count')}")
    half = (a - 1) * (b - 1) // 2
    seen = set()
    total = 0
    for r in cores:
        p, z, c = r["partition"], r["z"], r["charges"]
        total += r["size"]
        seen.add(tuple(c))
        if (
            r["type"] != "core"
            or r["size"] != sum(p)
            or r["length"] != len(p)
            or r["skew_length"] + r["co_skew_length"] != half
            or len(c) != a
            or sum(c) != 0
            or len(z) != a
            or sum(z) != b
            or sum(i * v for i, v in enumerate(z)) % a
        ):
            problems.append(f"inconsistent core record {r}")
            break
    if len(seen) != len(cores):
        problems.append("duplicate charge vectors")
    if total != summary.get("total_size"):
        problems.append(f"record sizes sum to {total}, summary says {summary.get('total_size')}")
    return problems


def check_search_age(argv: list[str], stdout: bytes) -> tuple[list[str], dict]:
    a = int(argv[1])
    b_list = sorted(int(v) for v in _option(argv, "--b-list").split(","))
    (report,) = _lines(stdout)
    problems = []
    if report.get("found") is not True:
        problems.append(f"search not found: {report.get('reason')}")
    if report.get("age_product_ok") is not True:
        problems.append("age product check is not true")
    if report.get("b_list") != b_list:
        problems.append(f"b_list {report.get('b_list')} != {b_list}")
    shifts = report.get("shifts") or []
    if len(shifts) != a ** (a - 2):
        problems.append(f"{len(shifts)} coset shifts, expected {a ** (a - 2)}")
    # each coset holds a simplex of binom(m + a-1, a-1) cores at the largest b
    census = sum(comb(s["simplex_size"] + a - 1, a - 1) for s in shifts if s["simplex_size"] >= 0)
    if census != rational_catalan(a, b_list[-1]):
        problems.append(f"coset census {census} != Cat({a},{b_list[-1]})")
    return problems, {}


def check_perm(argv: list[str], stdout: bytes) -> tuple[list[str], dict]:
    n = int(argv[1])
    (report,) = _lines(stdout)
    problems = []
    if report.get("total") != factorial(n):
        problems.append(f"total {report.get('total')} != {n}!")
    if sum(int(c) for _, _, c in report.get("distribution", [])) != factorial(n):
        problems.append(f"distribution does not sum to {n}!")
    for key in ("sizmaj2", "ld_weights", "sqin"):
        if report.get(key) is not True:
            problems.append(f"{key} is not true")
    return problems, {}


def check_verify(argv: list[str], stdout: bytes) -> tuple[list[str], dict]:
    summary = _lines(stdout)[-1]
    problems = []
    if summary.get("type") != "summary" or summary.get("suite") != argv[1]:
        problems.append(f"unexpected summary {summary}")
    if summary.get("failures") != 0:
        problems.append(f"{summary.get('failures')} failed checks")
    if not summary.get("checks"):
        problems.append("no checks ran")
    return problems, {}


def check_ehrhart(argv: list[str], stdout: bytes) -> tuple[list[str], dict]:
    a = int(argv[1])
    (report,) = _lines(stdout)
    problems = []
    if [Fraction(c) for c in report.get("average_poly", [])] != average_poly(a):
        problems.append(f"average_poly {report.get('average_poly')} != {average_poly(a)}")
    if report.get("root_structure") is not True:
        problems.append("root_structure is not true")
    count_poly = [Fraction(c) for c in report.get("count_poly", [])]
    size_poly = [Fraction(c) for c in report.get("size_sum_poly", [])]
    for b in (v for v in range(a + 1, 4 * a) if gcd(a, v) == 1):
        n = rational_catalan(a, b)
        if _eval(count_poly, b) != n or _eval(size_poly, b) != n * average_size(a, b):
            problems.append(f"fitted polynomials disagree with the closed forms at b={b}")
            break
    return problems, {}


CHECKERS = {
    "enumerate": check_enumerate,
    "search-age": check_search_age,
    "perm": check_perm,
    "verify": check_verify,
    "ehrhart": check_ehrhart,
}


def check(argv: list[str], stdout: bytes) -> tuple[list[str], dict]:
    """Check one command's stdout; malformed output is a problem, not a crash."""
    try:
        return CHECKERS[argv[0]](argv, stdout)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], {}
