"""Command-line surface: enumeration, polynomials, verification, search.

Record streams are JSON Lines by default; ``enumerate`` and ``poly`` take
``--format csv`` for delimited output with a documented header, and the
other commands reject ``--format``.  Data records are byte-deterministic for
a fixed configuration; timings go to stderr only.  ``enumerate`` writes its
records as it walks the simplex, and ``verify`` writes each check's record
as the check ends (the checks run serially, whatever ``--jobs`` says), so a
failed internal check can leave partial output; an exceeded cap leaves none.

A command imports only the modules it runs, at the top of its function:
``enumerate`` and the parser load ``simplex`` and what it imports
(``abacus``, ``errors``, ``partitions``), and ``verify`` loads every module
through ``suites``.

Exit codes: 0 success, 1 assertion failure (a verify suite, an internal
check, or held-out samples that contradict a fit), 2 usage or validation
error, or output that cannot be written, 3 cap exceeded.
``CORELATTICE_CAP`` overrides the default cap of 10^7 cores enumerated (permutations for ``perm``, recursion steps for
``ehrhart``, coset labels for ``search-age``); ``verify`` sums its checks' costs per unit: cores, brute-force
candidates, abacus beads, orbifold cosets, moment-recursion steps, permutations, coefficients, skew-length terms.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from math import gcd

from .errors import DISTRIBUTION_CAP, CapExceededError, FitValidationError
from .simplex import (
    CORE_FIELDS,
    DEFAULT_CAP,
    SimplexSpec,
    armstrong_ratio,
    core_fold,
    core_record,
    iter_cores,
    rational_catalan,
)

# the choices of ``verify``, ``suites.SUITES`` and "all" (a test pins the two together): argparse reads the
# choices while the parser is built, and importing ``suites`` would load every module for every command
SUITE_NAMES = (
    "anderson", "armstrong", "self-conjugate", "quadratic", "oracle", "moments", "statistics", "qt3", "qt-symmetry",
    "sizmaj1", "sizmaj2", "ld-weights", "sqin", "coset-identities", "delta-table", "reciprocity", "root-structure",
    "unimodality", "all",
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3

WRITE_BATCH = 512  # enumerate records per write

_JSON = json.JSONEncoder(separators=(",", ":"))


def _json_line(obj) -> str:
    return _JSON.encode(obj)


def _env_cap() -> int:
    raw = os.environ.get("CORELATTICE_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"CORELATTICE_CAP must be an integer, got {raw!r}") from exc
    return _positive_cap(cap, "CORELATTICE_CAP")


def _positive_cap(cap: int, source: str) -> int:
    if cap <= 0:
        raise ValueError(f"{source} must be positive")
    return cap


class _LazyOutput:
    """``--output``, opened (and truncated) on the first write: a usage error leaves the file untouched."""

    def __init__(self, path):
        self.path, self.fh = path, None

    def write(self, text):
        if self.fh is None:
            self.fh = open(self.path, "w", encoding="utf-8")
        return self.fh.write(text)


def _ratio_text(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for ``d > 0``, without loading ``fractions``."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def _ints_csv(values) -> str:
    return " ".join(str(v) for v in values)


def _core_json_line(r: tuple) -> str:
    """``_json_line({"type": "core", **dict(zip(CORE_FIELDS, r))})`` written out directly: every field is an int or a list of ints."""
    return (
        '{"type":"core","charges":%s,"z":%s,"partition":%s,"size":%d,"length":%d,"skew_length":%d,"co_skew_length":%d}'
        % r
    ).replace(" ", "")


def cmd_enumerate(args, out) -> int:
    """Stream one record per core, then the footer, in a single pass over :func:`iter_cores`.

    ``--summary`` folds the walk (:func:`core_fold`) and builds no record: its sizes come from the quadratic
    form, which :func:`core_record` checks against the parts wherever records are printed.
    """
    spec = SimplexSpec(args.a, args.b)
    if args.summary:
        count, total, _, _ = core_fold(spec, args.cap)
    else:
        csv_rows = args.format == "csv"
        # the CSV header goes out with the first batch, after the cap check has passed
        batch = [",".join(CORE_FIELDS) + "\n"] if csv_rows else []
        count = total = 0
        for z, charges in iter_cores(spec, args.cap):
            r = core_record(spec, charges, z)
            count += 1
            total += r[3]
            if csv_rows:
                line = ",".join((_ints_csv(r[0]), _ints_csv(r[1]), _ints_csv(r[2]), *map(str, r[3:])))
            else:
                line = _core_json_line(r)
            batch.append(line + "\n")
            if len(batch) >= WRITE_BATCH:
                out.write("".join(batch))
                batch.clear()
        out.write("".join(batch))
    average = _ratio_text(total, count)
    if args.format == "csv":
        print(f"# count={count} total_size={total} average_size={average}", file=out)
        return EXIT_OK
    footer = {
        **({"a": args.a, "b": args.b} if args.summary else {"type": "summary"}),
        "count": count,
        "total_size": total,
        "average_size": average,
        "average_size_expected": _ratio_text(*armstrong_ratio(args.a, args.b)),
    }
    print(_json_line(footer), file=out)
    return EXIT_OK


def cmd_poly(args, out) -> int:
    import csv

    from . import qpoly, qt

    spec = SimplexSpec(args.a, args.b)
    catqt = qt.cat_qt(spec, args.cap)  # the one walk of the simplex, which checks the cap first
    catq = qpoly.cat_q(args.a, args.b)
    report = {
        "a": args.a,
        "b": args.b,
        "catalan": rational_catalan(args.a, args.b),
        "cat_q": catq.to_rows(),
        "cat_qt": catqt.to_rows(),
        "qt_symmetric": qt.check_symmetry(catqt),
        "qt_specialization": qt.check_specialization(spec, catqt),
        "unimodality": [
            {"residue": r.residue, "coefficients": list(r.coefficients), "unimodal": r.unimodal}
            for r in qpoly.unimodality_report(catq, args.a)
        ],
    }
    if args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in report.items():
            writer.writerow([key, json.dumps(value, separators=(",", ":"))])
    else:
        print(_json_line(report), file=out)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    """Run the checks one after another, writing each record and its timing as soon as it ends.

    ``--jobs`` is validated but changes nothing: the checks run serially.
    """
    from . import suites

    if args.jobs is not None and args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    checks = suites.build_suite(
        args.suite,
        a_max=args.a_max,
        b_max=args.b_max,
        n_max=args.n_max,
        k_max=args.k_max,
        radius=args.radius,
        cap=args.cap,
    )
    failures = 0
    for check in checks:
        start = time.monotonic()
        ok, detail = check.run()
        elapsed = time.monotonic() - start
        record = {"check": check.name, "params": check.params, "pass": ok}
        if check.exploration:
            record["exploration"] = True
        if detail is not None:
            record["detail"] = detail
        if not args.summary:
            print(_json_line(record), file=out)
        print(f"[corelattice] {check.name} {check.params} in {elapsed*1000:.1f}ms", file=sys.stderr)
        if not ok and not check.exploration:
            failures += 1
    summary = {"suite": args.suite, "checks": len(checks), "failures": failures}
    print(_json_line({"type": "summary", **summary}), file=out)
    return EXIT_OK if failures == 0 else EXIT_FAIL


def cmd_perm(args, out) -> int:
    from . import perms

    perms.require_walk_within(args.n, args.cap)
    dist = perms.distribution(args.n)
    report = {
        "n": args.n,
        "distribution": dist.to_rows(),
        "total": dist.total(),
        "sizmaj2": perms.check_sizmaj2(args.n),
        "ld_weights": perms.check_ld_weights(args.n),
        "sqin": perms.check_sqin_relation(args.n),
    }
    print(_json_line(report), file=out)
    return EXIT_OK


def cmd_ehrhart(args, out) -> int:
    from . import ehrhart

    if args.samples is not None and args.residue is None:
        raise ValueError("--samples needs --residue")
    if args.residue is not None:
        samples = 6 if args.samples is None else args.samples
        if samples < 1:
            raise ValueError(f"--samples must be >= 1, got {samples}")
        series = sorted(ehrhart.core_series(args.a, args.residue, samples, cap=args.cap).items())
        report = {
            "a": args.a,
            "residue": args.residue % args.a,
            "counts": [[b, n] for b, (n, _) in series],
            "size_sums": [[b, total] for b, (_, total) in series],
        }
        print(_json_line(report), file=out)
        return EXIT_OK
    f, g, p = ehrhart.fit_core_polynomials(args.a, cap=args.cap)
    report = {
        "a": args.a,
        "count_poly": [str(c) for c in f],
        "size_sum_poly": [str(c) for c in g],
        "average_poly": [str(c) for c in p],
        "root_structure": ehrhart.root_structure_ok(args.a, f, g, p),
    }
    print(_json_line(report), file=out)
    return EXIT_OK


def cmd_search_age(args, out) -> int:
    from . import qpoly

    if args.b_list:
        try:
            b_list = [int(v) for v in args.b_list.split(",") if v.strip()]
        except ValueError as exc:
            raise ValueError(f"--b-list must be a comma-separated integer list: {exc}") from exc
    else:
        b_list = [args.a * j + 1 for j in range(1, 4)]
    result = qpoly.search_age_function(args.a, b_list, cap=args.cap)
    report = {
        "a": result.a,
        "b_list": list(result.b_list),
        "found": result.found,
        "age_product_ok": result.age_product_ok,
        "reason": result.reason,
        "shifts": (
            [
                {"coset": list(lab), "shift": s, "simplex_size": result.simplex_sizes[lab]}
                for lab, s in sorted(result.shifts.items())
            ]
            if result.found
            else None
        ),
    }
    print(_json_line(report), file=out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corelattice",
        description="Simultaneous (a,b)-core partitions as lattice points: "
        "enumeration, statistics, polynomials, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=False):
        if formats:
            p.add_argument("--format", choices=("json", "csv"), default="json", help="record format")
        p.add_argument("--output", default=None, help="output path (default: stdout)")
        cap_help = "cap on the cores enumerated (permutations for perm and its suites), or on the ehrhart recursion steps"
        p.add_argument("--cap", type=int, default=None, help=f"{cap_help} (default: CORELATTICE_CAP or 10^7)")

    p_enum = sub.add_parser("enumerate", help="list all (a,b)-cores with their statistics")
    p_enum.add_argument("a", type=int)
    p_enum.add_argument("b", type=int)
    p_enum.add_argument("--summary", action="store_true", help="emit the summary object only")
    common(p_enum, formats=True)
    p_enum.set_defaults(fn=cmd_enumerate)

    p_poly = sub.add_parser("poly", help="q- and (q,t)-Catalan polynomials and verdicts")
    p_poly.add_argument("a", type=int)
    p_poly.add_argument("b", type=int)
    common(p_poly, formats=True)
    p_poly.set_defaults(fn=cmd_poly)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    p_verify.add_argument("--a-max", type=int, default=None)
    p_verify.add_argument("--b-max", type=int, default=None)
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.add_argument("--k-max", type=int, default=None)
    p_verify.add_argument("--radius", type=int, default=None, help="charge box radius for the quadratic suite")
    p_verify.add_argument("--jobs", type=int, default=None, help="accepted for compatibility; checks run serially")
    p_verify.add_argument("--summary", action="store_true", help="emit the summary object only")
    common(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    p_perm = sub.add_parser("perm", help="permutation statistic distribution and identities")
    p_perm.add_argument("n", type=int, help=f"walks all n! permutations; n <= {DISTRIBUTION_CAP}, n! <= --cap")
    common(p_perm)
    p_perm.set_defaults(fn=cmd_perm)

    p_ehr = sub.add_parser("ehrhart", help="fit the core count/size polynomials for a modulus")
    p_ehr.add_argument("a", type=int)
    p_ehr.add_argument("--residue", type=int, default=None, help="emit the raw series for one residue class instead")
    p_ehr.add_argument("--samples", type=int, default=None, help="series length for --residue (default 6)")
    common(p_ehr)
    p_ehr.set_defaults(fn=cmd_ehrhart)

    p_age = sub.add_parser("search-age", help="search for coset shifts decomposing cat_q")
    p_age.add_argument("a", type=int)
    p_age.add_argument("--b-list", default=None, help="comma-separated b values (one residue class mod a)")
    common(p_age)
    p_age.set_defaults(fn=cmd_search_age)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    to_stdout = args.output in (None, "-")
    try:
        args.cap = _env_cap() if args.cap is None else _positive_cap(args.cap, "--cap")
        if to_stdout:
            try:
                return args.fn(args, sys.stdout)
            finally:
                sys.stdout.flush()
        out = _LazyOutput(args.output)
        try:
            return args.fn(args, out)
        finally:
            if out.fh is not None:
                out.fh.close()
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except FitValidationError as exc:  # a ValueError, but a failed check rather than a usage error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"error: assertion failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:  # opening, writing or closing the output failed: a missing directory, a full disk
        reason = f"{exc.filename}: {exc.strerror}" if exc.filename else exc.strerror or exc
        print(f"error: cannot write the output: {reason}", file=sys.stderr)
        if to_stdout:
            # what stdout still buffers would fail again in the interpreter's flush at exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
