"""Run CLI commands in-process, optionally traced layer by layer.

Usage (the benchmark spawns this; PYTHONPATH must reach ``corelattice``):

    python perfbench/tracer.py --commands '[["enumerate","3","4"]]' [--trace] [--spans FILE]

Each command runs through ``corelattice.cli.main(argv)`` with stdout
captured and checked by ``checks.check``.  The last stdout line is one JSON
object with the per-command verdicts and, with ``--trace``, the per-layer
metrics.

Tracing wraps, from outside the package, every public function and every
public or dunder method of every class defined in the layer modules, and
rebinds every module attribute that names a wrapped function (the package
imports names such as ``enumerate_cores`` into several modules).  A call
opens a span when it enters another layer than its caller's, or when it is
a phase function (``PHASES``); other calls inside a layer are only counted
and their time falls to the enclosing span.  A span records its id, parent,
command id, name, start and end; a span's self time is its duration minus
the time its child spans cover, and it is charged to the span's layer under
the innermost enclosing phase.  Generator functions are not wrapped: their
work happens in the consumer, which is charged for it.  Under the verify
thread pool a span's time includes waiting for the interpreter lock.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import io
import itertools
import json
import sys
import threading
import time
import traceback
from array import array
from hashlib import sha256
from math import comb
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

LAYERS = ("cli", "suites", "simplex", "abacus", "partitions", "qt", "polys", "qpoly", "ehrhart", "perms")

# phase functions always open a span; their self time, and that of the
# non-phase spans beneath them, is reported under the phase's name
PHASES = {
    "cli.main": "command",
    "suites.check": "check",
    "simplex.enumerate_cores": "enumerate",
    "simplex.core_record": "core_record",
    "abacus.core_from_charges": "core_from_charges",
    "partitions.skew_length": "skew_length",
    "partitions.brute_force_simultaneous_cores": "brute_force",
    "qt.length_from_x": "stats",
    "qt.skew_length_from_x": "stats",
    "qt.co_skew_length_from_x": "stats",
    "qpoly.search_age_function": "search_age",
    "qpoly._classify_cosets": "census",
    "ehrhart.fit_core_polynomials": "fit",
}
TAGS = ("other", *sorted(set(PHASES.values())))

# what is kept of each call of these, as (command id, value)
OBSERVED = {
    "simplex.enumerate_cores": lambda args, kwargs, result: (args[0].a, args[0].b),
    "ehrhart.fit_core_polynomials": lambda args, kwargs, result: (args, tuple(sorted(kwargs.items()))),
    "qpoly.search_age_function": lambda args, kwargs, result: result.found,
}

# never wrapped: attribute plumbing, and methods only a debugger calls
SKIPPED_METHODS = {"__getattribute__", "__getattr__", "__setattr__", "__delattr__", "__repr__",
                   "__init_subclass__", "__class_getitem__"}


class _ThreadState:
    """Spans and counters of one thread; merged when the run ends."""

    def __init__(self, n_names: int):
        self.stack: list[list] = []
        self.counts = [0] * n_names
        self.self_time = [0.0] * (len(LAYERS) * len(TAGS))
        self.observed: dict[str, list] = {}
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_cmd = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.phase_of: list[int] = []
        self.cmd = 0  # id of the command being run
        self.root = 0  # span id of the running command's root span
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._frozen = False

    # -- registration -------------------------------------------------

    def _name_id(self, name: str) -> int:
        if self._frozen:
            raise RuntimeError("names must be registered before the first call")
        layer = name.split(".", 1)[0]
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        self.phase_of.append(TAGS.index(PHASES[name]) if name in PHASES else -1)
        return len(self.names) - 1

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(len(self.names))
            with self._lock:
                self._frozen = True
                self._states.append(state)
            self._local.state = state
            return state

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped so that each call is counted and, at a layer boundary, spanned."""
        nid = self._name_id(name)
        layer, phase = self.layer_of[nid], self.phase_of[nid]
        n_tags = len(TAGS)
        state_of, clock, ids, tracer = self._state, time.perf_counter, self._ids, self
        is_root = name == "cli.main"

        def traced(*args, **kwargs):
            st = state_of()
            st.counts[nid] += 1
            stack = st.stack
            if stack:
                parent = stack[-1]
                if phase < 0 and parent[1] == layer:
                    return fn(*args, **kwargs)
                tag = phase if phase >= 0 else parent[2]
                parent_id = parent[0]
            else:  # a command's root, or the top of a verify worker thread
                parent = None
                tag = max(phase, 0)
                parent_id = 0 if is_root else tracer.root
            frame = [next(ids), layer, tag, 0.0]
            if is_root and parent is None:
                tracer.root = frame[0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[3] += duration
                if not (is_root and parent is None):  # a root's self time needs every thread
                    st.self_time[layer * n_tags + tag] += duration - frame[3]
                st.span_id.append(frame[0])
                st.span_parent.append(parent_id)
                st.span_cmd.append(tracer.cmd)
                st.span_name.append(nid)
                st.span_start.append(start)
                st.span_end.append(end)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.traced_as = name
        return traced

    def observe(self, fn, name: str, record):
        """Wrap ``fn`` so that ``record(args, kwargs, result)`` is kept for each call."""
        tracer = self

        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer._state().observed.setdefault(name, []).append((tracer.cmd, record(args, kwargs, result)))
            return result

        return observed

    # -- installation -------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"corelattice.{layer}") for layer in LAYERS}
        replaced: dict[int, tuple[object, object]] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif callable(obj) and (not attr.startswith("_") or name in PHASES):
                    if inspect.isgeneratorfunction(inspect.unwrap(obj)):
                        continue
                    replaced[id(obj)] = (obj, self.wrap(self._instrument(name, obj), name))
        self._wrap_permutations(modules["perms"])
        package = [m for n, m in sys.modules.items() if n == "corelattice" or n.startswith("corelattice.")]
        for module in package:
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
        self._check_no_stale_references(package, {id(orig): orig for orig, _ in replaced.values()})

    def _instrument(self, name: str, fn):
        """Give the few functions whose arguments or results feed a metric an observer."""
        if name == "suites.build_suite":
            run_check = self.wrap(lambda run: run(), "suites.check")

            def build_suite(*args, **kwargs):
                # checks keep their work in closures, not module attributes: wrap each one
                return [dataclasses.replace(c, run=lambda run=c.run: run_check(run)) for c in fn(*args, **kwargs)]

            return build_suite
        record = OBSERVED.get(name)
        return fn if record is None else self.observe(fn, name, record)

    def _wrap_class(self, layer: str, cls: type):
        for attr, obj in list(vars(cls).items()):
            if attr in SKIPPED_METHODS or (attr.startswith("_") and not attr.endswith("__")):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, attr, type(obj)(self.wrap(obj.__func__, name)))
            elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                setattr(cls, attr, self.wrap(obj, name))

    def _wrap_permutations(self, perms_module):
        """Count the permutations the brute force visits, as ``perms.permutations_visited``."""
        nid = self._name_id("perms.permutations_visited")
        original = perms_module._permutations
        state_of = self._state

        def counted(*args):
            visited = 0
            try:
                for sigma in original(*args):
                    visited += 1
                    yield sigma
            finally:
                state_of().counts[nid] += visited

        perms_module._permutations = counted

    def _check_no_stale_references(self, modules, originals: dict[int, object]):
        """Fail if any module attribute, module-level container or default still holds an unwrapped function."""
        def stale(value):
            return id(value) in originals and originals[id(value)] is value

        for module in modules:
            for attr, value in vars(module).items():
                inner = []
                if isinstance(value, (list, tuple, set, frozenset)):
                    inner = list(value)
                elif isinstance(value, dict):
                    inner = list(value.values())
                elif inspect.isfunction(value) and not hasattr(value, "traced_as"):
                    inner = list(value.__defaults__ or ()) + list((value.__kwdefaults__ or {}).values())
                    inner += list(inspect.getclosurevars(value).nonlocals.values())
                if stale(value) or any(stale(v) for v in inner):
                    raise RuntimeError(f"{module.__name__}.{attr} still refers to an unwrapped function")

    # -- results -------------------------------------------------------

    def spans(self):
        """Yield every span as (id, parent, cmd, name, start, end), thread by thread, as they ended."""
        for st in self._states:
            yield from zip(st.span_id, st.span_parent, st.span_cmd,
                           (self.names[n] for n in st.span_name), st.span_start, st.span_end)

    def metrics(self) -> dict:
        counts = [0] * len(self.names)
        self_time = [0.0] * (len(LAYERS) * len(TAGS))
        observed: dict[str, list] = {}
        for st in self._states:
            counts = [x + y for x, y in zip(counts, st.counts)]
            self_time = [x + y for x, y in zip(self_time, st.self_time)]
            for name, values in st.observed.items():
                observed.setdefault(name, []).extend(values)
        self_time[LAYERS.index("cli") * len(TAGS) + TAGS.index("command")] += self._root_self_time()

        def count(name):
            return sum(n for nm, n in zip(self.names, counts) if nm == name or nm.startswith(name + "."))

        def spent(layer, tag=None):
            base = LAYERS.index(layer) * len(TAGS)
            if tag is None:
                return sum(self_time[base : base + len(TAGS)])
            return self_time[base + TAGS.index(tag)]

        def ratio(num, den):
            return num / den if den else 0.0

        enum = observed.get("simplex.enumerate_cores", [])
        fits = observed.get("ehrhart.fit_core_polynomials", [])
        searches = observed.get("qpoly.search_age_function", [])
        m = {f"{layer}.self_s": spent(layer) for layer in LAYERS}
        m.update({
            "suites.checks": count("suites.check"),
            "suites.check_self_s": spent("suites", "check"),
            "simplex.enumerate_calls": len(enum),
            "simplex.enumerate_self_s": spent("simplex", "enumerate"),
            # computed from the call arguments: cores kept over z-vectors walked
            "simplex.z_useful_ratio": ratio(sum(checks.rational_catalan(a, b) for _, (a, b) in enum),
                                            sum(comb(a + b - 1, a - 1) for _, (a, b) in enum)),
            "simplex.distinct_ab_ratio": ratio(len(set(enum)), len(enum)),
            "simplex.core_record_self_s": spent("simplex", "core_record"),
            "abacus.core_from_charges_self_s": spent("abacus", "core_from_charges"),
            "abacus.objects_built": count("abacus.ChargeVector.__init__") + count("abacus.ShiftedPoint.__init__"),
            "partitions.skew_length_self_s": spent("partitions", "skew_length"),
            "partitions.brute_force_self_s": spent("partitions", "brute_force"),
            "qt.stats_self_s": spent("qt", "stats"),
            "qt.cat_qt_calls": count("qt.cat_qt"),
            "polys.ops": count("polys"),
            "qpoly.search_age_self_s": spent("qpoly", "search_age"),
            "qpoly.census_self_s": spent("qpoly", "census"),
            "qpoly.search_found_ratio": ratio(sum(1 for _, found in searches if found), len(searches)),
            "perms.permutations_visited": count("perms.permutations_visited"),
            "ehrhart.fit_calls": len(fits),
            "ehrhart.fit_useful_ratio": ratio(len(set(fits)), len(fits)),
        })
        span_counts = {layer: 0 for layer in LAYERS}
        for st in self._states:
            for n in st.span_name:
                span_counts[LAYERS[self.layer_of[n]]] += 1
        m["trace.spans"] = sum(span_counts.values())
        return {"metrics": m, "spans_per_layer": span_counts}

    def _root_self_time(self) -> float:
        """Each command's root span minus the union of its children, whichever thread ran them."""
        roots = {sid: (start, end) for sid, _, _, name, start, end in self.spans() if name == "cli.main"}
        children: dict[int, list] = {sid: [] for sid in roots}
        for _, parent, _, _, start, end in self.spans():
            if parent in children:
                children[parent].append((start, end))
        total = 0.0
        for sid, (start, end) in roots.items():
            covered, reach = 0.0, start
            for s, e in sorted(children[sid]):
                s = max(s, reach)
                if e > s:
                    covered += e - s
                    reach = e
            total += (end - start) - covered
        return total


def _run(commands, trace: bool, spans_path: str | None) -> dict:
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    cli = importlib.import_module("corelattice.cli")
    results = []
    wall = 0.0
    for cmd, argv in enumerate(commands, start=1):
        if tracer is not None:
            tracer.cmd = cmd
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects a usage error this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # any crash is one failed command, reported with its traceback
            traceback.print_exc(file=err)
            rc = 1
        finally:
            wall += time.perf_counter() - start
            sys.stdout, sys.stderr = saved
        stdout = out.getvalue().encode("utf-8")
        problems, facts = checks.check(argv, stdout)
        results.append({
            "argv": argv, "rc": rc, "bytes": len(stdout), "sha256": sha256(stdout).hexdigest(),
            "traceback": checks.TRACEBACK_MARK in err.getvalue(), "problems": problems, "facts": facts,
        })
    report = {"wall_s": wall, "commands": results}
    if tracer is not None:
        report.update(tracer.metrics())
        if spans_path:
            with open(spans_path, "w", encoding="utf-8") as fh:
                fh.write("id\tparent\tcmd\tname\tstart_s\tend_s\n")
                for row in tracer.spans():
                    fh.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % row)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commands", required=True, help="JSON list of CLI argv lists")
    parser.add_argument("--trace", action="store_true", help="wrap the layers and record spans")
    parser.add_argument("--spans", default=None, help="write the spans here as TSV")
    args = parser.parse_args(argv)
    report = _run(json.loads(args.commands), args.trace, args.spans)
    print(json.dumps(report, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
