"""The benchmark's workloads: fixed pools of CLI commands, picked by seed.

Why each workload exists is recorded in ``BENCHMARK.json`` and README.md.

Every variant in a pool was measured to cost about the same (wall time and
peak memory), so a seed changes the inputs without changing the size of
the work.  Seed ``HELD_OUT_SEED`` picks a variant that no other seed picks:
keep it out of tuning and use it to confirm a claimed gain.  Its variant
need not cost the same as the pool's, since a claim compares two commits
on the same seed.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

HELD_OUT_SEED = 7919


@dataclass(frozen=True)
class Workload:
    name: str
    pool: tuple  # variants the ordinary seeds choose from
    held_out: object  # the variant only HELD_OUT_SEED picks
    build: object  # (variant, rng) -> list of argv lists, run in order
    layers: tuple[str, ...]  # layers the traced run must see spans from

    def variant(self, seed: int):
        if seed == HELD_OUT_SEED:
            return self.held_out
        return self.pool[random.Random(seed).randrange(len(self.pool))]

    def commands(self, seed: int) -> list[list[str]]:
        return self.build(self.variant(seed), random.Random(f"{self.name}:{seed}"))


def _verify_jobs() -> list[str]:
    """``verify`` defaults to one thread per CPU; never exceed the CPUs this process may use."""
    usable = len(os.sched_getaffinity(0))
    return [] if (os.cpu_count() or 1) <= usable else ["--jobs", str(usable)]


def _enumerate_records(pair, rng) -> list[list[str]]:
    a, b = pair
    return [["enumerate", str(a), str(b)]]


def _algebra(b_list, rng) -> list[list[str]]:
    commands = [
        ["search-age", "5", "--b-list", "6,11,16"],
        ["search-age", "5", "--b-list", b_list],
        ["perm", "8"],
        ["verify", "coset-identities", "--k-max", "40", "--summary"],
    ]
    rng.shuffle(commands)
    return commands


VERIFY_SWEEP = (
    ["verify", "all", "--summary"],
    ["verify", "oracle", "--summary"],
    ["ehrhart", "6"],
)


def _verify_sweep(order, rng) -> list[list[str]]:
    commands = [list(VERIFY_SWEEP[i]) for i in order]
    commands[order.index(0)] += _verify_jobs()
    return commands


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="enumerate-records",
            # Cat(a,b) = 84825, 82225, 81719: about 10 s and 100 MB each on a 2-CPU machine.
            # a = 5 keeps longer partitions (Cat(5,53) = 79002 needs 146 MB) and no a = 6 pair
            # has Cat near 8e4 (62832 at b = 31, 109668 at b = 35), so neither is in the pool.
            pool=((7, 24), (8, 19), (9, 16)),
            held_out=(5, 49),
            build=_enumerate_records,
            layers=("cli", "simplex", "abacus", "partitions"),
        ),
        Workload(
            name="algebra",
            # The README's 6,11,16 is the expensive search (about 2 s); the second list is one
            # of the cheap solvable lists of the other residue classes (0.2-0.4 s each).
            pool=("7,12,17", "8,13,18", "9,14,19", "12,17", "14,19", "16,21", "11,16,21"),
            held_out="1,6,11,16",
            build=_algebra,
            layers=("cli", "suites", "qpoly", "polys", "perms", "simplex", "abacus"),
        ),
        Workload(
            name="verify-sweep",
            # nothing to vary but the order of the three commands
            pool=((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1)),
            held_out=(2, 1, 0),
            build=_verify_sweep,
            layers=("cli", "suites", "simplex", "abacus", "partitions", "qt", "polys", "qpoly",
                    "ehrhart", "perms"),
        ),
    )
}
