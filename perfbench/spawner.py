"""Start the benchmark's child processes from a process that stays small.

Linux reports as a child's max RSS at least the peak RSS of the process
that spawned it (the counter survives fork and exec), so children started
by the benchmark itself, which holds and parses large outputs, would read
as large as it.  This process is started first, while the benchmark is
still small, and never holds more than one chunk of output.

Protocol: one JSON request per stdin line,
``{"argv": [...], "stdout": path, "timeout": seconds}``; for each, the
child's stdout is copied to ``path`` and one JSON line is answered with
``rc``, ``timed_out``, ``wall_s``, ``first_s`` (spawn to the first complete
stdout line), ``rss_mb``, ``cpu_s`` and ``traceback`` (a Python traceback
on stderr; stderr is read for nothing else).  Exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time

# the same mark as checks.TRACEBACK_MARK; this process imports nothing of the benchmark
TRACEBACK_MARK = b"Traceback (most recent call last)"


def run(argv: list, stdout_path: str, timeout: float) -> dict:
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    first_s = None
    with open(stdout_path, "wb") as fh:
        while chunk := proc.stdout.read1(1 << 16):
            if first_s is None and b"\n" in chunk:
                first_s = time.perf_counter() - start
            fh.write(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    timer.cancel()
    drain.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {
        "rc": proc.returncode,
        "timed_out": killed.is_set(),
        "wall_s": wall,
        "first_s": wall if first_s is None else first_s,
        "rss_mb": usage.ru_maxrss / 1024,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "traceback": TRACEBACK_MARK in err[0],
    }


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        result = run(request["argv"], request["stdout"], request["timeout"])
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
