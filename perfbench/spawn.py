"""Run one command and record its wall time, peak RSS and exit code.

Usage: python3 perfbench/spawn.py RESULT_OUT PROGRAM ARG...

The child's standard streams are this process's.  RESULT_OUT receives
``{"wall": seconds, "maxrss_kib": n, "code": exit code}``.  The benchmark
starts commands through this small process because Linux carries a
process's peak RSS across fork and exec: a child started directly by the
benchmark, which holds the generated inputs in memory, would report the
benchmark's own peak RSS.
"""

import json
import os
import sys
import time


def main() -> None:
    result_out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    with open(result_out, "w", encoding="utf-8") as fh:
        json.dump({"wall": wall, "maxrss_kib": usage.ru_maxrss, "code": code}, fh)
    sys.exit(code if code >= 0 else 128 - code)


if __name__ == "__main__":
    main()
