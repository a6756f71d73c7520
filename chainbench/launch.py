"""Run one command; write its wall time, exit code and peak resident set.

    python3 -S chainbench/launch.py REPORT DEADLINE_S PROGRAM [ARGS...]

REPORT gets one line: wall seconds, exit code (negative: killed by that
signal) and ru_maxrss in KiB. The benchmark starts every command through
this small process because on Linux a child's ru_maxrss is at least the
peak resident set of the process it was forked from: forked by the
benchmark itself, whose checks hold the workload's tables, a command would
report the benchmark's memory instead of its own. A command still running
after DEADLINE_S seconds is killed; this process always waits for it.
"""

import os
import signal
import sys
import time


def main(argv) -> int:
    report, deadline, command = argv[0], float(argv[1]), argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawn(command[0], command, os.environ)
    signal.signal(signal.SIGALRM, lambda signum, frame: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, max(deadline, 0.001))
    _, status, usage = os.wait4(pid, 0)
    wall_s = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    with open(report, "w", encoding="utf-8") as fh:
        fh.write(f"{wall_s!r} {os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
