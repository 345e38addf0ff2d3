"""Run one command as a child process; report its wall time and its own peak memory.

Usage: python3 bench/spawn.py TIMEOUT_S COMMAND [ARGS...]

Prints one JSON object with ``returncode``, ``wall_s`` and ``maxrss_kib`` and
exits with the command's exit code. The command's standard output is
discarded; its standard error passes through.

On Linux a process's peak resident size starts at the peak of the address
space it was exec'd from, so a child started directly by the benchmark, which
holds replicasim, NumPy and SciPy, would report at least the benchmark's own
size. This launcher is small: a command started from it reports its own peak.
"""
import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    timeout_s, cmd = float(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"returncode": proc.returncode, "wall_s": wall_s, "maxrss_kib": usage.ru_maxrss}))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
