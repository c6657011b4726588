"""Run one command and print its exit code, wall time and rusage as JSON.

Usage: python launch.py TIMEOUT_S CMD...

The command runs in the current directory with stdout to stdout.csv and
stderr to stderr.txt.  This launcher exists so that the measured command is
spawned by a small process: Linux folds the address-space high-water mark
of the process that execs into the new program's ru_maxrss, so a command
spawned straight from the benchmark (numpy loaded, oracle matrices built)
would report the benchmark's peak RSS instead of its own.  Keep this module
free of heavy imports for the same reason.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main(argv):
    timeout, cmd = float(argv[0]), argv[1:]
    with open("stdout.csv", "wb") as out, open("stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "returncode": proc.returncode,
        "wall_s": wall,
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
