"""Spawns the benchmark's commands from a small process.

On Linux a child's ru_maxrss counts the memory of the process it was spawned
from, up to exec. run.py holds numpy, sympy and the oracles' tables, so
commands spawned there would report its size as theirs; spawned from here
they report their own peak (this process is far smaller than any CLI run).

Protocol: one JSON request per stdin line, {"argv", "stdout", "stderr"}
(the latter two are file paths); one JSON reply per stdout line,
{"t0", "wall_s", "cpu_s", "maxrss_kb", "returncode"}. Exits at end of input.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"t0": t0, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                          "maxrss_kb": usage.ru_maxrss, "returncode": proc.returncode}), flush=True)


if __name__ == "__main__":
    main()
