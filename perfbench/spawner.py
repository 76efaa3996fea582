"""Run commands one at a time and report each one's time and resource use.

run.py writes one JSON request per line to stdin:
{"argv", "cwd", "env", "stdout", "stderr"}; for each, this process spawns the
command with its output sent to the two files, waits for it with `wait4`,
and prints one JSON line: {"exit", "wall_s", "cpu_s", "peak_rss_mb"}.

The spawning is done here, in a process that stays small, because on Linux a
child's `ru_maxrss` starts from the resident size of the process that
spawned it.  Spawned straight from run.py, which holds the output checker,
a child would report run.py's size instead of its own peak.
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
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({
            "exit": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        }), flush=True)


if __name__ == "__main__":
    main()
