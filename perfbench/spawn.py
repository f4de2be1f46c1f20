"""Start and time the measured commands from a process that stays small.

On Linux a child's ``ru_maxrss`` starts at its parent's peak RSS, so the
benchmark, which holds the generated feeds and the parsed outputs in
memory, must not start the measured commands itself. ``run.py`` starts
this helper first, while it is still small, and sends it one JSON request
per line on standard input:

    {"argv": [...], "cwd": "...", "env": {...}, "stdout": "...", "stderr": "..."}

For each request it runs the command to completion and answers with one
line ``{"status": n, "wall_s": x, "rss_mb": y}``. It exits at end of input.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                    stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"status": proc.returncode, "wall_s": wall,
                          "rss_mb": usage.ru_maxrss / 1024}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
