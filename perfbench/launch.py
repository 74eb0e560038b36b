"""Launches Python processes one at a time for run.py and times each.

Reads one JSON list of interpreter arguments per line on stdin (such as
`["-m", "stgames.cli", ...]` or `["perfbench/ref.py"]`), runs
`python ARGS` with stdout discarded, and answers with one JSON object per
line: exit code, stderr, seconds from launch to exit and the child's peak
resident set in KiB.

It exists so that the peak resident set is the CLI's own. On Linux a
child's `ru_maxrss` includes the high-water mark of the process that
spawned it, and run.py grows past the CLI's size when it verifies outputs.
This process imports nothing heavy, so its mark stays below any child's.
"""

import json
import os
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        args = json.loads(line)
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + args,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stderr.close()
        print(json.dumps({"code": proc.returncode,
                          "stderr": stderr.decode("utf-8", "replace"),
                          "seconds": seconds, "maxrss_kb": usage.ru_maxrss}),
              flush=True)


if __name__ == "__main__":
    main()
