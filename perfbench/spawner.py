"""Runs the benchmark's child processes from a small process.

  python3 perfbench/spawner.py

Linux gives a child the peak RSS of the process it was forked from when
it calls exec, so a child started from the benchmark process (numpy,
scipy and the in-process passes in memory) would report at least that
process's peak. Started from this process, which imports no numpy, a
child reports its own peak.

Reads one JSON request per line on stdin: {"argv": [...], "cwd": ...,
"env": {...}, "out": path, "capture": "stdout" | "stderr", "timeout": s}.
It runs argv with the captured stream written to the file `out` and the
other to /dev/null, kills it after `timeout` seconds, reaps it with wait4
and answers one JSON line {"wall_s", "rss_mb", "code"}. It exits at the
end of stdin.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req):
    with open(req["out"], "wb") as fh:
        streams = {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL,
                   req["capture"]: fh}
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdin=subprocess.DEVNULL, **streams)
        killer = threading.Timer(req["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "code": os.waitstatus_to_exitcode(status)}


def main():
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
