"""Starts the benchmark's children and reports how each one ended.

Linux records the memory high-water mark of the process that calls exec
into the new program's max RSS, so a child started by the benchmark
process itself (which grows while it checks census files and spans) would
report the benchmark's own size.  This small process starts every child
instead.  It reads one JSON request per line on stdin,

    {"cmd": [...], "cwd": ..., "env": {...}, "stdout": path, "stderr": path, "timeout": seconds,
     "spawn_env": name or null}

and answers each with {"code": ..., "wall": seconds, "maxrss_kb": ...}; a
child that outlives its timeout is killed.  With ``spawn_env`` the child
finds in that environment variable the ``perf_counter_ns`` time at which
its wall time starts, so that a traced child can begin its root span
there.  It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main():
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as fo, open(req["stderr"], "wb") as fe:
            env = req["env"]
            t0 = time.perf_counter_ns()
            if req.get("spawn_env"):
                env = dict(env, **{req["spawn_env"]: str(t0)})
            proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=env, stdin=subprocess.DEVNULL,
                                    stdout=fo, stderr=fe)
            watchdog = threading.Timer(req["timeout"], proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = (time.perf_counter_ns() - t0) / 1e9
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "wall": wall, "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
