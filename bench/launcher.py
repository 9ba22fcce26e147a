"""Starts the processes the benchmark measures and reports on each one.

A child's peak RSS from ``wait4`` (``ru_maxrss``) includes the high-water RSS
of the process that started it, even memory freed before the start. The
benchmark holds its inputs and checks in memory, so it does not start the
processes it measures itself: this small process does, from an address space
of a few MB.

It reads one JSON request per line on standard input, ``{"argv", "env",
"cwd", "log"}``, runs ``argv`` to its end with standard output and error
appended to ``log``, and writes one JSON line back: ``{"rc", "s", "rss_mb",
"cpu_s"}``. It exits when its standard input closes.
"""

import json
import os
import sys
import time


def run(req: dict) -> dict:
    log = os.open(req["log"], os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    start = time.monotonic()
    pid = os.fork()
    if pid == 0:
        try:
            os.chdir(req["cwd"])
            os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
            os.dup2(log, 1)
            os.dup2(log, 2)
            os.execve(req["argv"][0], req["argv"], req["env"])
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.monotonic() - start
    os.close(log)
    return {"rc": os.waitstatus_to_exitcode(status), "s": wall,
            "rss_mb": usage.ru_maxrss / 1024.0, "cpu_s": usage.ru_utime + usage.ru_stime}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
