"""Run one command and report its wall clock and resource usage.

    python3 -S -E spawn.py LOG COMMAND [ARG...]

Standard output of the command goes to ``LOG``, standard error to
``LOG.err``; this script prints one JSON object with the wall clock,
exit code, CPU seconds and peak RSS ``os.wait4`` reports.

A separate, deliberately tiny process because a child's ``ru_maxrss``
starts at the resident size of the process that spawned it (the old
address space's high-water mark is folded in at exec): spawned from the
harness itself, every small campaign would report the harness's RSS.
Nothing is imported here beyond what the measurement needs.
"""

import json
import os
import sys
import time

log, argv = sys.argv[1], sys.argv[2:]
out = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
err = os.open(log + ".err", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
t0 = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
    (os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2)])
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
print(json.dumps({
    "wall_s": wall,
    "code": os.waitstatus_to_exitcode(status),
    "cpu_s": usage.ru_utime + usage.ru_stime,
    "maxrss_mb": usage.ru_maxrss / 1024,  # Linux reports KiB
}))
