"""Run commands one at a time and report each one's exit code, wall time
and peak resident memory.

Reads one command per line from stdin, each a JSON array of strings
(the argv; the program is looked up on PATH).  Blank lines are skipped.
Each command runs with stdin and stdout on /dev/null and stderr
inherited, in the launcher's working directory and environment.  After
it ends, one JSON line goes to stdout and is flushed at once:

    {"argv": [...], "code": 0, "wall_s": 0.1873, "rss_mib": 41.02}

code is the exit status, or minus the signal number that ended the
child.  wall_s runs from the spawn to the reap.  rss_mib is the child's
ru_maxrss from wait4, converted from KiB (Linux's unit) to MiB.

A child spawned from a large process can report that process's peak
instead of its own, so start this launcher before the caller loads
anything large, and feed it commands over a pipe:

    printf '%s\\n' '["python3", "-c", "pass"]' | python3 tools/launch.py
"""

from __future__ import annotations

import json
import os
import sys
import time


def parse(line: str) -> list[str] | None:
    """The argv on one input line, or None for a blank line.  Anything
    but a non-empty JSON array of strings raises ValueError."""
    if not line.strip():
        return None
    argv = json.loads(line)
    if type(argv) is not list or not argv or not all(type(a) is str for a in argv):
        raise ValueError(f"expected a non-empty JSON array of strings, got {line.strip()!r}")
    return argv


def record(argv: list[str], status: int, wall_s: float, maxrss_kib: int) -> dict:
    """One output record from a reaped child's wait status and rusage."""
    return {"argv": argv, "code": os.waitstatus_to_exitcode(status),
            "wall_s": round(wall_s, 6), "rss_mib": round(maxrss_kib / 1024, 2)}


def launch(argv: list[str]) -> dict:
    quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, flags, 0)
             for fd, flags in ((0, os.O_RDONLY), (1, os.O_WRONLY))]
    start = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ, file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    return record(argv, status, time.perf_counter() - start, usage.ru_maxrss)


def main() -> int:
    for line in sys.stdin:
        argv = parse(line)
        if argv is not None:
            print(json.dumps(launch(argv)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
