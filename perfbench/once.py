"""Run one iteration of a workload in a fresh process and report its peak RSS.

Usage (from the repository root, on inputs ``run.py`` generated):
    python3 perfbench/once.py <workload> <input dir> <output dir>

Prints one JSON line: each call's exit code, the iteration's wall seconds
and the process's peak resident set size in KiB. The outputs stay in the
output directory for the caller to check.
"""

import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, import_cli


def peak_rss_kib() -> int:
    """Peak resident set size of this process image, in KiB.

    ``VmHWM`` is reset by exec. ``ru_maxrss`` is not: after a spawn it can
    report the parent's size, so it is only the fallback.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(workload: str, inputs: str, out: str) -> None:
    cli = import_cli(Path.cwd())
    calls = WORKLOADS[workload].calls(Path(inputs), Path(out))
    start = time.perf_counter()
    codes = [cli.main(list(call.argv)) for call in calls]
    wall = time.perf_counter() - start
    print(json.dumps({"codes": codes, "wall_s": wall, "maxrss_kib": peak_rss_kib()}))


if __name__ == "__main__":
    main(*sys.argv[1:])
