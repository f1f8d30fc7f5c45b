"""Fresh-process probe: cold set-up spans and peak memory of one workload.

``python3 perfbench/probe.py WORKLOAD SEED [--run]`` imports the
program, builds the workload's inputs and, with ``--run``, executes one
operation group.  The last stdout line is a JSON object:

* ``spans`` — the set-up's per-layer seconds on its first call in a
  fresh interpreter, so per-process caches (compiled programs) are cold;
* ``rss_mb`` — peak resident set of this process plus the largest of
  its reaped children, if any.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    state = workloads.setup(workload, seed)
    if "--run" in argv[2:]:
        workloads.run_once(state)
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    print(
        json.dumps(
            {
                "spans": dict(state.setup.seconds),
                "rss_mb": kib / 1024,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
