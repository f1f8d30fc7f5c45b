"""Regenerate ``goldens.json`` from the current program.

``python3 perfbench/make_goldens.py`` runs every workload once at the
default seed, at the benchmarked and the tiny scale, and writes the
golden summaries the benchmark checks against.  Run it only when a
change to the program is meant to change simulated outputs, and say so
in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    goldens = {}
    for scale in ("full", "tiny"):
        goldens[scale] = {}
        for name in workloads.SCALES["full"]:
            state = workloads.setup(name, workloads.DEFAULT_SEED, scale)
            records = workloads.run_once(state).records
            goldens[scale][name] = workloads.summarize(name, records)
            print(f"{scale} {name}: {workloads.digest(goldens[scale][name])}")
    text = json.dumps({"seed": workloads.DEFAULT_SEED, **goldens}, indent=1)
    (HERE / "goldens.json").write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
