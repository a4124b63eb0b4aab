"""Record the per-check status of ``verify all`` for the verify workloads.

Usage, from the repository root::

    python3 perfbench/record_reference.py 1 2 3 4 5 6 7 8 9 10

Runs ``stablepot verify all`` for each verify workload at each given
``--seed`` and writes ``reference.json``: one status map (check id to
PASS, FAIL, SKIP, ...) per workload and seed.  Every given seed is kept,
whatever its statuses; a benchmark seed maps onto one of them
(``workloads.verify_seed``).  Re-record only when a change is meant to
alter which checks pass, fail or skip.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def statuses(workload: str, seed: int) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    env.pop("STABLEPOT_THREADS", None)
    proc = subprocess.run([sys.executable, "-m", "stablepot.cli",
                           *workloads.verify_argv(workload, seed)],
                          capture_output=True, text=True, env=env, check=False)
    return {e["check_id"]: e["status"] for e in json.loads(proc.stdout)["entries"]}


def main() -> int:
    seeds = [int(s) for s in sys.argv[1:]]
    if not seeds:
        print(__doc__)
        return 2
    ref = {}
    for workload in workloads.VERIFY_PARAMS:
        ref[workload] = {}
        for seed in seeds:
            status = statuses(workload, seed)
            ref[workload][str(seed)] = status
            failing = sorted(k for k, v in status.items() if v == "FAIL")
            print(f"{workload} seed {seed}: {len(status)} checks, FAIL: {failing or 'none'}",
                  flush=True)
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
