"""One benchmark session, run in a fresh process by ``run.py``.

Usage: ``python perfbench/worker.py SPEC_FILE`` with ``src`` on PYTHONPATH, where
SPEC_FILE is the JSON session spec ``run.py`` writes.

The worker imports ``stablepot.cli``, answers the session's set-up call
(a cold ``eval phi``) and prints one line as soon as it is answered, so
the parent can time spawn-to-first-answer.  It then runs the session's
commands through ``stablepot.cli.main`` in this process, each timed on
its own, between two runs of a fixed calibration loop, and prints one
JSON line with the results.  With ``trace`` set, the layers are wrapped
by ``spans.Tracer`` before the set-up call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path


def calibrate() -> float:
    """Seconds for a fixed mix of Python-level and numpy work.

    Timed before and after the session's commands, it records how fast the
    host ran just then; a slow stretch of a shared host shows in the results.
    """
    import numpy as np
    start = time.perf_counter()
    total = 0.0
    for i in range(250_000):
        total += math.sqrt(i) * 0.5
    a = np.linspace(0.0, 1.0, 200_000)
    for _ in range(100):
        a = np.sqrt(a * a + 1.0) - 0.5
    return time.perf_counter() - start


def run_op(cli, op: dict, out_dir: Path, index: int) -> dict:
    out_path = str(out_dir / f"op{index}.csv")
    argv = [a.replace("{out}", out_path) for a in op["argv"]]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    except SystemExit as exc:          # argparse rejects the argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:                  # a library error the CLI does not map
        rc, error = -1, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    text = stdout.getvalue().replace(out_path, "{out}")
    res = {"rc": rc, "seconds": seconds, "error": error or stderr.getvalue()[-500:],
           "stdout_sha256": hashlib.sha256(text.encode()).hexdigest()}
    if op["kind"] == "verify":
        try:
            res["status"] = {e["check_id"]: e["status"]
                             for e in json.loads(text)["entries"]}
        except (ValueError, KeyError, TypeError):
            res["status"] = None
    else:
        res["stdout"] = text
    if "{out}" in op["argv"]:
        res["out"] = out_path
    return res


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    out_dir = Path(spec["out_dir"])
    import stablepot
    import stablepot.cli as cli
    src = Path(spec["src"]).resolve()
    if src not in Path(stablepot.__file__).resolve().parents:
        print(json.dumps({"error": f"stablepot imported from {stablepot.__file__}, "
                                   f"not from {src}"}), flush=True)
        return 2
    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    setup = run_op(cli, {"kind": "eval", "argv": spec["setup"]}, out_dir, 0)
    print(json.dumps({"ready": True}), flush=True)
    cal_before = calibrate()
    start = time.perf_counter()
    results = [run_op(cli, op, out_dir, i + 1) for i, op in enumerate(spec["ops"])]
    body_s = time.perf_counter() - start
    calibration = [cal_before, calibrate()]
    if tracer is not None:
        tracer.uninstall()
    print(json.dumps({
        "setup": setup, "results": results, "body_s": body_s, "calibration_s": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.summary() if tracer else None,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
