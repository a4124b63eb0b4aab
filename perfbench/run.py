"""stablepot benchmark: three seeded workloads, timed end to end and traced by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload verify-d2 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

Each workload runs as a series of sessions.  A session is a fresh worker
process (``worker.py``) that imports ``src/stablepot``, answers a cold
``eval phi`` and then runs its commands through ``stablepot.cli.main``.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced sessions and reports the
per-layer metrics.  Every output is checked (``checks.py``).  The last
line of stdout is one JSON object; the lines before it are a readable
table.  The exit code is 1 if any check failed and 2 if the program
cannot be found.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# fewest main sessions in an untraced run.  Main session i of cli-mix runs
# the commands of session i mod CLI_VARIANTS and a verify session's command
# does not depend on i, so every run repeats commands and checks that their
# outputs are byte-identical, even with no digests from earlier runs.
MIN_SESSIONS = {"verify-d2": 2, "verify-d3": 2, "cli-mix": 5}
CLI_VARIANTS = 4
# reduced cli-mix sessions in each verify run: every workload must report
# every end-to-end metric, and these give the cli-path ones a measured value
PROBE_SESSIONS = 2
IMPORT_PROBES = 3
IMPORT_MODULES = ("stablepot", "stablepot.relativistic", "stablepot.suites",
                  "scipy.integrate", "scipy.special")
SESSION_TIMEOUT_S = 170
# time of worker.calibrate() on a 2-vCPU Intel Xeon VM at its usual speed:
# normalized times are what a host running that loop in CAL_REF_S would show
CAL_REF_S = 0.1

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "fail_ratio": "ratio",
             "host_calibration_ms": "ms",
             "curve_points_per_s": "1/s", "walkers_per_s": "1/s",
             "draws_written_per_s": "1/s", "eval_p50_ms": "ms", "eval_p95_ms": "ms"}


def _fn(layer: str, names: str, fields: str) -> list[str]:
    return [f"{layer}.{n}.{f}" for n in names.split() for f in fields.split()]


PER_LAYER = (
    _fn("specfun", "gauss_2f1 gauss_2f1_tail regularized_beta_cdf log_mittag_leffler "
        "bessel_k bessel_i_scaled", "calls self_s")
    + _fn("sphere", "phi phi_complement_delta green_function", "calls self_s")
    + _fn("sphere", "poisson_kernel", "calls elements self_s")
    + _fn("halfspace", "poisson_kernel", "calls elements self_s")
    + _fn("halfspace", "omega_alpha_density", "calls self_s")
    + _fn("analysis", "hardy_norm", "calls slices self_s us_per_slice")
    + _fn("analysis", "fatou_probe majorant prob_hardy_norm omega_integral_probe "
          "poisson_integral_sphere poisson_integral_halfspace fractional_laplacian "
          "sphere_quadrature hyperplane_quadrature", "calls self_s")
    + _fn("relativistic", "hitting_probability_sphere lambda_potential "
          "poisson_kernel_halfspace subordinator_potential", "calls self_s")
    + _fn("montecarlo", "walk_on_balls_hitting", "calls walkers self_s")
    + ["montecarlo.walk.conclusive_ratio"]
    + _fn("montecarlo", "sample_ball_exit_center", "calls draws self_s")
    + _fn("montecarlo", "sample_halfplane_hit gamma_small_shape", "draws self_s")
    + _fn("montecarlo", "ks_test", "calls self_s")
    + _fn("montecarlo", "EmpiricalSample.to_csv", "calls bytes self_s")
    + _fn("suites", "identities hardy fatou relativistic montecarlo", "wall_s checks")
    + ["report.VerificationReport.to_json.self_s", "report.VerificationReport.to_json.bytes"]
    + _fn("cli", "main", "calls self_s")
    + [f"setup.import.{m.replace('.', '_')}_s" for m in IMPORT_MODULES]
    + ["trace_overhead_ratio"]
)
COUNT_FIELDS = ("calls", "elements", "slices", "walkers", "draws", "bytes", "checks")


def unit_of(name: str) -> str:
    name = name.removeprefix("raw.")
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    field = name.rsplit(".", 1)[-1]
    if field in COUNT_FIELDS:
        return "count"
    if field == "us_per_slice":
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


def environment(env: dict) -> dict:
    """The machine, versions and settings every result is recorded with."""
    def first(path: str, key: str) -> str:
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    def git(*args: str) -> str:
        try:
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    in_git = git("rev-parse", "--show-toplevel") == str(ROOT)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "ram": first("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "thread_caps": {k: env[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                            "MKL_NUM_THREADS")},
        "STABLEPOT_THREADS": env.get("STABLEPOT_THREADS", "unset (program default)"),
        "git_sha": git("rev-parse", "HEAD") if in_git else "not a git checkout",
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")) if in_git
        else None,
        "src_sha256": checks.tree_digest(ROOT),
        "limits": [
            "shared host: wall times include other tenants' load",
            "no hardware performance counters are read",
            "the page cache is not dropped; a discarded warm-up session warms it",
            "peak RSS is the worker's ru_maxrss",
        ],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if not values:
        return 0.0, 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Run:
    """One benchmark run of one workload: sessions, checks and results."""

    def __init__(self, workload: str, seed: int, scratch: Path, store: checks.DigestStore,
                 env: dict):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.store = store
        self.env = env
        self.sessions: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.open_failures: set[str] = set()
        self.failed_ops = 0
        self._checked: set[tuple[str, ...]] = set()

    def session(self, role: str, ops: list[dict], trace: bool = False) -> dict:
        """Spawn one worker, time its set-up call, collect and check its results."""
        out_dir = self.scratch / f"session{len(self.sessions)}"
        out_dir.mkdir(parents=True)
        spec_path = out_dir / "spec.json"
        spec_path.write_text(json.dumps({
            "src": str(ROOT / "src"), "out_dir": str(out_dir), "trace": trace,
            "setup": workloads.setup_argv(self.seed), "ops": ops}))
        start = time.perf_counter()
        with open(out_dir / "stderr.txt", "w+") as err:
            proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                                    stdout=subprocess.PIPE, stderr=err, text=True,
                                    env=self.env, cwd=ROOT)
            # a hung worker is killed, which ends the reads below
            deadline = threading.Timer(SESSION_TIMEOUT_S, proc.kill)
            deadline.start()
            try:
                ready = proc.stdout.readline()
                setup_s = time.perf_counter() - start
                lines = proc.stdout.read().splitlines()
            finally:
                deadline.cancel()
                proc.kill()
                proc.wait()
            err.seek(0)
            stderr = err.read()[-2000:]
        try:
            result = json.loads(lines[-1]) if '"ready"' in ready and lines else {}
        except ValueError:
            result = {}
        sess = {"role": role, "trace": trace, "setup_s": setup_s, "ops": ops, **result}
        if "body_s" not in result:
            self.attempted += 1
            self.failed_ops += 1
            self.failures.append(f"{role} session failed: {ready.strip()} {stderr}")
        else:
            self._check(sess)
        self.sessions.append(sess)
        shutil.rmtree(out_dir)
        return sess

    def _check(self, sess: dict) -> None:
        setup_op = {"kind": "eval", "argv": workloads.setup_argv(self.seed)}
        for op, res in [(setup_op, sess["setup"]), *zip(sess["ops"], sess["results"])]:
            self.attempted += 1
            errs = self._check_op(op, res)
            if errs:
                self.failed_ops += 1
                self.failures.extend(errs)

    def _check_op(self, op: dict, res: dict) -> list[str]:
        argv, kind = op["argv"], op["kind"]
        ref = (workloads.load_reference()[self.workload][str(op["seed"])]
               if kind == "verify" else {})
        # verify exits 1 when its report holds a FAIL
        expected_rc = 1 if "FAIL" in ref.values() else 0
        if res["rc"] != expected_rc:
            return [f"`{' '.join(argv)}` exited {res['rc']}, not {expected_rc}: "
                    f"{res['error']}"]
        errs = self.store.check(argv, "stdout", res["stdout_sha256"])
        key = (" ".join(argv), res["stdout_sha256"])
        if "out" in res:
            digest = checks.file_digest(res["out"])
            errs += self.store.check(argv, "file", digest)
            key += (digest,)
        if key in self._checked:         # identical output, already checked
            return errs
        if kind == "eval":
            errs += checks.check_eval(argv, res["stdout"])
        elif kind == "verify":
            if res["status"] != ref:
                errs.append(f"`{' '.join(argv)}`: per-check status differs from "
                            f"the reference recorded for --seed {op['seed']}")
            else:
                # a FAIL the reference records for this seed is reproduced,
                # not new: it is reported by name but fails no op
                self.open_failures.update(
                    f"`{' '.join(argv)}` FAILs {check}, as recorded in reference.json"
                    for check, status in ref.items() if status == "FAIL")
        elif kind == "report":
            errs += checks.check_report(op, res["out"], self.seed)
        elif kind == "walk":
            errs += checks.check_walk(op, res["stdout"])
        elif kind == "draws":
            errs += checks.check_draws(op, res["out"])
        if not errs:
            self._checked.add(key)
        return errs


def main_ops(workload: str, seed: int, index: int) -> list[dict]:
    if workload == "cli-mix":
        return workloads.cli_session(seed, index % CLI_VARIANTS)
    vseed = workloads.verify_seed(workload, seed)
    return [{"kind": "verify", "seed": vseed, "argv": workloads.verify_argv(workload, vseed)}]


def import_times(env: dict) -> dict[str, float]:
    """Cumulative import seconds per module from ``python -X importtime``.

    The scipy modules get a probe of their own, after numpy as in the
    package: stablepot's lazy ``from scipy import integrate`` leaves no
    ``scipy.integrate`` line in the package's importtime report.
    """
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORT_PROBES):
        for code, mods in (("import stablepot.cli", IMPORT_MODULES[:3]),
                           ("import numpy, scipy; import scipy.integrate", IMPORT_MODULES[3:])):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                                  capture_output=True, text=True, env=env, cwd=ROOT,
                                  timeout=SESSION_TIMEOUT_S)
            for line in proc.stderr.splitlines():
                parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
                if len(parts) == 3 and parts[2] in mods:
                    samples[parts[2]].append(int(parts[1]) * 1e-6)
    return {f"setup.import.{m.replace('.', '_')}_s": statistics.median(v)
            for m, v in samples.items() if v}


def run_workload(run: Run, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run the sessions of one workload; return (values, readable stats).

    Main sessions (or untraced/traced pairs) repeat while the next one is
    expected to end within ``seconds``; an untraced run has at least
    ``MIN_SESSIONS`` of them, a traced run at least one pair.
    """
    wl = run.workload
    run.session("warmup", [])
    start = time.perf_counter()
    for index in itertools.count():
        began = time.perf_counter()
        run.session("main", main_ops(wl, run.seed, index))
        if trace:
            # both sessions of a pair run the same commands, so the digest
            # checks also prove the tracing transparent
            run.session("traced", main_ops(wl, run.seed, index), trace=True)
        now = time.perf_counter()
        enough = trace or index + 1 >= MIN_SESSIONS[wl]
        if enough and now - start + (now - began) > seconds:
            break
    if trace:
        return layer_metrics(run, import_times(run.env))
    if wl != "cli-mix":
        for index in range(PROBE_SESSIONS):
            run.session("probe", workloads.cli_session(run.seed, index, workloads.PROBE_SCALE))
    return e2e_metrics(run)


def _ok(run: Run, *roles: str) -> list[dict]:
    """The sessions of the given roles that completed."""
    return [s for s in run.sessions if s["role"] in roles and "body_s" in s]


def host_scale(sess: dict) -> float:
    """Factor that turns a session's times into reference-host times."""
    return CAL_REF_S / statistics.fmean(sess["calibration_s"])


def e2e_metrics(run: Run) -> tuple[dict, dict]:
    """End-to-end values of one run, with (value, q1, q3, n) for the table.

    Times are normalized to the host speed of reference: each session's
    times are multiplied by ``CAL_REF_S`` over the time of the calibration
    loop the session ran (``worker.calibrate``).  A shared host changes
    speed by tens of percent for minutes at a time; the normalization takes
    that out of the comparison, while the raw values stay in the table and
    the results file as ``raw.*``.  Times and throughputs pool every
    session of the run (total work over total time); the quartiles are over
    the per-session values.
    """
    values: dict[str, float] = {}
    stats: dict[str, tuple] = {}
    for prefix, normalize in (("", True), ("raw.", False)):
        _e2e_values(run, normalize, prefix, values, stats)
    cal = [statistics.fmean(s["calibration_s"]) * 1e3 for s in _ok(run, "main", "probe")]
    q1, med, q3 = quartiles(cal)
    values["host_calibration_ms"] = med
    stats["host_calibration_ms"] = (med, q1, q3, len(cal))
    return values, stats


def _e2e_values(run: Run, normalize: bool, prefix: str, values: dict, stats: dict) -> None:
    main = _ok(run, "main")
    cli = main if run.workload == "cli-mix" else _ok(run, "probe")

    def scale(sess: dict) -> float:
        return host_scale(sess) if normalize else 1.0

    def put(name: str, value: float, per_session: list[float]) -> None:
        q1, _, q3 = quartiles(per_session)
        values[prefix + name] = value
        stats[prefix + name] = (value, q1, q3, len(per_session))

    walls = [s["body_s"] * scale(s) for s in main]
    put("wall_s", statistics.fmean(walls) if walls else 0.0, walls)
    setups = [s["setup_s"] * scale(s) for s in _ok(run, "main", "probe")]
    put("setup_s", quartiles(setups)[1], setups)
    if normalize:
        rss = [s["peak_rss_mb"] for s in main]
        put("peak_rss_mb", quartiles(rss)[1], rss)
    for name, kind in (("curve_points_per_s", "report"), ("walkers_per_s", "walk"),
                       ("draws_written_per_s", "draws")):
        pairs = [[(op["n"], r["seconds"] * scale(s)) for op, r in zip(s["ops"], s["results"])
                  if op["kind"] == kind] for s in cli]
        rate = lambda ps: sum(n for n, _ in ps) / sum(t for _, t in ps)  # noqa: E731
        pooled = [p for ps in pairs for p in ps]
        put(name, rate(pooled) if pooled else 0.0, [rate(ps) for ps in pairs if ps])
    evals = sorted(r["seconds"] * scale(s) * 1e3 for s in cli
                   for op, r in zip(s["ops"], s["results"]) if op["kind"] == "eval")
    if len(evals) >= 2:
        cuts = statistics.quantiles(evals, n=100)
        p50 = statistics.median(evals)
        values[prefix + "eval_p50_ms"], values[prefix + "eval_p95_ms"] = p50, cuts[94]
        stats[prefix + "eval_p50_ms"] = (p50, cuts[24], cuts[74], len(evals))
        stats[prefix + "eval_p95_ms"] = (cuts[94], None, None, len(evals))


def _layer_value(name: str, agg: dict) -> float:
    if name == "montecarlo.walk.conclusive_ratio":
        row = agg.get("montecarlo.walk_on_balls_hitting", {})
        return row.get("conclusive", 0) / row["walkers"] if row.get("walkers") else 0.0
    if name.endswith(".us_per_slice"):
        row = agg.get(name.rsplit(".", 1)[0], {})
        return row["self_s"] * 1e6 / row["slices"] if row.get("slices") else 0.0
    span, field = name.rsplit(".", 1)
    field = "total_s" if field == "wall_s" else field
    return float(agg.get(span, {}).get(field, 0))


def layer_metrics(run: Run, imports: dict) -> tuple[dict, dict]:
    traced = _ok(run, "traced")
    untraced = _ok(run, "main")
    values, stats = dict(imports), {}
    for name in PER_LAYER:
        if name in imports or name == "trace_overhead_ratio":
            continue
        q1, med, q3 = quartiles([_layer_value(name, s["trace"]) for s in traced] or [0.0])
        values[name] = med
        stats[name] = (med, q1, q3, len(traced))
    if traced and untraced:
        values["trace_overhead_ratio"] = (
            statistics.median(s["body_s"] * host_scale(s) for s in traced)
            / statistics.median(s["body_s"] * host_scale(s) for s in untraced))
    for name, v in imports.items():
        stats[name] = (v, None, None, IMPORT_PROBES)
    if "trace_overhead_ratio" in values:
        stats["trace_overhead_ratio"] = (values["trace_overhead_ratio"], None, None,
                                         len(traced))
    # self time per layer: where the traced sessions' time went
    for s in traced:
        for span, row in s["trace"].items():
            layer = "layer." + span.split(".", 1)[0] + ".self_s"
            values[layer] = values.get(layer, 0.0) + row["self_s"] / len(traced)
            stats[layer] = (values[layer], None, None, len(traced))
    return values, stats


def worker_env() -> dict:
    nproc = str(len(os.sched_getaffinity(0)))
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "STABLEPOT_THREADS", "PYTHONDONTWRITEBYTECODE")}
    env.update(PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS=nproc,
               OPENBLAS_NUM_THREADS=nproc, MKL_NUM_THREADS=nproc)
    return env


def print_table(workload: str, stats: dict) -> None:
    print(f"# {workload}")
    print(f"{'metric':46} {'value':>14} {'q1':>12} {'q3':>12} {'n':>6}  unit")
    for name, (med, q1, q3, n) in stats.items():
        q = [f"{v:12.6g}" if v is not None else f"{'':12}" for v in (q1, q3)]
        print(f"{name:46} {med:14.6g} {q[0]} {q[1]} {n:6d}  {unit_of(name)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "stablepot" / "__init__.py").is_file():
        print(f"perfbench: no stablepot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]

    state = ROOT / ".perfbench"
    scratch = state / "scratch" / str(os.getpid())
    env = worker_env()
    store = checks.DigestStore(state / "digests.json", checks.tree_digest(ROOT))
    info = environment(env)
    print("# env " + json.dumps(info, sort_keys=True))

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for wl in chosen:
        run = Run(wl, args.seed, scratch / wl, store, env)
        values, stats = run_workload(run, args.seconds, bool(args.trace))
        values["fail_ratio"] = run.failed_ops / max(run.attempted, 1)
        stats["fail_ratio"] = (values["fail_ratio"], None, None, run.attempted)
        print_table(wl, stats)
        for msg in run.failures:
            print(f"# FAIL {wl}: {msg}")
        for msg in sorted(run.open_failures):
            print(f"# OPEN FAIL {wl}: {msg}")
        prefix = f"{wl}." if len(chosen) > 1 else ""
        for m in listed:
            # a metric a failed session left unmeasured reads 0; correct is false then
            metrics[prefix + m["name"]] = {"value": values.get(m["name"], 0.0),
                                           "unit": m["unit"]}
        attempted += run.attempted
        failed += run.failed_ops
        results = state / "results" / f"{wl}-seed{args.seed}-trace{args.trace}.json"
        results.parent.mkdir(parents=True, exist_ok=True)
        results.write_text(json.dumps({
            "workload": wl, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "env": info, "values": values, "stats": stats, "attempted": run.attempted,
            "failed": run.failed_ops, "failures": run.failures,
            "open_failures": sorted(run.open_failures),
            "sessions": [{k: s.get(k) for k in ("role", "trace", "setup_s", "body_s",
                                                  "peak_rss_mb", "calibration_s")}
                         for s in run.sessions],
        }, indent=1, sort_keys=True))
    store.save()
    shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
