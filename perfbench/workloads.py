"""Seeded command sequences for the three benchmark workloads.

Every command is a ``stablepot`` argv, as a user would type it after the
program name.  ``{out}`` in an argv stands for a fresh file in the
session's scratch directory; the worker substitutes the real path.  The
same benchmark seed always yields the same commands.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("verify-d2", "verify-d3", "cli-mix")

# (d, alpha) of each verify workload; cli-mix alternates between both
VERIFY_PARAMS = {"verify-d2": (2, 1.5), "verify-d3": (3, 1.2)}
CLI_PARAMS = ((2, 1.5), (3, 1.2))

KERNELS = ("phi", "poisson-D", "green-D", "martin-D", "poisson-H", "green-H",
           "martin-H", "ball-poisson", "phi-rel", "poisson-H-rel", "u-lambda")

# sizes of one full cli-mix session, about a second of work per command
# family so that each throughput sample outlasts short bursts of load on a
# shared host; the verify workloads' probe sessions run half the curves,
# walkers and draws and all of the evals
CURVE_ROWS = 6000
AUX_CURVE_ROWS = 1000
WALKERS = 15_000            # per walk; two walks per (d, alpha)
HALFPLANE_DRAWS = 100_000
BALL_EXIT_DRAWS = 50_000
EVALS_PER_KERNEL = 24
PROBE_SCALE = 0.5

NEAR_BAND = 1e-3          # the near-sphere band of sphere.phi_complement
# walk-on-balls start radius per (d, alpha): the chain's length depends on
# |x| alone, so a fixed radius keeps the work per walker seed-independent
WALK_RADIUS = {(2, 1.5): 0.5, (3, 1.2): 2.0}

REFERENCE = Path(__file__).with_name("reference.json")


def _fmt(v: float) -> str:
    return repr(float(v))


def _vec(values) -> str:
    return ",".join(_fmt(v) for v in values)


def _unit(rng: random.Random, d: int) -> list[float]:
    v = [rng.gauss(0.0, 1.0) for _ in range(d)]
    n = math.sqrt(sum(x * x for x in v))
    return [x / n for x in v]


def _radial_point(rng: random.Random, d: int, lo: float, hi: float) -> list[float]:
    r = rng.uniform(lo, hi)
    return [r * x for x in _unit(rng, d)]


def _off_sphere(rng: random.Random, d: int) -> list[float]:
    # a point at least 0.1 away from the unit sphere, inside or outside
    if rng.random() < 0.5:
        return _radial_point(rng, d, 0.05, 0.9)
    return _radial_point(rng, d, 1.1, 3.0)


def _off_plane(rng: random.Random, d: int) -> list[float]:
    last = rng.uniform(0.2, 2.0) * rng.choice((-1.0, 1.0))
    return [rng.uniform(-2.0, 2.0) for _ in range(d - 1)] + [last]


def _pair(d: int, alpha: float) -> list[str]:
    return ["--d", str(d), "--alpha", _fmt(alpha)]


def setup_argv(seed: int) -> list[str]:
    """The first call of every session: a cold ``eval phi``."""
    r = random.Random(f"setup-{seed}").uniform(0.1, 3.0)
    return ["eval", "phi", *_pair(2, 1.5), "--r", _fmt(r)]


def _eval_argv(kernel: str, rng: random.Random, d: int, alpha: float) -> list[str]:
    if kernel == "phi":
        opts = {"r": _fmt(rng.uniform(0.05, 4.0))}
    elif kernel in ("poisson-D", "martin-D"):
        opts = {"x": _vec(_off_sphere(rng, d)), "z": _vec(_unit(rng, d))}
    elif kernel == "green-D":
        x = _off_sphere(rng, d)
        y = _off_sphere(rng, d)
        while math.dist(x, y) < 0.1:
            y = _off_sphere(rng, d)
        opts = {"x": _vec(x), "y": _vec(y)}
    elif kernel in ("poisson-H", "poisson-H-rel", "martin-H"):
        z = [rng.uniform(-2.0, 2.0) for _ in range(d - 1)]
        ztext = "inf" if kernel == "martin-H" and rng.random() < 0.5 else _vec(z)
        opts = {"x": _vec(_off_plane(rng, d)), "z": ztext}
        if kernel == "poisson-H-rel":
            opts["m"] = _fmt(rng.uniform(0.5, 2.0))
    elif kernel == "green-H":
        opts = {"x": _vec(_off_plane(rng, d)), "y": _vec(_off_plane(rng, d))}
    elif kernel == "ball-poisson":
        center = [rng.uniform(-1.0, 1.0) for _ in range(d)]
        radius = rng.uniform(0.5, 2.0)
        x = [c + radius * v for c, v in zip(center, _radial_point(rng, d, 0.0, 0.8))]
        y = [c + radius * v for c, v in zip(center, _radial_point(rng, d, 1.2, 3.0))]
        opts = {"center": _vec(center), "radius": _fmt(radius), "x": _vec(x), "y": _vec(y)}
    elif kernel == "phi-rel":
        radius = rng.uniform(0.5, 1.5)
        opts = {"m": _fmt(rng.uniform(0.5, 2.0)), "radius": _fmt(radius),
                "x": _vec(_radial_point(rng, d, 1.2 * radius, 3.0 * radius))}
    elif kernel == "u-lambda":
        m = rng.uniform(0.5, 2.0)             # the killing rate must stay below m
        opts = {"m": _fmt(m), "lambda": _fmt(m * rng.uniform(0.1, 0.9)),
                "x": _fmt(rng.uniform(0.2, 3.0)), "y": _fmt(rng.uniform(0.2, 3.0))}
    else:
        raise ValueError(f"unknown kernel {kernel}")
    # the --opt=value form keeps negative coordinates from reading as options
    return ["eval", kernel, *_pair(d, alpha), *(f"--{k}={v}" for k, v in opts.items())]


def _range(lo: float, hi: float, n: int) -> str:
    return f"{_fmt(lo)}:{_fmt(hi)}:{n}"


def cli_session(seed: int, index: int, scale: float = 1.0) -> list[dict]:
    """Session ``index`` of a cli-mix run: report curves, samplers and
    round-robin evals in a shuffled order, at points drawn from (seed, index).

    Each op is ``{"kind", "argv"}`` plus, for reports and samplers, ``n``:
    the rows, walkers or draws the command must produce.  ``scale``
    shrinks the curves, walks and draws but not the evals.
    """
    rng = random.Random(f"cli-mix-{seed}-{index}")
    ops: list[dict] = []
    rows = max(int(CURVE_ROWS * scale), 50)
    aux_rows = max(int(AUX_CURVE_ROWS * scale), 50)
    for d, alpha in CLI_PARAMS:
        bands = (
            (rng.uniform(0.0, 0.05), 1.0 - NEAR_BAND * rng.uniform(1.0, 1.1)),
            (1.0 - NEAR_BAND * rng.uniform(0.9, 1.0), 1.0 + NEAR_BAND * rng.uniform(0.9, 1.0)),
            (1.0 + NEAR_BAND * rng.uniform(1.0, 1.1), 1e3 * rng.uniform(0.9, 1.0)),
        )
        for curve in ("phi", "one-minus-phi"):
            for lo, hi in bands:
                n = rows + rng.randrange(50)
                ops.append({"kind": "report", "n": n, "argv": [
                    "report", "--curve", curve, *_pair(d, alpha),
                    "--r", _range(lo, hi, n), "--out", "{out}"]})
        n = aux_rows + rng.randrange(50)
        ops.append({"kind": "report", "n": n, "argv": [
            "report", "--curve", "qm", *_pair(d, alpha), "--m", _fmt(rng.uniform(0.5, 2.0)),
            "--r", _range(rng.uniform(0.01, 0.1), rng.uniform(5.0, 10.0), n),
            "--out", "{out}"]})
        n = aux_rows + rng.randrange(50)
        half = rng.uniform(5.0, 10.0)
        ops.append({"kind": "report", "n": n, "argv": [
            "report", "--curve", "poisson-H-profile", *_pair(d, alpha),
            f"--r={_range(-half, half, n)}", "--out", "{out}"]})
    for d, alpha in CLI_PARAMS:
        for _ in range(2):
            x = [WALK_RADIUS[d, alpha] * v for v in _unit(rng, d)]
            n = max(int(WALKERS * scale), 100)
            ops.append({"kind": "walk", "n": n, "argv": [
                "sample", "walk-on-balls", *_pair(d, alpha), f"--x={_vec(x)}",
                "--n", str(n), "--seed", str(rng.randrange(2**31))]})
        n = max(int(HALFPLANE_DRAWS * scale), 100)
        ops.append({"kind": "draws", "n": n, "argv": [
            "sample", "halfplane-hit", *_pair(d, alpha), f"--x={_vec(_off_plane(rng, d))}",
            "--n", str(n), "--seed", str(rng.randrange(2**31)), "--out", "{out}"]})
        n = max(int(BALL_EXIT_DRAWS * scale), 100)
        ops.append({"kind": "draws", "n": n, "argv": [
            "sample", "ball-exit", *_pair(d, alpha),
            "--n", str(n), "--seed", str(rng.randrange(2**31)), "--out", "{out}"]})
    for i in range(EVALS_PER_KERNEL):
        d, alpha = CLI_PARAMS[i % 2]
        for kernel in KERNELS:
            ops.append({"kind": "eval", "argv": _eval_argv(kernel, rng, d, alpha)})
    # spread every command family over the whole session, so that each
    # per-session throughput averages over the same stretch of host load
    rng.shuffle(ops)
    return ops


def verify_seed(workload: str, seed: int) -> int:
    """The ``verify --seed`` for a benchmark seed: one with a recorded reference."""
    seeds = sorted(int(s) for s in load_reference()[workload])
    return seeds[seed % len(seeds)]


def verify_argv(workload: str, vseed: int) -> list[str]:
    d, alpha = VERIFY_PARAMS[workload]
    return ["verify", "all", *_pair(d, alpha), "--seed", str(vseed)]


def load_reference() -> dict:
    """Per-check status of ``verify all``, by workload and then by ``--seed``,
    recorded by ``record_reference.py``."""
    return json.loads(REFERENCE.read_text())
