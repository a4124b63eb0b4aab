"""Command line front end: evaluate kernels, verify identities, sample, report.

Subcommands, each with the options it reads besides --d and --alpha
(any other option is a usage error):

eval     print one kernel value: --x --y --z --r --center --radius --m
         --lambda --format;
verify   run an identity suite, or all in order, print a JSON report and
         exit 1 on any FAIL: --tol --seed --out;
sample   draw from an exact sampler: --x --n --seed --stream --eps-shell
         --r-max --out (CSV file);
report   write a plot-ready CSV curve: --curve --r --m --p --beta --depth
         --seed --out.

Exit codes: 0 success, 1 verification failure, 2 usage, domain or
numerical error, 3 I/O error.  Equal --seed values (default 42)
reproduce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import analysis, halfspace, montecarlo, relativistic, sphere
from .core import INFINITY, StableParams, as_point, basis_last
from .errors import ConvergenceError, DivergenceError, DomainError
from .montecarlo import RngStream, WalkConfig
from .relativistic import RelativisticParams
from .report import write_csv
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

# the largest row count of a report range; its two columns alone take 160 MB
_MAX_ROWS = 10_000_000


def _parse_point(text: str | None, name: str):
    if text is None:
        raise DomainError(f"this command needs --{name}")
    if text.strip().lower() in ("inf", "infinity"):
        return INFINITY
    try:
        return np.array([float(tok) for tok in text.replace("(", "")
                        .replace(")", "").split(",") if tok != ""])
    except ValueError as exc:
        raise DomainError(f"cannot parse point {text!r}: {exc}") from exc


def _parse_range(text: str) -> np.ndarray:
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise DomainError(f"range must look like start:stop:count, got {text!r}") from exc
    if not math.isfinite(stop - start) or not 1 <= count <= _MAX_ROWS:   # also NaN ends
        raise DomainError(f"range needs a finite span and a count from 1 to {_MAX_ROWS}, "
                          f"got {text!r}")
    with np.errstate(over="ignore"):    # a span near DBL_MAX: the last point, set to stop
        return np.linspace(start, stop, count)


def _scalar(args, name: str) -> float:
    point = _parse_point(getattr(args, name), name)
    if isinstance(point, np.ndarray) and point.size == 1:
        return float(point[0])
    raise DomainError(f"--{name} must be a single number for this kernel")


# options shared by several subcommands
_OPTIONS = {
    "--d": dict(type=int, default=2),
    "--alpha": dict(type=float, default=1.5),
    "--m": dict(type=float, default=1.0),
    "--lambda": dict(dest="lam", type=float, default=0.0),
    "--p": dict(dest="pexp", type=float, default=1.0),
    "--tol": dict(type=float, default=None),
    "--seed": dict(type=int, default=42),
    "--n": dict(type=int, default=10_000),
    "--out": dict(type=str, default=None),
    "--format": dict(choices=("text", "json"), default="text"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args fills a fresh namespace each call
    ap = argparse.ArgumentParser(
        prog="stablepot",
        description="kernels, verification suites and hitting samplers for "
                    "stable processes off a sphere or hyperplane")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, *flags):
        for flag in ("--d", "--alpha", *flags):
            sp.add_argument(flag, **_OPTIONS[flag])

    se = sub.add_parser("eval", help="evaluate a kernel at given points")
    se.add_argument("kernel", choices=KERNELS)
    se.add_argument("--x", type=str, default=None)
    se.add_argument("--y", type=str, default=None)
    se.add_argument("--z", type=str, default=None)
    se.add_argument("--center", type=str, default="0,0")
    se.add_argument("--radius", type=float, default=1.0)
    se.add_argument("--r", type=float, default=None)
    common(se, "--m", "--lambda", "--format")

    sv = sub.add_parser("verify", help="run an identity suite")
    sv.add_argument("suite", choices=tuple(SUITES) + ("all",))
    common(sv, "--tol", "--seed", "--out")

    ss = sub.add_parser("sample", help="draw from an exact sampler")
    ss.add_argument("sampler", choices=("ball-exit", "halfplane-hit",
                                        "walk-on-balls"))
    ss.add_argument("--x", type=str, default=None)
    ss.add_argument("--stream", type=int, default=0)
    ss.add_argument("--eps-shell", type=float, default=1e-4)
    ss.add_argument("--r-max", type=float, default=1e3)
    common(ss, "--seed", "--n", "--out")

    sr = sub.add_parser("report", help="write a plot-ready CSV curve")
    sr.add_argument("--curve", choices=CURVES, required=True)
    sr.add_argument("--r", type=str, default="0.01:10:200",
                    help="abscissa range start:stop:count")
    sr.add_argument("--beta", type=float, default=1.0)
    sr.add_argument("--depth", type=int, default=20)
    common(sr, "--m", "--p", "--seed", "--out")
    return ap


# --- eval -------------------------------------------------------------------

def _radius_or_point(a):
    # --x as a point, else --r
    if a.x:
        return _parse_point(a.x, "x")
    if a.r is None:
        raise DomainError(f"{a.kernel} needs --r or --x")
    return a.r


def _eval_phi(p, a):
    if a.r is None:
        return sphere.hitting_probability(p, _radius_or_point(a))
    if not math.isfinite(a.r):     # phi(inf) is the limit 0 inside the package
        raise DomainError(f"--r must be finite, got {a.r}")
    return sphere.phi(p, a.r)


def _points(args, *names):
    return [_parse_point(getattr(args, name), name) for name in names]


# kernel name -> value from (StableParams, parsed arguments)
_KERNELS = {
    "phi": _eval_phi,
    "poisson-D": lambda p, a: sphere.poisson_kernel(p, *_points(a, "x", "z")),
    "green-D": lambda p, a: sphere.green_function(p, *_points(a, "x", "y")),
    "martin-D": lambda p, a: sphere.martin_kernel(p, *_points(a, "x", "z")),
    "poisson-H": lambda p, a: halfspace.poisson_kernel(p, *_points(a, "x", "z")),
    "green-H": lambda p, a: halfspace.green_function(p, *_points(a, "x", "y")),
    "martin-H": lambda p, a: halfspace.martin_kernel(p, *_points(a, "x", "z")),
    "ball-poisson": lambda p, a: sphere.ball_poisson_kernel(
        p, _parse_point(a.center, "center"), a.radius, *_points(a, "x", "y")),
    "phi-rel": lambda p, a: relativistic.hitting_probability_sphere(
        RelativisticParams(p, a.m), a.radius, _radius_or_point(a)),
    "poisson-H-rel": lambda p, a: relativistic.poisson_kernel_halfspace(
        RelativisticParams(p, a.m), *_points(a, "x", "z")),
    "u-lambda": lambda p, a: relativistic.lambda_potential(
        RelativisticParams(p, a.m, a.lam), _scalar(a, "x"), _scalar(a, "y")),
}
KERNELS = tuple(_KERNELS)


def _cmd_eval(args) -> int:
    value = _KERNELS[args.kernel](StableParams(args.d, args.alpha), args)
    if args.format == "json":
        import json
        print(json.dumps({"kernel": args.kernel, "value": value}, sort_keys=True))
    else:
        print(repr(float(value)))
    return EXIT_OK


# --- verify -----------------------------------------------------------------

def _cmd_verify(args) -> int:
    rep = run_suite(args.suite, d=args.d, alpha=args.alpha, tol=args.tol,
                    seed=args.seed)
    text = rep.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK if rep.ok else EXIT_VERIFY_FAIL


# --- sample -----------------------------------------------------------------

def _cmd_sample(args) -> int:
    p = StableParams(args.d, args.alpha)
    stream = RngStream(args.seed, args.stream)
    rng = stream.generator()
    meta = {"sampler": args.sampler, "d": args.d, "alpha": args.alpha,
            "seed": args.seed, "stream": args.stream, "n": args.n}
    if args.sampler == "ball-exit":
        draws = montecarlo.sample_ball_exit_center(p, rng, args.n)
        sample = montecarlo.EmpiricalSample(draws, meta)
        radii = np.linalg.norm(draws, axis=1)
        summary = (f"n={args.n} seed={args.seed} mean|y|={radii.mean():.6g} "
                   f"P(|y|>2)={np.mean(radii > 2):.6g}")
    elif args.sampler == "halfplane-hit":
        x = as_point(_parse_point(args.x, "x") if args.x else basis_last(args.d))
        meta["x"] = ",".join(repr(float(v)) for v in x)
        draws = montecarlo.sample_halfplane_hit(p, x, rng, args.n)
        sample = montecarlo.EmpiricalSample(draws, meta)
        with np.errstate(over="ignore", invalid="ignore"):  # an inf draw: inf or nan
            m = draws[:, 0].mean()
            se = draws[:, 0].std() / math.sqrt(args.n)
        summary = f"n={args.n} seed={args.seed} mean[0]={m:.6g} stderr={se:.6g}"
    else:
        x = as_point(_parse_point(args.x, "x") if args.x else np.zeros(args.d))
        meta["x"] = ",".join(repr(float(v)) for v in x)
        cfg = WalkConfig(eps_shell=args.eps_shell, r_max=args.r_max)
        res = montecarlo.walk_on_balls_hitting(p, x, cfg, args.n, rng)
        sample = montecarlo.EmpiricalSample(
            np.array([[float(res.hits), float(res.escapes),
                       float(res.inconclusive)]]),
            meta | {"estimate": res.estimate, "stderr": res.stderr,
                    "bias_budget": res.bias_budget})
        summary = (f"n={args.n} seed={args.seed} estimate={res.estimate:.6g} "
                   f"stderr={res.stderr:.6g} bias_budget={res.bias_budget:.6g}")
    if args.out:
        sample.to_csv(args.out)
        summary += f" out={args.out}"
    print(summary)
    return EXIT_OK


# --- report -----------------------------------------------------------------

def _curve_phi(p, args, meta):      # phi and one-minus-phi
    rs = _parse_range(args.r)
    if rs.min() < 1.0 < rs.max():
        # snap the nearest point onto the sphere so the boundary value
        # (phi = 1 there) shows up in the table
        rs[int(np.argmin(np.abs(rs - 1.0)))] = 1.0
    fn = sphere.phi if args.curve == "phi" else sphere.phi_complement
    write_csv(args.out, meta, np.column_stack([rs, fn(p, rs)]),
              ["r", args.curve.replace("-", "_")])


def _curve_omega_alpha(p, args, meta):
    rs = _parse_range(args.r)
    dens = halfspace.omega_alpha_density(p, np.outer(rs, np.eye(args.d - 1)[0]))
    write_csv(args.out, meta, np.column_stack([rs, dens]), ["radius", "density"])


def _curve_qm(p, args, meta):
    rp = RelativisticParams(p, args.m)
    meta["m"] = args.m
    rs = _parse_range(args.r)
    rs = rs[rs > 0]
    write_csv(args.out, meta,
              np.column_stack([rs, relativistic.subordinator_potential(rp, rs)]),
              ["x", "qm"])


def _curve_poisson_h_profile(p, args, meta):
    rs = _parse_range(args.r)
    kern = halfspace.poisson_kernel(p, basis_last(args.d),
                                   np.outer(rs, np.eye(args.d - 1)[0]))
    write_csv(args.out, meta, np.column_stack([rs, kern]), ["ybar", "kernel"])


def _curve_fatou_decay(p, args, meta):
    meta["beta"] = args.beta
    smooth = analysis.BoundaryFunction(lambda pts: 1.0 + 0.5 * pts[:, 0])
    rep = analysis.HarmonicRepresentation(analysis.SPHERE, density=smooth)
    rng = RngStream(args.seed, 9).generator()
    probe = analysis.fatou_probe(p, rep, np.eye(args.d)[0], args.beta, args.depth, rng)
    rows = np.column_stack([np.arange(1, args.depth + 1), probe.deviations.max(axis=1),
                            probe.running_max_tail])
    write_csv(args.out, meta, rows, ["depth", "deviation", "running_max"])


def _curve_hardy_schedule(p, args, meta):
    meta["p"] = args.pexp
    grid = analysis.sphere_quadrature(p, 64)
    est = analysis.hardy_norm(p, analysis.SPHERE, analysis.radial_profile(p, sphere.phi),
                              args.pexp, grid=grid)
    write_csv(args.out, meta, est.slices, ["r", "slice_norm"])


# curve name -> CSV writer from (StableParams, parsed arguments, metadata)
_CURVES = {
    "phi": _curve_phi,
    "one-minus-phi": _curve_phi,
    "omega-alpha": _curve_omega_alpha,
    "qm": _curve_qm,
    "poisson-H-profile": _curve_poisson_h_profile,
    "fatou-decay": _curve_fatou_decay,
    "hardy-schedule": _curve_hardy_schedule,
}
CURVES = tuple(_CURVES)


def _cmd_report(args) -> int:
    meta = {"curve": args.curve, "d": args.d, "alpha": args.alpha,
            "seed": args.seed}
    _CURVES[args.curve](StableParams(args.d, args.alpha), args, meta)
    return EXIT_OK


_COMMANDS = {"eval": _cmd_eval, "verify": _cmd_verify, "sample": _cmd_sample,
             "report": _cmd_report}


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DomainError, DivergenceError, ValueError, ConvergenceError,
            OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
