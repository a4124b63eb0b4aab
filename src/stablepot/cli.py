"""Command line front end: evaluate kernels, verify identities, sample, report.

``eval KERNEL`` prints a kernel value, ``verify SUITE`` a JSON report (exit
1 on any FAIL); ``sample SAMPLER`` and ``report --curve CURVE`` write CSV.
One grammar, from the table ``_GRAMMAR`` (-h prints it): the command, then
its positional and the options it reads in any order, each ``--opt value``
or ``--opt=value``, the value being the next token unless it starts with
"--" (so ``--x -1,1`` works); the last repeat wins; an abbreviated or unread
option is a usage error.  Exit codes: 0 success, 1 verification failure, 2 usage,
domain or numerical error, 3 I/O error.  Equal --seed values (default 42)
reproduce byte-identical outputs.
"""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace

import numpy as np

from . import analysis, halfspace, montecarlo, relativistic, sphere
from .core import INFINITY, StableParams, as_point, basis_last, far_scale
from .errors import ConvergenceError, DivergenceError, DomainError
from .montecarlo import RngStream, WalkConfig
from .relativistic import RelativisticParams
from .report import write_csv
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

# the largest row count of a report range or sample; a range's columns take 160 MB
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
        p, np.zeros(p.d) if a.center is None else _parse_point(a.center, "center"),
        a.radius, *_points(a, "x", "y")),
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
    if args.n > _MAX_ROWS:
        raise DomainError(f"--n must be at most {_MAX_ROWS}, got {args.n}")
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
        # over the draws divided by their power of four, exactly, so that finite
        # draws have finite sums; an inf draw gives inf or nan
        s = far_scale(draws[:, 0])
        with np.errstate(over="ignore", invalid="ignore"):
            m = (draws[:, 0] / s).mean() * s
            se = (draws[:, 0] / s).std() * s / math.sqrt(args.n)
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


def _curve_qm(p, args, meta):
    rp = RelativisticParams(p, args.m)
    meta["m"] = args.m
    rs = _parse_range(args.r)
    rs = rs[rs > 0]
    write_csv(args.out, meta,
              np.column_stack([rs, relativistic.subordinator_potential(rp, rs)]),
              ["x", "qm"])


def _curve_halfspace_profile(p, args, meta):
    # omega-alpha and poisson-H-profile: the hitting density seen from e_d,
    # which is the omega_alpha density, along the first boundary axis
    rs = _parse_range(args.r)
    dens = halfspace.omega_alpha_density(p, np.outer(rs, np.eye(args.d - 1)[0]))
    header = ["radius", "density"] if args.curve == "omega-alpha" else ["ybar", "kernel"]
    write_csv(args.out, meta, np.column_stack([rs, dens]), header)


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
    # P[1] = Phi is radial: one node of weight 1 holds each slice norm exactly
    one_node = analysis.QuadratureGrid(basis_last(p.d)[None, :], np.ones(1))
    poisson_of_one = analysis.HarmonicRepresentation(
        analysis.SPHERE, density=analysis.BoundaryFunction(lambda pts: np.ones(len(pts))))
    est = analysis.hardy_norm(p, analysis.SPHERE, poisson_of_one, args.pexp, grid=one_node)
    write_csv(args.out, meta, est.slices, ["r", "slice_norm"])


# curve name -> CSV writer from (StableParams, parsed arguments, metadata)
_CURVES = {
    "phi": _curve_phi,
    "one-minus-phi": _curve_phi,
    "omega-alpha": _curve_halfspace_profile,
    "qm": _curve_qm,
    "poisson-H-profile": _curve_halfspace_profile,
    "fatou-decay": _curve_fatou_decay,
    "hardy-schedule": _curve_hardy_schedule,
}
CURVES = tuple(_CURVES)


def _cmd_report(args) -> int:
    meta = {"curve": args.curve, "d": args.d, "alpha": args.alpha,
            "seed": args.seed}
    _CURVES[args.curve](StableParams(args.d, args.alpha), args, meta)
    return EXIT_OK


# every option: flag -> (type, default[, dest]); a tuple type lists the choices,
# a default of ... makes it required, and dest is else the flag with "-" as "_"
_OPTIONS = {
    "--d": (int, 2), "--alpha": (float, 1.5), "--x": (str, None), "--y": (str, None),
    "--z": (str, None), "--center": (str, None), "--radius": (float, 1.0), "--r": (float, None),
    "--m": (float, 1.0), "--lambda": (float, 0.0, "lam"), "--p": (float, 1.0, "pexp"),
    "--tol": (float, None), "--seed": (int, 42), "--n": (int, 10_000), "--stream": (int, 0),
    "--eps-shell": (float, 1e-4), "--r-max": (float, 1e3), "--beta": (float, 1.0),
    "--depth": (int, 20), "--out": (str, None), "--format": (("text", "json"), "text"),
    "--curve": (CURVES, ...),
}


def _reads(*flags):
    # flag -> (type, default, dest) of --d, --alpha and the flags named
    return {f: (*_OPTIONS[f], f[2:].replace("-", "_"))[:3] for f in ("--d", "--alpha", *flags)}


# command -> (handler, positional, its choices, the options read; report's --r is a range)
_GRAMMAR = {
    "eval": (_cmd_eval, "kernel", KERNELS, _reads("--x", "--y", "--z", "--center", "--radius",
                                                  "--r", "--m", "--lambda", "--format")),
    "verify": (_cmd_verify, "suite", (*SUITES, "all"), _reads("--tol", "--seed", "--out")),
    "sample": (_cmd_sample, "sampler", ("ball-exit", "halfplane-hit", "walk-on-balls"),
               _reads("--x", "--stream", "--eps-shell", "--r-max", "--seed", "--n", "--out")),
    "report": (_cmd_report, None, (), _reads("--curve", "--beta", "--depth", "--m", "--p", "--seed",
                                             "--out") | {"--r": (str, "0.01:10:200", "r")}),
}


def _usage(command: str) -> str:
    _, positional, choices, options = _GRAMMAR[command]
    words = [f"usage: stablepot {command}"] + ["{%s}" % ",".join(choices)] * bool(positional)
    for flag, (kind, default, dest) in options.items():
        arg = f"{flag} " + ("{%s}" % ",".join(kind) if type(kind) is tuple else dest.upper())
        words.append(arg if default is ... else f"[{arg}]")
    return " ".join(words)


def _fail(command, message: str):
    # argparse's wording and exit code
    print(f"stablepot{' ' + command if command else ''}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _value(command, name: str, kind, text: str):
    if type(kind) is tuple and text not in kind:
        _fail(command, f"argument {name}: invalid choice: {text!r} (choose from "
                       f"{', '.join(map(repr, kind))})")
    try:
        return text if type(kind) is tuple else kind(text)
    except ValueError:
        _fail(command, f"argument {name}: invalid {kind.__name__} value: {text!r}")


def _parse(argv) -> SimpleNamespace:
    """The arguments of one command line, read by the grammar table."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if {"-h", "--help"} & set(argv):       # the usage of the command, or of all
        print("\n".join(map(_usage, argv[:1] if argv[0] in _GRAMMAR else _GRAMMAR)))
        raise SystemExit(EXIT_OK)
    command = _value(None, "command", tuple(_GRAMMAR), argv[0]) if argv else _fail(
        None, "the following arguments are required: command")
    _, positional, choices, options = _GRAMMAR[command]
    args = {"command": command} | {dest: d for _, d, dest in options.values() if d is not ...}
    extras, tokens = [], iter(argv[1:])
    for tok in tokens:
        flag, eq, text = tok.partition("=")
        if flag in options:
            if not eq:      # the next token, even one like -1,1, but no option
                text = next(tokens, "--")
                if text.startswith("--"):
                    _fail(command, f"argument {flag}: expected one argument")
            kind, _, dest = options[flag]
            args[dest] = _value(command, flag, kind, text)
        elif positional and positional not in args and not tok.startswith("--"):
            args[positional] = _value(command, positional, choices, tok)
        else:
            extras.append(tok)
    missing = [positional] * bool(positional and positional not in args) + [
        f for f, (_, d, dest) in options.items() if d is ... and dest not in args]
    if missing:
        _fail(command, "the following arguments are required: " + ", ".join(missing))
    if extras:
        _fail(None, "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        return _GRAMMAR[args.command][0](args)
    except (DomainError, DivergenceError, ValueError, ConvergenceError,
            OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
