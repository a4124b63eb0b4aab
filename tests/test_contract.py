"""Robustness contract of the array entry points and of ``stablepot eval``.

At every radius or height in [0, 1e300], and at NaN and inf, a call
returns finite values or raises one of the package's typed errors; it
never returns NaN or inf and never lets a RuntimeWarning (an error in
this suite) or a raw arithmetic exception escape.  Every ``eval`` kernel
at d = 2, 3, 13 and 40, with any one point argument pushed to 1e300,
1e-300, +-1.7e308, NaN, inf or the point at infinity, prints one finite
value and exits 0, or prints one ``error:`` line and exits 2; so does any
``eval`` call with some of its options left out or pushed to those values,
and any ``sample`` call, at the point at infinity or fewer than one draw
included.
"""

import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablepot import cli, sphere
from stablepot.analysis import (HALFSPACE, SPHERE, BoundaryFunction,
                                DiscreteMeasure, HarmonicRepresentation,
                                halfspace_values, sphere_values)
from stablepot.core import StableParams, basis_last
from stablepot.errors import (ConvergenceError, DivergenceError, DomainError,
                              RepresentationError)

TYPED = (DomainError, ConvergenceError, DivergenceError, RepresentationError)
CONTRACT = settings(derandomize=True, database=None, max_examples=60, deadline=None)
RADII = st.one_of(st.floats(0.0, 1e300), st.sampled_from([math.nan, math.inf]))
DIMS = st.sampled_from([2, 3])


def _direction(d):
    v = np.arange(1.0, d + 1.0)
    return v / np.linalg.norm(v)


def _sphere_reps(d):
    dens = BoundaryFunction(lambda z: 1.0 + 0.5 * z[:, 0])
    atoms = DiscreteMeasure(np.stack([_direction(d), basis_last(d)]), [0.7, -0.2])
    return (HarmonicRepresentation(SPHERE, density=dens, constant=0.5),
            HarmonicRepresentation(SPHERE, measure=atoms, constant=-0.3))


def _halfspace_reps(d):
    bump = BoundaryFunction(lambda y: 1.0 / (1.0 + np.sum(y * y, axis=1)))
    gauss = BoundaryFunction(lambda y: np.exp(-np.sum(y * y, axis=1)))
    atom = DiscreteMeasure(np.zeros((1, d - 1)), [1.0])
    return (HarmonicRepresentation(HALFSPACE, density=bump, constant=0.5),
            HarmonicRepresentation(HALFSPACE, density=gauss, flavor="martin"),
            HarmonicRepresentation(HALFSPACE, measure=atom, constant=0.2),
            HarmonicRepresentation(HALFSPACE, measure=atom, flavor="martin"))


SPHERE_REPS = {d: _sphere_reps(d) for d in (2, 3)}
HALFSPACE_REPS = {d: _halfspace_reps(d) for d in (2, 3)}   # integrability checked once


def _finite_or_typed_error(call):
    try:
        out = call()
    except TYPED:
        return None
    assert np.all(np.isfinite(out))
    return out


@CONTRACT
@given(d=DIMS, r=RADII)
def test_sphere_poisson_kernel(d, r):
    p = StableParams(d, 1.2 if d == 3 else 1.5)
    out = _finite_or_typed_error(lambda: sphere.poisson_kernel(
        p, r * _direction(d), np.stack([basis_last(d), -_direction(d)])))
    assert out is None or np.all(out >= 0.0)


@CONTRACT
@given(d=DIMS, r=RADII)
def test_sphere_values(d, r):
    p = StableParams(d, 1.2 if d == 3 else 1.5)
    for rep in SPHERE_REPS[d]:
        _finite_or_typed_error(lambda: sphere_values(p, rep, r - 1.0, _direction(d)))


@CONTRACT
@given(d=DIMS, t=RADII, below=st.booleans())
def test_halfspace_values(d, t, below):
    p = StableParams(d, 1.2 if d == 3 else 1.5)
    xbar = 0.5 * _direction(d - 1) if d > 2 else np.array([0.0])
    for rep in HALFSPACE_REPS[d]:
        _finite_or_typed_error(lambda: halfspace_values(
            p, rep, xbar, -t if below else t))


# --- stablepot eval ----------------------------------------------------------

def _last(d, v, n=None):
    return [0.0] * ((n or d) - 1) + [v]


# per kernel, the option sets of an ordinary call: a list is a point (its
# last coordinate is swept; so is the whole argument, as "inf" = INFINITY),
# a float a radius or scalar point (swept), a string an option held fixed
EVAL_CASES = {
    "phi": lambda d: [{"x": _last(d, 0.5)}, {"r": 0.5}],
    "poisson-D": lambda d: [{"x": _last(d, 0.5), "z": _last(d, 1.0)}],
    "green-D": lambda d: [{"x": _last(d, 0.5), "y": _last(d, 2.0)}],
    "martin-D": lambda d: [{"x": _last(d, 0.5), "z": _last(d, 1.0)}],
    "poisson-H": lambda d: [{"x": _last(d, 1.0), "z": _last(d, 0.3, d - 1)}],
    "green-H": lambda d: [{"x": _last(d, 1.0), "y": _last(d, 2.0)}],
    "martin-H": lambda d: [{"x": _last(d, 1.0), "z": _last(d, 0.3, d - 1)}],
    "ball-poisson": lambda d: [{"center": _last(d, 0.0), "radius": 1.0,
                                "x": _last(d, 0.5), "y": _last(d, 2.0)}],
    "phi-rel": lambda d: [{"x": _last(d, 2.0), "radius": 1.0},
                          {"r": 2.0, "radius": 1.0}],
    "poisson-H-rel": lambda d: [{"x": _last(d, 1.0), "z": _last(d, 0.3, d - 1)}],
    "u-lambda": lambda d: [{"x": 0.5, "y": 1.5, "lambda": "0.5"}],
}
EXTREMES = (1e300, 1e-300, 1.7e308, -1.7e308, math.nan, math.inf)


def _text(value):
    if isinstance(value, list):
        return ",".join(repr(v) for v in value)
    return value if isinstance(value, str) else repr(value)


def _eval_argvs(kernel, d):
    for base in EVAL_CASES[kernel](d):
        for key, value in base.items():
            if isinstance(value, str):
                continue
            swept = [value[:-1] + [v] if isinstance(value, list) else v
                     for v in EXTREMES]
            if isinstance(value, list):
                swept.append("inf")
            for v in swept:
                opts = dict(base, **{key: v})
                yield ["eval", kernel, "--d", str(d), "--alpha", "1.5",
                       *(f"--{k}={_text(w)}" for k, w in opts.items())]


# kernels whose value at radii of 1e300 and 1e-300 lies in the float range,
# so the sweep must print it: the relativistic potentials are integrated
# in log form and their hitting ratios formed from the logs
EVALUATE_AT_EXTREMES = ("phi-rel", "u-lambda")


def test_eval_cases_cover_every_kernel():
    assert set(EVAL_CASES) == set(cli.KERNELS)


@pytest.mark.parametrize("d", [2, 3, 13, 40])
@pytest.mark.parametrize("kernel", cli.KERNELS)
def test_eval_exit_contract(kernel, d, capsys):
    for argv in _eval_argvs(kernel, d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
        out, err = capsys.readouterr()
        extreme = any(tok.endswith(("=1e+300", "=1e-300", ",1e+300", ",1e-300"))
                      for tok in argv)
        if kernel in EVALUATE_AT_EXTREMES and extreme:
            assert code == 0, (argv, err)
        if code == 0:
            assert math.isfinite(float(out)) and err == "", argv
        else:
            assert code == 2 and out == "", argv
            assert len(err.splitlines()) == 1 and err.startswith("error: "), argv


def _run_cli(argv):
    # (exit code, stdout, stderr) of one in-process run, warnings as errors
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_exit_contract(argv, code, out, err, printed):
    # exit 0 with finite printed numbers and nothing on stderr, or exit 2
    # with one error line and nothing on stdout
    if code == 0:
        assert err == "" and all(math.isfinite(v) for v in printed(out)), (argv, out, err)
    else:
        assert code == 2 and out == "", (argv, code)
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)


# what an option of an ordinary eval call may become: left out, the point at
# infinity, or its swept coordinate set to NaN, inf or a float-range extreme
OPTION_FATES = st.sampled_from(["keep", "drop", "inf", *EXTREMES])


@st.composite
def _eval_argv(draw):
    kernel = draw(st.sampled_from(cli.KERNELS))
    d = draw(DIMS)
    base = draw(st.sampled_from(EVAL_CASES[kernel](d)))
    opts = {}
    for key, value in base.items():
        fate = draw(OPTION_FATES)
        if fate == "drop":
            continue
        if fate == "keep" or isinstance(value, str):
            opts[key] = value
        elif fate == "inf":
            opts[key] = "inf" if isinstance(value, list) else math.inf
        else:
            opts[key] = value[:-1] + [fate] if isinstance(value, list) else fate
    return ["eval", kernel, "--d", str(d), "--alpha", "1.5",
            *(f"--{k}={_text(w)}" for k, w in opts.items())]


@CONTRACT
@given(argv=_eval_argv())
@example(argv=["eval", "phi", "--d", "2", "--alpha", "1.5"])
@example(argv=["eval", "green-H", "--d", "2", "--alpha", "1.5", "--x=0.0,1.0"])
@example(argv=["eval", "poisson-D", "--d", "2", "--alpha", "1.5", "--z=0.0,1.0"])
def test_eval_exit_contract_property(argv):
    code, out, err = _run_cli(argv)
    _assert_exit_contract(argv, code, out, err, lambda text: [float(text)])


def _summary_numbers(text):
    # the numbers of a sample summary line "n=... seed=... key=value ..."
    return [float(tok.split("=")[1]) for tok in text.split()]


@CONTRACT
@given(sampler=st.sampled_from(["ball-exit", "halfplane-hit", "walk-on-balls"]),
       d=DIMS,
       x=st.one_of(st.none(), st.just("inf"), st.sampled_from(EXTREMES)),
       n=st.integers(-3, 3))
@example(sampler="halfplane-hit", d=2, x="inf", n=10)
@example(sampler="walk-on-balls", d=2, x="inf", n=10)
@example(sampler="ball-exit", d=2, x=None, n=0)
@example(sampler="halfplane-hit", d=2, x=None, n=0)
@example(sampler="ball-exit", d=3, x=None, n=-1)
def test_sample_exit_contract_property(sampler, d, x, n):
    # a start point is ordinary (None), the point at infinity, or the point
    # 0.5 e_d with its last coordinate replaced by an extreme
    argv = ["sample", sampler, "--d", str(d), "--alpha", "1.5", "--n", str(n)]
    if x is not None and sampler != "ball-exit":
        argv.append(f"--x={_text(x if x == 'inf' else _last(d, x))}")
    code, out, err = _run_cli(argv)
    _assert_exit_contract(argv, code, out, err, _summary_numbers)
    if n < 1 or (x == "inf" and sampler != "ball-exit"):
        assert code == 2, argv


def test_sample_tail_draw_past_the_float_range():
    # at alpha = 1.05 stream (1114, 4) draws one hitting time past the float
    # range: the sample is written, and its summary reads inf and nan
    code, out, err = _run_cli(["sample", "halfplane-hit", "--d", "2", "--alpha", "1.05",
                               "--seed", "1114", "--stream", "4", "--n", "20000"])
    assert (code, err) == (0, "")
    assert out == "n=20000 seed=1114 mean[0]=inf stderr=nan\n"


@pytest.mark.parametrize("x", ["1.7e308,1", "1e308,1"])
def test_sample_summary_of_draws_past_the_float_range_of_their_sum(x):
    # finite draws near DBL_MAX: their mean and spread stay finite
    code, out, err = _run_cli(["sample", "halfplane-hit", "--d", "2", "--x", x, "--n", "5"])
    assert (code, err) == (0, "")
    assert all(math.isfinite(v) for v in _summary_numbers(out)), out


@pytest.mark.parametrize("r_max", ["inf", "1e308", "2e307"])
def test_walk_far_field_window_past_the_float_range(r_max):
    # [r_max, 10 r_max] must lie in the float range: one error line, no warning
    code, out, err = _run_cli(["sample", "walk-on-balls", "--r-max", r_max, "--n", "10"])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    code, out, err = _run_cli(["sample", "walk-on-balls", "--r-max", "1e306", "--n", "10"])
    assert (code, err) == (0, "")


GOLDEN_BAND = (math.sqrt(1.0 - 2.0 / (1.0 + math.sqrt(5.0))),   # r^2 - 1 = -1/golden
               math.sqrt(1.0 + (1.0 + math.sqrt(5.0)) / 2.0))    # r^2 - 1 = golden


@CONTRACT
@given(d=st.integers(2, 1000),
       alpha=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
       r=st.one_of(st.floats(0.0, 1e300), st.floats(*GOLDEN_BAND),
                   st.sampled_from([math.nan, math.inf])))
def test_eval_phi_in_every_dimension(d, alpha, r):
    # a finite radius prints Phi in [0, 1] at every d, the golden-ratio
    # band included; NaN and inf print one error line
    code, out, err = _run_cli(["eval", "phi", "--d", str(d), "--alpha", repr(alpha),
                               f"--r={r!r}"])
    if math.isfinite(r):
        assert code == 0 and err == "", (d, alpha, r, err)
        assert 0.0 <= float(out) <= 1.0, (d, alpha, r, out)
    else:
        assert code == 2 and out == "", (d, alpha, r)
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (d, alpha, r)


# --- Phi over arrays ---------------------------------------------------------

# the kinds of radius that pick Phi's routes: the golden-ratio band, its
# edges r^2 - 1 = -1/golden, golden and their neighbours, offsets from the
# sphere down to 1e-15, the origin, past sqrt(DBL_MAX), where r^2 - 1 overflows, and inf
ROUTE_RADII = st.one_of(
    st.floats(*GOLDEN_BAND),
    st.sampled_from([np.nextafter(r, t) for r in GOLDEN_BAND for t in (0.0, 2.0)]
                    + list(GOLDEN_BAND) + [0.0, math.inf]),
    st.builds(lambda k, sgn: 1.0 + sgn * 10.0 ** -k, st.floats(1.0, 15.0),
              st.sampled_from([1.0, -1.0])),
    st.floats(1.35e154, 1e300),
    st.floats(0.0, 1e3))
PHI_ROUTES = ("phi", "phi_complement", "phi_complement_offset")


def _as_route_input(name, r):
    return r - 1.0 if name == "phi_complement_offset" else r


@CONTRACT
@given(d=st.integers(2, 1000),
       alpha=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
       radii=st.lists(ROUTE_RADII, min_size=1, max_size=40),
       rows=st.sampled_from([1, 2]))
def test_phi_array_route_equals_float_route(d, alpha, radii, rows):
    # an array of at least _ARRAY_MIN radii takes the array route, which
    # gives the float route's bits elementwise and keeps the input's shape
    p = StableParams(d, alpha)
    rs = np.resize(np.array(radii), 2 * max(len(radii), sphere._ARRAY_MIN)).reshape(rows, -1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in PHI_ROUTES:
            fn = getattr(sphere, name)
            x = _as_route_input(name, rs)
            got = fn(p, x)
            want = np.array([fn(p, v) for v in x.ravel().tolist()]).reshape(x.shape)
            assert got.shape == x.shape and got.dtype == float
            assert np.array_equal(got, want), (name, d, alpha)
            assert np.all((got >= 0.0) & (got <= 1.0))
            assert isinstance(fn(p, float(x.flat[0])), float)
        finite = rs[rs < 1e154]
        delta = (finite - 1.0) * (finite + 1.0)
        assert np.array_equal(sphere.phi_complement_delta(p, delta),
                              [sphere.phi_complement_delta(p, v) for v in delta.tolist()])
        # arrays under _ARRAY_MIN, a 0-d array and an int take the float route
        for name in PHI_ROUTES + ("phi_complement_delta",):
            fn = getattr(sphere, name)
            x = delta if name == "phi_complement_delta" else _as_route_input(name, rs).ravel()
            for small in (x[:1], x[:5]):
                got = fn(p, small)
                assert got.shape == small.shape and got.dtype == float
                assert np.array_equal(got, [fn(p, v) for v in small.tolist()]), (name, small)
            if x.size:
                got = fn(p, np.array(x[0]))
                assert isinstance(got, float) and got == fn(p, float(x[0]))
            got = fn(p, 2)
            assert isinstance(got, float) and got == fn(p, 2.0)
        spoiled = rs.copy()
        spoiled.flat[len(radii) // 2] = math.nan
        for name in PHI_ROUTES:
            with pytest.raises(DomainError):
                getattr(sphere, name)(p, _as_route_input(name, spoiled))


def _premise_arguments():
    # arguments of the kind the Phi routes pass: log1p of delta in the band
    # and of -s/2; exp and expm1 of (alpha - d)/2 log(1 + delta) up to d = 1000
    # and of a clipped 2F1 prefactor; powers of |delta| with the band's and
    # the far route's exponents
    rng = np.random.default_rng(26)
    n = 1024
    tiny = 10.0 ** rng.uniform(-300.0, 0.2, n)
    return {
        "log1p": np.concatenate([rng.uniform(-0.62, 1.62, 3 * n), tiny]),
        "exp": np.concatenate([-10.0 ** rng.uniform(-17.0, 2.7, 2 * n),
                               rng.uniform(-745.0, 709.0, 2 * n)]),
        "expm1": np.concatenate([-10.0 ** rng.uniform(-17.0, 2.7, 3 * n), tiny]),
        "power": np.concatenate([tiny, rng.uniform(0.6, 1.7, n),
                                 10.0 ** rng.uniform(0.2, 308.0, 2 * n)]),
    }


def test_numpy_rounds_a_float_as_an_array_element():
    # The premise of the two Phi routes agreeing bit for bit: numpy's exp,
    # log1p, expm1 and power give a Python float the bits they give it as an
    # element of an array, of any size and stride.  The C library rounds
    # some 5% of these arguments differently, so a route that mixed the two
    # would not agree.
    failures = []
    for name, x in _premise_arguments().items():
        ufunc = getattr(np, name)
        exponents = (0.005, 0.25, 0.99, -0.005, -0.5, -1.5, -499.0) if name == "power" \
            else (None,)
        for e in exponents:
            args = () if e is None else (e,)
            with np.errstate(all="ignore"):     # powers past the float range: inf or 0
                scalar = np.array([float(ufunc(v, *args)) for v in x.tolist()])
                layouts = [(f"an array of size {m}", np.concatenate(
                    [ufunc(x[i:i + m], *args) for i in range(0, x.size, m)]))
                    for m in (1, 17, 4096)]
                layouts.append(("a strided view", ufunc(np.repeat(x, 2)[::2], *args)))
            for layout, got in layouts:
                bad = np.flatnonzero(got != scalar)
                if bad.size:
                    i = bad[0]
                    failures.append(
                        f"np.{name}({float(x[i])!r}{', ' + repr(e) if args else ''}) is "
                        f"{float(scalar[i])!r} on a float but {float(got[i])!r} in {layout} "
                        f"({bad.size} of {x.size} arguments differ)")
    assert not failures, "this numpy build rounds floats and arrays apart, so " \
        "sphere.phi's float and array routes disagree:\n" + "\n".join(failures)


@CONTRACT
@given(curve=st.sampled_from(["phi", "one-minus-phi"]),
       d=st.sampled_from([2, 3, 13]),
       alpha=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
       lo=st.one_of(st.floats(-2.0, 1e3), st.floats(allow_nan=True, allow_infinity=True)),
       hi=st.one_of(st.floats(0.0, 1e3), st.floats(allow_nan=True, allow_infinity=True)),
       n=st.integers(-2, 300))
@example(curve="phi", d=2, alpha=1.5, lo=0.0, hi=1.7976931348623157e308, n=25)
def test_report_phi_curve_contract(curve, d, alpha, lo, hi, n):
    # n finite rows in [0, 1] and exit 0, or one error line and exit 2
    argv = ["report", "--curve", curve, "--d", str(d), "--alpha", repr(alpha),
            f"--r={lo!r}:{hi!r}:{n}"]
    code, out, err = _run_cli(argv)
    if code == 0:
        assert err == ""
        rows = np.loadtxt([ln for ln in out.splitlines() if not ln.startswith("#")][1:],
                          delimiter=",", ndmin=2)
        assert rows.shape == (n, 2), argv
        assert np.all(np.isfinite(rows)) and np.all((rows[:, 1] >= 0.0) & (rows[:, 1] <= 1.0))
    else:
        assert code == 2 and out == "", argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), argv
