import argparse
import hashlib
import importlib.util
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stablepot
from stablepot import cli
from stablepot.cli import main
from stablepot.suites import SUITES

SRC = str(Path(stablepot.__file__).resolve().parents[1])
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def read_curve(path):
    # the rows of a report CSV, past its metadata lines and header row
    lines = path.read_text().splitlines()
    meta = sum(1 for ln in lines if ln.startswith("#"))
    return np.loadtxt(path, delimiter=",", skiprows=meta + 1, ndmin=2)


def run_cli_process(*argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "stablepot.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def argparse_oracle() -> argparse.ArgumentParser:
    # the argparse parser the CLI's grammar table replaced, kept as a
    # reference; only --center's default follows the table (the origin of
    # R^d, given as None, where it was "0,0")
    options = {
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
    ap = argparse.ArgumentParser(prog="stablepot")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, *flags):
        for flag in ("--d", "--alpha", *flags):
            sp.add_argument(flag, **options[flag])

    se = sub.add_parser("eval")
    se.add_argument("kernel", choices=cli.KERNELS)
    se.add_argument("--x", type=str, default=None)
    se.add_argument("--y", type=str, default=None)
    se.add_argument("--z", type=str, default=None)
    se.add_argument("--center", type=str, default=None)
    se.add_argument("--radius", type=float, default=1.0)
    se.add_argument("--r", type=float, default=None)
    common(se, "--m", "--lambda", "--format")

    sv = sub.add_parser("verify")
    sv.add_argument("suite", choices=tuple(SUITES) + ("all",))
    common(sv, "--tol", "--seed", "--out")

    ss = sub.add_parser("sample")
    ss.add_argument("sampler", choices=("ball-exit", "halfplane-hit", "walk-on-balls"))
    ss.add_argument("--x", type=str, default=None)
    ss.add_argument("--stream", type=int, default=0)
    ss.add_argument("--eps-shell", type=float, default=1e-4)
    ss.add_argument("--r-max", type=float, default=1e3)
    common(ss, "--seed", "--n", "--out")

    sr = sub.add_parser("report")
    sr.add_argument("--curve", choices=cli.CURVES, required=True)
    sr.add_argument("--r", type=str, default="0.01:10:200")
    sr.add_argument("--beta", type=float, default=1.0)
    sr.add_argument("--depth", type=int, default=20)
    common(sr, "--m", "--p", "--seed", "--out")
    return ap


class TestEval:
    def test_martin_sphere_at_origin(self, capsys):
        code, out, _ = run(capsys, "eval", "martin-D", "--d", "2",
                           "--alpha", "1.5", "--x", "0,0", "--z", "1,0")
        assert code == 0
        assert float(out) == 1.0

    def test_martin_halfspace_at_infinity(self, capsys):
        code, out, _ = run(capsys, "eval", "martin-H", "--d", "2",
                           "--alpha", "1.5", "--x", "0,2", "--z", "inf")
        assert code == 0
        assert float(out) == pytest.approx(math.sqrt(2.0), rel=1e-15, abs=0)

    def test_green_halfspace_symmetry(self, capsys):
        code, a, _ = run(capsys, "eval", "green-H", "--x", "0,1", "--y", "1,-1")
        code2, b, _ = run(capsys, "eval", "green-H", "--x", "1,-1", "--y", "0,1")
        assert code == code2 == 0
        assert a == b

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "eval", "phi", "--r", "2.0",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kernel"] == "phi"
        assert 0.0 < payload["value"] < 1.0

    def test_ball_poisson_kernel(self, capsys):
        code, out, _ = run(capsys, "eval", "ball-poisson", "--center", "0,0",
                           "--radius", "1.0", "--x", "0,0", "--y", "1.7,0")
        code2, out2, _ = run(capsys, "eval", "ball-poisson", "--center", "0,0",
                             "--radius", "1.0", "--x", "0,0", "--y", "0,-1.7")
        assert code == code2 == 0
        assert out == out2              # isotropy from the center

    @pytest.mark.parametrize("d", [3, 4])
    def test_ball_poisson_center_defaults_to_the_origin(self, capsys, d):
        x, y = ",".join(["0"] * d), ",".join(["2"] + ["0"] * (d - 1))
        code, out, err = run(capsys, "eval", "ball-poisson", "--d", str(d), "--x", x, "--y", y)
        assert code == 0 and err == ""
        code2, out2, _ = run(capsys, "eval", "ball-poisson", "--d", str(d), "--x", x, "--y", y,
                             "--center", ",".join(["0"] * d))
        assert code2 == 0
        assert out == out2

    def test_negative_values_in_either_form(self, capsys):
        code, a, _ = run(capsys, "eval", "green-H", "--x", "-1,1", "--y", "1,-1")
        code2, b, _ = run(capsys, "eval", "green-H", "--x=-1,1", "--y=1,-1")
        assert code == code2 == 0
        assert a == b
        code, a, _ = run(capsys, "eval", "phi", "--x", "-0.5,-1")
        code2, b, _ = run(capsys, "eval", "phi", "--x=-0.5,-1")
        assert code == code2 == 0
        assert a == b

    def test_relativistic_hitting(self, capsys):
        code, out, _ = run(capsys, "eval", "phi-rel", "--d", "2",
                           "--alpha", "1.5", "--m", "1.0", "--radius", "1.0",
                           "--x", "3,4")
        assert code == 0
        assert float(out) == 1.0        # planar massive process is recurrent
        code, out, _ = run(capsys, "eval", "phi-rel", "--d", "3",
                           "--alpha", "1.5", "--m", "1.0", "--radius", "1.0",
                           "--x", "0,0,2")
        assert code == 0
        assert 0.0 < float(out) < 1.0

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(capsys, "eval", "phi", "--r", "2.0",
                           "--alpha", "0.5")
        assert code == 2
        assert "error" in err

    def test_unknown_kernel_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "bogus-kernel"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("eval", "poisson-H", "--d", "500",               # c3 beyond the float range
         "--x", ",".join(["0"] * 499 + ["1"]), "--z", ",".join(["0"] * 499)),
        ("eval", "phi", "--r", "nan"),
    ])
    def test_numerical_failure_is_a_usage_error(self, argv):
        res = run_cli_process(*argv)
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert "error:" in res.stderr

    def test_phi_at_large_dimension_evaluates(self):
        # Gamma((d + alpha)/2 - 1) overflowed inside the constants at d = 400,
        # and r = 1.5 in the golden-ratio band was refused as cancelling
        for r in ("1.5", "2", "0.5"):
            res = run_cli_process("eval", "phi", "--d", "400", "--alpha", "1.5",
                                  "--r", r)
            assert res.returncode == 0
            assert res.stderr == ""
            assert 0.0 <= float(res.stdout) <= 1.0
        assert float(res.stdout) == pytest.approx(0.1976470190745546, rel=1e-12, abs=0)

    def test_green_far_point_evaluates(self):
        # |y| = 1e200 once overflowed |y|^2 and ended in an error; the
        # value is A_(d,alpha) |y|^(alpha-d) (1 - Phi(|x|)) to rounding
        res = run_cli_process("eval", "green-D", "--x", "0,0.5", "--y", "0,1e200")
        assert res.returncode == 0
        assert res.stderr == ""
        p = stablepot.StableParams(2, 1.5)
        want = stablepot.sphere.constants(p).a_d_alpha * 1e200 ** -0.5 \
            * (1.0 - stablepot.sphere.phi(p, 0.5))
        assert float(res.stdout) == pytest.approx(want, rel=1e-12, abs=0)

    def test_divergence_maps_to_domain_exit(self, capsys):
        code, _, err = run(capsys, "eval", "u-lambda", "--d", "2",
                           "--alpha", "1.5", "--m", "1.0", "--lambda", "0",
                           "--x", "2", "--y", "1")
        assert code == 2


UNREAD_OPTIONS = [
    ("eval", "phi", "--r", "2", "--seed", "3"),
    ("verify", "identities", "--format", "json"),
    ("sample", "ball-exit", "--n", "10", "--tol", "1e-3"),
    ("report", "--curve", "phi", "--lambda", "0.5"),
]


class TestOptions:
    @pytest.mark.parametrize("argv", UNREAD_OPTIONS)
    def test_unread_option_is_a_usage_error(self, capsys, argv):
        # each subcommand declares only the options it reads
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_parser_keeps_no_state_between_calls(self, capsys):
        # a verify with non-default options, then the usage errors above,
        # must leave every later parse equal to one by a fresh argparse oracle
        code, _, _ = run(capsys, "verify", "relativistic", "--d", "3", "--alpha", "1.2",
                         "--tol", "0.5", "--seed", "7")
        assert code == 0
        for argv in UNREAD_OPTIONS:
            with pytest.raises(SystemExit):
                main(list(argv))
        capsys.readouterr()
        fresh = argparse_oracle()
        for argv in (["verify", "relativistic"], ["eval", "phi", "--r", "2"],
                     ["sample", "ball-exit"], ["report", "--curve", "qm"]):
            assert vars(cli._parse(argv)) == vars(fresh.parse_args(argv))


def load_workloads():
    # perfbench/workloads.py, which imports only the standard library
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload_argvs():
    # every argv the benchmark generates: the cold eval of each session, the
    # full and probe-sized cli-mix sessions, and the verify commands
    wl = load_workloads()
    argvs = [wl.setup_argv(seed) for seed in (1, 2, 3)]
    argvs += [op["argv"] for seed in (1, 2, 3) for index in range(4)
              for scale in (1.0, wl.PROBE_SCALE) for op in wl.cli_session(seed, index, scale)]
    argvs += [wl.verify_argv(workload, vseed) for workload in wl.VERIFY_PARAMS
              for vseed in range(1, 11)]
    return argvs


def usage_error(capsys, parse, argv):
    # the message after "error: " of a usage error, which must exit 2
    with pytest.raises(SystemExit) as exc:
        parse(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err.splitlines()[-1].split("error: ", 1)[1]


BAD_ARGVS = [
    ("eval", "phi", "--r", "2", "--bogus", "1"),              # an unknown option
    ("sample", "ball-exit", "--curve", "phi"),                # another command's option
    ("eval", "bogus-kernel"),
    ("verify", "bogus-suite"),
    ("sample", "bogus-sampler"),
    ("report", "--curve", "bogus"),
    ("eval", "phi", "--r", "2", "--format", "xml"),
    ("sample", "ball-exit", "--n", "1.5"),
    ("verify", "identities", "--seed", "x"),
    ("report", "--curve", "fatou-decay", "--depth", "3.0"),
    ("eval", "phi", "--r", "x"),
    ("eval", "phi", "--r"),                                   # a missing value
    ("eval", "green-H", "--x", "--y", "0,1"),
    ("report", "--r", "0:1:5"),                               # no --curve
    ("eval", "--r", "2"),                                     # no kernel
    ("bogus",),
    (),                                                       # no command
]


class TestGrammar:
    def test_workload_argvs_parse_as_under_argparse(self):
        oracle = argparse_oracle()
        argvs = workload_argvs()
        assert len(argvs) > 6000
        for argv in argvs:
            assert vars(cli._parse(argv)) == vars(oracle.parse_args(argv)), argv

    @pytest.mark.parametrize("argv", BAD_ARGVS, ids=lambda a: " ".join(a) or "no command")
    def test_usage_error_in_argparse_wording(self, capsys, argv):
        assert usage_error(capsys, cli._parse, argv) == \
            usage_error(capsys, argparse_oracle().parse_args, argv)

    @pytest.mark.parametrize("argv,joined", [
        ("eval green-H --x -1,1 --y 1,-1", "eval green-H --x=-1,1 --y=1,-1"),
        ("eval phi --r -inf", "eval phi --r=-inf"),
        ("sample walk-on-balls --x -0.5,0 --n 10", "sample walk-on-balls --x=-0.5,0 --n 10"),
    ])
    def test_space_form_reads_a_negative_value(self, capsys, argv, joined):
        # argparse takes such a value for an option and refuses the line; the
        # table takes the next token, as argparse does in the --opt=value form
        oracle = argparse_oracle()
        assert "expected one argument" in usage_error(capsys, oracle.parse_args, argv.split())
        assert vars(cli._parse(argv.split())) == vars(oracle.parse_args(joined.split()))

    @pytest.mark.parametrize("argv", [
        ("eval", "phi", "--r", "2", "--alp", "1.5"),
        ("verify", "identities", "--se", "3"),
        ("sample", "walk-on-balls", "--r", "5"),                # --r-max to argparse
    ])
    def test_abbreviation_is_a_usage_error(self, capsys, argv):
        argparse_oracle().parse_args(list(argv))
        assert usage_error(capsys, main, argv).startswith("unrecognized arguments: ")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    @pytest.mark.parametrize("command", [None, *cli._GRAMMAR])
    def test_help_prints_the_table_usage(self, capsys, flag, command):
        with pytest.raises(SystemExit) as exc:
            main([flag] if command is None else [command, flag])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        commands = list(cli._GRAMMAR) if command is None else [command]
        assert err == "" and len(out.splitlines()) == len(commands)
        for line, name in zip(out.splitlines(), commands):
            _, _, choices, options = cli._GRAMMAR[name]
            assert line.startswith(f"usage: stablepot {name}")
            assert all(word in line for word in (*choices, *options))


class TestVerify:
    def test_identities_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "identities", "--d", "2",
                           "--alpha", "1.5")
        assert code == 0
        rep = json.loads(out)
        assert rep["suite"] == "identities"
        assert rep["summary"]["fail"] == 0
        assert {"check_id", "status", "value", "expected", "tolerance",
                "citation"} <= set(rep["entries"][0])

    def test_hardy_reports_expected_divergences(self, capsys):
        code, out, _ = run(capsys, "verify", "hardy")
        assert code == 0
        rep = json.loads(out)
        statuses = {e["check_id"]: e["status"] for e in rep["entries"]}
        assert statuses["gallery-linear-coordinate-halfplane"] == \
            "DIVERGES_AS_EXPECTED"
        assert statuses["gallery-kelvin-image-exit-norm"] == \
            "DIVERGES_AS_EXPECTED"
        assert statuses["gallery-shifted-kelvin-image-sphere"] == \
            "DIVERGES_AS_EXPECTED"


    def test_martin_density_near_alpha_one_reports(self, capsys):
        # tail nodes at infinity once reached omega's finite-point check, and
        # the fatou suite exited 2 without a report
        code, out, _ = run(capsys, "verify", "fatou", "--d", "2", "--alpha", "1.01",
                           "--seed", "1")
        assert code in (0, 1)
        vals = {e["check_id"]: e["value"] for e in json.loads(out)["entries"]}
        assert math.isfinite(vals["fatou-martin-density-halfplane-beta0.5"])

    @pytest.mark.parametrize("d,alpha", [("2", "1.01"), ("2", "1.99"), ("3", "1.01"),
                                         ("3", "1.99")])
    def test_verify_all_reports_at_the_ends_of_alpha(self, capsys, d, alpha):
        # every suite runs to a report at alpha next to 1 and 2, without a
        # raw exception or a warning; which checks pass there is not pinned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify", "all", "--d", d, "--alpha", alpha,
                                 "--seed", "1")
        assert code in (0, 1) and err == ""
        assert json.loads(out)["entries"]

    @pytest.mark.parametrize("workload,d,alpha", [("verify-d2", "2", "1.5"),
                                                  ("verify-d3", "3", "1.2")])
    def test_statuses_match_the_benchmark_reference(self, capsys, workload, d, alpha):
        # every check's status under `verify all --seed 1` is the one the
        # benchmark expects, as recorded in perfbench/reference.json
        reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
        want = json.loads(reference.read_text())[workload]["1"]
        code, out, _ = run(capsys, "verify", "all", "--d", d, "--alpha", alpha, "--seed", "1")
        assert code in (0, 1)
        assert {e["check_id"]: e["status"] for e in json.loads(out)["entries"]} == want

    @pytest.mark.parametrize("suite,code", [("identities", 2), ("hardy", 2), ("all", 2),
                                            ("relativistic", 0), ("montecarlo", 0),
                                            ("fatou", 0)])
    def test_suites_at_d4(self, capsys, suite, code):
        # the identities and hardy grids are sized for d = 2 and 3; the
        # other suites run in any d
        got, out, err = run(capsys, "verify", suite, "--d", "4")
        assert got == code
        if code:
            assert out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error: "), err
            assert "d=4" in err
        else:
            assert json.loads(out)["summary"]["fail"] == 0


class TestSample:
    def test_halfplane_csv_reproducible(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        code, out, _ = run(capsys, "sample", "halfplane-hit", "--d", "2",
                           "--alpha", "1.5", "--x", "0,1", "--n", "2000",
                           "--seed", "7", "--out", str(f1))
        assert code == 0
        assert "mean[0]=" in out
        run(capsys, "sample", "halfplane-hit", "--d", "2", "--alpha", "1.5",
            "--x", "0,1", "--n", "2000", "--seed", "7", "--out", str(f2))
        assert hashlib.sha256(f1.read_bytes()).digest() == \
            hashlib.sha256(f2.read_bytes()).digest()
        rows = np.loadtxt(f1, delimiter=",")
        assert rows.shape == (2000,)
        se = rows.std() / math.sqrt(2000)
        assert abs(rows.mean()) < 4.0 * se

    @pytest.mark.parametrize("sampler", ["halfplane-hit", "walk-on-balls"])
    def test_start_point_metadata_reads_as_floats(self, capsys, tmp_path, sampler):
        out_file = tmp_path / "s.csv"
        code, _, _ = run(capsys, "sample", sampler, "--x", "0.5,1", "--n", "50",
                         "--out", str(out_file))
        assert code == 0
        assert "# x=0.5,1.0" in out_file.read_text().splitlines()

    def test_walk_on_balls_summary(self, capsys):
        code, out, _ = run(capsys, "sample", "walk-on-balls", "--x", "0,0",
                           "--n", "2000", "--seed", "3")
        assert code == 0
        est = float(out.split("estimate=")[1].split()[0])
        assert abs(est - 0.8472130847939793) < 0.05

    @pytest.mark.parametrize("sampler", ["ball-exit", "halfplane-hit", "walk-on-balls"])
    def test_n_past_the_row_cap_is_one_error_line(self, capsys, sampler):
        # refused before any draw or walker is allocated
        code, out, err = run(capsys, "sample", sampler, "--n", str(cli._MAX_ROWS + 1))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_huge_n_under_a_memory_limit(self):
        # 1e11 draws once ended in numpy's allocation error and exit 1; the
        # child runs under a 3 GB address-space limit in case the cap breaks
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        res = subprocess.run([sys.executable, "-m", "stablepot.cli", "sample", "ball-exit",
                              "--n", "100000000000"], env=env, capture_output=True, text=True,
                             timeout=120, preexec_fn=limit)
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1

    def test_io_error_exit_code(self, capsys):
        code, _, err = run(capsys, "sample", "ball-exit", "--n", "10",
                           "--out", "/nonexistent-dir/x.csv")
        assert code == 3


class TestReport:
    def test_phi_curve(self, capsys, tmp_path):
        out_file = tmp_path / "phi.csv"
        code, _, _ = run(capsys, "report", "--curve", "phi", "--d", "2",
                         "--alpha", "1.5", "--r", "0.01:10:200",
                         "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        assert any("curve=phi" in ln for ln in meta)
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == "r,phi"
        data = np.loadtxt(out_file, delimiter=",", skiprows=len(meta) + 1)
        assert data.shape == (200, 2)
        assert np.all(np.diff(data[:, 0]) > 0)           # monotone abscissa
        assert np.all((data[:, 1] >= 0) & (data[:, 1] <= 1))
        nearest = np.argmin(np.abs(data[:, 0] - 1.0))
        assert data[nearest, 1] > 0.99

    @pytest.mark.parametrize("rng", ["0.1:2:6", "2:0.1:6"])
    def test_phi_curve_snaps_onto_the_sphere_either_way(self, capsys, rng):
        # the point nearest r = 1 moves onto the sphere, where 1 - phi is 0,
        # whichever way the range runs
        code, out, _ = run(capsys, "report", "--curve", "one-minus-phi", f"--r={rng}")
        assert code == 0
        rows = out.splitlines()[-6:]
        assert "1,0" in rows
        want = np.linspace(*map(float, rng.split(":")[:2]), 6)
        want[np.argmin(np.abs(want - 1.0))] = 1.0
        assert [float(row.split(",")[0]) for row in rows] == want.tolist()

    def test_fatou_decay_curve(self, capsys, tmp_path):
        out_file = tmp_path / "fatou.csv"
        code, _, _ = run(capsys, "report", "--curve", "fatou-decay",
                         "--depth", "12", "--out", str(out_file))
        assert code == 0
        data = read_curve(out_file)
        assert data.shape == (12, 3)
        running = data[:, 2]
        assert np.all(np.diff(running) <= 1e-15)         # nonincreasing

    def test_fatou_decay_curve_in_d3(self, capsys, tmp_path):
        # the curve approaches e_1 of R^3
        out_file = tmp_path / "fatou.csv"
        code, _, _ = run(capsys, "report", "--curve", "fatou-decay", "--d", "3",
                         "--depth", "12", "--out", str(out_file))
        assert code == 0
        data = read_curve(out_file)
        assert data.shape == (12, 3)
        running = data[:, 2]
        assert np.all(np.diff(running) <= 1e-15)         # nonincreasing

    def test_hardy_schedule_curve_in_d3(self, capsys, tmp_path):
        # each slice norm is P[1] = phi at the slice radius
        out_file = tmp_path / "hardy.csv"
        code, _, _ = run(capsys, "report", "--curve", "hardy-schedule", "--d", "3",
                         "--alpha", "1.2", "--out", str(out_file))
        assert code == 0
        data = read_curve(out_file)
        p = stablepot.StableParams(3, 1.2)
        want = [stablepot.sphere.phi(p, r) for r in data[:, 0]]
        assert data[:, 1] == pytest.approx(want, rel=1e-10, abs=0)

    @pytest.mark.parametrize("curve", ["omega-alpha", "poisson-H-profile"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_boundary_curves_match_pointwise_kernels(self, capsys, tmp_path, curve, d):
        # one broadcast kernel call for the whole curve, at the points r e_1
        out_file = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "report", "--curve", curve, "--d", str(d),
                         "--r=-4:6:41", "--out", str(out_file))
        assert code == 0
        data = read_curve(out_file)
        p = stablepot.StableParams(d, 1.5)
        x = np.eye(d)[-1]
        want = [stablepot.halfspace.poisson_kernel(p, x, np.eye(d - 1)[0] * r)
                for r in data[:, 0]]
        assert data[:, 1] == pytest.approx(want, rel=1e-15, abs=0)

    @pytest.mark.parametrize("rng", ["0.5:2:0", "0.5:2:-3", "0.5:inf:3", "nan:2:3",
                                     "-inf:2:3", "-1.7e308:1.7e308:3", "0:1:10000001",
                                     "0:1:1000000000000000000"])
    @pytest.mark.parametrize("curve", ["phi", "omega-alpha", "qm"])
    def test_bad_range_is_one_error_line(self, capsys, curve, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "report", "--curve", curve, f"--r={rng}")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert repr(rng) in err

    @pytest.mark.parametrize("argv", [("--beta", "nan"), ("--beta", "inf"), ("--beta", "0"),
                                      ("--beta", "-1"), ("--beta", "1e200"), ("--depth", "0"),
                                      ("--depth", "-1"), ("--depth", "1075"),
                                      ("--depth", "2000")])
    def test_bad_fatou_argument_is_one_error_line(self, capsys, argv):
        # each refusal names the argument, not a symptom further down
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "report", "--curve", "fatou-decay", *argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert argv[0].removeprefix("--") in err, err

    def test_curve_bytes_match_savetxt(self, capsys, tmp_path):
        # metadata and header rows, then the rows as np.savetxt wrote them
        out_file = tmp_path / "phi.csv"
        code, _, _ = run(capsys, "report", "--curve", "phi", "--d", "3",
                         "--alpha", "1.2", "--r", "0:2.4:11", "--out", str(out_file))
        assert code == 0
        p = stablepot.StableParams(3, 1.2)
        rs = np.linspace(0.0, 2.4, 11)
        rs[4] = 1.0                          # 0.96, snapped onto the sphere
        ref = tmp_path / "ref.csv"
        with open(ref, "w") as fh:
            fh.write("# alpha=1.2\n# curve=phi\n# d=3\n# seed=42\nr,phi\n")
            np.savetxt(fh, [(r, stablepot.sphere.phi(p, r)) for r in rs],
                       delimiter=",", fmt="%.17g")
        assert out_file.read_bytes() == ref.read_bytes()

    def test_sample_bytes_match_savetxt(self, capsys, tmp_path):
        # more draws than one 4096-value block of `to_csv`, written as np.savetxt wrote them
        out_file = tmp_path / "draws.csv"
        code, _, _ = run(capsys, "sample", "ball-exit", "--d", "3", "--n", "5000",
                         "--seed", "11", "--out", str(out_file))
        assert code == 0
        draws = stablepot.montecarlo.sample_ball_exit_center(
            stablepot.StableParams(3, 1.5), stablepot.montecarlo.RngStream(11, 0).generator(),
            5000)
        ref = tmp_path / "ref.csv"
        np.savetxt(ref, draws, delimiter=",", fmt="%.17g", comments="# ",
                   header="alpha=1.5\nd=3\nn=5000\nsampler=ball-exit\nseed=11\nstream=0")
        assert out_file.read_bytes() == ref.read_bytes()

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run(capsys, "report", "--curve", "omega-alpha",
                           "--r", "0:3:10")
        assert code == 0
        assert out.splitlines()[-1].count(",") == 1


# SHA-256 of the file each CSV-writing command writes, recorded before the
# writer formatted numbers by array operations: the bytes must not move
GOLDEN_CSV = [
    ("89d988abea44804f2f5d5224917f796b5dc0c08cdbd0371f220fa6f8013da122",
     "report --curve phi --d 2 --alpha 1.5 --r 0.3:2.5:301"),     # across both band edges
    ("07cf49283a7dc5d32c74e5f408f7f6bc855258d058c95e30650f082d0495ab99",
     "report --curve one-minus-phi --d 3 --alpha 1.2 --r 0.3:2.5:301"),
    ("afc125e7a78f3c7b951cc941beba5939e5052c135f23e6bcc025f9b17e85a1f4",
     "report --curve qm --d 2 --alpha 1.5 --m 1.3 --r 0.01:8:201"),
    ("bd3dc9c8d6e08a9e7d5ca7ea3bf1a4c5e5226a413a96d1d5d88be5e1857421f3",
     "report --curve poisson-H-profile --d 3 --alpha 1.2 --r=-6:6:201"),
    ("9ee9e4871c792737d5747992eaa71df493c897d5e1e871d9fb8c94e49e9cac75",
     "report --curve omega-alpha --d 3 --alpha 1.5 --r 0.01:5:101"),
    # P[1] on one node at each exact radius, within 1.0e-15 of sphere.phi
    ("80b5d48db40a8c008d9a5141c98e7a867a956664ba87f482b58854d0f1bc410f",
     "report --curve hardy-schedule --d 2 --alpha 1.5 --p 2"),
    ("da33465fa92d828e088e50708f587cbe492caba00b0d4e68dd47da30b427cebd",
     "report --curve fatou-decay --d 2 --alpha 1.5 --depth 12 --seed 7"),
    ("5abdff5dfafc876857a8753f37472a19800a0e1f93e2f3b91da49802cdc8a829",
     "sample ball-exit --d 2 --alpha 1.5 --n 3000 --seed 7"),
    ("c9b63c018c92c6aab42e8ff7389fc689cc3e4cb572553723e6382a88fccc45c7",
     "sample halfplane-hit --d 2 --alpha 1.5 --n 3000 --seed 7"),
    ("1e611006b310338725c852132b3ab7a47ed312f8df03c8e0e413d4e465e1cae9",
     "sample halfplane-hit --d 3 --alpha 1.2 --x=0.5,-1,0.25 --n 3000 --seed 7"),
    ("cd1573ac5a065b662986980d05411c8cddd57c703c5b2d55103c363b949e57b5",
     "sample walk-on-balls --d 2 --alpha 1.5 --x=0.5,0 --n 300 --seed 7"),
]


@pytest.mark.parametrize("digest,command", GOLDEN_CSV, ids=[c for _, c in GOLDEN_CSV])
def test_csv_bytes_match_golden_digest(capsys, tmp_path, digest, command):
    out_file = tmp_path / "out.csv"
    code, _, _ = run(capsys, *command.split(), "--out", str(out_file))
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


def test_import_leaves_scipy_integrate_out():
    # scipy.integrate costs every command ~0.5 s and ~26 MB to import; the
    # verification suites integrate with the package's own Gauss rules
    code = "import sys, stablepot.cli; sys.exit('scipy.integrate' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert res.returncode == 0, res.stderr
