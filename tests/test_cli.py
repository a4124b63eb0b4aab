import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stablepot
from stablepot import cli
from stablepot.cli import main

SRC = str(Path(stablepot.__file__).resolve().parents[1])


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

    def test_cached_parser_keeps_no_state_between_calls(self, capsys):
        # the parser is built once per process; a verify with non-default
        # options, then the usage errors above, must leave every later
        # parse equal to one by a freshly built parser
        code, _, _ = run(capsys, "verify", "relativistic", "--d", "3", "--alpha", "1.2",
                         "--tol", "0.5", "--seed", "7")
        assert code == 0
        for argv in UNREAD_OPTIONS:
            with pytest.raises(SystemExit):
                main(list(argv))
        capsys.readouterr()
        fresh = cli._build_parser.__wrapped__()
        for argv in (["verify", "relativistic"], ["eval", "phi", "--r", "2"],
                     ["sample", "ball-exit"], ["report", "--curve", "qm"]):
            assert vars(cli._build_parser().parse_args(argv)) == vars(fresh.parse_args(argv))
        assert cli._build_parser() is cli._build_parser()


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
    ("3edc83c7ed6b79df89bb5b663b11ff1c60b77d66d4ce692db6c11a5ec82e9eb0",
     "report --curve phi --d 2 --alpha 1.5 --r 0.3:2.5:301"),     # across both band edges
    ("bb15882adebe135a4df2822cfeea7220609e82a8f0238eb6e92e50b4ff26a61b",
     "report --curve one-minus-phi --d 3 --alpha 1.2 --r 0.3:2.5:301"),
    ("47dbe790114e39ac6034cb2a1edc121e7f8a9b4a20335638e723288a07b035ae",
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
