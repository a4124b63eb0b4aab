import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stablepot
from stablepot.cli import main

SRC = str(Path(stablepot.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
        assert float(out) == pytest.approx(math.sqrt(2.0), rel=1e-15)

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
        ("eval", "phi", "--d", "400", "--r", "1.5"),      # cancelling reduced forms
        ("eval", "phi", "--r", "nan"),
    ])
    def test_numerical_failure_is_a_usage_error(self, argv):
        res = run_cli_process(*argv)
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert "error:" in res.stderr

    def test_phi_at_large_dimension_evaluates(self):
        # Gamma((d + alpha)/2 - 1) overflowed inside the constants at d = 400
        for r in ("2", "0.5"):
            res = run_cli_process("eval", "phi", "--d", "400", "--alpha", "1.5",
                                  "--r", r)
            assert res.returncode == 0
            assert res.stderr == ""
            assert 0.0 <= float(res.stdout) <= 1.0
        assert float(res.stdout) == pytest.approx(0.1976470190745546, rel=1e-12)

    def test_green_far_point_evaluates(self):
        # |y| = 1e200 once overflowed |y|^2 and ended in an error; the
        # value is A_(d,alpha) |y|^(alpha-d) (1 - Phi(|x|)) to rounding
        res = run_cli_process("eval", "green-D", "--x", "0,0.5", "--y", "0,1e200")
        assert res.returncode == 0
        assert res.stderr == ""
        p = stablepot.StableParams(2, 1.5)
        want = stablepot.sphere.constants(p).a_d_alpha * 1e200 ** -0.5 \
            * (1.0 - stablepot.sphere.phi(p, 0.5))
        assert float(res.stdout) == pytest.approx(want, rel=1e-12)

    def test_divergence_maps_to_domain_exit(self, capsys):
        code, _, err = run(capsys, "eval", "u-lambda", "--d", "2",
                           "--alpha", "1.5", "--m", "1.0", "--lambda", "0",
                           "--x", "2", "--y", "1")
        assert code == 2


class TestOptions:
    @pytest.mark.parametrize("argv", [
        ("eval", "phi", "--r", "2", "--seed", "3"),
        ("verify", "identities", "--format", "json"),
        ("sample", "ball-exit", "--n", "10", "--tol", "1e-3"),
        ("report", "--curve", "phi", "--lambda", "0.5"),
    ])
    def test_unread_option_is_a_usage_error(self, capsys, argv):
        # each subcommand declares only the options it reads
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


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

    def test_fatou_decay_curve(self, capsys, tmp_path):
        out_file = tmp_path / "fatou.csv"
        code, _, _ = run(capsys, "report", "--curve", "fatou-decay",
                         "--depth", "12", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        meta = sum(1 for ln in lines if ln.startswith("#"))
        data = np.loadtxt(out_file, delimiter=",", skiprows=meta + 1)
        running = data[:, 2]
        assert np.all(np.diff(running) <= 1e-15)         # nonincreasing

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

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run(capsys, "report", "--curve", "omega-alpha",
                           "--r", "0:3:10")
        assert code == 0
        assert out.splitlines()[-1].count(",") == 1
