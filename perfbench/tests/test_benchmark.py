"""Tests of the benchmark itself: tracing is transparent and self times add up.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from stablepot import cli, relativistic, sphere, suites  # noqa: E402
from stablepot.core import StableParams  # noqa: E402
from stablepot.errors import DomainError  # noqa: E402


def cli_stdout(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


@contextlib.contextmanager
def traced():
    tracer = Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_traced_verify_d2_report_is_byte_identical():
    argv = workloads.verify_argv("verify-d2", workloads.verify_seed("verify-d2", 0))
    rc, plain = cli_stdout(argv)
    with traced() as tracer:
        rc_traced, text = cli_stdout(argv)
    assert rc == rc_traced == 0
    assert hashlib.sha256(text.encode()).digest() == hashlib.sha256(plain.encode()).digest()
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 1
    assert summary["analysis.hardy_norm"]["slices"] > 0
    assert summary["suites.hardy"]["checks"] > 0


def test_exceptions_propagate_unchanged():
    p = StableParams(2, 1.5)
    with pytest.raises(DomainError) as plain:
        sphere.phi(p, -1.0)
    with traced() as tracer:
        with pytest.raises(DomainError) as wrapped:
            sphere.phi(p, -1.0)
        boom = ValueError("boom")

        def raiser():
            raise boom

        with pytest.raises(ValueError) as caught:
            tracer.wrap("test.raiser", raiser)()
    assert type(wrapped.value) is type(plain.value)
    assert str(wrapped.value) == str(plain.value)
    assert caught.value is boom
    assert tracer.summary()["test.raiser"]["calls"] == 1


def test_relativistic_divergence_checks_pass_under_tracing():
    plain = suites.run_suite("relativistic", d=2, alpha=1.5, seed=3).as_dict()
    with traced() as tracer:
        wrapped = suites.run_suite("relativistic", d=2, alpha=1.5, seed=3).as_dict()
    assert wrapped == plain
    status = {e["check_id"]: e["status"] for e in wrapped["entries"]}
    # both checks pass only if lambda_potential's DivergenceError reaches the suite
    assert status["relativistic-low-alpha-diverges"] == "PASS"
    assert status["relativistic-planar-potential-diverges"] == "PASS"
    assert tracer.summary()["relativistic.lambda_potential"]["calls"] >= 2


def test_self_times_are_nonnegative_and_sum_to_each_root_span():
    with traced() as tracer:
        for argv in (["eval", "phi", "--r", "1.5"],
                     ["report", "--curve", "one-minus-phi", "--r", "0.99:1.01:40"],
                     ["eval", "u-lambda", "--m", "1.0", "--lambda", "0.5",
                      "--x", "0.7", "--y", "1.3"]):
            assert cli_stdout(argv)[0] == 0
    self_ns = tracer.self_ns()
    assert all(v >= 0 for v in self_ns.values())
    roots = {op: end - start for sid, parent, op, _n, start, end in tracer.spans if not parent}
    assert len(roots) == 3
    for op, duration in roots.items():
        assert sum(self_ns[s[0]] for s in tracer.spans if s[2] == op) == duration


def test_uninstall_restores_every_binding():
    before = (sphere.phi, relativistic.bessel_k, sphere.gauss_2f1, cli.main,
              suites.SUITES["hardy"], suites.regularized_beta_cdf)
    with traced():
        assert sphere.gauss_2f1 is not before[2]       # rebound in the importer too
        assert suites.regularized_beta_cdf is not before[5]
    after = (sphere.phi, relativistic.bessel_k, sphere.gauss_2f1, cli.main,
             suites.SUITES["hardy"], suites.regularized_beta_cdf)
    assert all(a is b for a, b in zip(before, after))


def test_benchmark_json_names_only_measured_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} <= set(run.E2E_UNITS)
    assert {m["name"] for m in spec["per_layer"]} <= set(run.PER_LAYER)
    assert all(m["unit"] == run.unit_of(m["name"])
               for m in spec["end_to_end"] + spec["per_layer"])


def test_verify_status_must_equal_the_reference_of_its_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "load_reference",
                        lambda: {"verify-d2": {"5": {"a": "PASS", "b": "FAIL"}}})
    op = {"kind": "verify", "seed": 5, "argv": workloads.verify_argv("verify-d2", 5)}

    def check(status: dict) -> tuple[list[str], set[str]]:
        bench = run.Run("verify-d2", 0, tmp_path, checks.DigestStore(
            tmp_path / "digests.json", "tree"), {})
        rc = 1 if "FAIL" in status.values() else 0
        errs = bench._check_op(op, {"rc": rc, "stdout_sha256": "x", "status": status,
                                    "error": ""})
        return errs, bench.open_failures

    errs, open_failures = check({"a": "PASS", "b": "FAIL"})
    assert errs == [] and len(open_failures) == 1 and "FAILs b" in open_failures.pop()
    for status in ({"a": "FAIL", "b": "FAIL"}, {"a": "PASS", "b": "PASS"}, {"a": "PASS"}):
        errs, open_failures = check(status)
        assert len(errs) == 1 and not open_failures


def test_every_run_repeats_some_commands():
    for wl in workloads.WORKLOADS:
        sessions = [run.main_ops(wl, 3, i) for i in range(run.MIN_SESSIONS[wl])]
        assert any(s in sessions[:i] for i, s in enumerate(sessions))


def test_commands_depend_only_on_the_seed():
    assert workloads.cli_session(7, 0) == workloads.cli_session(7, 0)
    assert workloads.cli_session(7, 0) != workloads.cli_session(7, 1)
    assert workloads.cli_session(7, 0) != workloads.cli_session(8, 0)
    assert workloads.setup_argv(7) == workloads.setup_argv(7)
