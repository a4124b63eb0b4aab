"""Output checks that decide whether a benchmark op failed.

* ``phi`` and ``one-minus-phi`` values are compared with an mpmath
  Legendre-function oracle, the formula ``tests/test_sphere.py`` uses, at
  the accuracy the tier-1 tests pin: relative 5e-12 for phi and 1e-8 for
  1 - phi (the dual-path overlap-band bound).
* A walk-on-balls estimate must lie within 3 stderr + bias_budget of the
  oracle's Phi(|x|).
* Every CSV must parse back to the expected number of finite rows.
* Every command's stdout, and every file it writes, must be byte-identical
  across all runs of one seed on one source tree; ``DigestStore`` keeps
  the digests between runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from pathlib import Path

import mpmath
import numpy as np

PHI_REL = 5e-12
COMPLEMENT_REL = 1e-8
ORACLE_ROWS = 6          # oracle-checked rows per phi / one-minus-phi file


def mp_phi(d: int, alpha: float, r: float):
    """Phi(r) from the Legendre-function formula, as an mpf at 40 digits."""
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        rr = mpmath.mpf(r)
        c2 = mpmath.sqrt(mpmath.pi) * 2 ** (2 - a) * mpmath.gamma((a + d) / 2 - 1) \
            / mpmath.gamma((a - 1) / 2)
        if r == 0:
            return c2 / mpmath.gamma(mpmath.mpf(d) / 2)
        if r == 1:
            return mpmath.mpf(1)
        t = (rr * rr + 1) / abs(rr * rr - 1)
        return +(c2 * abs(rr * rr - 1) ** (a / 2 - 1) * rr ** (1 - mpmath.mpf(d) / 2)
                 * mpmath.legenp(-a / 2, 1 - mpmath.mpf(d) / 2, t, type=3))


def phi_error(curve: str, d: int, alpha: float, r: float, got: float) -> str | None:
    """None if ``got`` matches the oracle for ``curve`` at radius r, else why not."""
    ref = mp_phi(d, alpha, r)
    with mpmath.workdps(40):
        want = float(ref if curve == "phi" else 1 - ref)
    tol = PHI_REL if curve == "phi" else COMPLEMENT_REL
    if want == 0.0:
        ok = got == 0.0
    else:
        ok = math.isfinite(got) and abs(got - want) <= tol * abs(want)
    return None if ok else f"{curve}(d={d}, alpha={alpha}, r={r!r}) = {got!r}, oracle {want!r}"


def option(argv: list[str], name: str) -> str:
    for i, tok in enumerate(argv):
        if tok == name:
            return argv[i + 1]
        if tok.startswith(name + "="):
            return tok.split("=", 1)[1]
    raise KeyError(name)


def _params(argv: list[str]) -> tuple[int, float]:
    return int(option(argv, "--d")), float(option(argv, "--alpha"))


def read_csv(path: str, header: bool) -> np.ndarray:
    """Data rows of a stablepot CSV: '#' metadata lines, then an optional
    column-header row (reports have one, samplers do not)."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    return np.loadtxt(lines[1:] if header else lines, delimiter=",", ndmin=2)


def check_report(op: dict, path: str, seed: int) -> list[str]:
    argv = op["argv"]
    rows = read_csv(path, header=True)
    if len(rows) != op["n"] or not np.all(np.isfinite(rows)):
        return [f"{path}: expected {op['n']} finite rows, got {rows.shape}"]
    curve = option(argv, "--curve")
    if curve not in ("phi", "one-minus-phi"):
        return []
    d, alpha = _params(argv)
    pick = random.Random(f"oracle-{seed}-{' '.join(argv)}").sample(range(len(rows)), ORACLE_ROWS)
    return [err for i in pick
            if (err := phi_error(curve, d, alpha, float(rows[i, 0]), float(rows[i, 1])))]


def check_draws(op: dict, path: str) -> list[str]:
    argv = op["argv"]
    d = int(option(argv, "--d"))
    cols = d if argv[1] == "ball-exit" else d - 1
    rows = read_csv(path, header=False)
    if rows.shape != (op["n"], cols) or not np.all(np.isfinite(rows)):
        return [f"{path}: expected {op['n']} finite rows of {cols}, got {rows.shape}"]
    return []


def check_walk(op: dict, stdout: str) -> list[str]:
    argv = op["argv"]
    d, alpha = _params(argv)
    fields = dict(tok.split("=", 1) for tok in stdout.split() if "=" in tok)
    est, se, bias = (float(fields[k]) for k in ("estimate", "stderr", "bias_budget"))
    r = math.sqrt(sum(float(v) ** 2 for v in option(argv, "--x").split(",")))
    with mpmath.workdps(40):
        want = float(mp_phi(d, alpha, r))
    if abs(est - want) <= 3.0 * se + bias:
        return []
    return [f"walk-on-balls from |x|={r!r}: estimate {est} vs Phi {want!r} "
            f"exceeds 3*{se} + {bias}"]


def check_eval(argv: list[str], stdout: str) -> list[str]:
    try:
        value = float(stdout)
    except ValueError:
        return [f"{' '.join(argv)}: output {stdout!r} is not a number"]
    kernel = argv[1]
    if not math.isfinite(value) or value < 0.0 or (kernel in ("phi", "phi-rel") and value > 1.0):
        return [f"{' '.join(argv)}: value {value!r} outside the kernel's range"]
    if kernel == "phi":
        d, alpha = _params(argv)
        err = phi_error("phi", d, alpha, float(option(argv, "--r")), value)
        return [err] if err else []
    return []


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_digest(root: Path) -> str:
    """Digest of the package sources, naming the program version measured."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class DigestStore:
    """Output digests by (source tree, argv), kept across runs in one file."""

    def __init__(self, path: Path, tree: str):
        self.path = path
        self.tree = tree
        self.known = json.loads(path.read_text()) if path.exists() else {}

    def check(self, argv: list[str], what: str, digest: str) -> list[str]:
        key = hashlib.sha256(f"{self.tree}|{what}|{' '.join(argv)}".encode()).hexdigest()[:32]
        old = self.known.setdefault(key, digest)
        if old == digest:
            return []
        return [f"{what} of `{' '.join(argv)}` differs from an earlier run of this seed"]

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known))
        os.replace(tmp, self.path)
