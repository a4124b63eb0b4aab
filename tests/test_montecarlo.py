import hashlib
import math

import numpy as np
import pytest
import scipy.special as sps
from scipy import integrate

from stablepot.core import StableParams, basis_last
from stablepot.errors import DomainError
from stablepot import montecarlo
from stablepot.montecarlo import (EmpiricalSample, RngStream, WalkConfig,
                                  WalkResult, _KS_BLOCK, _skip, gamma_small_shape, ks_test,
                                  sample_ball_exit_center,
                                  sample_halfplane_hit, walk_on_balls_hitting)
from stablepot import sphere
from stablepot.specfun import _normal_cdf, regularized_beta_cdf

P2 = StableParams(2, 1.5)
P3 = StableParams(3, 1.5)


class TestRngStream:
    def test_determinism(self):
        a = RngStream(7, 3).generator().random(16)
        b = RngStream(7, 3).generator().random(16)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(7, 3).generator().random(16)
        b = RngStream(7, 4).generator().random(16)
        c = RngStream(8, 3).generator().random(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestGammaSmallShape:
    @pytest.mark.parametrize("shape", [0.25, 0.4])
    def test_law(self, shape):
        g = gamma_small_shape(shape, RngStream(1, 0).generator(), 100_000)
        res = ks_test(g, lambda x: sps.gammainc(shape, x))
        assert res.passed[0.05]

    def test_shape_guard(self):
        with pytest.raises(DomainError):
            gamma_small_shape(1.5, RngStream(0, 0).generator(), 10)


class TestBallExit:
    def test_outside_unit_ball(self):
        # exits land outside the ball; for alpha near 2 a tiny fraction hugs
        # the sphere within an ulp of the coordinates, hence >= not >
        draws = sample_ball_exit_center(P2, RngStream(2, 0).generator(), 5000)
        radii = np.linalg.norm(draws, axis=1)
        assert np.all(radii >= 1.0)
        assert np.mean(radii > 1.0 + 1e-12) > 0.99

    def test_radial_complement_exact(self):
        pts, comp = sample_ball_exit_center(P2, RngStream(2, 1).generator(),
                                            2000, return_radial=True)
        radii = np.linalg.norm(pts, axis=1)
        assert np.all(comp > 0.0)
        mask = comp > 1e-6    # where coordinates still resolve the law
        assert np.allclose(1.0 - 1.0 / radii[mask] ** 2, comp[mask],
                           rtol=1e-6, atol=1e-9)

    def test_direction_isotropy(self):
        n = 100_000
        draws = sample_ball_exit_center(P3, RngStream(3, 0).generator(), n)
        dirs = draws / np.linalg.norm(draws, axis=1)[:, None]
        band = 3.0 / math.sqrt(n)
        assert np.all(np.abs(dirs.mean(axis=0)) < 2.0 * band)

    def test_radial_law_oracle_then_ks(self):
        # first the quadrature oracle confirms the Beta reduction of the
        # exit kernel's radial marginal, then the sampler is tested
        a2 = P2.alpha / 2.0
        area = 2.0 * math.pi ** (P2.d / 2.0) / math.gamma(P2.d / 2.0)
        c_rad = sphere.ball_constant(P2) * area
        for rho in (1.1, 1.5, 2.0, 5.0):
            quad_val, _ = integrate.quad(
                lambda w: 0.5 * c_rad * w ** (a2 - 1.0) * (1.0 - w) ** (-a2),
                0.0, 1.0 / rho ** 2, points=[0.0], limit=200)
            beta_val = regularized_beta_cdf(a2, 1.0 - a2, 1.0 / rho ** 2)
            assert abs(quad_val - beta_val) < 1e-8
        n = 100_000
        draws = sample_ball_exit_center(P2, RngStream(4, 0).generator(), n)
        w = np.clip(1.0 / np.linalg.norm(draws, axis=1) ** 2, 0.0, 1.0)
        res = ks_test(w, lambda v: regularized_beta_cdf(a2, 1.0 - a2, v))
        assert res.passed[0.01]
        assert res.statistic < 1.36 / math.sqrt(n) * 1.5

    def test_tail_probability(self):
        n = 100_000
        draws = sample_ball_exit_center(P2, RngStream(5, 0).generator(), n)
        p_emp = float(np.mean(np.linalg.norm(draws, axis=1) > 2.0))
        p_ref = regularized_beta_cdf(P2.alpha / 2.0, 1.0 - P2.alpha / 2.0, 0.25)
        se = math.sqrt(p_ref * (1.0 - p_ref) / n)
        assert abs(p_emp - p_ref) < 3.0 * se


class TestHalfplaneHit:
    def test_symmetry(self):
        n = 100_000
        hits = sample_halfplane_hit(P2, basis_last(2),
                                    RngStream(6, 0).generator(), n)
        se = hits[:, 0].std() / math.sqrt(n)
        assert abs(hits[:, 0].mean()) < 4.0 * se

    def test_time_marginal(self):
        n = 100_000
        shape = (P2.alpha - 1.0) / 2.0
        _, t0 = sample_halfplane_hit(P2, np.array([0.0, 1.0]),
                                     RngStream(7, 0).generator(), n,
                                     return_time=True)
        res = ks_test(t0, lambda t: sps.gammaincc(shape, 0.5 / np.asarray(t)))
        assert res.statistic < 1.63 / math.sqrt(n)

    def test_position_law(self):
        # the analytic CDF reduces to an incomplete beta; the reduction is
        # itself validated against direct quadrature before use
        a = P2.alpha
        kc = sphere.constants(P2)

        def density(y):
            return kc.c3 / (1.0 + y * y) ** (a / 2.0)

        def cdf(y):
            y = np.atleast_1d(np.asarray(y, dtype=float))
            wc = 1.0 / (1.0 + y * y)
            half = 1.0 - regularized_beta_cdf((a - 1.0) / 2.0, 0.5, wc)
            return 0.5 + 0.5 * np.sign(y) * half

        for y0 in (0.3, 1.0, 4.0):
            quad_val, _ = integrate.quad(density, 0.0, y0, limit=200)
            assert abs((cdf(y0)[0] - 0.5) - quad_val) < 1e-10
        n = 100_000
        hits = sample_halfplane_hit(P2, np.array([0.0, 1.0]),
                                    RngStream(8, 0).generator(), n)
        res = ks_test(hits[:, 0], cdf)
        assert res.passed[0.01]

    def test_start_on_plane_rejected(self):
        with pytest.raises(DomainError):
            sample_halfplane_hit(P2, np.array([0.0, 0.0]),
                                 RngStream(0, 0).generator(), 4)

    def test_d3_shapes(self):
        hits = sample_halfplane_hit(P3, np.array([0.5, -0.5, 2.0]),
                                    RngStream(9, 0).generator(), 128)
        assert hits.shape == (128, 2)


class TestWalkOnBalls:
    def test_immediate_hit_inside_shell(self):
        cfg = WalkConfig()
        x = np.array([1.0 + 0.5 * cfg.eps_shell, 0.0])
        res = walk_on_balls_hitting(P2, x, cfg, 64, RngStream(10, 0).generator())
        assert res.estimate == 1.0 and res.inconclusive == 0

    def test_estimates_phi_at_origin(self):
        cfg = WalkConfig()
        res = walk_on_balls_hitting(P2, np.zeros(2), cfg, 10_000,
                                    RngStream(11, 0).generator())
        target = sphere.constants(P2).phi_at_origin
        assert abs(res.estimate - target) <= 3.0 * res.stderr + res.bias_budget
        assert res.bias_budget < 0.01

    def test_far_start_rarely_hits(self):
        cfg = WalkConfig(r_max=50.0)
        x = np.zeros(2)
        x[0] = 45.0
        res = walk_on_balls_hitting(P2, x, cfg, 2000,
                                    RngStream(12, 0).generator())
        bound = sphere.phi(P2, 45.0) + 3.0 * res.stderr + res.bias_budget
        assert res.estimate <= bound

    def test_inconclusive_walkers_are_counted(self):
        cfg = WalkConfig(max_steps=1)
        res = walk_on_balls_hitting(P2, np.array([3.0, 0.0]), cfg, 200,
                                    RngStream(20, 0).generator())
        assert res.inconclusive > 0
        assert res.hits + res.escapes + res.inconclusive == 200
        assert res.bias_budget >= res.inconclusive / 200

    def test_seeded_counts_are_pinned(self):
        # hits, escapes and inconclusive walkers of one seeded walk, as the
        # step rule rho = |1 - |z|| has always drawn them
        res = walk_on_balls_hitting(P2, np.array([0.5, 0.0]), WalkConfig(max_steps=10),
                                    2000, RngStream(7, 0).generator())
        assert (res.hits, res.escapes, res.inconclusive) == (483, 1, 1516)

    def test_merge_is_order_free(self):
        cfg = WalkConfig()
        a = walk_on_balls_hitting(P2, np.zeros(2), cfg, 500,
                                  RngStream(13, 0).generator())
        b = walk_on_balls_hitting(P2, np.zeros(2), cfg, 700,
                                  RngStream(13, 1).generator())
        ab, ba = a.merge(b), b.merge(a)
        assert ab.estimate == ba.estimate
        assert ab.n == ba.n == 1200
        assert ab.bias_budget == ba.bias_budget


class TestGOF:
    def test_ks_calibration(self):
        u = RngStream(14, 0).generator().random(10_000)
        res = ks_test(u, lambda x: np.clip(x, 0.0, 1.0))
        assert res.passed[0.05]

    def test_ks_power(self):
        z = RngStream(15, 0).generator().standard_normal(100_000) + 0.5
        res = ks_test(z, lambda x: sps.ndtr(x))
        assert not res.passed[0.01]

    def test_ks_needs_monotone_cdf(self):
        with pytest.raises(DomainError):
            ks_test(np.linspace(0, 1, 100), lambda x: -np.asarray(x))

    @pytest.mark.parametrize("n", [8, _KS_BLOCK - 1, _KS_BLOCK, _KS_BLOCK + 1, 100_000])
    def test_ks_statistic_is_the_whole_array_formula(self, n):
        z = RngStream(16, 0).generator().standard_normal(n)
        z += 0.5
        xs = np.sort(z)
        f, grid = _normal_cdf(xs), np.arange(1, n + 1) / n
        whole = float(max(np.max(np.abs(grid - f)), np.max(np.abs(grid - 1.0 / n - f))))
        assert ks_test(z, _normal_cdf).statistic == whole

    def test_ks_reads_the_cdf_one_sorted_block_at_a_time(self):
        blocks = []

        def cdf(x):
            blocks.append(x.copy())
            return _normal_cdf(x)

        z = RngStream(17, 0).generator().standard_normal(3 * _KS_BLOCK + 5)
        ks_test(z, cdf)
        assert max(len(b) for b in blocks) <= _KS_BLOCK
        assert np.array_equal(np.concatenate(blocks), np.sort(z))

    def test_ks_sees_a_cdf_that_falls_across_a_block_edge(self):
        xs = np.arange(2 * _KS_BLOCK) / (2 * _KS_BLOCK)
        edge = xs[_KS_BLOCK]
        # monotone inside each block, but it drops by 0.25 at the edge
        with pytest.raises(DomainError, match="monotone"):
            ks_test(xs, lambda x: np.where(x < edge, x, x - 0.25))


class TestEmpiricalSample:
    def test_csv_roundtrip_and_hash(self, tmp_path):
        draws = sample_halfplane_hit(P2, basis_last(2),
                                     RngStream(19, 0).generator(), 256)
        sample = EmpiricalSample(draws, {"sampler": "halfplane-hit",
                                         "seed": 19, "n": 256})
        f1 = tmp_path / "a.csv"
        f2 = tmp_path / "b.csv"
        sample.to_csv(f1)
        draws2 = sample_halfplane_hit(P2, basis_last(2),
                                      RngStream(19, 0).generator(), 256)
        EmpiricalSample(draws2, {"sampler": "halfplane-hit",
                                 "seed": 19, "n": 256}).to_csv(f2)
        h1 = hashlib.sha256(f1.read_bytes()).hexdigest()
        h2 = hashlib.sha256(f2.read_bytes()).hexdigest()
        assert h1 == h2
        body = np.loadtxt(f1, delimiter=",")
        assert body.shape == (256,)   # one column for the d-1 = 1 coordinate
        header = [ln for ln in f1.read_text().splitlines() if ln.startswith("#")]
        assert any("sampler=halfplane-hit" in ln for ln in header)

    @pytest.mark.parametrize("shape", [(300,), (300, 1), (300, 3)])
    def test_csv_bytes_match_savetxt(self, tmp_path, shape):
        # the file format is the one np.savetxt wrote, kept as the reference
        rng = np.random.default_rng(20)
        draws = rng.standard_cauchy(shape) * 10.0 ** rng.integers(-300, 300, shape)
        draws.flat[:4] = [0.0, -0.0, 5e-324, 1.7976931348623157e308]
        meta = {"sampler": "unit", "x": "0.5,-1e-20", "seed": 20, "n": 300}
        EmpiricalSample(draws, meta).to_csv(tmp_path / "new.csv")
        header = "\n".join(f"{k}={meta[k]}" for k in sorted(meta))
        cols = draws if draws.ndim > 1 else draws[:, None]
        np.savetxt(tmp_path / "old.csv", cols, delimiter=",", comments="# ",
                   header=header, fmt="%.17g")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_walk_config_validation(self):
        with pytest.raises(DomainError):
            WalkConfig(eps_shell=2.0)
        with pytest.raises(DomainError):
            WalkConfig(max_steps=0)


# --- the samplers' first formulations, kept as bitwise oracles ----------------
# The gamma rejection, the in-place normalization and the compacted walk
# must give the same draws, advance the Philox stream alike and reach the
# same WalkResult as these.

def _gamma_oracle(shape, rng, size):
    out = np.empty(size)
    filled = 0
    b = 1.0 + shape / math.e
    while filled < size:
        m = (size - filled) * 2 + 16
        u = rng.random(m)
        v = rng.random(m)
        prop = b * u
        small = prop <= 1.0
        with np.errstate(all="ignore"):
            x = np.where(small, prop ** (1.0 / shape), -np.log((b - prop) / shape))
            accept = np.where(small, v <= np.exp(-x), v <= x ** (shape - 1.0))
        x = x[accept]
        take = min(len(x), size - filled)
        out[filled:filled + take] = x[:take]
        filled += take
    return out


def _ball_exit_oracle(p, rng, size):
    g1 = _gamma_oracle(p.alpha / 2.0, rng, size)
    g2 = _gamma_oracle(1.0 - p.alpha / 2.0, rng, size)
    radius = 1.0 / np.sqrt(g1 / (g1 + g2))
    z = rng.standard_normal((size, p.d))
    return radius[:, None] * (z / np.linalg.norm(z, axis=1)[:, None])


def _walk_oracle(p, x, cfg, n, rng):
    pos = np.tile(x, (n, 1))
    active = np.ones(n, dtype=bool)
    hits = escapes = 0
    for _ in range(cfg.max_steps):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        radii = np.linalg.norm(pos[idx], axis=1)
        dist = np.abs(radii - 1.0)
        hit = dist < cfg.eps_shell
        esc = (radii > cfg.r_max) & ~hit
        hits += int(hit.sum())
        escapes += int(esc.sum())
        done = hit | esc
        active[idx[done]] = False
        live = idx[~done]
        if live.size == 0:
            continue
        rho = dist[~done]
        pos[live] += rho[:, None] * _ball_exit_oracle(p, rng, live.size)
    return hits, escapes, int(active.sum())


class _ScriptedRng:
    # .random(m) returns the prepared arrays in turn, then draws from a
    # Philox stream; records every m asked for.  Its rounds stay below
    # _JUMP_MIN, so they are drawn whole and the bit generator is not read
    def __init__(self, arrays, seed):
        self.arrays = list(arrays)
        self.rng = RngStream(seed, 0).generator()
        self.bit_generator = self.rng.bit_generator
        self.calls = []

    def random(self, m):
        self.calls.append(m)
        if self.arrays:
            a = self.arrays.pop(0)
            assert len(a) == m
            return a.copy()
        return self.rng.random(m)


def _generator(kind, seed, stream):
    if kind == "Philox":
        return RngStream(seed, stream).generator()
    return np.random.Generator(getattr(np.random, kind)([seed, stream]))


def _with_generators(sizes):
    # (kind, size) on each bit generator; Philox, the library's own, keeps
    # the plain size as its id.  1016 draws make a round of m = 2048
    # proposals, the first that a Philox stream jumps through
    return [pytest.param(kind, size, id=str(size) if kind == "Philox" else f"{size}-{kind}")
            for kind in ("Philox", "PCG64", "MT19937") for size in sizes]


class TestAgainstFirstFormulations:
    @staticmethod
    def _same_stream_after(a, b):
        return (np.array_equal(a.random(8), b.random(8))
                and np.array_equal(a.standard_normal(8), b.standard_normal(8)))

    @staticmethod
    def _count_calls(monkeypatch, name):
        calls = []
        fn = getattr(montecarlo, name)
        monkeypatch.setattr(montecarlo, name, lambda *a: calls.append(1) or fn(*a))
        return calls

    @pytest.mark.parametrize("shape", [1e-3, 0.05, 0.1, 0.25, 0.6, 0.75, 0.999])
    @pytest.mark.parametrize("kind,size", _with_generators([1, 2, 7, 33, 1015, 1016,
                                                             15000, 100_000]))
    def test_gamma(self, shape, kind, size):
        r1, r2 = _generator(kind, 31, 2), _generator(kind, 31, 2)
        assert np.array_equal(gamma_small_shape(shape, r1, size),
                              _gamma_oracle(shape, r2, size))
        assert self._same_stream_after(r1, r2)

    @pytest.mark.parametrize("second_round", [False, True])
    def test_gamma_past_the_prefix(self, second_round, monkeypatch):
        # need = 1016 at shape 0.8 (acceptance 0.7196): a round of m = 2048
        # proposals of which the Philox jump draws a prefix of k = 1523, and
        # those accept under 1016 about once in 3e5 streams.  Stream
        # (53192, 0) is one: the stream is put back and the whole round
        # drawn, whose prefix and rest are then evaluated.  On stream
        # (5279, 1) a ball exit at alpha = 1.6 meets the same in its
        # Gamma(0.8) round, and the Gamma(0.2) round and the normals follow.
        # (A second round within one call after a jump round would need
        # 2048 proposals to accept under half, about 22 sigma short: the
        # scripted rounds below drive the while loop's second pass.)
        chunks = self._count_calls(monkeypatch, "_gs_accepted")
        skips = self._count_calls(monkeypatch, "_skip")
        if second_round:
            p = StableParams(2, 1.6)
            r1, r2 = RngStream(5279, 1).generator(), RngStream(5279, 1).generator()
            assert np.array_equal(sample_ball_exit_center(p, r1, 1016),
                                  _ball_exit_oracle(p, r2, 1016))
        else:
            r1, r2 = RngStream(53192, 0).generator(), RngStream(53192, 0).generator()
            assert np.array_equal(gamma_small_shape(0.8, r1, 1016),
                                  _gamma_oracle(0.8, r2, 1016))
        assert (len(chunks), len(skips)) == ((4, 4) if second_round else (3, 2))
        assert self._same_stream_after(r1, r2)

    @pytest.mark.parametrize("second_round", [False, True])
    def test_gamma_scripted_rounds(self, second_round, monkeypatch):
        # a round of need = 100 draws m = 216 proposals and first evaluates
        # 179 of them.  The script accepts 70 of those (or none) and rejects
        # the rest, with v just below 1 on both branches (u alternates 0.5
        # and 0.95, so half of them have prop > 1); it accepts all 37 of the
        # round's rest (or 10).  So the rest of the round completes the
        # draws, or a second round from the Philox stream behind the script
        # draws the last 90
        skips = self._count_calls(monkeypatch, "_skip")
        shape, need, m, cut = 0.5, 100, 216, 179
        u = np.tile([0.5, 0.95], m // 2)
        v = np.full(m, 1.0 - 1e-12)
        if second_round:
            v[cut:cut + 10] = 0.0
        else:
            v[:70] = v[cut:] = 0.0
        r1, r2 = _ScriptedRng([u, v], 34), _ScriptedRng([u, v], 34)
        assert np.array_equal(gamma_small_shape(shape, r1, need),
                              _gamma_oracle(shape, r2, need))
        assert r1.calls == r2.calls == [m, m] + [196, 196] * second_round
        assert skips == [] and self._same_stream_after(r1.rng, r2.rng)

    def test_gamma_keeps_a_buffered_half_draw(self, monkeypatch):
        # a 32-bit draw leaves half of a 64-bit draw buffered, which a jump
        # would drop: such a round is drawn whole, and the next 32-bit draw
        # is that buffered half
        skips = self._count_calls(monkeypatch, "_skip")
        r1, r2 = RngStream(37, 0).generator(), RngStream(37, 0).generator()
        assert r1.integers(1 << 30, dtype=np.int32) == r2.integers(1 << 30, dtype=np.int32)
        assert np.array_equal(gamma_small_shape(0.5, r1, 5000), _gamma_oracle(0.5, r2, 5000))
        assert np.array_equal(r1.integers(1 << 30, size=3, dtype=np.int32),
                              r2.integers(1 << 30, size=3, dtype=np.int32))
        assert skips == [] and self._same_stream_after(r1, r2)

    @pytest.mark.parametrize("pos", [1, 2, 3, 4])
    def test_skip_is_drawing_and_discarding(self, pos):
        # from each buffer position of a Philox block, _skip(n) leaves the
        # stream where n draws read and dropped leave it
        for n in range(41):
            a, b = np.random.Philox(key=[36, pos]), np.random.Philox(key=[36, pos])
            a.random_raw(pos + 8)
            b.random_raw(pos + 8)
            assert a.state["buffer_pos"] == pos
            _skip(a, n, 4 - pos)
            b.random_raw(n)
            ga, gb = np.random.Generator(a), np.random.Generator(b)
            assert self._same_stream_after(ga, gb), n

    @pytest.mark.parametrize("p", [P2, StableParams(3, 1.2), StableParams(4, 1.5),
                                   StableParams(5, 0.7), StableParams(9, 1.9)])
    @pytest.mark.parametrize("kind,size", _with_generators([1, 1015, 1016, 5000]))
    def test_ball_exit(self, p, kind, size):
        r1, r2 = _generator(kind, 32, 0), _generator(kind, 32, 0)
        got = sample_ball_exit_center(p, r1, size)
        assert np.array_equal(got, _ball_exit_oracle(p, r2, size))
        assert got.shape == (size, p.d) and got.flags.c_contiguous
        assert self._same_stream_after(r1, r2)

    @pytest.mark.parametrize("p", [StableParams(4, 1.5), StableParams(5, 1.2)])
    def test_ball_exit_with_radial(self, p):
        r1, r2, r3 = (RngStream(35, 1).generator() for _ in range(3))
        pts, radial = sample_ball_exit_center(p, r1, 3000, return_radial=True)
        g1 = _gamma_oracle(p.alpha / 2.0, r3, 3000)
        g2 = _gamma_oracle(1.0 - p.alpha / 2.0, r3, 3000)
        assert np.array_equal(pts, _ball_exit_oracle(p, r2, 3000))
        assert np.array_equal(radial, g2 / (g1 + g2))
        assert self._same_stream_after(r1, r2)

    @pytest.mark.parametrize("p,x", [(P2, [0.5, 0.0]),
                                     (StableParams(3, 1.2), [2.0, 0.0, 0.0]),
                                     (StableParams(4, 1.5), [0.3, -1.1, 0.4, 0.2]),
                                     (P2, [0.0, 0.0]),
                                     (StableParams(3, 1.2), [0.0, 0.0, 0.0])])
    def test_walk(self, p, x):
        cfg = WalkConfig()
        r1, r2 = RngStream(33, 0).generator(), RngStream(33, 0).generator()
        res = walk_on_balls_hitting(p, np.array(x), cfg, 2000, r1)
        hits, escapes, inconclusive = _walk_oracle(p, np.array(x), cfg, 2000, r2)
        want = WalkResult.from_counts(hits, escapes, inconclusive, 2000,
                                      res.bias_terms["shell"], res.bias_terms["escape_sup"])
        assert res == want
        assert {type(res.hits), type(res.escapes), type(res.inconclusive)} == {int}
        assert self._same_stream_after(r1, r2)


class TestSamplerRefusals:
    @pytest.mark.parametrize("size", [0, -1])
    def test_fewer_than_one_draw(self, size):
        with pytest.raises(DomainError, match="at least one draw"):
            gamma_small_shape(0.5, RngStream(0, 0).generator(), size)
        with pytest.raises(DomainError, match="at least one draw"):
            sample_ball_exit_center(P2, RngStream(0, 0).generator(), size)
        with pytest.raises(DomainError, match="at least one draw"):
            sample_halfplane_hit(P2, basis_last(2), RngStream(0, 0).generator(), size)

    def test_start_height_past_the_float_range(self):
        with pytest.raises(DomainError, match="float range"):
            sample_halfplane_hit(P2, [0.0, 1e300], RngStream(0, 0).generator(), 4)

    @pytest.mark.parametrize("seed", [1114, 2207])
    def test_tail_draw_past_the_float_range_is_kept(self, seed):
        # at alpha = 1.05 the Gamma(0.025) draw falls below 1e-308 about
        # once in 4e7 draws; stream (seed, 4) with 20,000 draws reaches it
        # (1114 through a draw rounded to 0): that T0 is inf, its position
        # +-inf, and no warning is raised
        with np.errstate(all="raise"):
            hits, t0 = sample_halfplane_hit(StableParams(2, 1.05), basis_last(2),
                                            RngStream(seed, 4).generator(), 20_000,
                                            return_time=True)
        tail = np.isinf(t0)
        assert tail.sum() == 1 and np.array_equal(np.isinf(hits[:, 0]), tail)
        assert np.isfinite(t0[~tail]).all() and (t0[~tail] > 0).all()

    def test_walk_from_past_the_float_range_escapes(self):
        with np.errstate(all="raise"):
            res = walk_on_balls_hitting(P2, [0.0, 1e300], WalkConfig(), 8,
                                        RngStream(0, 0).generator())
        assert (res.hits, res.escapes) == (0, 8)
