import hashlib
import math

import numpy as np
import pytest
import scipy.special as sps
from scipy import integrate

from stablepot.core import StableParams, basis_last
from stablepot.errors import DomainError
from stablepot.montecarlo import (EmpiricalSample, RngStream, WalkConfig,
                                  WalkResult, gamma_small_shape, ks_test,
                                  sample_ball_exit_center,
                                  sample_halfplane_hit, walk_on_balls_hitting)
from stablepot import sphere
from stablepot.specfun import regularized_beta_cdf

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
        cdf = lambda v: np.array([regularized_beta_cdf(a2, 1.0 - a2, float(t))
                                  for t in np.atleast_1d(v)])
        res = ks_test(w, cdf)
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
            half = np.array([1.0 - regularized_beta_cdf((a - 1.0) / 2.0, 0.5,
                                                        float(v))
                             for v in wc])
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

    def test_conservative_ball_factor(self):
        cfg = WalkConfig(kappa=0.5)
        res = walk_on_balls_hitting(P2, np.zeros(2), cfg, 4000,
                                    RngStream(21, 0).generator())
        target = sphere.constants(P2).phi_at_origin
        assert abs(res.estimate - target) <= 3.0 * res.stderr + res.bias_budget

    def test_seeded_counts_are_pinned(self):
        # hits, escapes and inconclusive walkers of one seeded walk, as the
        # step rule rho = kappa |1 - |z|| has always drawn them
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
            WalkConfig(kappa=0.0)


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
        rho = cfg.kappa * dist[~done]
        pos[live] += rho[:, None] * _ball_exit_oracle(p, rng, live.size)
    return hits, escapes, int(active.sum())


class TestAgainstFirstFormulations:
    @staticmethod
    def _same_stream_after(a, b):
        return np.array_equal(a.random(8), b.random(8))

    @pytest.mark.parametrize("shape", [0.05, 0.25, 0.6, 0.75])
    @pytest.mark.parametrize("size", [1, 7, 15000])
    def test_gamma(self, shape, size):
        r1, r2 = RngStream(31, 2).generator(), RngStream(31, 2).generator()
        assert np.array_equal(gamma_small_shape(shape, r1, size),
                              _gamma_oracle(shape, r2, size))
        assert self._same_stream_after(r1, r2)

    @pytest.mark.parametrize("p", [P2, StableParams(3, 1.2)])
    @pytest.mark.parametrize("size", [1, 5000])
    def test_ball_exit(self, p, size):
        r1, r2 = RngStream(32, 0).generator(), RngStream(32, 0).generator()
        assert np.array_equal(sample_ball_exit_center(p, r1, size),
                              _ball_exit_oracle(p, r2, size))
        assert self._same_stream_after(r1, r2)

    @pytest.mark.parametrize("p,x", [(P2, [0.5, 0.0]),
                                     (StableParams(3, 1.2), [2.0, 0.0, 0.0])])
    def test_walk(self, p, x):
        cfg = WalkConfig()
        r1, r2 = RngStream(33, 0).generator(), RngStream(33, 0).generator()
        res = walk_on_balls_hitting(p, np.array(x), cfg, 2000, r1)
        hits, escapes, inconclusive = _walk_oracle(p, np.array(x), cfg, 2000, r2)
        want = WalkResult.from_counts(hits, escapes, inconclusive, 2000,
                                      res.bias_terms["shell"], res.bias_terms["escape_sup"])
        assert res == want
        assert self._same_stream_after(r1, r2)


class TestSamplerRefusals:
    @pytest.mark.parametrize("size", [0, -1])
    def test_fewer_than_one_draw(self, size):
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
