"""Tests for the Monte Carlo generators and experiment runners."""

import numpy as np
import pytest

from sscm import simulation
from sscm.errors import ConvergenceError, UnsupportedConfigError
from sscm.simulation import (
    ModelSpec,
    generate_sample,
    model_context,
    model_root,
    model_shape,
    run_qq_experiment,
    run_shape_benchmark,
)


class TestModelSpec:
    def test_defaults_match_reference_scales(self):
        assert (ModelSpec("M1").p, ModelSpec("M1").n) == (400, 200)
        assert (ModelSpec("M2").p, ModelSpec("M2").n) == (400, 800)
        assert (ModelSpec("M3").p, ModelSpec("M3").n) == (400, 400)
        assert ModelSpec("M4").n == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpec("M9")
        with pytest.raises(ValueError):
            ModelSpec("M3", p=41, n=100)  # two-block shape needs even p
        with pytest.raises(ValueError, match="model M4 requires even p"):
            ModelSpec("M4", p=41)
        with pytest.raises(ValueError):
            ModelSpec("M1", epsilon=0.1)
        with pytest.raises(ValueError):
            ModelSpec("M4", epsilon=1.5)


class TestGenerators:
    def test_m1_innovation_moments(self):
        # half chi^2_2 minus one: mean 0, variance 1, fourth moment 9
        Z = generate_sample(ModelSpec("M1", p=10, n=10000, seed=0)).data.ravel()
        se = 1.0 / np.sqrt(Z.size)
        assert abs(Z.mean()) < 4 * se
        assert abs(Z.var() - 1.0) < 0.02
        assert abs((Z**4).mean() - 9.0) < 0.6

    def test_m3_innovation_fourth_moment(self):
        # standardized Gamma(5, 2) has fourth moment 4.2; divide out w
        # wide rows keep the per-row studentization bias negligible
        spec = ModelSpec("M3", p=4000, n=300, seed=1)
        X = generate_sample(spec).data
        t = np.diag(model_shape(spec))
        # isolate z by removing the shape scaling, then studentize per row
        Z = X / np.sqrt(t)
        Z = Z / Z.std(axis=1, keepdims=True)
        assert abs((Z**4).mean() - 4.2) < 0.1

    def test_shapes_have_unit_mean_trace(self):
        for mid in ("M1", "M2", "M3", "M4", "M5"):
            spec = ModelSpec(mid, p=40, n=100, seed=2)
            assert np.trace(model_shape(spec)) / 40 == pytest.approx(1.0)

    def test_m2_direction_fixed_across_replicates(self):
        spec = ModelSpec("M2", p=30, n=50, seed=3)
        A = model_root(spec)
        np.testing.assert_array_equal(model_root(spec), A)
        for r in (0, 1, 4):
            # the test's own draw of z and w on the replicate's substream, mixed by the one A
            g = np.random.Generator(np.random.Philox(np.random.SeedSequence([3, r + 1])))
            Z = g.standard_normal((50, 30))
            w = np.where(g.random(50) < 0.5, 1.0, 0.2)
            np.testing.assert_array_equal(generate_sample(spec, replicate=r).data, w[:, None] * (Z @ A))

    def test_contamination_count_exact(self):
        spec = ModelSpec("M4", p=20, n=100, epsilon=0.05, seed=4)
        X = generate_sample(spec).data
        # outliers have 16x the covariance: norms separate cleanly
        norms = np.sort(np.linalg.norm(X, axis=1))
        assert norms[-5] / norms[-6] > 2.0

    def test_epsilon_zero_is_pure_normal(self):
        a = generate_sample(ModelSpec("M4", p=10, n=100, epsilon=0.0, seed=5)).data
        # against the same stream: no rows replaced
        g = np.random.Generator(np.random.Philox(np.random.SeedSequence([5, 1])))
        t = np.concatenate([np.full(5, 0.5), np.full(5, 1.5)])
        expected = g.standard_normal((100, 10)) * np.sqrt(t)
        np.testing.assert_array_equal(a, expected)

    @pytest.mark.parametrize("mid, t_out", [("M4", [0.5, 1.5]), ("M5", [1.5, 0.5])])
    def test_outlier_rows_have_sixteen_times_the_shape(self, mid, t_out):
        # the first floor(n eps) rows are N(0, 16 T), with T's blocks swapped for M5
        X = generate_sample(ModelSpec(mid, p=10, n=100, epsilon=0.05, seed=5)).data
        g = np.random.Generator(np.random.Philox(np.random.SeedSequence([5, 1])))
        expected = g.standard_normal((100, 10)) * np.sqrt(np.repeat([0.5, 1.5], 5))
        expected[:5] = g.standard_normal((5, 10)) * np.sqrt(16.0 * np.repeat(t_out, 5))
        np.testing.assert_array_equal(X, expected)

    def test_determinism_per_replicate(self):
        spec = ModelSpec("M3", p=20, n=30, seed=6)
        X1 = generate_sample(spec, replicate=5).data
        X2 = generate_sample(spec, replicate=5).data
        np.testing.assert_array_equal(X1, X2)
        X3 = generate_sample(spec, replicate=6).data
        assert not np.array_equal(X1, X3)


class TestModelContext:
    def test_m1_context(self):
        ctx = model_context(ModelSpec("M1", p=100, n=50, seed=0))
        assert ctx.tau == 9.0 and ctx.r_w == 1.0
        assert ctx.c_n == pytest.approx(2.0)

    def test_m3_context(self):
        ctx = model_context(ModelSpec("M3", p=100, n=100, seed=0))
        assert ctx.tau == 4.2 and ctx.r_w == 1.2

    def test_m2_context(self):
        # the mixing matrix is T^{1/2} of T = (I + vv')/(1 + 1/p), v from substream 0
        p, seed = 40, 0
        ctx = model_context(ModelSpec("M2", p=p, n=80, seed=seed))
        assert ctx.tau == 3.0 and ctx.r_w == pytest.approx(13.0 / 9.0)
        v = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 0]))).standard_normal(p)
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(ctx.A @ ctx.A.T, (np.eye(p) + np.outer(v, v)) / (1.0 + 1.0 / p), atol=1e-12)

    def test_m4_has_no_context(self):
        with pytest.raises(UnsupportedConfigError):
            model_context(ModelSpec("M4", p=20, n=100, seed=0))


class TestRunners:
    def test_qq_row_determinism(self):
        spec = ModelSpec("M1", p=40, n=80, seed=7)
        rows = run_qq_experiment(spec, 5)
        assert rows == run_qq_experiment(spec, 5)
        assert [row[0] for row in rows] == list(range(5))

    def test_runners_reject_zero_reps(self):
        with pytest.raises(ValueError, match="reps must be >= 1"):
            run_qq_experiment(ModelSpec("M1", p=40, n=80, seed=8), 0)
        with pytest.raises(ValueError, match="reps must be >= 1"):
            run_shape_benchmark(("M4",), (0.0,), 0, p_grid=(40,), n=100, seed=9)

    def test_m2_qq_standard_normal(self):
        # normalized statistics of model M2 have mean 0 and variance 1,
        # checked in bands of 5 standard errors
        reps = 400
        rows = np.array(run_qq_experiment(ModelSpec("M2", p=40, n=80, seed=11), reps))
        for z in (rows[:, 3], rows[:, 4]):
            assert abs(z.mean()) <= 5.0 * z.std(ddof=1) / np.sqrt(reps)
            assert abs(z.var(ddof=1) - 1.0) <= 5.0 * np.sqrt(2.0 / (reps - 1))

    def test_qq_rejects_contaminated_models(self):
        with pytest.raises(UnsupportedConfigError):
            run_qq_experiment(ModelSpec("M4", p=20, n=100, seed=0), 1)

    def test_benchmark_rows_and_skips(self):
        rows = run_shape_benchmark(("M4",), (0.0,), 2, p_grid=(40, 160), n=100, seed=9)
        by_p = {}
        for mid, eps, p, k, mean, nf in rows:
            by_p.setdefault(p, []).append(k)
        assert sorted(by_p[40]) == [1, 2, 3, 4, 5, 6]
        assert sorted(by_p[160]) == [1, 2, 3, 4]  # Tyler needs p < n

    def test_benchmark_counts_library_errors_only(self, monkeypatch):
        def converge_fail(X, kind, **kwargs):
            raise ConvergenceError("no fixed point")

        monkeypatch.setattr(simulation, "estimate_shape", converge_fail)
        rows = run_shape_benchmark(("M4",), (0.0,), 2, p_grid=(40,), n=100, seed=9)
        assert [nf for *_, nf in rows] == [2] * 6

        def defect(X, kind, **kwargs):
            raise TypeError("a defect, not an estimator failure")

        monkeypatch.setattr(simulation, "estimate_shape", defect)
        with pytest.raises(TypeError):
            run_shape_benchmark(("M4",), (0.0,), 2, p_grid=(40,), n=100, seed=9)
