"""Tests for spatial signs, the spatial median, and the sample SSCM."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from sscm.errors import ConvergenceError
from sscm.sign_geometry import (
    DEFAULT_MEDIAN_MAX_ITER,
    DEFAULT_MEDIAN_TOL,
    SampleBatch,
    _coordinatewise_median,
    _newton_step,
    estimate_rw,
    spatial_median,
    spatial_sign,
    spatial_signs,
    sscm,
)


def dense_newton_median(X):
    """Weiszfeld with a Newton polish solved exactly on the dense Hessian.

    Once the mean sign is below 1e-4, both the Weiszfeld and the Newton point are
    evaluated and the one of smaller residual is kept, if the objective does not
    rise.  Returns (median, iterations); for data with no row at an iterate.
    """
    n, p = X.shape

    def evaluate(mu):
        diff = X - mu
        d = np.linalg.norm(diff, axis=1)
        assert d.min() > 1e-12
        U = diff / d[:, None]
        return mu, d, U, U.sum(axis=0), d.sum()

    cur = evaluate(np.median(X, axis=0))
    for iterations in range(1, DEFAULT_MEDIAN_MAX_ITER + 1):
        mu, d, U, ssum, obj = cur
        cand = evaluate((X / d[:, None]).sum(axis=0) / np.sum(1.0 / d))
        if np.linalg.norm(ssum) / n < 1e-4:
            hess = np.sum(1.0 / d) * np.eye(p) - (U / d[:, None]).T @ U
            newton = evaluate(mu + np.linalg.solve(hess, ssum))
            if np.linalg.norm(newton[3]) < np.linalg.norm(cand[3]):
                cand = newton
        if cand[4] <= obj * (1.0 + 1e-14):
            cur = cand
        if np.linalg.norm(cur[3]) / n <= DEFAULT_MEDIAN_TOL:
            return cur[0], iterations
    raise AssertionError("the reference did not converge")


class TestSpatialSign:
    def test_unit_norm(self):
        s = spatial_sign(np.array([3.0, 4.0]))
        np.testing.assert_allclose(s, [0.6, 0.8])

    def test_zero_vector_maps_to_zero(self):
        np.testing.assert_array_equal(spatial_sign(np.zeros(3)), np.zeros(3))

    def test_rowwise(self):
        X = np.array([[1.0, 0.0], [0.0, -2.0], [0.0, 0.0]])
        S = spatial_signs(X)
        np.testing.assert_allclose(S, [[1, 0], [0, -1], [0, 0]])


class TestSpatialMedian:
    def test_against_generic_optimizer(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((60, 4)) + 0.5
        res = spatial_median(X)
        obj = lambda mu: np.sum(np.linalg.norm(X - mu, axis=1))
        direct = minimize(obj, X.mean(axis=0), method="Nelder-Mead",
                          options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000})
        assert np.linalg.norm(res.median - direct.x) < 1e-5
        assert obj(res.median) <= direct.fun + 1e-8

    def test_residual_tolerance(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((200, 10))
        res = spatial_median(X)
        # sum of spatial signs around the median nearly cancels
        assert res.residual_norm < 1e-8
        assert res.newton_steps >= 1

    def test_orthogonal_equivariance(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((80, 5))
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        mu = spatial_median(X).median
        mu_rot = spatial_median(X @ Q.T).median
        assert np.linalg.norm(mu_rot - Q @ mu) < 1e-8

    def test_translation_equivariance(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((50, 3))
        shift = np.array([10.0, -4.0, 2.5])
        mu = spatial_median(X).median
        assert np.linalg.norm(spatial_median(X + shift).median - (mu + shift)) < 1e-8

    def test_data_point_minimizer(self):
        # one point heavily replicated: the median sits on it
        X = np.vstack([np.zeros((10, 2)), np.ones((2, 2)), -np.ones((2, 2))])
        res = spatial_median(X)
        assert np.linalg.norm(res.median) < 1e-8
        assert res.newton_steps == 0

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(3, 60),
        p=st.integers(1, 80),
        copies=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_optimality_against_independent_oracles(self, n, p, copies, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p))
        copies = min(copies, n - 2)  # all rows identical is rejected
        X[1:1 + copies] = X[0]  # a data point of multiplicity copies + 1
        residual = lambda m: np.linalg.norm(np.mean(spatial_signs(X - m), axis=0))
        try:
            res = spatial_median(X)
        except ConvergenceError as err:
            # a near-critical data point whose certificate fails at the end (see
            # test_near_critical_data_point_minimizer): the error must still
            # report the residual at its last iterate
            assert err.residual == pytest.approx(residual(err.last_iterate), rel=1e-12, abs=1e-15)
            assert err.residual > DEFAULT_MEDIAN_TOL
            return
        mu = res.median
        obj = lambda m: float(np.sum(np.linalg.norm(X - m, axis=1)))
        d = np.linalg.norm(X - mu, axis=1)
        signs = spatial_signs(X - mu)
        assert res.residual_norm == pytest.approx(residual(mu), rel=1e-12, abs=1e-15)
        assert res.hessian_products > 0 or res.newton_steps == 0
        at_point = d < 1e-12
        if at_point.any():
            # a data point of multiplicity m minimizes iff the other signs sum to <= m
            assert np.linalg.norm(signs[~at_point].sum(axis=0)) <= at_point.sum()
        else:
            assert res.residual_norm <= DEFAULT_MEDIAN_TOL
        # accepted steps never raise the objective by more than 1e-14 relative,
        # and the data-point exit moves mu by < 1e-12
        slack = (1.0 + 1e-14) ** res.iterations
        assert obj(mu) <= obj(np.median(X, axis=0)) * slack + n * 1e-12
        f = obj(mu)
        for v in rng.standard_normal((4, p)):
            v *= 1e-6 / np.linalg.norm(v)
            assert f <= min(obj(mu + v), obj(mu - v)) * (1.0 + 1e-13)

    def test_near_critical_data_point_minimizer(self):
        # three points whose Fermat point is the vertex X[1], with ||R|| = 0.9927 < m = 1:
        # Weiszfeld nears it at rate ||R|| / m, too slowly for 500 iterates, and the
        # certificate at the data point nearest the last iterate returns it
        X = np.random.default_rng(14).standard_normal((3, 5))
        res = spatial_median(X)
        assert np.linalg.norm(res.median - X[1]) <= 1e-12 * np.linalg.norm(X[1])
        assert res.iterations == DEFAULT_MEDIAN_MAX_ITER

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 60),
        p=st.integers(1, 40),
        levels=st.integers(2, 1000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_start_is_numpy_median(self, n, p, levels, seed):
        # odd and even n, with ties when levels is small
        X = np.random.default_rng(seed).integers(0, levels, size=(n, p)) * 0.37 - 11.0
        assume(not np.allclose(X, X[0]))
        np.testing.assert_array_equal(_coordinatewise_median(X), np.median(X, axis=0))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 30),
        p=st.integers(1, 10),
        log_spread=st.floats(-12.0, -2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rejects_exactly_what_allclose_calls_identical(self, n, p, log_spread, seed):
        # rows spread about a common point by about the 1e-8 + 1e-5 |x| of np.allclose
        rng = np.random.default_rng(seed)
        X = rng.standard_normal(p) * 10.0 ** rng.uniform(-4, 4) + 10.0**log_spread * rng.standard_normal((n, p))
        if np.allclose(X, X[0]):
            with pytest.raises(ValueError, match="identical"):
                spatial_median(X)
        else:
            _coordinatewise_median(X)

    @pytest.mark.parametrize("n,p", [(100, 200), (200, 50), (5, 80), (80, 5), (40, 40)])
    def test_newton_step_matches_dense_hessian_solve(self, n, p):
        rng = np.random.default_rng(n * 1000 + p)
        X = rng.standard_normal((n, p))
        diff = X - 0.1 * rng.standard_normal(p)
        d = np.linalg.norm(diff, axis=1)
        U = diff / d[:, None]
        r = rng.standard_normal(p)
        hess = sum((np.eye(p) - np.outer(u, u)) / dj for u, dj in zip(U, d))
        expected = np.linalg.solve(hess, r)
        step, products = _newton_step(U, d, r, 1e-15 * np.linalg.norm(r))
        assert np.linalg.norm(step - expected) <= 1e-12 * np.linalg.norm(expected)
        assert 1 <= products <= min(n, p) + 1

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 80),
        p=st.integers(1, 80),
        collinear=st.booleans(),
        digits=st.floats(4.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_newton_step_reaches_its_target_or_declines(self, n, p, collinear, digits, seed):
        rng = np.random.default_rng(seed)
        if collinear:
            # rows on a ray from mu: every sign is v, r = n v, and H v = 0
            X = np.outer(rng.uniform(0.1, 2.0, n), rng.standard_normal(p))
            mu = np.zeros(p)
        else:
            X = rng.standard_normal((n, p))
            mu = np.median(X, axis=0) + 0.1 * rng.standard_normal(p)
        diff = X - mu
        d = np.linalg.norm(diff, axis=1)
        U = diff / d[:, None]
        r = U.sum(axis=0)
        # the median asks for 1e-14 n while ||r|| / n is in (1e-10, 1e-4)
        target = 10.0**-digits * np.linalg.norm(r)
        step, products = _newton_step(U, d, r, target)
        assert 1 <= products <= min(n, p) + 1
        if p == 1 or collinear:
            assert step is None
        elif step is not None:
            hess = sum((np.eye(p) - np.outer(u, u)) / dj for u, dj in zip(U, d))
            # CG's updated residual tracks r - H step only to the rounding of
            # forming r - H step, which no solver can go below
            rounding = (n + p) * np.finfo(float).eps * (np.linalg.norm(r) + np.sum(1.0 / d) * np.linalg.norm(step))
            assert np.linalg.norm(r - hess @ step) <= target + rounding

    @pytest.mark.parametrize("shape", ["M1", "M3", "cell_100x50", "cell_200x100_w", "cell_50x200"])
    def test_matches_dense_newton_on_monte_carlo_shapes(self, shape):
        # the shapes the sphericity and QQ Monte Carlo refit a median on
        from sscm.simulation import ModelSpec, generate_sample

        rng = np.random.default_rng(20)
        for rep in range(3):
            if shape in ("M1", "M3"):
                p, n = (200, 100) if shape == "M1" else (200, 200)
                X = generate_sample(ModelSpec(shape, p=p, n=n, seed=rep)).data
            elif shape == "cell_200x100_w":
                X = np.array([1.0, 0.2])[rng.integers(0, 2, size=100), None] * rng.standard_normal((100, 200))
            else:
                X = rng.standard_normal((50, 100) if shape == "cell_100x50" else (200, 50))
            want, want_iterations = dense_newton_median(X)
            res = spatial_median(X)
            assert np.linalg.norm(res.median - want) <= 1e-12 * np.linalg.norm(want)
            assert res.iterations == want_iterations
            assert res.newton_steps >= 1 and res.hessian_products >= res.newton_steps

    def test_consistency_rate(self):
        # the residual-corrected expansion: error shrinks with n (seed-averaged)
        errs = []
        for n in (100, 400, 1600):
            tot = 0.0
            for seed in range(5):
                rng = np.random.default_rng(seed)
                X = rng.exponential(1.0, size=(n, 30)) - 1.0
                mu_hat = spatial_median(X).median
                s = spatial_signs(X)
                inv = 1.0 / np.linalg.norm(X, axis=1)
                correction = s.sum(axis=0) / inv.sum()
                tot += np.linalg.norm(mu_hat - correction)
            errs.append(tot / 5)
        assert errs[0] > errs[1] > errs[2]


class TestSscm:
    def test_trace_is_p(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((100, 20))
        B = sscm(X).matrix
        assert abs(np.trace(B) - 20) < 1e-10

    def test_known_center(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((50, 6))
        B = sscm(X, center=np.zeros(6)).matrix
        S = spatial_signs(X)
        expected = (6 / 50) * S.T @ S
        np.testing.assert_allclose(B, expected, atol=1e-12)

    def test_orthogonal_equivariance(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((80, 7))
        Q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        B = sscm(X).matrix
        B_rot = sscm(X @ Q.T).matrix
        assert np.linalg.norm(B_rot - Q @ B @ Q.T) < 1e-8

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((60, 5))
        B1 = sscm(X, center=np.zeros(5)).matrix
        B2 = sscm(17.5 * X, center=np.zeros(5)).matrix
        np.testing.assert_allclose(B1, B2, atol=1e-12)

    @pytest.mark.parametrize(
        "X,degenerate",
        [
            (np.random.default_rng(12).standard_normal((50, 100)), 0),
            (np.random.default_rng(13).standard_normal((120, 30)), 0),
            # the data-point minimizer: its ten coincident rows are dropped
            (np.vstack([np.zeros((10, 2)), np.ones((2, 2)), -np.ones((2, 2))]), 10),
            # a vertex at 168 degrees: Weiszfeld ends within 1e-12 of it, not on it
            (np.array([[0.0, 0.0], [1.0, 0.1], [-1.0, 0.1]]), 1),
        ],
        ids=["p>n", "p<n", "data_point", "approached_data_point"],
    )
    def test_estimated_center_matches_recomputed_signs(self, X, degenerate):
        n, p = X.shape
        result = sscm(X)
        S = spatial_signs(X - spatial_median(X).median)
        assert result.degenerate_rows == degenerate
        np.testing.assert_allclose(result.matrix, (p / (n - degenerate)) * S.T @ S, rtol=0, atol=1e-15)

    def test_degenerate_rows_dropped(self):
        X = np.vstack([np.eye(3), np.zeros((1, 3))])
        result = sscm(X, center=np.zeros(3))
        assert result.degenerate_rows == 1
        assert abs(np.trace(result.matrix) - 3) < 1e-12


class TestSampleBatch:
    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((10, 3))
        path = tmp_path / "sample.csv"
        SampleBatch(X).to_csv(path)
        back = SampleBatch.from_csv(path)
        np.testing.assert_array_equal(back.data, X)

    def test_shape_properties(self):
        b = SampleBatch(np.zeros((7, 2)))
        assert (b.n, b.p) == (7, 2)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            SampleBatch(np.zeros((3,)))
        with pytest.raises(ValueError):
            SampleBatch(np.array([[np.nan, 1.0]]))


class TestEstimateRw:
    def test_constant_weight(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((500, 100))
        assert abs(estimate_rw(X, np.zeros(100)) - 1.0) < 0.05

    def test_two_point_weight(self):
        from sscm.simulation import ModelSpec, generate_sample

        X = generate_sample(ModelSpec("M2", p=400, n=800, seed=10)).data
        assert abs(estimate_rw(X, np.zeros(400)) - 13.0 / 9.0) < 0.1

    def test_beta_weight(self):
        from sscm.simulation import ModelSpec, generate_sample

        X = generate_sample(ModelSpec("M3", p=400, n=400, seed=11)).data
        assert abs(estimate_rw(X, np.zeros(400)) - 1.2) < 0.1
