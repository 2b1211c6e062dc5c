"""Tests for the CLT mean/covariance kernels and the contour integrals."""

import json

import numpy as np
import pytest

from sscm.errors import UnsupportedConfigError
from sscm.lss_clt import (
    ContourSpec,
    NormalApprox,
    ShapeContext,
    beta_centering,
    beta_moments_normal,
    cov_kernel,
    default_contour,
    lss_normal_approx,
    mean_kernel,
    spectrum_interval,
)
from sscm.mp_law import solve_stieltjes_grid

M1_CTX = ShapeContext.isotropic(200, 100, tau=9.0, r_w=1.0)


def m3_ctx(p=200, n=200):
    t = np.concatenate([np.full(p // 2, 0.5), np.full(p // 2, 1.5)])
    return ShapeContext.from_diagonal_shape(t, n, tau=4.2, r_w=1.2)


def random_orthogonal(p, seed):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((p, p)))
    return Q


def dense_ctx(p=12, n=24):
    """A general (non-symmetric, non-diagonal) mixing matrix, tr(A A') = p."""
    A = np.random.default_rng(3).standard_normal((p, p)) + 2.0 * np.eye(p)
    A *= np.sqrt(p / np.trace(A @ A.T))
    return ShapeContext.from_matrix(A, n, tau=4.2, r_w=1.2)


def mixed_partial_oracle(ctx, z1, z2, step=2e-3):
    """(sigma1, sigma2) by differencing the pre-derivative kernels.

    s1 = log[(mu1 - mu2) / (mu1 mu2 (z1 - z2))]
         + (s2/c + 1/(c mu1) + 1/(c mu2)) (1 + z1 mu1)(1 + z2 mu2) - z1 mu1 - z2 mu2
    s2 = c g(u1, u2) + (zeta/c)(1 + z1 mu1)(1 + z2 mu2)
         - (1 + z1 mu1) h(u2) - (1 + z2 mu2) h(u1),   u = -1/mu,
    with h(u) = tr(A'(sigma - u)^-1 A A'A)/p and g(u, v) =
    tr(A'(sigma - u)^-1 A A'(sigma - v)^-1 A)/p from dense resolvents.
    sigma1 = 2 d^2 s1/dz1 dz2 and sigma2 = d^2 s2/dz1 dz2, by central
    differences extrapolated once (Richardson).
    """
    A = np.asarray(ctx.A, dtype=float)
    sig = np.asarray(ctx.sigma, dtype=float)
    if ctx.diagonal:
        A, sig = np.diag(A), np.diag(sig)
    p = A.shape[0]
    c = ctx.c_n

    def res(u):  # A'(sigma - u)^-1 A
        return A.T @ np.linalg.solve(sig - u * np.eye(p), A)

    def corner(a, b):
        ma, mb = solve_stieltjes_grid(ctx.model, np.array([a, b]))[1]
        ea, eb = 1.0 + a * ma, 1.0 + b * mb
        ratio = (ma - mb) / (ma * mb * (a - b))
        rest1 = (ctx.trace_sigma2_over_p / c + 1.0 / (c * ma) + 1.0 / (c * mb)) * ea * eb - a * ma - b * mb
        Ra, Rb = res(-1.0 / ma), res(-1.0 / mb)
        h = lambda R: np.trace(R @ A.T @ A) / p
        s2 = c * np.trace(Ra @ Rb) / p + ctx.zeta_p / c * ea * eb - ea * h(Rb) - eb * h(Ra)
        return ratio, rest1, s2

    def central(dz):
        pp, pm = corner(z1 + dz, z2 + dz), corner(z1 + dz, z2 - dz)
        mp, mm = corner(z1 - dz, z2 + dz), corner(z1 - dz, z2 - dz)
        # the log enters through a ratio close to 1, which stays off the branch cut
        d_log = np.log(pp[0] * mm[0] / (pm[0] * mp[0]))
        d1 = d_log + pp[1] - pm[1] - mp[1] + mm[1]
        d2 = pp[2] - pm[2] - mp[2] + mm[2]
        return np.array([2.0 * d1, d2]) / (4.0 * dz**2)

    return (4.0 * central(step / 2) - central(step)) / 3.0


class TestShapeContext:
    def test_isotropic_fields(self):
        assert M1_CTX.c_n == pytest.approx(2.0)
        assert M1_CTX.diagonal

    def test_alpha_moments(self):
        ctx = m3_ctx()
        a = ctx.alpha(2)
        assert a[0] == pytest.approx(1.0, abs=1e-2)
        # second moment of the corrected spectrum stays near 1.25
        assert a[1] == pytest.approx(1.25, abs=0.05)

    def test_matrix_and_diagonal_agree(self):
        p, n = 60, 120
        t = np.concatenate([np.full(p // 2, 0.5), np.full(p // 2, 1.5)])
        ctx_d = ShapeContext.from_diagonal_shape(t, n, tau=4.2, r_w=1.2)
        ctx_m = ShapeContext.from_matrix(np.diag(np.sqrt(t)), n, tau=4.2, r_w=1.2)
        z, z2 = 1.0 + 0.8j, 2.1 - 0.5j
        kd = mean_kernel(ctx_d, z) + cov_kernel(ctx_d, z, z2)
        km = mean_kernel(ctx_m, z) + cov_kernel(ctx_m, z, z2)
        for a, b in zip(kd, km):
            assert abs(a - b) < 1e-6

    def test_left_rotation_invariance(self):
        # A = Q diag(sqrt t) has the same T' = A'A and a rotated sigma, so
        # every kernel equals that of the diagonal context
        p, n = 30, 60
        t = np.random.default_rng(1).uniform(0.3, 2.0, p)
        t *= p / t.sum()
        ctx_d = ShapeContext.from_diagonal_shape(t, n, tau=4.2, r_w=1.2)
        ctx_q = ShapeContext.from_matrix(random_orthogonal(p, 2) @ np.diag(np.sqrt(t)), n, tau=4.2, r_w=1.2)
        for z, z2 in ((1.2 + 0.7j, 0.4 - 0.9j), (2.5 - 0.3j, 1.0 + 1.1j)):
            kd = mean_kernel(ctx_d, z) + cov_kernel(ctx_d, z, z2)
            kq = mean_kernel(ctx_q, z) + cov_kernel(ctx_q, z, z2)
            for a, b in zip(kd, kq):
                assert abs(a - b) < 1e-8 * max(1.0, abs(b))


class TestClosedForms:
    def test_model1_mean(self):
        # c = 2, r_w = 1, identity shape: mu_2 = c^2 - c = 2
        approx = beta_moments_normal(M1_CTX)
        assert approx.mean[0] == pytest.approx(2.0)
        assert approx.mean[1] == pytest.approx(10.0)
        # identity shape: the fourth-moment covariance correction vanishes
        assert approx.covariance[0, 0] == pytest.approx(16.0)

    def test_gaussian_cov_values(self):
        ctx = ShapeContext.isotropic(200, 100, tau=3.0, r_w=1.0)
        approx = beta_moments_normal(ctx)
        # identity shape: sigma_22 = 4 c^2 alpha_2^2, evaluated at c = 2
        assert approx.covariance[0, 0] == pytest.approx(4.0 * 4.0)

    def test_fourth_moment_shifts_covariance(self):
        t = np.concatenate([np.full(50, 0.5), np.full(50, 1.5)])
        base = beta_moments_normal(ShapeContext.from_diagonal_shape(t, 100, tau=3.0))
        heavy = beta_moments_normal(ShapeContext.from_diagonal_shape(t, 100, tau=4.2))
        assert heavy.covariance[0, 0] > base.covariance[0, 0]

    def test_mu3_at_unit_ratio(self):
        ctx = ShapeContext.isotropic(100, 100, tau=3.0, r_w=1.0)
        approx = beta_moments_normal(ctx)
        # c = 1, r = 1, identity: mu_3 = 3 + 2 - 3(1 + 1) = -1
        assert approx.mean[1] == pytest.approx(-1.0)

    def test_centering_terms(self):
        b2, b3 = beta_centering(M1_CTX)
        assert b2 == pytest.approx(1.0 + 2.0)
        assert b3 == pytest.approx(1.0 + 3 * 2.0 + 4.0)

    def test_dense_fourth_moment_rejected(self):
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        A = Q @ np.diag(rng.uniform(0.5, 1.5, 10)) @ Q.T
        A *= np.sqrt(10 / np.trace(A @ A.T))
        ctx = ShapeContext.from_matrix(A, 20, tau=4.0, r_w=1.0)
        with pytest.raises(UnsupportedConfigError):
            beta_moments_normal(ctx)


class TestContour:
    def test_contour_encloses_spectrum(self):
        contour = default_contour(M1_CTX)
        lo, hi = spectrum_interval(M1_CTX)
        assert contour.x_left < lo and contour.x_right > hi

    def test_contour_closure(self):
        contour = default_contour(M1_CTX)
        z, w = contour.nodes(256)
        # integral of 1 over a closed contour vanishes
        assert abs(np.sum(w)) < 1e-12
        # integral of 1/(z - a) for an interior point = 2 pi i
        a = 0.5 * (contour.x_left + contour.x_right)
        val = np.sum(w / (z - a))
        assert abs(val - 2j * np.pi) < 1e-6

    def test_shrink_nests(self):
        c1 = default_contour(M1_CTX)
        c2 = c1.shrink(interval=spectrum_interval(M1_CTX))
        assert c2.v0 < c1.v0
        assert c2.x_left > c1.x_left and c2.x_right < c1.x_right


class TestKernels:
    def test_cov_kernel_symmetry(self):
        z1, z2 = 1.1 + 0.9j, 2.3 + 0.7j
        s1a, s2a = cov_kernel(M1_CTX, z1, z2)
        s1b, s2b = cov_kernel(M1_CTX, z2, z1)
        assert abs(s1a - s1b) < 1e-7 * max(1, abs(s1a))
        assert abs(s2a - s2b) < 1e-7 * max(1, abs(s2a))

    @pytest.mark.parametrize("ctx", [dense_ctx(), m3_ctx(40, 80)], ids=["dense", "diagonal"])
    def test_cov_kernel_matches_differenced_kernels(self, ctx):
        for z1, z2 in ((1.1 + 0.9j, 2.3 + 0.7j), (0.4 + 0.6j, 3.0 - 0.6j), (2.0 - 0.4j, 0.7 - 1.1j)):
            want = mixed_partial_oracle(ctx, z1, z2)
            got = cov_kernel(ctx, z1, z2)
            for a, b in zip(got, want):
                assert abs(a - b) < 1e-7 * abs(b)

    def test_mean_kernel_finite(self):
        ctx = m3_ctx(100, 100)
        kappa, mu1, mu2 = mean_kernel(ctx, 1.5 + 0.5j)
        for v in (kappa, mu1, mu2):
            assert np.isfinite(v)


class TestContourIntegrals:
    def test_matches_closed_forms_model1(self):
        fs = [lambda x: x**2, lambda x: x**3]
        approx = lss_normal_approx(M1_CTX, fs)
        closed = beta_moments_normal(M1_CTX)
        np.testing.assert_allclose(approx.mean, closed.mean, rtol=1e-3, atol=1e-3)
        np.testing.assert_allclose(
            approx.covariance, closed.covariance, rtol=1e-3
        )

    def test_matches_closed_forms_model3(self):
        ctx = m3_ctx()
        fs = [lambda x: x**2, lambda x: x**3]
        approx = lss_normal_approx(ctx, fs)
        closed = beta_moments_normal(ctx)
        np.testing.assert_allclose(approx.mean, closed.mean, rtol=1e-3)
        np.testing.assert_allclose(approx.covariance, closed.covariance, rtol=2e-3)

    def test_matches_closed_forms_large_c(self):
        # c = 5: F has an atom at 0 and the left contour edge passes next to it
        p, n = 200, 40
        t = np.concatenate([np.full(p // 2, 0.5), np.full(p // 2, 1.5)])
        ctx = ShapeContext.from_diagonal_shape(t, n, tau=3.0)
        approx = lss_normal_approx(ctx, [lambda x: x**2, lambda x: x**3])
        closed = beta_moments_normal(ctx)
        np.testing.assert_allclose(approx.mean, closed.mean, rtol=1e-8)
        np.testing.assert_allclose(approx.covariance, closed.covariance, rtol=1e-8)

    def test_dense_fourth_moment_matches_diagonal(self):
        # a rotated dense mixing matrix with tau != 3 gives the same
        # Gaussian approximation as the equivalent diagonal context
        p, n = 40, 80
        t = np.concatenate([np.full(p // 2, 0.5), np.full(p // 2, 1.5)])
        ctx_d = ShapeContext.from_diagonal_shape(t, n, tau=4.2, r_w=1.2)
        ctx_q = ShapeContext.from_matrix(random_orthogonal(p, 4) @ np.diag(np.sqrt(t)), n, tau=4.2, r_w=1.2)
        fs = [lambda x: x**2, lambda x: x**3]
        diag = lss_normal_approx(ctx_d, fs)
        dense = lss_normal_approx(ctx_q, fs)
        np.testing.assert_allclose(dense.mean, diag.mean, rtol=1e-8)
        np.testing.assert_allclose(dense.covariance, diag.covariance, rtol=1e-8)

    def test_contour_independence(self):
        fs = [lambda x: x**2]
        base = lss_normal_approx(M1_CTX, fs)
        wider = lss_normal_approx(M1_CTX, fs, default_contour(M1_CTX, v0=1.0))
        assert abs(base.mean[0] - wider.mean[0]) < 1e-5 * max(1, abs(base.mean[0]))
        assert abs(base.covariance[0, 0] - wider.covariance[0, 0]) < 1e-5 * abs(
            base.covariance[0, 0]
        )


class TestNormalApprox:
    def test_json(self):
        approx = NormalApprox(np.array([1.0, 2.0]), np.array([[2.0, 0.5], [0.5, 1.0]]))
        data = json.loads(approx.to_json())
        assert data["mean"] == [1.0, 2.0]
        assert data["cov"][0] == [2.0, 0.5]

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            NormalApprox(np.zeros(2), np.array([[1.0, 0.2], [0.3, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            NormalApprox(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
