"""Tests for the CLT mean/covariance kernels and the contour integrals."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sscm.errors import NumericError
from sscm.lss_clt import (
    RING_NODES,
    NormalApprox,
    ShapeContext,
    _ring,
    _ring_integrals,
    beta_centering,
    beta_moments_normal,
    cov_kernel,
    lss_normal_approx,
    mean_kernel,
)
from sscm.mp_law import lsd_support, solve_stieltjes_grid
from sscm.simulation import ModelSpec, model_context

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
    zeta = np.sum((A.T @ A) ** 2) / p  # tr(T^2) / p

    def res(u):  # A'(sigma - u)^-1 A
        return A.T @ np.linalg.solve(sig - u * np.eye(p), A)

    def corner(a, b):
        ma, mb = solve_stieltjes_grid(ctx.model, np.array([a, b]))[1]
        ea, eb = 1.0 + a * ma, 1.0 + b * mb
        ratio = (ma - mb) / (ma * mb * (a - b))
        rest1 = (ctx.trace_sigma2_over_p / c + 1.0 / (c * ma) + 1.0 / (c * mb)) * ea * eb - a * ma - b * mb
        Ra, Rb = res(-1.0 / ma), res(-1.0 / mb)
        h = lambda R: np.trace(R @ A.T @ A) / p
        s2 = c * np.trace(Ra @ Rb) / p + zeta / c * ea * eb - ea * h(Rb) - eb * h(Ra)
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


def hand_moments_tau3(ctx):
    """Normal approximation of (tr B^2, tr B^3) at tau = 3, written out in the moments of H_p."""
    a2, a3, a4, a5, a6 = (ctx.H_p.moment(k) for k in range(2, 7))
    c, r = ctx.c_n, ctx.r_w
    mu2 = c**2 * (r**2 - 2 * r + 2) - c * a2
    mu3 = 3 * c**2 * (r**2 - 2 * r + 2) * a2 + c**3 * (r**3 - 3 * r + 4) - 3 * c * (a3 + c * a2)
    s22 = 8 * c * (a2**3 - 2 * a2 * a3 + a4) + 4 * c**2 * a2**2
    s23 = (
        12 * c * (a2**2 * a3 - a3**2 - a2 * a4 + a5)
        + 12 * c**2 * (2 * a2**3 - 3 * a2 * a3 + 2 * a4)
        + 12 * c**3 * a2**2
    )
    s33 = (
        18 * c * (a2 * a3**2 - 2 * a3 * a4 + a6)
        + 18 * c**2 * (4 * a2**2 * a3 - 3 * a3**2 - 3 * a2 * a4 + 4 * a5)
        + 6 * c**3 * (13 * a2**3 - 12 * a2 * a3 + 12 * a4)
        + 36 * c**4 * a2**2
    )
    return np.array([mu2, mu3]), np.array([[s22, s23], [s23, s33]])


def atom_context(values, counts, c, r_w, tau, rotation=None):
    """Shape T with the given atoms repeated counts times, diagonal or rotated by a random orthogonal matrix."""
    t = np.repeat(values, counts[: len(values)])
    t *= t.size / t.sum()
    A = np.sqrt(t) if rotation is None else random_orthogonal(t.size, rotation) * np.sqrt(t)
    return ShapeContext.from_matrix(A, t.size / c, tau=tau, r_w=r_w)


class TestShapeContext:
    def test_isotropic_fields(self):
        assert M1_CTX.c_n == pytest.approx(2.0)
        assert M1_CTX.diagonal

    def test_alpha_moments(self):
        ctx = m3_ctx()
        a = [ctx.H_p.moment(k) for k in (1, 2)]
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

    def test_fields_are_the_four_inputs(self):
        assert [f.name for f in dataclasses.fields(ShapeContext)] == ["A", "n", "tau", "r_w"]
        assert all(f.default is dataclasses.MISSING for f in dataclasses.fields(ShapeContext))

    def test_replace_rederives_at_new_tau(self):
        t = np.random.default_rng(5).uniform(0.3, 2.0, 40)
        t *= t.size / t.sum()
        moved = dataclasses.replace(ShapeContext.from_diagonal_shape(t, 80, tau=4.2), tau=3.0)
        fresh = ShapeContext.from_diagonal_shape(t, 80, tau=3.0)
        np.testing.assert_array_equal(moved.sigma, fresh.sigma)
        assert moved.H_p == fresh.H_p
        assert beta_centering(moved) == beta_centering(fresh)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mixing_matrix_rejected(self, bad):
        A = np.eye(4)
        A[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            ShapeContext.from_matrix(A, 8)

    def test_negative_shape_entry_rejected(self):
        # checked before the square root, so no invalid-value warning comes first
        with pytest.raises(ValueError, match="shape entries t_diag must be >= 0"):
            ShapeContext.from_diagonal_shape([2.0, 1.5, -0.5], 6)

    @pytest.mark.parametrize("build", [
        lambda: ShapeContext.from_diagonal_shape([1.0, 2.0], 4),
        lambda: ShapeContext.from_matrix(2.0 * np.eye(3), 6),
        lambda: ShapeContext.isotropic(3, 6, r_w=0.9),
    ])
    def test_trace_and_radial_ratio_checked(self, build):
        with pytest.raises(ValueError):
            build()


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

    def test_dense_fourth_moment_matches_ring(self):
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        A = Q @ np.diag(rng.uniform(0.5, 1.5, 10)) @ Q.T
        A *= np.sqrt(10 / np.trace(A @ A.T))
        ctx = ShapeContext.from_matrix(A, 20, tau=4.0, r_w=1.0)
        approx = beta_moments_normal(ctx)
        ring = lss_normal_approx(ctx, [lambda x: x**2, lambda x: x**3])
        np.testing.assert_allclose(approx.mean, ring.mean, rtol=1e-12)
        np.testing.assert_allclose(approx.covariance, ring.covariance, rtol=1e-12)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            beta_moments_normal(M1_CTX, (-1, 2))

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.floats(0.1, 3.0), min_size=1, max_size=3, unique=True),
        counts=st.lists(st.integers(1, 20), min_size=3, max_size=3),
        c=st.floats(1e-2, 10.0),
        r_w=st.floats(1.0, 30.0),
        rotation=st.sampled_from([None, 0, 1]),
    )
    def test_matches_hand_formulas_at_gaussian_tau(self, values, counts, c, r_w, rotation):
        # at r_w up to 30, where the ring's circle may not converge
        ctx = atom_context(values, counts, c, r_w, 3.0, rotation)
        mean, cov = hand_moments_tau3(ctx)
        approx = beta_moments_normal(ctx)
        a2, a3, q = ctx.H_p.moment(2), ctx.H_p.moment(3), r_w**2 - 2 * r_w + 2
        # the sizes of the terms of mu_2 and mu_3, which can cancel
        scale = [c**2 * q + c * a2, 3 * c**2 * q * a2 + c**3 * (r_w**3 - 3 * r_w + 4) + 3 * c * (a3 + c * a2)]
        assert np.all(np.abs(approx.mean - mean) <= 1e-12 * np.array(scale))
        np.testing.assert_allclose(approx.covariance, cov, rtol=1e-12)


def two_level(low, high, p, n, tau=3.0, r_w=1.0):
    t = np.concatenate([np.full(p // 2, low), np.full(p // 2, high)])
    return ShapeContext.from_diagonal_shape(t, n, tau=tau, r_w=r_w)


def winding(z, dz, a):
    """(1 / 2 pi i) times the ring's integral of dz / (z - a), for each point a."""
    return np.sum(dz / (z - np.asarray(a)[..., None]), axis=-1) / (2j * np.pi)


class TestContour:
    """The trapezoid rule on circles in y = -1/mu, with z = x(y) and dz = x'(y) dy."""

    def test_contour_closure(self):
        for ctx in (M1_CTX, m3_ctx(), two_level(0.1, 1.9, 200, 40)):
            (z, dz, _, _), = _ring(ctx, (1.0,))
            # integral of 1 over a closed contour vanishes
            assert abs(np.sum(dz)) < 1e-12 * np.sum(np.abs(dz))
            # integral of 1/(z - a) for an interior point = 2 pi i
            a, b = lsd_support(ctx.model)[0]
            assert abs(winding(z, dz, 0.5 * (a + b)) - 1.0) < 1e-12

    def test_contour_encloses_spectrum(self):
        for ctx in (M1_CTX, m3_ctx(), two_level(0.1, 1.9, 200, 40)):
            (z, dz, _, _), = _ring(ctx, (1.0,))
            inside = np.concatenate([np.linspace(a, b, 7) for a, b in lsd_support(ctx.model)])
            np.testing.assert_allclose(winding(z, dz, inside), 1.0, atol=1e-10)
            width = np.ptp(z.real)
            outside = [z.real.min() - width, z.real.max() + width, 2j * np.max(np.abs(z))]
            np.testing.assert_allclose(winding(z, dz, outside), 0.0, atol=1e-10)

    def test_shrink_nests(self):
        # every node of the inner circle lies inside the outer contour; for a pole
        # at 0.9 of the radius the rule's error is about 0.9^128 = 1.4e-6
        outer, inner = _ring(m3_ctx(), (1.0, 0.9))
        np.testing.assert_allclose(winding(outer[0], outer[1], inner[0]), 1.0, atol=1e-5)
        assert np.max(np.abs(inner[0])) < np.max(np.abs(outer[0]))

    @pytest.mark.parametrize("ctx", [M1_CTX, m3_ctx(), two_level(0.5, 1.5, 200, 40)], ids=["iso", "m3", "c5"])
    def test_solver_matches_ring_nodes(self, ctx):
        # the ring's mu = -1/y and mu' = 1/(y^2 x'(y)) are exact at z = x(y); the solver must find them
        (z, _, mu, mup), = _ring(ctx, (1.0,))
        _, got_mu, got_mup = solve_stieltjes_grid(ctx.model, z)
        np.testing.assert_allclose(got_mu, mu, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got_mup, mup, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("ctx", [M1_CTX, m3_ctx(), two_level(0.1, 1.9, 200, 40)], ids=["iso", "m3", "c5"])
    def test_circle_off_the_physical_sheet_raises(self, ctx):
        with pytest.raises(NumericError, match="physical sheet"):
            _ring_integrals(ctx, [lambda x: x**2], scale=0.2)


class TestKernels:
    def test_hadamard_d_matches_rows(self):
        # d_k = b_k' A'A b_k / p with B = Q'A; a generic dense sigma has distinct eigenvalues
        ctx = dense_ctx()
        A, p = ctx.A, ctx.A.shape[0]
        _, Q = np.linalg.eigh(ctx.sigma)
        B = Q.T @ A
        want = np.array([b @ (A.T @ A) @ b for b in B]) / p
        ops = ctx._hadamard
        assert ops.d.size == p
        np.testing.assert_allclose(ops.d, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", ["rotated", "diagonal", "m2"])
    def test_hadamard_terms_match_dense_resolvents(self, kind):
        # h(u) = tr(A'(sigma - u)^-1 A A'A)/p, g(u, v) = tr(A'(sigma - u)^-1 A A'(sigma - v)^-1 A)/p
        # and zeta = sum T o T / p; u-derivatives square the resolvent
        if kind == "rotated":  # two atoms of 20 eigenvectors each, in a random basis
            t = np.repeat([0.5, 1.5], 20)
            ctx = ShapeContext.from_matrix(random_orthogonal(40, 4) @ np.diag(np.sqrt(t)), 80, tau=4.2, r_w=1.2)
            assert ctx.H_p.values.size == 2
        elif kind == "diagonal":
            ctx = m3_ctx(40, 80)
        else:
            ctx = dataclasses.replace(model_context(ModelSpec("M2", p=40, n=80, seed=0)), tau=4.2)
        A = np.diag(ctx.A) if ctx.diagonal else ctx.A
        sig = np.diag(ctx.sigma) if ctx.diagonal else ctx.sigma
        p = A.shape[0]
        T = A @ A.T

        def res(u, k=1):  # A'(sigma - u)^-k A
            R = np.linalg.inv(sig - u * np.eye(p))
            return A.T @ np.linalg.matrix_power(R, k) @ A

        u, v = 0.7 + 0.5j, 1.9 - 0.3j
        ops = ctx._hadamard
        pairs = [
            (ops.h(u), np.trace(res(u) @ A.T @ A) / p),
            (ops.h_prime(u), np.trace(res(u, 2) @ A.T @ A) / p),
            (ops.g_d1_diag(u), np.trace(res(u, 2) @ res(u)) / p),
            (ops.g_d12(np.array([u]), np.array([v]))[0, 0], np.trace(res(u, 2) @ res(v, 2)) / p),
            (ops.zeta_p, np.sum(T * T) / p),
        ]
        for got, want in pairs:
            assert abs(got - want) <= 1e-12 * abs(want)

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
        np.testing.assert_allclose(approx.mean, closed.mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(approx.covariance, closed.covariance, rtol=1e-12)

    def test_matches_closed_forms_model3(self):
        ctx = m3_ctx()
        fs = [lambda x: x**2, lambda x: x**3]
        approx = lss_normal_approx(ctx, fs)
        closed = beta_moments_normal(ctx)
        np.testing.assert_allclose(approx.mean, closed.mean, rtol=1e-12)
        np.testing.assert_allclose(approx.covariance, closed.covariance, rtol=1e-12)

    def test_matches_closed_forms_large_c(self):
        # c = 5: F has an atom at 0 and the left contour edge passes next to it
        ctx = two_level(0.5, 1.5, 200, 40)
        approx = lss_normal_approx(ctx, [lambda x: x**2, lambda x: x**3])
        closed = beta_moments_normal(ctx)
        np.testing.assert_allclose(approx.mean, closed.mean, rtol=1e-12)
        np.testing.assert_allclose(approx.covariance, closed.covariance, rtol=1e-12)

    def test_dense_gaussian_matches_closed_forms(self):
        p, n = 40, 80
        t = np.concatenate([np.full(p // 2, 0.5), np.full(p // 2, 1.5)])
        ctx = ShapeContext.from_matrix(random_orthogonal(p, 4) @ np.diag(np.sqrt(t)), n, tau=3.0, r_w=13.0 / 9.0)
        approx = lss_normal_approx(ctx, [lambda x: x**2, lambda x: x**3])
        closed = beta_moments_normal(ctx)
        np.testing.assert_allclose(approx.mean, closed.mean, rtol=1e-12)
        np.testing.assert_allclose(approx.covariance, closed.covariance, rtol=1e-12)

    @pytest.mark.parametrize(
        "shape", [(0.5, 1.5, 200, 20), (0.1, 1.9, 200, 40), (0.2, 1.8, 400, 80)], ids=["c10", "wide", "p400"]
    )
    def test_wide_shapes_at_large_c(self, shape):
        ctx = two_level(*shape)
        approx = lss_normal_approx(ctx, [lambda x: x**2, lambda x: x**3])
        closed = beta_moments_normal(ctx)
        np.testing.assert_allclose(approx.mean, closed.mean, rtol=1e-10)
        np.testing.assert_allclose(approx.covariance, closed.covariance, rtol=1e-10)

    def test_wide_shape_fourth_moment_at_large_c(self):
        # the reference is Gauss-Legendre on a rectangle in z with 1024 nodes
        # per edge and the Stieltjes solver at every node; both paths must match it
        ctx = two_level(0.25, 1.75, 200, 40, tau=4.2)
        for approx in (lss_normal_approx(ctx, [lambda x: x**2, lambda x: x**3]), beta_moments_normal(ctx)):
            np.testing.assert_allclose(approx.mean, [17.226737187499815, 210.0406346874979], rtol=1e-10)
            np.testing.assert_allclose(
                approx.covariance,
                [[248.6890963354051, 4993.778950589957], [4993.778950589957, 103175.9119006665]],
                rtol=1e-10,
            )

    @pytest.mark.parametrize("c, r_w", [(1.0, 5.0), (0.1, 10.0)])
    def test_large_radial_ratio_matches_closed_forms(self, c, r_w):
        # the mean kernel's pole at the y* > 1 with c / (y* - 1) = 1/(r_w - 1)
        # lies beyond the ring's plain right crossing
        ctx = ShapeContext.isotropic(100, 100 / c, tau=3.0, r_w=r_w)
        approx = lss_normal_approx(ctx, [lambda x: x**2, lambda x: x**3])
        closed = beta_moments_normal(ctx)
        np.testing.assert_allclose(approx.mean, closed.mean, rtol=1e-9)
        np.testing.assert_allclose(approx.covariance, closed.covariance, rtol=1e-9)

    def test_large_entries_are_real(self):
        # covariance entries up to 1.2e9, whose imaginary rounding (about 2e-4) exceeds 1e-6
        ctx = two_level(0.1, 1.9, 200, 20)
        approx = lss_normal_approx(ctx, [lambda x: x**3, lambda x: x**4])
        assert approx.covariance[1, 1] > 1e9
        closed = beta_moments_normal(ctx)
        assert approx.mean[0] == pytest.approx(closed.mean[1], rel=1e-10)
        assert approx.covariance[0, 0] == pytest.approx(closed.covariance[1, 1], rel=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.floats(0.1, 3.0), min_size=1, max_size=3, unique=True),
        counts=st.lists(st.integers(1, 20), min_size=3, max_size=3),
        c=st.floats(1e-2, 10.0),
        r_w=st.floats(1.0, 1.5),
    )
    def test_ring_matches_closed_forms(self, values, counts, c, r_w):
        t = np.repeat(values, counts[: len(values)])
        t *= t.size / t.sum()
        ctx = ShapeContext.from_diagonal_shape(t, t.size / c, tau=3.0, r_w=r_w)
        approx = lss_normal_approx(ctx, [lambda x: x**2, lambda x: x**3])
        closed = beta_moments_normal(ctx)
        np.testing.assert_allclose(approx.mean, closed.mean, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(approx.covariance, closed.covariance, rtol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.floats(0.1, 3.0), min_size=1, max_size=3, unique=True),
        counts=st.lists(st.integers(1, 20), min_size=3, max_size=3),
        c=st.floats(1e-2, 10.0),
        r_w=st.floats(1.0, 1.5),
        tau=st.floats(1.0, 9.0),
        rotation=st.sampled_from([None, 0, 1]),
        powers=st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True),
    )
    def test_series_matches_ring(self, values, counts, c, r_w, tau, rotation, powers):
        # to 1e-11 of the largest entry, plus the ring's own rounding: for x^3 and x^4
        # at c near 10 its self-check reaches 1e-9, and its error is within 20 times that
        try:
            ctx = atom_context(values, counts, c, r_w, tau, rotation)
            ring = lss_normal_approx(ctx, [lambda x, k=k: x**k for k in powers])
        except ValueError:  # the tau correction left sigma an eigenvalue below 0
            assume(False)
        except NumericError:  # the ring's self-check failed
            assume(False)
        series = beta_moments_normal(ctx, powers)
        for got, want in ((series.mean, ring.mean), (series.covariance, ring.covariance)):
            assert np.max(np.abs(got - want)) <= (1e-11 + 20 * ring.quad_error) * max(1.0, np.max(np.abs(want)))

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
        base, base_cov, _ = _ring_integrals(M1_CTX, fs)
        for scale in (0.8, 1.5):
            other, other_cov, _ = _ring_integrals(M1_CTX, fs, scale=scale)
            assert abs(base[0] - other[0]) < 1e-5 * max(1, abs(base[0]))
            assert abs(base_cov[0, 0] - other_cov[0, 0]) < 1e-5 * abs(base_cov[0, 0])

    def test_unconverged_quadrature_raises(self):
        # f has a pole just outside the ring, so the rule on every other node disagrees
        (z, _, _, _), = _ring(M1_CTX, (1.0,))
        a = z.real.max() + 0.1
        with pytest.raises(NumericError, match="not converged"):
            lss_normal_approx(M1_CTX, [lambda x: 1.0 / (x - a)])

    def test_reports_quadrature(self):
        approx = lss_normal_approx(m3_ctx(), [lambda x: x**2, lambda x: x**3])
        assert approx.nodes == RING_NODES == 128
        assert 0.0 < approx.quad_error < 1e-9
        assert beta_moments_normal(m3_ctx()).nodes == 0


class TestNormalApprox:
    def test_json(self):
        approx = NormalApprox(np.array([1.0, 2.0]), np.array([[2.0, 0.5], [0.5, 1.0]]))
        data = json.loads(approx.to_json())
        assert data["mean"] == [1.0, 2.0]
        assert data["cov"][0] == [2.0, 0.5]
        assert data["nodes"] == 0 and data["quad_error"] == 0.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            NormalApprox(np.zeros(2), np.array([[1.0, 0.2], [0.3, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            NormalApprox(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_semidefiniteness_is_checked_at_the_scale_of_the_entries(self):
        # an eigenvalue of -1e-3 beside 1e10 is rounding (the series CLT of x, x^2, x^4
        # at c = 10 has one near -1.6e-7); -1e3 beside 1e10, or -1e-3 alone, is not
        Q = random_orthogonal(2, 0)
        NormalApprox(np.zeros(2), Q @ np.diag([1e10, -1e-3]) @ Q.T)
        for eigs in ([1e10, -1e3], [1.0, -1e-3]):
            with pytest.raises(ValueError, match="semidefinite"):
                NormalApprox(np.zeros(2), Q @ np.diag(eigs) @ Q.T)
