"""Tests for the two robust sphericity tests."""

import json

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sscm.errors import NumericError, UnsupportedConfigError
from sscm.lss_clt import ShapeContext, beta_centering, beta_moments_normal
from sscm.sign_geometry import sscm
from sscm.sphericity import frobenius_sphericity_test, kl_sphericity_test


def null_sscm(p, n, seed):
    rng = np.random.default_rng(seed)
    return sscm(rng.standard_normal((n, p)), center=np.zeros(p))


class TestFrobenius:
    def test_statistic_arithmetic(self):
        # hand-built B: statistic follows directly from tr(B^2)
        p, n = 4, 8
        B = np.eye(p)
        c_n = p / n
        report = frobenius_sphericity_test(B, n, r_w=1.0)
        kappa1 = c_n * (1 - 2 + 2)
        expected = (p - p * (1 + c_n) - c_n * (kappa1 - 1)) / (2 * c_n)
        assert report.statistic == pytest.approx(expected)
        assert report.kappa == pytest.approx(kappa1)

    def test_statistic_arithmetic_with_radial_weights(self):
        # kappa_1 = c (r_w^2 - 2 r_w + 2), the centering and scale written out
        p, n, r_w = 6, 8, 13.0 / 9.0
        B = np.diag([0.5, 0.5, 1.0, 1.0, 1.5, 1.5])
        c_n = p / n
        kappa1 = c_n * (r_w**2 - 2 * r_w + 2)
        expected = (3.5 * 2 - p * (1 + c_n) - c_n * (kappa1 - 1)) / (2 * c_n)
        report = frobenius_sphericity_test(B, n, r_w=r_w)
        assert report.statistic == pytest.approx(expected, rel=1e-14)
        assert report.kappa == pytest.approx(kappa1, rel=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(p=st.integers(2, 300), n=st.integers(2, 300), r_w=st.floats(1.0, 30.0))
    def test_null_moments_match_the_trace_power_clt(self, p, n, r_w):
        # the closed forms are the series CLT at H = delta_1
        ctx = ShapeContext.isotropic(p, n, r_w=r_w)
        beta2, _ = beta_centering(ctx)
        approx = beta_moments_normal(ctx, (2,))
        want = (p - p * beta2 - approx.mean[0]) / np.sqrt(approx.covariance[0, 0])
        report = frobenius_sphericity_test(np.eye(p), n, r_w)
        assert report.statistic == pytest.approx(want, rel=1e-12)
        assert report.kappa == pytest.approx(1.0 + approx.mean[0] / ctx.c_n, rel=1e-12)

    def test_rejects_radial_ratio_below_one(self):
        with pytest.raises(ValueError, match="r_w"):
            frobenius_sphericity_test(np.eye(4), 8, r_w=0.9)

    def test_null_yields_moderate_statistic(self):
        report = frobenius_sphericity_test(null_sscm(100, 50, 0), 50, r_w=1.0)
        assert abs(report.statistic) < 4.0
        assert 0.0 <= report.p_value <= 1.0

    def test_power_direction(self):
        # two-level shape inflates tr(B^2) and the statistic
        rng = np.random.default_rng(1)
        t = np.concatenate([np.full(50, 0.5), np.full(50, 1.5)])
        stats_alt, stats_null = [], []
        for _ in range(20):
            X = rng.standard_normal((100, 100))
            stats_null.append(
                frobenius_sphericity_test(sscm(X, center=np.zeros(100)), 100, 1.0).statistic
            )
            Xa = X * np.sqrt(t)
            stats_alt.append(
                frobenius_sphericity_test(sscm(Xa, center=np.zeros(100)), 100, 1.0).statistic
            )
        assert np.mean(stats_alt) > np.mean(stats_null) + 5

    def test_report_json(self):
        report = frobenius_sphericity_test(null_sscm(20, 40, 2), 40, r_w=1.0)
        data = json.loads(report.to_json())
        assert data["test"] == "frobenius"
        assert set(data) >= {"statistic", "p_value", "kappa", "c_n"}


class TestKl:
    def test_requires_p_less_than_n(self):
        with pytest.raises(UnsupportedConfigError):
            kl_sphericity_test(null_sscm(60, 40, 3), 40, r_w=1.0)

    def test_rejects_vanishing_ratio(self):
        with pytest.raises(NumericError):
            kl_sphericity_test(np.eye(1), 100000, r_w=1.0)

    def test_kappa_value(self):
        # r_w = 1, c_n = 0.5: kappa_2 = -0.5 - log(0.5) ~ 0.19315
        report = kl_sphericity_test(null_sscm(50, 100, 4), 100, r_w=1.0)
        expected = 0.5 * (1 - 2) - np.log(0.5)
        assert report.kappa == pytest.approx(expected)
        assert report.kappa == pytest.approx(0.19315, abs=1e-4)

    def test_null_yields_moderate_statistic(self):
        report = kl_sphericity_test(null_sscm(50, 200, 5), 200, r_w=1.0)
        assert abs(report.statistic) < 4.0

    def test_singular_matrix_rejected(self):
        B = np.zeros((4, 4))
        B[0, 0] = 4.0
        with pytest.raises(ValueError):
            kl_sphericity_test(B, 8, r_w=1.0)

    def test_one_sided_p_value(self):
        report = kl_sphericity_test(null_sscm(30, 120, 6), 120, r_w=1.0)
        from scipy.stats import norm

        assert report.p_value == pytest.approx(1 - norm.cdf(report.statistic))


def frobenius_report(s, p=100, n=50):
    # B = b I has tr(B^2) = p b^2: choose b for a statistic of about s
    c = p / n
    raw = 2.0 * c * s + p * (1.0 + c) + c**2 - c
    return frobenius_sphericity_test(np.sqrt(raw / p) * np.eye(p), n, r_w=1.0)


def kl_report(b, p=50, n=200):
    # B = b I: the statistic rises from -24.7 at b = 1 through -5 at b = 1.54
    # and 5 at b = 1.684 to 36.7 at b = 2.06
    return kl_sphericity_test(b * np.eye(p), n, r_w=1.0)


class TestPValues:
    """Both p-values are normal tails of the reported statistic, free of 1 - Phi cancellation."""

    @settings(max_examples=100, deadline=None)
    @given(s=st.floats(-5.0, 5.0), b=st.floats(1.54, 1.684))
    def test_match_ndtr_in_the_body(self, s, b):
        from scipy.special import ndtr

        frob = frobenius_report(s)
        assert abs(frob.p_value - 2.0 * ndtr(-abs(frob.statistic))) <= 1e-15
        kl = kl_report(b)
        assert abs(kl.statistic) <= 5.0
        assert abs(kl.p_value - ndtr(-kl.statistic)) <= 1e-15

    @settings(max_examples=200, deadline=None)
    @given(s=st.floats(-37.0, 37.0), b=st.floats(1.0, 2.06))
    def test_match_mpmath_in_the_tail(self, s, b):
        with mpmath.workdps(50):
            tail = lambda x: mpmath.erfc(mpmath.mpf(x) / mpmath.sqrt(2)) / 2
            frob = frobenius_report(s)
            assert abs(frob.statistic) <= 37.5
            want = 2 * tail(abs(frob.statistic))
            assert abs(frob.p_value - want) <= 1e-14 * want
            kl = kl_report(b)
            want = tail(kl.statistic)
            assert abs(kl.p_value - want) <= 1e-14 * want

