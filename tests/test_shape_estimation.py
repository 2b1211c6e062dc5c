"""Tests for the six shape estimators and their building blocks."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sscm import shape_estimation
from sscm.errors import ConvergenceError, NumericError, UnsupportedConfigError
from sscm.lss_clt import shape_to_sigma_eigs
from sscm.mp_law import DiscreteMeasure, _moments_closed, _population_moments
from sscm.shape_estimation import (
    EstimatorKind,
    _gauss_rule,
    estimate_shape,
    expand_spectrum,
    moment_method_psd,
    psi_normalize,
    select_num_atoms,
    sigma_to_shape_eigs,
    tyler_m_estimator,
)
from sscm.sign_geometry import sscm
from sscm.simulation import ModelSpec, generate_sample


class TestPsi:
    def test_trace_normalization(self):
        C = np.diag([1.0, 3.0])
        out = psi_normalize(C)
        assert np.trace(out) == pytest.approx(2.0)

    def test_idempotence(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((5, 5))
        C = M @ M.T
        once = psi_normalize(C)
        np.testing.assert_allclose(psi_normalize(once), once, atol=1e-14)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((4, 4))
        C = M @ M.T
        np.testing.assert_allclose(psi_normalize(C), psi_normalize(42.0 * C), atol=1e-12)


def plain_tyler_sweep(X, M):
    """One sweep of Tyler's map, psi((p/n) sum x x' / x' M^-1 x), by whitening with M = L L'.

    x' M^-1 x is |L^-1 x|^2.  With an explicit inverse of M the rounding
    exceeds 1e-11 where M has condition 1e7.
    """
    n, p = X.shape
    W = np.linalg.solve(np.linalg.cholesky(M), X.T)
    S = (X.T / np.sum(W * W, axis=0)) @ X
    S = 0.5 * (S + S.T)
    return p * S / np.trace(S)


def plain_tyler(X, tol):
    """Tyler's plain fixed-point iteration from I, until a sweep changes M by < tol relative."""
    M = np.eye(X.shape[1])
    for _ in range(10000):
        M_new = plain_tyler_sweep(X, M)
        if np.linalg.norm(M_new - M) < tol * np.linalg.norm(M):
            return M_new
        M = M_new
    raise AssertionError("plain Tyler iteration did not reach the tolerance")


def sweep_change(X, M):
    return np.linalg.norm(plain_tyler_sweep(X, M) - M) / np.linalg.norm(M)


@st.composite
def tyler_samples(draw):
    """p in 2..12 and n in p+1..4p, some rows scaled by 1e-6 or 1e6, maybe a nearly collinear pair.

    Two rows on one line through 0 put 2 of n points in a line, which Tyler's
    estimator tolerates only for 2/n < 1/p (Kent and Tyler 1988), so a nearly
    collinear pair comes with n >= 2p + 2.
    """
    p = draw(st.integers(2, 12))
    collinear = draw(st.booleans())
    n = draw(st.integers(2 * p + 2 if collinear else p + 1, 4 * p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, p))
    if collinear:
        gap = draw(st.sampled_from([1e-2, 1e-5, 1e-9]))
        X[1] = -3.0 * X[0] + gap * np.linalg.norm(X[0]) * rng.standard_normal(p)
    scale = draw(st.lists(st.sampled_from([1e-6, 1.0, 1e6]), min_size=n, max_size=n))
    return X * np.array(scale)[:, None]


class TestTyler:
    def test_trace_and_symmetry(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((200, 8))
        M, _ = tyler_m_estimator(X)
        assert np.trace(M) == pytest.approx(8.0, abs=1e-9)
        np.testing.assert_allclose(M, M.T, atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((150, 6))
        M1, _ = tyler_m_estimator(X)
        M2, _ = tyler_m_estimator(0.003 * X)
        np.testing.assert_allclose(M1, M2, atol=1e-9)

    def test_radial_invariance(self):
        # multiplying each row by its own positive scalar leaves Tyler fixed
        rng = np.random.default_rng(4)
        X = rng.standard_normal((150, 6))
        r = rng.uniform(0.1, 10.0, size=150)
        M1, _ = tyler_m_estimator(X)
        M2, _ = tyler_m_estimator(r[:, None] * X)
        np.testing.assert_allclose(M1, M2, atol=1e-9)

    def test_gaussian_consistency(self):
        rng = np.random.default_rng(5)
        t = np.array([0.5, 0.5, 1.5, 1.5, 1.0])
        X = rng.standard_normal((4000, 5)) * np.sqrt(t)
        M, _ = tyler_m_estimator(X)
        assert np.linalg.norm(M - np.diag(t)) / np.sqrt(5) < 0.1

    def test_zero_observation_raises(self):
        X = np.random.default_rng(11).standard_normal((50, 5))
        X[7] = 0.0
        with pytest.raises(ValueError, match="nonzero"):
            tyler_m_estimator(X)

    @pytest.mark.parametrize("eps", [0.0, 0.01])
    def test_matches_plain_fixed_point(self, eps):
        spec = ModelSpec("M4", p=80, n=100, epsilon=eps, seed=2718)
        for r in range(5):
            X = generate_sample(spec, replicate=r).data
            M, evaluations = tyler_m_estimator(X)
            assert sweep_change(X, M) < 1e-11
            assert np.max(np.abs(M - plain_tyler(X, 1e-14))) < 1e-9
            assert evaluations <= 40  # the plain iteration takes about 130

    def test_evaluation_limit_raises(self, monkeypatch):
        monkeypatch.setattr(shape_estimation, "TYLER_MAX_ITER", 3)
        X = np.random.default_rng(6).standard_normal((60, 8))
        with pytest.raises(ConvergenceError) as info:
            tyler_m_estimator(X)
        assert np.trace(info.value.last_iterate) == pytest.approx(8.0, abs=1e-9)
        assert info.value.residual >= shape_estimation.TYLER_TOL

    def test_extrapolation_that_cycles_is_rejected(self):
        # five of six rows within 3 degrees of one another: unchecked SQUAREM steps
        # alternate between two matrices with relative changes 1.2e-3 and 1.5e-2
        X = np.array([
            [0.893313035, 0.286340361],
            [-2.67260682, -0.858842666],
            [0.615014056, 1.24276616],
            [1.96529120, 0.662469067],
            [-1.24797781, -0.448006847],
            [-0.330324533, -0.123927932],
        ])
        M, evaluations = tyler_m_estimator(X)
        assert sweep_change(X, M) < 1e-11
        assert np.max(np.abs(M - plain_tyler(X, 1e-14))) < 1e-9
        assert evaluations <= 40

    @settings(max_examples=200, deadline=None)
    @given(tyler_samples())
    def test_certified_positive_definite_fixed_point(self, X):
        M, _ = tyler_m_estimator(X)
        p = X.shape[1]
        np.testing.assert_allclose(M, M.T, rtol=0, atol=1e-12)
        assert np.trace(M) == pytest.approx(p, abs=1e-9)
        np.linalg.cholesky(M)
        assert sweep_change(X, M) < 1e-11


def _sample_moments(eigs, k):
    return np.array([np.mean(eigs**j) for j in range(1, k + 1)])


@pytest.fixture(scope="module")
def m4_spectra():
    """Trace-normalized SCM, SSCM and Tyler spectra of one contaminated M4 sample.

    The SCM spectrum has no three-atom Gauss rule; the other two have one.
    """
    X = generate_sample(ModelSpec("M4", p=80, n=100, epsilon=0.01, seed=12)).data
    n, p = X.shape
    spectra = {
        "SCM": np.linalg.eigvalsh(psi_normalize(X.T @ X / n)),
        "SSCM": np.linalg.eigvalsh(psi_normalize(sscm(X, center=np.zeros(p)).matrix)),
        "Tyler": np.linalg.eigvalsh(psi_normalize(tyler_m_estimator(X)[0])),
    }
    return spectra, p / n


@st.composite
def atomic_measures(draw):
    """1-3 atoms in [0.1, 32], at least a factor 1.5 apart, weights >= 0.1 before normalizing."""
    m = draw(st.integers(1, 3))
    ratios = draw(st.lists(st.floats(1.5, 4.0), min_size=m - 1, max_size=m - 1))
    values = draw(st.floats(0.1, 2.0)) * np.cumprod([1.0] + ratios)
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=m, max_size=m)))
    return values, weights / weights.sum()


class TestMomentMethod:
    # beta_k carries c^(k-1) alpha_1^k, which the forward substitution cancels,
    # so the rounding error grows with c: over this range it stays below 2e-10
    @settings(max_examples=200, deadline=None)
    @given(atomic_measures(), st.floats(0.01, 2.0))
    def test_exact_inversion_recovers_measure(self, measure, c):
        values, weights = measure
        m = values.size
        beta = _moments_closed(c, values, weights)[: 2 * m - 1]
        start = _gauss_rule(_population_moments(c, beta), m)
        assert start is not None
        np.testing.assert_allclose(start[0], values, rtol=1e-9)
        np.testing.assert_allclose(start[1], weights, rtol=0, atol=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(0.1, 5.0), min_size=10, max_size=80),
        st.floats(0.01, 1.5),
        st.integers(1, 3),
    )
    def test_returned_measure_matches_sample_moments(self, eigs, c, m):
        eigs = np.array(eigs)
        beta = _sample_moments(eigs, 2 * m - 1)
        rule = _gauss_rule(_population_moments(c, beta), m)
        assume(rule is not None and rule[1].min() >= 0.01)
        H = moment_method_psd(eigs, c, m)
        assume(len(H.atoms) == m)  # no two atoms merged
        np.testing.assert_allclose(_moments_closed(c, H.values, H.weights)[: 2 * m - 1], beta, rtol=1e-10)

    @pytest.mark.parametrize("spectrum", ["SCM", "SSCM", "Tyler"])
    def test_falls_back_to_largest_atom_count_with_a_rule(self, m4_spectra, spectrum):
        spectra, c = m4_spectra
        eigs = spectra[spectrum]
        alphas = _population_moments(c, _sample_moments(eigs, 5))
        has_rule = [_gauss_rule(alphas, m) is not None for m in (1, 2, 3)]
        assert has_rule == [True, True, spectrum != "SCM"]
        for m in (2, 3):
            largest = max(j for j in range(1, m + 1) if has_rule[j - 1])
            assert moment_method_psd(eigs, c, m) == moment_method_psd(eigs, c, largest)
        assert len(moment_method_psd(eigs, c, 3).atoms) == (2 if spectrum == "SCM" else 3)

    def test_no_start_from_a_negative_atom(self):
        # the moments of 0.5 delta_{-0.5} + 0.5 delta_{1.5} have a Gauss rule, with an atom < 0
        alphas = [0.5 * (-0.5) ** k + 0.5 * 1.5**k for k in (1, 2, 3)]
        assert _gauss_rule(alphas, 2) is None

    def test_fallback_when_hankel_is_not_positive_definite(self):
        # three atoms for a two-level spectrum: the 3 x 3 Hankel matrix is singular up to O(c)
        eigs = np.repeat([0.5, 1.5], 50)
        c = 1e-9
        assert _gauss_rule(_population_moments(c, _sample_moments(eigs, 5)), 3) is None
        H = moment_method_psd(eigs, c, 3)
        assert H == moment_method_psd(eigs, c, 2)
        np.testing.assert_allclose(H.values, [0.5, 1.5], atol=1e-6)
        np.testing.assert_allclose(H.weights, [0.5, 0.5], atol=1e-6)

    def test_single_atom_mp_recovery(self):
        rng = np.random.default_rng(6)
        n, p = 800, 400
        Z = rng.standard_normal((n, p))
        eigs = np.linalg.eigvalsh(Z.T @ Z / n)
        H = moment_method_psd(eigs, 0.5, 1)
        assert abs(H.values[0] - 1.0) < 0.05
        assert H.weights[0] == pytest.approx(1.0)

    def test_two_atom_recovery_small_c(self):
        eigs = np.repeat([0.5, 1.5], 50)
        H = moment_method_psd(eigs, 1e-9, 2)
        np.testing.assert_allclose(H.values, [0.5, 1.5], atol=1e-6)
        np.testing.assert_allclose(H.weights, [0.5, 0.5], atol=1e-6)

    def test_two_atom_recovery_sscm(self):
        # averaged over seeds: SSCM spectrum of the two-level shape
        from sscm.sign_geometry import sscm
        from sscm.simulation import ModelSpec, generate_sample

        p = n = 400
        vals, wts = [], []
        for seed in range(3):
            X = generate_sample(ModelSpec("M3", p=p, n=n, seed=seed)).data
            eigs = np.linalg.eigvalsh(sscm(X, center=np.zeros(p)).matrix)
            H = moment_method_psd(eigs, 1.0, 2)
            vals.append(H.values)
            wts.append(H.weights)
        np.testing.assert_allclose(np.mean(vals, axis=0), [0.5, 1.5], atol=0.1)
        np.testing.assert_allclose(np.mean(wts, axis=0), [0.5, 0.5], atol=0.1)

    def test_atom_count_validation(self):
        with pytest.raises(ValueError):
            moment_method_psd(np.ones(10), 0.5, 4)

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(ValueError, match="positive mean"):
            moment_method_psd(np.zeros(10), 0.5, 1)

    def test_model_selection_finds_two(self):
        rng = np.random.default_rng(7)
        n, p = 200, 80
        t = np.concatenate([np.full(40, 0.5), np.full(40, 1.5)])
        X = rng.standard_normal((n, p)) * np.sqrt(t)
        eigs = np.linalg.eigvalsh(psi_normalize(X.T @ X / n))
        H = select_num_atoms(eigs, p / n)
        assert len(H.atoms) >= 2

    @pytest.mark.parametrize("spectrum", ["SCM", "SSCM", "Tyler"])
    def test_selection_builds_each_gauss_rule_once(self, m4_spectra, spectrum):
        spectra, c = m4_spectra
        rule, candidates = shape_estimation._gauss_rule, []

        def counted_rule(alphas, m):
            candidates.append(m)
            return rule(alphas, m)

        with mock.patch.object(shape_estimation, "_gauss_rule", counted_rule):
            H = select_num_atoms(spectra[spectrum], c)
        assert candidates == list(range(1, len(candidates) + 1))
        # each candidate is the measure moment_method_psd returns for it
        assert H in [moment_method_psd(spectra[spectrum], c, m) for m in candidates]

    def test_selection_rejects_a_nonpositive_mean(self):
        with pytest.raises(ValueError, match="positive mean"):
            select_num_atoms(np.zeros(10), 0.5)

    @pytest.mark.parametrize("light, kept", [(np.nextafter(0.01, 0.0), 2), (0.01, 3)], ids=["below", "at"])
    def test_light_atom_threshold(self, light, kept):
        # an atom of weight below 0.01 is dropped and the rest renormalized; weight 0.01 stays
        w = np.array([0.5, 0.5 - light, light])
        H = shape_estimation._drop_light_atoms((np.array([0.5, 1.0, 2.0]), w))
        np.testing.assert_array_equal(H.values, [0.5, 1.0, 2.0][:kept])
        np.testing.assert_allclose(H.weights, w[:kept] / w[:kept].sum(), rtol=1e-15)


class TestSpectrumPlumbing:
    def test_expand_counts(self):
        H = DiscreteMeasure(((0.5, 0.5), (1.5, 0.5)))
        lam = expand_spectrum(H, 7)
        assert lam.size == 7
        assert np.sum(lam == 0.5) in (3, 4)

    def test_round_trip(self):
        t = np.concatenate([np.full(200, 0.5), np.full(200, 1.5)])
        sig = shape_to_sigma_eigs(t, 4.2)
        back = sigma_to_shape_eigs(sig, 4.2)
        np.testing.assert_allclose(np.sort(back), np.sort(t), atol=1e-12)

    def test_round_trip_generic(self):
        rng = np.random.default_rng(8)
        t = rng.uniform(0.3, 2.0, size=400)
        t *= 400 / t.sum()
        sig = shape_to_sigma_eigs(t, 5.0)
        back = sigma_to_shape_eigs(sig, 5.0)
        np.testing.assert_allclose(np.sort(back), np.sort(t), atol=1e-12)

    def test_alpha2_at_the_lower_end(self):
        # equal sigma at the edge of real roots: mean(t^2) at the lowest alpha2
        # is that alpha2, so the bracket is one point and no root is searched
        with mock.patch.object(shape_estimation, "_root", side_effect=AssertionError("searched")):
            t = sigma_to_shape_eigs(np.ones(4), 5.0)
        np.testing.assert_array_equal(t, np.ones(4))
        np.testing.assert_array_equal(shape_to_sigma_eigs(t, 5.0), np.ones(4))

    @pytest.mark.parametrize("top", [8.2, 8.5])
    def test_no_preimage_raises(self, top):
        # every alpha2 that keeps the roots real gives mean(t^2) < alpha2; at
        # top = 8.5 the largest discriminant rounds below 0 at the lowest alpha2
        sig = np.full(10, 0.2)
        sig[0] = top
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="no shape preimage"):
                sigma_to_shape_eigs(sig, 9.0)


@pytest.fixture(scope="module")
def gaussian_sample():
    rng = np.random.default_rng(9)
    p, n = 40, 100
    t = np.concatenate([np.full(20, 0.5), np.full(20, 1.5)])
    return rng.standard_normal((n, p)) * np.sqrt(t), np.diag(t)


class TestEstimateShape:

    def test_all_six_run_and_normalize(self, gaussian_sample):
        X, T = gaussian_sample
        for kind in range(1, 7):
            rep = estimate_shape(X, kind, reference=T)
            assert np.trace(rep.T_hat) == pytest.approx(40.0, abs=1e-8)
            assert np.min(rep.spectrum) > -1e-10

    def test_report_atom_count(self, gaussian_sample):
        X, _ = gaussian_sample
        for kind in (1, 3, 5):
            assert estimate_shape(X, kind).num_atoms is None
        for kind in (2, 4, 6):
            assert estimate_shape(X, kind, num_atoms=1).num_atoms == 1
            rep = estimate_shape(X, kind)
            assert rep.num_atoms in (1, 2, 3)
            assert np.unique(np.round(rep.spectrum, 8)).size == rep.num_atoms

    def test_corrected_beats_uncorrected(self):
        p, n = 40, 100
        t = np.concatenate([np.full(20, 0.5), np.full(20, 1.5)])
        T = np.diag(t)
        pairs = {1: 2, 3: 4, 5: 6}
        sums = {k: 0.0 for k in range(1, 7)}
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            X = rng.standard_normal((n, p)) * np.sqrt(t)
            for k in range(1, 7):
                sums[k] += estimate_shape(X, k, reference=T).frobenius_to[1]
        for raw, corrected in pairs.items():
            assert sums[corrected] < sums[raw]

    def test_tyler_unavailable_when_p_ge_n(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((30, 40))
        with pytest.raises(UnsupportedConfigError):
            estimate_shape(X, 5)
        # spectrum-corrected SSCM still works in the same regime
        rep = estimate_shape(X, 4)
        assert rep.T_hat.shape == (40, 40)

    def test_kind_enum(self):
        assert EstimatorKind(1) is EstimatorKind.REGULARIZED_SCM
        assert EstimatorKind(6) is EstimatorKind.SPECTRUM_CORRECTED_TYLER
