"""Oracle and property tests for the limiting spectral law solver."""

import json
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from sscm.mp_law import (
    DiscreteMeasure,
    SpectralModel,
    lsd_density,
    lsd_moments,
    lsd_moments_closed,
    lsd_support,
    mass_at_zero,
    solve_stieltjes,
    solve_stieltjes_grid,
)


def quadratic_root(c, z):
    """Closed-form Stieltjes transform for H = delta_1: czm^2+(z+c-1)m+1=0."""
    roots = np.roots([c * z, z + c - 1.0, 1.0])
    return roots[np.argmax(roots.imag * np.sign(z.imag))]


MP = lambda c: SpectralModel(c, DiscreteMeasure.point_mass(1.0))
TWO_ATOM = DiscreteMeasure(((0.5, 0.5), (1.5, 0.5)))


def scan_support_edges(model, grid=20001):
    """Support edges by scanning the sign of x'(y) and bisecting each change.

    x(y) = y (1 + c sum w t / (y - t)) is the inverse map in y = -1/mu; the
    edges are the values of x where x' changes sign.  The scan covers the
    intervals between the nonzero atoms, densest next to each pole, and the
    two outer intervals out to far beyond the last root.
    """
    c, t, w = model.c, model.H.values, model.H.weights
    t, w = t[t > 0], w[t > 0]

    def x(y):
        return y * (1.0 + c * np.sum(w * t / (y - t)))

    def dx(y):
        with np.errstate(divide="ignore"):  # a grid point may round onto a pole: x' = -inf
            return 1.0 - c * np.sum(w * t**2 / (np.asarray(y)[..., None] - t) ** 2, axis=-1)

    far = 10.0 * (1.0 + c) * (1.0 + t[-1])
    u = np.linspace(0.0, 1.0, grid)[1:-1]
    pieces = [t[0] - far * (1.0 - u) ** 3, t[-1] + far * u**3]
    pieces += [a + (b - a) * 0.5 * (1.0 - np.cos(np.pi * u)) for a, b in zip(t[:-1], t[1:])]
    edges = []
    for y in pieces:
        up = dx(y) > 0.0
        for i in np.nonzero(up[:-1] != up[1:])[0]:
            lo, hi = y[i], y[i + 1]
            while np.nextafter(lo, hi) < hi:
                mid = 0.5 * (lo + hi)
                if (dx(mid) > 0.0) == up[i]:
                    lo = mid
                else:
                    hi = mid
            edges.append(x(lo))
    return sorted(edges)


@st.composite
def spectral_models(draw):
    """1-4 atoms in [0.05, 5] with weights bounded away from 0, c in [0.005, 3]."""
    k = draw(st.integers(1, 4))
    values = sorted(draw(st.lists(st.floats(0.05, 5.0), min_size=k, max_size=k, unique=True)))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    c = draw(st.floats(0.005, 3.0))
    return SpectralModel(c, DiscreteMeasure(tuple(zip(values, weights / weights.sum()))))


class TestDiscreteMeasure:
    def test_moments(self):
        H = TWO_ATOM
        assert H.moment(1) == pytest.approx(1.0)
        assert H.moment(2) == pytest.approx(1.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(((1.0, 0.7), (2.0, 0.7)))  # weights sum > 1
        with pytest.raises(ValueError):
            DiscreteMeasure(((2.0, 0.5), (1.0, 0.5)))  # not increasing
        with pytest.raises(ValueError):
            DiscreteMeasure(((-1.0, 1.0),))  # negative value

    def test_from_eigenvalues_merges(self):
        H = DiscreteMeasure.from_eigenvalues([1.0, 1.0 + 1e-12, 2.0])
        assert len(H.atoms) == 2
        assert H.atoms[0][1] == pytest.approx(2.0 / 3.0)

    def test_json_round_trip(self):
        H = TWO_ATOM
        back = DiscreteMeasure.from_json(H.to_json())
        assert back == H
        assert json.loads(H.to_json()) == [[0.5, 0.5], [1.5, 0.5]]


class TestSolver:
    @pytest.mark.parametrize("c", [0.25, 0.5, 1.0, 2.0])
    def test_quadratic_oracle(self, c):
        model = MP(c)
        for z in (1 + 1j, 0.5 + 0.1j, 3 - 0.5j, -0.2 + 2j):
            pair = solve_stieltjes(model, z)
            assert abs(pair.m - quadratic_root(c, complex(z))) < 1e-8

    def test_grid_matches_scalar(self):
        model = SpectralModel(0.7, TWO_ATOM)
        zs = np.array([0.3 + 0.05j, 1.0 + 1.0j, 2.5 + 0.01j])
        m, mu, mup = solve_stieltjes_grid(model, zs)
        for i, z in enumerate(zs):
            pair = solve_stieltjes(model, z)
            assert abs(pair.m - m[i]) < 1e-10
            assert abs(pair.m_under_prime - mup[i]) < 1e-8

    def test_companion_identity(self):
        # m_under = -(1-c)/z + c m must hold exactly by construction
        model = SpectralModel(0.3, TWO_ATOM)
        z = 0.8 + 0.2j
        pair = solve_stieltjes(model, z)
        assert abs(pair.m_under - (-(1 - 0.3) / z + 0.3 * pair.m)) < 1e-12

    def test_small_c_limit(self):
        # c -> 0: m degenerates to the Stieltjes transform of H itself
        model = SpectralModel(1e-8, TWO_ATOM)
        z = 2.0 + 0.3j
        expected = 0.5 / (0.5 - z) + 0.5 / (1.5 - z)
        assert abs(solve_stieltjes(model, z).m - expected) < 1e-6

    def test_conjugation_symmetry(self):
        model = MP(0.5)
        up = solve_stieltjes(model, 1 + 0.5j).m
        dn = solve_stieltjes(model, 1 - 0.5j).m
        assert abs(dn - np.conj(up)) < 1e-12

    def test_derivative_vs_finite_difference(self):
        model = SpectralModel(0.6, TWO_ATOM)
        z = 1.2 + 0.7j
        h = 1e-6
        mu_p = solve_stieltjes(model, z + h).m_under
        mu_m = solve_stieltjes(model, z - h).m_under
        fd = (mu_p - mu_m) / (2 * h)
        assert abs(solve_stieltjes(model, z).m_under_prime - fd) < 1e-6

    def test_real_z_outside_support(self):
        model = MP(0.25)
        pair = solve_stieltjes(model, 5.0)  # support ends at 2.25
        assert abs(pair.m.imag) < 1e-8
        # the physical branch decays like -1/z at infinity
        roots = np.roots([0.25 * 5.0, 5.0 + 0.25 - 1.0, 1.0])
        root = roots[np.argmin(np.abs(roots + 1.0 / 5.0))]
        assert abs(pair.m - root) < 1e-8

    def test_real_z_inside_support_rejected(self):
        with pytest.raises(ValueError):
            solve_stieltjes(MP(0.25), 1.0)


class TestDensitySupport:
    def test_classical_support(self):
        # H = delta_1: support [(1-sqrt(c))^2, (1+sqrt(c))^2]
        for c in (0.25, 0.5, 2.0):
            (lo, hi), = lsd_support(MP(c))
            assert lo == pytest.approx((1 - np.sqrt(c)) ** 2, abs=1e-10)
            assert hi == pytest.approx((1 + np.sqrt(c)) ** 2, abs=1e-10)

    def test_narrow_gap(self):
        # a gap of width 2.6e-4 near x = 1.0908, narrower than a 2000-point grid step on [0, 1.57]
        model = SpectralModel(0.0081, DiscreteMeasure(((1.0, 0.5), (1.2, 0.5))))
        (a, b), (d, e) = lsd_support(model)
        assert d - b == pytest.approx(2.63e-4, rel=0.01)
        assert b == pytest.approx(1.0908, abs=1e-4)
        np.testing.assert_allclose([a, b, d, e], scan_support_edges(model), rtol=1e-10)

    def test_zero_atom(self):
        # an atom at 0 is not a pole: H = 0.2 delta_0 + 0.8 H' at c acts as H' at 0.8 c
        H = DiscreteMeasure(((0.0, 0.2), (1.0, 0.4), (2.0, 0.4)))
        got = np.ravel(lsd_support(SpectralModel(0.5, H)))
        reduced = SpectralModel(0.4, DiscreteMeasure(((1.0, 0.5), (2.0, 0.5))))
        np.testing.assert_allclose(got, np.ravel(lsd_support(reduced)), rtol=1e-12)
        np.testing.assert_allclose(got, scan_support_edges(SpectralModel(0.5, H)), rtol=1e-10)
        assert lsd_support(SpectralModel(0.5, DiscreteMeasure.point_mass(0.0))) == []

    @settings(max_examples=60, deadline=None)
    @given(spectral_models())
    def test_edges_match_sign_scan(self, model):
        got = np.ravel(lsd_support(model))
        want = scan_support_edges(model)
        assert len(got) == len(want)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)

    def test_density_positive_inside_vanishing_outside(self):
        model = MP(1.0)
        assert lsd_density(model, 1.0) > 0.2
        assert lsd_density(model, 3.9) > 0.0
        assert lsd_density(model, 4.5) < 1e-3
        assert lsd_density(model, -0.5) < 1e-3

    def test_density_matches_classical_formula(self):
        c = 0.5
        model = MP(c)
        for x in (0.5, 1.0, 1.5, 2.0):
            a, b = (1 - np.sqrt(c)) ** 2, (1 + np.sqrt(c)) ** 2
            classical = np.sqrt((b - x) * (x - a)) / (2 * np.pi * c * x)
            assert lsd_density(model, x, eps=1e-9) == pytest.approx(classical, rel=1e-4)

    def test_small_c_two_intervals(self):
        intervals = lsd_support(SpectralModel(0.01, TWO_ATOM))
        assert len(intervals) == 2
        assert abs(intervals[0][0] - 0.5) < 0.2
        assert abs(intervals[1][1] - 1.5) < 0.3

    def test_mass_at_zero(self):
        assert mass_at_zero(MP(0.5)) == 0.0
        assert mass_at_zero(MP(2.0)) == pytest.approx(0.5)

    def test_density_integrates_to_one(self):
        model = MP(2.0)
        (lo, hi), = lsd_support(model)
        xs = np.linspace(lo + 1e-6, hi - 1e-6, 801)
        dens = np.array([lsd_density(model, x, eps=1e-9) for x in xs])
        mass = trapezoid(dens, xs) + mass_at_zero(model)
        assert mass == pytest.approx(1.0, abs=5e-3)


class TestMoments:
    def test_first_moment_is_one_for_shape_models(self):
        for model in (MP(0.5), SpectralModel(1.0, TWO_ATOM)):
            assert lsd_moments_closed(model, 1)[0] == pytest.approx(1.0)

    def test_beta2_beta3_identities(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            c = float(rng.uniform(0.1, 2.0))
            vals = np.sort(rng.uniform(0.2, 3.0, size=3))
            w = rng.dirichlet(np.ones(3))
            H = DiscreteMeasure.from_eigenvalues(vals, w)
            model = SpectralModel(c, H)
            a = [H.moment(k) for k in (1, 2, 3)]
            b = lsd_moments_closed(model, 3)
            assert b[1] == pytest.approx(a[1] + c * a[0] ** 2, rel=1e-12)
            assert b[2] == pytest.approx(a[2] + 3 * c * a[0] * a[1] + c**2 * a[0] ** 3, rel=1e-12)

    def test_quadrature_matches_closed_forms(self, density_moments):
        for model in (MP(0.5), MP(2.0), SpectralModel(0.8, TWO_ATOM)):
            quad = density_moments(model, 3)
            closed = lsd_moments_closed(model, 3)
            np.testing.assert_allclose(quad, closed, rtol=1e-4, atol=1e-4)

    def test_narayana_moments_for_classical_mp(self):
        # H = delta_1: beta_k = sum_j N(k, j) c^(j-1), N(k, j) = C(k, j) C(k, j-1) / k
        c = 0.7
        for beta in (lsd_moments_closed(MP(c), 6), lsd_moments(MP(c), 10)):
            for k, b in enumerate(beta, start=1):
                narayana = [comb(k, j) * comb(k, j - 1) // k for j in range(1, k + 1)]
                expected = sum(n * c**j for j, n in enumerate(narayana))
                assert b == pytest.approx(expected, rel=1e-12)

    def test_high_moment_quadrature(self, density_moments):
        model = SpectralModel(0.5, TWO_ATOM)
        closed = lsd_moments_closed(model, 6)
        quad = density_moments(model, 6)
        np.testing.assert_allclose(quad, closed, rtol=2e-4, atol=2e-4)

    @settings(max_examples=100, deadline=None)
    @given(spectral_models())
    def test_series_matches_closed_forms(self, model):
        np.testing.assert_allclose(lsd_moments(model, 6), lsd_moments_closed(model, 6), rtol=1e-12)
