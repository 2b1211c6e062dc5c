"""Oracle and property tests for the limiting spectral law solver."""

import os
import subprocess
import sys
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid
from scipy.optimize import brentq

from sscm import lss_clt, mp_law, shape_estimation
from sscm.errors import ConvergenceError, NumericError
from sscm.lss_clt import ShapeContext, _ring, shape_to_sigma_eigs
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
    _population_moments,
)
from sscm.shape_estimation import sigma_to_shape_eigs


def quadratic_root(c, z):
    """Closed-form Stieltjes transform for H = delta_1: czm^2+(z+c-1)m+1=0."""
    roots = np.roots([c * z, z + c - 1.0, 1.0])
    return roots[np.argmax(roots.imag * np.sign(z.imag))]


def inverse_map_roots(model, z):
    """All roots mu of the inverse map z = -1/mu + c sum w t / (1 + t mu).

    Clearing its denominators gives the degree-(K+1) polynomial
    (z mu + 1) prod_j (1 + t_j mu) - c mu sum_k w_k t_k prod_{j != k} (1 + t_j mu).
    """
    P = np.polynomial.Polynomial
    t, w = model.H.values, model.H.weights
    factors = [P([1.0, tk]) for tk in t]
    poly = P([1.0, z]) * np.prod(factors)
    for k in range(t.size):
        poly -= P([0.0, model.c * w[k] * t[k]]) * np.prod(factors[:k] + factors[k + 1:])
    return poly.roots()


def polynomial_root(model, z):
    """Companion transform mu at z with Im z > 0: the only root in the upper half plane."""
    roots = inverse_map_roots(model, z)
    return roots[np.argmax(roots.imag)]


def polished_upper_root(model, x, steps=4):
    """polynomial_root at real x inside the support, refined by Newton.

    The roots of the polynomial lose digits where they cluster (small c);
    Newton on the rational form z + 1/mu - c sum w t / (1 + t mu) restores them.
    """
    t, w = model.H.values, model.H.weights
    mu = polynomial_root(model, x)
    for _ in range(steps):
        f = x + 1.0 / mu - model.c * np.sum(w * t / (1.0 + t * mu))
        fp = -1.0 / mu**2 + model.c * np.sum(w * t**2 / (1.0 + t * mu) ** 2)
        mu -= f / fp
    return mu


def real_polynomial_root(model, x):
    """Companion transform mu at real x outside the support of F.

    Every root is real there, and the physical one is the only root at which
    mu increases with x, that is dz/dmu = 1/mu^2 - c sum w t^2 / (1 + t mu)^2 > 0.
    """
    t, w = model.H.values, model.H.weights
    roots = inverse_map_roots(model, x)
    roots = roots[np.abs(roots.imag) <= 1e-9 * np.abs(roots)].real
    slope = 1.0 / roots**2 - model.c * np.sum(w * t**2 / (1.0 + np.outer(roots, t)) ** 2, axis=1)
    (root,) = roots[slope > 0]
    return root


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
def spectral_models(draw, c_min=0.005, c_max=3.0, max_atoms=4):
    """1-max_atoms atoms in [0.05, 5] with weights bounded away from 0, c in [c_min, c_max]."""
    k = draw(st.integers(1, max_atoms))
    values = sorted(draw(st.lists(st.floats(0.05, 5.0), min_size=k, max_size=k, unique=True)))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    c = draw(st.floats(c_min, c_max))
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

    @settings(max_examples=200, deadline=None)
    @given(
        # 0 or well above the subnormals, where the weighted means keep full precision
        distinct=st.lists(st.just(0.0) | st.floats(1e-6, 100.0), min_size=1, max_size=6, unique=True),
        counts=st.lists(st.integers(1, 5), min_size=6, max_size=6),
        rnd=st.randoms(use_true_random=False),
    )
    def test_from_eigenvalues_counts_repeats(self, distinct, counts, rnd):
        distinct = np.sort(distinct)
        # keep the distinct values further apart than the merge tolerance
        assume(np.all(np.diff(distinct) > 1e-6 * np.maximum(1.0, distinct[1:])))
        counts = np.array(counts[: distinct.size])
        eigs = list(np.repeat(distinct, counts))
        rnd.shuffle(eigs)
        H = DiscreteMeasure.from_eigenvalues(eigs)
        np.testing.assert_allclose(H.values, distinct, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(H.weights, counts / counts.sum(), rtol=1e-14, atol=0.0)
        for k in range(1, 7):
            assert H.moment(k) == pytest.approx(np.mean(np.asarray(eigs) ** k), rel=1e-14, abs=0.0)

    def test_from_eigenvalues_gap_rule(self):
        # every step of the chain is within merge_tol, its span is not: one atom
        chain = 1.0 + np.array([0.0, 0.6e-10, 1.2e-10, 1.8e-10])
        H = DiscreteMeasure.from_eigenvalues(chain[::-1])
        assert len(H.atoms) == 1
        assert H.atoms[0] == (pytest.approx(chain.mean(), rel=1e-15), 1.0)
        # the tolerance scales with max(1, v); a step beyond it starts a new atom
        H = DiscreteMeasure.from_eigenvalues([4.0, 4.0 + 3e-10, 4.0 + 6e-10, 4.0 + 10.5e-10])
        assert H.values == pytest.approx([4.0 + 3e-10, 4.0 + 10.5e-10], rel=1e-15)
        assert H.weights == pytest.approx([0.75, 0.25])
        # an atom sits at the weighted mean of its values
        H = DiscreteMeasure.from_eigenvalues([2.0 + 1e-10, 2.0, 5.0], weights=[3.0, 1.0, 4.0])
        assert H.values == pytest.approx([2.0 + 0.75e-10, 5.0], rel=1e-15)
        assert H.weights == pytest.approx([0.5, 0.5])

    def test_arrays_are_read_only(self):
        with pytest.raises(ValueError):
            TWO_ATOM.values[0] = 2.0


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

    def test_upper_branch_for_large_c(self):
        model = SpectralModel(5.0, TWO_ATOM)
        zs = np.array([0.5 + 1j, -0.75 + 1j, -0.5 + 0.5j])
        m, mu, _ = solve_stieltjes_grid(model, zs)
        assert np.all(m.imag > 0) and np.all(mu.imag > 0)
        for z, got in zip(zs, mu):
            assert abs(got - polynomial_root(model, z)) < 1e-10

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_polynomial_root(self, data):
        model = data.draw(spectral_models(c_min=1e-4, c_max=20.0))
        right = 3.0 * model.H.values[-1] * (1.0 + np.sqrt(model.c)) ** 2
        z = complex(data.draw(st.floats(-3.0, right)), data.draw(st.floats(1e-3, 3.0)))
        m, mu, _ = solve_stieltjes_grid(model, np.array([z]))
        assert m[0].imag > 0 and mu[0].imag > 0
        want = polynomial_root(model, z)
        assert abs(mu[0] - want) <= 1e-8 * abs(want)

    @pytest.mark.parametrize("c", [2.0, 5.0])
    @pytest.mark.parametrize("H", [DiscreteMeasure.point_mass(1.0), TWO_ATOM])
    def test_near_zero_for_large_c(self, c, H):
        # F has an atom at 0 when c > 1; the solver and the density must still work next to it
        model = SpectralModel(c, H)
        dens = lsd_density(model, np.array([0.0, 1e-12, 1e-6]))
        assert np.all(np.isfinite(dens)) and np.all(dens >= 0)
        assert solve_stieltjes(model, 1e-6j).m_under.imag > 0
        assert solve_stieltjes(model, -1e-3).m.imag == 0


    # (c, H, edge index): the hard edge at 0 and the soft edge at 4 for c = 1, soft edges for c = 0.5
    EDGES = [
        (1.0, DiscreteMeasure.point_mass(1.0), 0),
        (1.0, DiscreteMeasure.point_mass(1.0), 1),
        (0.5, DiscreteMeasure.point_mass(1.0), 0),
        (0.5, DiscreteMeasure.point_mass(1.0), 1),
        (0.5, TWO_ATOM, 0),
        (0.5, TWO_ATOM, 1),
    ]

    EDGE_IDS = ["c1-hard", "c1-soft", "c0.5-lower", "c0.5-upper", "c0.5-two-atom-lower", "c0.5-two-atom-upper"]

    @pytest.mark.parametrize("c, H, edge", EDGES, ids=EDGE_IDS)
    @pytest.mark.parametrize("dist", [1e-3, 1e-8])
    def test_real_z_just_outside_the_support(self, c, H, edge, dist):
        model = SpectralModel(c, H)
        (lo, hi), = lsd_support(model)
        x = lo - dist if edge == 0 else hi + dist
        pair = solve_stieltjes(model, x)
        assert pair.m.imag == 0 and pair.m_under.imag == 0
        want = real_polynomial_root(model, x)
        assert abs(pair.m_under.real - want) <= 1e-9 * abs(want)

    # c stays off 1, where the lower edge nears 0: _solve starts a real z from
    # its root at z + 1e-9 i, which is then far from the real root
    @settings(max_examples=100, deadline=None)
    @given(spectral_models(c_max=0.99, max_atoms=2) | spectral_models(c_min=1.01, max_atoms=2))
    def test_newton_stops_near_an_edge(self, model):
        # 1e-8 outside an edge x'(y) is about 1e-4, so rounding in x moves y by
        # more than Newton's step stop of 1e-13 |y|; the rounding-level residual
        # stop ends each Newton solve, at every continuation level and in the polish
        support = lsd_support(model)
        xs = [x for a, b in support for x in (a * (1 - 1e-8), b * (1 + 1e-8))]
        xs = [x for x in xs if x > 0 and not any(a <= x <= b for a, b in support)]
        x_dx, newton = mp_law._x_dx, mp_law._newton
        calls, per_solve = [0], []

        def counted_x_dx(*args):
            calls[0] += 1
            return x_dx(*args)

        def counted_newton(*args):
            before = calls[0]
            y = newton(*args)
            per_solve.append(calls[0] - before)
            return y

        with (
            mock.patch.object(mp_law, "_x_dx", counted_x_dx),
            mock.patch.object(mp_law, "_newton", counted_newton),
        ):
            for x in xs:
                solve_stieltjes(model, x)  # raises unless within the 1e-10 backward-error gate
        assert max(per_solve) <= 30

    def test_real_z_computes_the_support_once(self):
        # each caller knows on which side of the support its real z lie and
        # tells _solve, which therefore does not compute the support again
        model = SpectralModel(0.3, DiscreteMeasure(((0.5, 0.6), (4.0, 0.4))))
        (_, hi1), (lo2, hi2) = lsd_support(model)
        support = mp_law.lsd_support
        calls = [0]

        def counted_support(*args):
            calls[0] += 1
            return support(*args)

        with mock.patch.object(mp_law, "lsd_support", counted_support):
            solve_stieltjes_grid(model, np.array([0.5 * (hi1 + lo2), 2.0 * hi2, 1.0 + 1.0j]))
            assert calls[0] == 1
            lsd_density(model, np.linspace(0.0, 1.1 * hi2, 9))
            assert calls[0] == 2

    @pytest.mark.parametrize("c, H, edge", EDGES, ids=EDGE_IDS)
    @pytest.mark.parametrize("dist", [1e-3, 1e-8])
    def test_real_z_inside_the_support_raises(self, c, H, edge, dist):
        model = SpectralModel(c, H)
        (lo, hi), = lsd_support(model)
        with pytest.raises(ValueError, match="inside the support"):
            solve_stieltjes(model, lo + dist if edge == 0 else hi - dist)

    def test_atom_at_zero_is_in_the_support(self):
        # F has an atom at 0 when c > 1, or when H has one
        for model in (MP(2.0), SpectralModel(0.5, DiscreteMeasure(((0.0, 0.2), (1.0, 0.8))))):
            with pytest.raises(ValueError, match="inside the support"):
                solve_stieltjes(model, 0.0)

    def test_pole_at_zero_raises(self):
        # c < 1 and no atom of H at 0: z = 0 lies outside the support and mu has a pole there
        for model in (MP(0.5), SpectralModel(0.3, DiscreteMeasure(((0.5, 0.5), (1.5, 0.5))))):
            with pytest.raises(ValueError, match="pole at z = 0"):
                solve_stieltjes(model, 0.0)
            with pytest.raises(ValueError, match="pole at z = 0"):
                solve_stieltjes_grid(model, np.array([-0.01, 0.0, 1.0 + 1.0j]))

    def test_non_finite_z_raises(self):
        # an infinite z once kept the continuation height infinite, so the
        # solver never returned: the calls run in a child process with a timeout
        code = """
import numpy as np
from sscm.lss_clt import ShapeContext, cov_kernel, mean_kernel
from sscm.mp_law import solve_stieltjes_grid
ctx = ShapeContext.isotropic(40, 80)
inf, nan = float("inf"), float("nan")
for z in (complex(inf, 0), complex(-inf, 0), complex(inf, 1), complex(1, inf), complex(1, -inf),
          complex(nan, 0), complex(1, nan), complex(nan, 1)):
    for call in (lambda: solve_stieltjes_grid(ctx.model, [z]),
                 lambda: solve_stieltjes_grid(ctx.model, [1j, z]),
                 lambda: mean_kernel(ctx, z),
                 lambda: cov_kernel(ctx, z, 1j),
                 lambda: cov_kernel(ctx, -1j, z)):
        try:
            call()
            print("returned")
        except ValueError as exc:
            print(exc)
"""
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mp_law.__file__))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["z must be finite"] * 40


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

    @pytest.mark.parametrize("scale", [1e-10, 1e10])
    def test_edges_scale_with_H(self, scale):
        # scaling H scales F: the root stops are relative, so tiny atoms keep every digit
        model = SpectralModel(0.3, DiscreteMeasure(((1.0, 0.5), (3.0, 0.5))))
        scaled = SpectralModel(0.3, DiscreteMeasure(((scale, 0.5), (3.0 * scale, 0.5))))
        np.testing.assert_allclose(np.ravel(lsd_support(scaled)), scale * np.ravel(lsd_support(model)), rtol=1e-14)

    def test_density_at_tiny_H_needs_newtons_guard(self):
        # scaling H by s scales F: f_sH(x) = f_H(x / s) / s.  At s = 1e-10 the
        # polish of a real z starts from its root at z + 1e-9i, 1.5 widths of the
        # support above it, and one Newton step would land below the real axis;
        # halving that step keeps the physical root (without it, 52% off)
        s, c = 1e-10, 0.5
        tiny = SpectralModel(c, DiscreteMeasure(((s, 0.5), (3.0 * s, 0.5))))
        unit = SpectralModel(c, DiscreteMeasure(((1.0, 0.5), (3.0, 0.5))))
        xs = np.concatenate([np.linspace(a, b, 23)[1:-1] for a, b in lsd_support(tiny)])
        want = lsd_density(unit, xs / s) / s
        np.testing.assert_allclose(lsd_density(tiny, xs), want, rtol=0, atol=1e-12 * want.max())

    def test_unconverged_density_raises(self):
        # at s = 1e-15 the polish stalls at some x with a backward error of 0.25;
        # the gate raises rather than return a density off by up to 100%
        s, c = 1e-15, 0.1
        tiny = SpectralModel(c, DiscreteMeasure(((s, 0.5), (3.0 * s, 0.5))))
        unit = SpectralModel(c, DiscreteMeasure(((1.0, 0.5), (3.0, 0.5))))
        xs = np.concatenate([np.linspace(a, b, 13)[1:-1] for a, b in lsd_support(tiny)])
        want = lsd_density(unit, xs / s) / s
        try:
            got = lsd_density(tiny, xs)
        except ConvergenceError:
            return
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * want.max())

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

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_density_matches_polynomial_root(self, data):
        # inside the support, pi c times the density is Im mu at the upper root of the inverse map
        model = data.draw(spectral_models(c_min=1e-3, c_max=20.0))
        for a, b in lsd_support(model):
            x = a + (b - a) * data.draw(st.floats(1e-3, 1.0 - 1e-3))
            want = polished_upper_root(model, x).imag / (np.pi * model.c)
            assert lsd_density(model, x) == pytest.approx(want, rel=1e-8, abs=0.0)

    def test_density_matches_classical_formula(self):
        # relative positions from 1e-5 of the width off each edge to the middle of the interval
        edge = np.array([1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5])
        u = np.concatenate([edge, 1.0 - edge[:-1]])
        for c in (0.1, 0.5, 2.0):
            a, b = (1 - np.sqrt(c)) ** 2, (1 + np.sqrt(c)) ** 2
            x = a + (b - a) * u
            # (b - x)(x - a) from the offsets u, which carry no cancellation near the edges
            classical = (b - a) * np.sqrt(u * (1 - u)) / (2 * np.pi * c * x)
            np.testing.assert_allclose(lsd_density(MP(c), x), classical, rtol=1e-9, atol=0.0)

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
        dens = np.array([lsd_density(model, x) for x in xs])
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

    def test_forward_substitution_of_narayana_moments(self):
        # H = delta_1 has alpha_k = 1 for every k
        np.testing.assert_allclose(_population_moments(0.7, lsd_moments(MP(0.7), 10)), 1.0, rtol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(spectral_models())
    def test_forward_substitution_inverts_series(self, model):
        beta = np.array(lsd_moments(model, 8))
        alpha = _population_moments(model.c, beta)
        exact = np.array([model.H.moment(k) for k in range(1, 9)])
        # alpha_k is beta_k less a polynomial in lower moments, so the rounding of beta_k sets the scale
        assert np.all(np.abs(alpha - exact) <= 1e-12 * np.maximum(exact, beta))

    @settings(max_examples=100, deadline=None)
    @given(spectral_models())
    def test_series_matches_closed_forms(self, model):
        np.testing.assert_allclose(lsd_moments(model, 6), lsd_moments_closed(model, 6), rtol=1e-12)



def check_root(f, lo, hi, root, terms):
    """root is the root of f on [lo, hi] to 4 ulp, where f(y) returns f and f'.

    The computed f changes sign or vanishes among the floats within 4 ulp of
    the root; rounding can flip its sign back and forth there, so the two
    neighbours 4 ulp away alone need not differ.  brentq at rtol 4 eps and a
    negligible xtol finds the same root: to its own tolerance, 4 eps |root|,
    plus those 4 ulp, plus the stretch on which rounding can flip the sign of
    f, 8 eps times `terms` (the sum of the magnitudes of the terms f adds up)
    over |f'|.  That stretch is wide where f' is small against the terms:
    x' near y = 0 when c is near 1, and next to a gap that nearly closes.
    """

    def g(y):
        return float(f(y)[0])

    eps = np.finfo(float).eps
    near = [root]
    for _ in range(4):
        near = [np.nextafter(near[0], -np.inf)] + near + [np.nextafter(near[-1], np.inf)]
    with np.errstate(divide="ignore"):  # f' of alpha_2's excess is infinite at its lower end
        assert lo <= root <= hi
        signs = {np.sign(g(y)) for y in near}
        assert 0.0 in signs or signs == {-1.0, 1.0}
        want = brentq(g, lo, hi, xtol=1e-300, rtol=4.0 * eps)
        band = 8.0 * eps * terms / abs(f(root)[1])
        assert abs(root - want) <= 4.0 * np.spacing(abs(root)) + 4.0 * eps * abs(want) + band


def derivative_terms(y, c, t, w, k):
    """The sum of the magnitudes of the terms of x'(y) (k = 1) or x''(y) (k = 2)."""
    return (2 - k) + k * c * np.sum(w * t**2 / np.abs(y - t) ** (k + 1))


class TestRoot:
    """mp_law._root at every kind of site that calls it, against brentq."""

    @staticmethod
    def record(run):
        """Every (f, lo, hi, root) that run() passes through _root, in any module."""
        calls, root = [], mp_law._root

        def spy(f, lo, hi):
            calls.append((f, lo, hi, root(f, lo, hi)))
            return calls[-1][-1]

        with (
            mock.patch.object(mp_law, "_root", spy),
            mock.patch.object(lss_clt, "_root", spy),
            mock.patch.object(shape_estimation, "_root", spy),
        ):
            run()
        return calls

    @staticmethod
    def shape(model, p=40):
        """A diagonal shape of trace p with the atoms of H, about p times its weights each."""
        t = np.repeat(model.H.values, np.maximum(1, np.round(p * model.H.weights)).astype(int))
        return t * (t.size / t.sum())

    @settings(max_examples=100, deadline=None)
    @given(spectral_models())
    @example(SpectralModel(0.01, TWO_ATOM))
    @example(SpectralModel(0.01, DiscreteMeasure(((1.0, 0.3), (2.0, 0.3), (4.0, 0.4)))))
    def test_support(self, model):
        # the outer critical roots, and in each gap the root of x'' and, when x' > 0 there, two roots of x'
        atoms = (model.c, model.H.values, model.H.weights)
        calls = self.record(lambda: lsd_support(model))
        assert len(calls) >= 2 + 3 * (len(lsd_support(model)) - 1)
        for f, lo, hi, root in calls:
            k = 2 if np.array_equal(f(root), mp_law._derivatives(root, *atoms)[1:]) else 1
            check_root(f, lo, hi, root, derivative_terms(root, *atoms, k))

    @settings(max_examples=100, deadline=None)
    @given(spectral_models(), st.floats(1.0, 1.5))
    def test_ring_crossings(self, model, r_w):
        ctx = ShapeContext.from_diagonal_shape(self.shape(model), self.shape(model).size / model.c, 3.0, r_w)
        c, t, w = ctx.c_n, ctx.H_p.values, ctx.H_p.weights

        def ring():
            try:
                _ring(ctx, (1.0,))
            except NumericError:  # a node off the physical sheet: the crossings are found before that check
                pass

        calls = self.record(ring)
        assert len(calls) == 4  # two outer critical roots, then the two crossings
        for f, lo, hi, root in calls[:2]:
            check_root(f, lo, hi, root, derivative_terms(root, c, t, w, 1))
        for f, lo, hi, root in calls[2:]:
            # f = x(y) - z with x(y) = y + c sum w t y / (y - t)
            z = mp_law._x_dx(root, c, t, w)[0] - f(root)[0]
            check_root(f, lo, hi, root, abs(root) + c * np.sum(w * np.abs(t * root / (root - t))) + abs(z))

    @settings(max_examples=100, deadline=None)
    @given(spectral_models(), st.floats(1.0, 12.0))
    def test_alpha2(self, model, tau):
        t = self.shape(model)

        def invert():
            try:
                sigma_to_shape_eigs(shape_to_sigma_eigs(t, tau), tau)
            except NumericError:  # the expansion in tau left sigma with no preimage
                assume(False)

        calls = self.record(invert)
        assert len(calls) == 1
        f, lo, hi, root = calls[0]
        check_root(f, lo, hi, root, 2.0 * root)  # f = mean(t^2) - alpha2, with mean(t^2) = alpha2 at the root
