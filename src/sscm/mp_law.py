"""Generalized Marchenko-Pastur law for a given aspect ratio and population spectrum.

The limiting spectral distribution F is characterized by its Stieltjes
transform m(z), the unique solution of

    m = int dH(t) / (t (1 - c - c z m) - z),        Im(z) > 0,

picked so that the companion transform  mu(z) = -(1-c)/z + c m(z)  has
positive imaginary part on the upper half plane.  The companion transform
is the Stieltjes transform of c F + (1-c) delta_0 and also satisfies the
inverse map

    z = -1/mu + c int t / (1 + t mu) dH(t).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import ConvergenceError, NumericError


@dataclass(frozen=True)
class DiscreteMeasure:
    """A purely atomic probability measure on [0, inf): sorted (value, weight) pairs."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((float(v), float(w)) for v, w in self.atoms)
        if not atoms:
            raise ValueError("measure needs at least one atom")
        values = np.array([a[0] for a in atoms])
        weights = np.array([a[1] for a in atoms])
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError("atom values must be finite and nonnegative")
        if np.any(np.diff(values) <= 0):
            raise ValueError("atom values must be strictly increasing")
        if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        object.__setattr__(self, "atoms", atoms)

    @property
    def values(self):
        return np.array([a[0] for a in self.atoms])

    @property
    def weights(self):
        return np.array([a[1] for a in self.atoms])

    def moment(self, k):
        return float(np.sum(self.weights * self.values**k))

    @classmethod
    def point_mass(cls, value):
        return cls(((value, 1.0),))

    @classmethod
    def from_eigenvalues(cls, eigs, weights=None, merge_tol=1e-10):
        """Collapse a sorted eigenvalue list into atoms, merging near-duplicates."""
        eigs = np.asarray(eigs, dtype=float)
        if weights is None:
            weights = np.full(eigs.size, 1.0 / eigs.size)
        else:
            weights = np.asarray(weights, dtype=float)
        order = np.argsort(eigs)
        eigs, weights = eigs[order], weights[order]
        vals, wts = [], []
        for v, w in zip(eigs, weights):
            if vals and v - vals[-1] <= merge_tol * max(1.0, abs(v)):
                # merge into the running atom, weight-averaged position
                total = wts[-1] + w
                vals[-1] = (vals[-1] * wts[-1] + v * w) / total
                wts[-1] = total
            else:
                vals.append(v)
                wts.append(w)
        wts = np.array(wts)
        wts = wts / wts.sum()
        return cls(tuple(zip(vals, wts)))

    def to_json(self):
        return json.dumps([[v, w] for v, w in self.atoms])

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        if isinstance(data, dict):
            data = data["atoms"]
        return cls(tuple((v, w) for v, w in data))


@dataclass(frozen=True)
class SpectralModel:
    """Aspect ratio c = lim p/n together with the population spectral distribution H."""

    c: float
    H: DiscreteMeasure

    def __post_init__(self):
        if not (self.c > 0):
            raise ValueError("aspect ratio c must be positive")


@dataclass(frozen=True)
class StieltjesPair:
    """Transform of F, its companion transform and the companion derivative at one z."""

    m: complex
    m_under: complex
    m_under_prime: complex


_DAMPING = 0.5
_FP_TOL = 1e-12
_FP_MAX_ITER = 10_000


def _fp_map(m, z, c, t, w):
    """Right-hand side of the fixed-point equation, vectorized over m and z."""
    denom = t * (1.0 - c - c * z[..., None] * m[..., None]) - z[..., None]
    return np.sum(w / denom, axis=-1)


def _newton_polish(mu, z, c, t, w, steps=60, tol=1e-14):
    """Newton iteration on the inverse map in the companion transform mu."""
    for _ in range(steps):
        frac = 1.0 + t * mu[..., None]
        f = z + 1.0 / mu - c * np.sum(w * t / frac, axis=-1)
        fp = -1.0 / mu**2 + c * np.sum(w * t**2 / frac**2, axis=-1)
        step = f / fp
        mu = mu - step
        if np.max(np.abs(step)) < tol:
            break
    return mu


def _fp_relax(z, c, t, w, m, iters):
    for _ in range(iters):
        m_new = (1.0 - _DAMPING) * m + _DAMPING * _fp_map(m, z, c, t, w)
        if np.max(np.abs(m_new - m)) < _FP_TOL:
            return m_new
        m = m_new
    return m


def _residual(m, z, c, t, w):
    # relative to |m|: near the origin m scales like 1/|z|
    return np.abs(m - _fp_map(m, z, c, t, w)) / (1.0 + np.abs(m))


def _repair(mu, z, c, t, w):
    """Fix entries where Newton lost the upper branch or did not converge."""
    m = (mu + (1.0 - c) / z) / c
    bad = (_residual(m, z, c, t, w) > 1e-11) | ((z.imag > 1e-12) & (mu.imag <= 0))
    if np.any(bad):
        zb = z[bad]
        mb = _fp_relax(zb, c, t, w, -1.0 / zb, _FP_MAX_ITER)
        mub = -(1.0 - c) / zb + c * mb
        mu = mu.copy()
        mu[bad] = _newton_polish(mub, zb, c, t, w)
    return mu


def _solve_grid_upper(z, c, t, w, m0=None):
    """Solve the fixed point for an array of z with Im(z) >= 0.

    Points close to the real axis are reached by continuation: start at a
    comfortable height where the damped fixed point contracts quickly, then
    walk the height down with warm-started Newton steps.
    """
    z = np.asarray(z, dtype=complex)
    if m0 is not None:
        mu = -(1.0 - c) / z + c * np.asarray(m0, dtype=complex)
        mu = _newton_polish(mu, z, c, t, w)
        mu = _repair(mu, z, c, t, w)
    else:
        v_target = z.imag
        v = np.maximum(v_target, 1.0)
        zc = z.real + 1j * v
        m = _fp_relax(zc, c, t, w, -1.0 / zc, 3000)
        mu = _newton_polish(-(1.0 - c) / zc + c * m, zc, c, t, w)
        while np.any(v > v_target):
            v = np.maximum(v / 4.0, v_target)
            zc = z.real + 1j * v
            mu = _newton_polish(mu, zc, c, t, w)
            mu = _repair(mu, zc, c, t, w)
    m = (mu + (1.0 - c) / z) / c
    resid = _residual(m, z, c, t, w)
    if np.max(resid) > 1e-10:
        # recovering m from the companion transform loses precision when c is
        # tiny; the defining map itself is then near-constant, so iterate it
        for _ in range(100):
            m_new = _fp_map(m, z, c, t, w)
            if np.max(np.abs(m_new - m)) < 1e-15:
                m = m_new
                break
            m = m_new
        resid = _residual(m, z, c, t, w)
    if np.max(resid) > 1e-10:
        raise ConvergenceError(
            "Stieltjes fixed point did not converge",
            last_iterate=m,
            residual=float(np.max(resid)),
        )
    return m, mu


def _mu_prime(mu, c, t, w):
    frac = 1.0 + t * mu[..., None]
    dz_dmu = 1.0 / mu**2 - c * np.sum(w * t**2 / frac**2, axis=-1)
    return 1.0 / dz_dmu


def solve_stieltjes_grid(model, zs, m0=None):
    """Vectorized transform evaluation; returns arrays (m, m_under, m_under_prime).

    Points in the lower half plane are handled by conjugation symmetry.
    Real z must lie outside the support of F.
    """
    zs = np.asarray(zs, dtype=complex)
    flat = zs.ravel()
    lower = flat.imag < 0
    zq = np.where(lower, np.conj(flat), flat)
    real_mask = zq.imag == 0
    # lift real points slightly to pick the upper-branch solution, then polish
    z_work = np.where(real_mask, zq + 1e-9j, zq)
    m, mu = _solve_grid_upper(z_work, model.c, model.H.values, model.H.weights, m0=m0)
    if np.any(real_mask):
        if np.any(np.abs(m.ravel()[real_mask].imag) > 1e-6):
            raise ValueError("real z lies inside the support of the spectral law")
        t, w = model.H.values, model.H.weights
        mu_r = _newton_polish(mu[real_mask].real + 0j, zq[real_mask], model.c, t, w)
        mu[real_mask] = mu_r
        m[real_mask] = (mu_r + (1.0 - model.c) / zq[real_mask]) / model.c
    mup = _mu_prime(mu, model.c, model.H.values, model.H.weights)
    m = np.where(lower, np.conj(m), m)
    mu = np.where(lower, np.conj(mu), mu)
    mup = np.where(lower, np.conj(mup), mup)
    return m.reshape(zs.shape), mu.reshape(zs.shape), mup.reshape(zs.shape)


def solve_stieltjes(model, z, m0=None):
    """Solve the Marchenko-Pastur fixed point at a single complex point z."""
    z = complex(z)
    if not np.isfinite(z.real) or not np.isfinite(z.imag):
        raise ValueError("z must be finite")
    m, mu, mup = solve_stieltjes_grid(model, np.array([z]), m0=None if m0 is None else np.array([m0]))
    m, mu, mup = complex(m[0]), complex(mu[0]), complex(mup[0])
    if z.imag > 0 and mu.imag <= 0:
        raise NumericError("companion transform left the upper half plane")
    return StieltjesPair(m=m, m_under=mu, m_under_prime=mup)


def lsd_density(model, x, eps=1e-6):
    """Continuous-part density of F at real x by Stieltjes inversion.

    For c <= 1 this is Im(m)/pi; for c > 1 the companion transform is used
    instead, Im(mu)/(pi c), because F itself carries a point mass at the
    origin that would pollute the inversion nearby.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    m, mu, _ = solve_stieltjes_grid(model, xs + 1j * eps)
    if model.c > 1:
        dens = mu.imag / (np.pi * model.c)
    else:
        dens = m.imag / np.pi
    if np.any(dens < -1e-8):
        raise NumericError("negative density beyond tolerance")
    dens = np.maximum(dens, 0.0)
    return float(dens[0]) if np.isscalar(x) or np.ndim(x) == 0 else dens


def mass_at_zero(model):
    """Point mass of F at 0; positive only when c > 1."""
    return max(0.0, 1.0 - 1.0 / model.c)


def lsd_support(model):
    """Support intervals of the continuous part of F, exact from the inverse map.

    In y = -1/mu the inverse map reads x(y) = y (1 + c sum w t / (y - t)),
    with poles at the nonzero atoms t_1 < ... < t_K of H.  The support edges
    are the values of x at the real roots of x'(y) = 1 - c sum w t^2 / (y - t)^2
    (Silverstein and Choi 1995).  Each outer interval (-inf, t_1) and
    (t_K, inf) holds exactly one root, within sqrt(c alpha_2) of its pole.
    Between adjacent poles x' is concave, so the gap holds two roots, one on
    each side of the root of x'', when x' is positive there, and none
    otherwise.
    """
    c = model.c
    keep = model.H.values > 0
    t, w = model.H.values[keep], model.H.weights[keep]
    if t.size == 0:
        return []  # H = delta_0: F = delta_0 has no continuous part

    def x(y):
        return y * (1.0 + c * np.sum(w * t / (y - t)))

    def dx(y):
        return 1.0 - c * np.sum(w * t**2 / (y - t) ** 2)

    def d2x(y):
        return np.sum(w * t**2 / (y - t) ** 3)

    # |x' - 1| <= 1/4 at twice that distance from every pole
    reach = 2.0 * np.sqrt(c * np.sum(w * t**2))
    roots = [
        brentq(dx, t[0] - reach, np.nextafter(t[0], -np.inf)),
        brentq(dx, np.nextafter(t[-1], np.inf), t[-1] + reach),
    ]
    for a, b in zip(t[:-1], t[1:]):
        # nextafter, not a + (b - a) * tiny, which rounds to a for near-equal atoms
        lo, hi = np.nextafter(a, b), np.nextafter(b, a)
        # x'' changes sign inside (lo, hi) unless the atoms sit a few ulps apart
        if lo < hi and d2x(lo) > 0.0 > d2x(hi):
            peak = brentq(d2x, lo, hi)
            if dx(peak) > 0.0:
                roots += [brentq(dx, lo, peak), brentq(dx, peak, hi)]
    edges = sorted(max(0.0, float(x(y))) for y in roots)  # x(root) ~ -1e-25 when c = 1
    return list(zip(edges[::2], edges[1::2]))


def _moments_closed(c, values, weights):
    """Moments beta_1..beta_6 of F for H = sum_j weights_j delta(values_j).

    Free multiplicative convolution with the Marchenko-Pastur element:
    beta_k sums c^{|pi|-1} prod alpha_{|block|} over non-crossing partitions.
    """
    a1, a2, a3, a4, a5, a6 = [float(weights @ values**j) for j in range(1, 7)]
    return [
        a1,
        a2 + c * a1**2,
        a3 + 3 * c * a1 * a2 + c**2 * a1**3,
        a4 + c * (4 * a1 * a3 + 2 * a2**2) + 6 * c**2 * a1**2 * a2 + c**3 * a1**4,
        a5
        + c * (5 * a1 * a4 + 5 * a2 * a3)
        + c**2 * (10 * a1**2 * a3 + 10 * a1 * a2**2)
        + 10 * c**3 * a1**3 * a2
        + c**4 * a1**5,
        a6
        + c * (6 * a1 * a5 + 6 * a2 * a4 + 3 * a3**2)
        + c**2 * (15 * a1**2 * a4 + 30 * a1 * a2 * a3 + 5 * a2**3)
        + c**3 * (20 * a1**3 * a3 + 30 * a1**2 * a2**2)
        + 15 * c**4 * a1**4 * a2
        + c**5 * a1**6,
    ]


def lsd_moments_closed(model, k_max):
    """Closed-form moments of F, available up to order six."""
    if k_max > 6:
        raise ValueError("closed forms implemented up to order 6")
    return _moments_closed(model.c, model.H.values, model.H.weights)[:k_max]


def lsd_moments(model, k_max):
    """Moments beta_1..beta_k of F, exact for every order.

    In y = -1/mu the inverse map reads z = y phi(1/y), with
    phi(w) = 1 + c A(w) and A(w) = sum_j alpha_j w^j the moment series of H,
    while at z = inf  -z mu = 1 + c sum_k beta_k z^-k.  Lagrange inversion of
    1/z = (1/y) / phi(1/y) gives  beta_k = [w^k] phi(w)^(k+1) / (c (k+1)).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    t, w = model.H.values, model.H.weights
    series = np.array([1.0] + [model.c * float(w @ t**j) for j in range(1, k_max + 1)])
    power = series
    out = []
    for k in range(1, k_max + 1):
        power = np.convolve(power, series)[: k_max + 1]  # (1 + c A)^(k+1)
        out.append(float(power[k]) / (model.c * (k + 1)))
    return out
