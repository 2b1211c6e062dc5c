"""Generalized Marchenko-Pastur law for a given aspect ratio and population spectrum.

The limiting spectral distribution F is characterized by its Stieltjes
transform m(z), the unique solution of

    m = int dH(t) / (t (1 - c - c z m) - z),        Im(z) > 0,

picked so that the companion transform  mu(z) = -(1-c)/z + c m(z)  has
positive imaginary part on the upper half plane.  The companion transform
is the Stieltjes transform of c F + (1-c) delta_0 and is the unique root
with Im mu > 0 of the inverse map

    z = -1/mu + c int t / (1 + t mu) dH(t)

(Silverstein and Bai 1995; Silverstein and Choi 1995).  The solver finds
that root by Newton's method in mu, continued down from a height above the
spectrum, and recovers m = -(1/z) int dH(t) / (1 + t mu).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import ConvergenceError, NumericError


@dataclass(frozen=True)
class DiscreteMeasure:
    """A purely atomic probability measure on [0, inf): sorted (value, weight) pairs.

    `values` and `weights` hold the same atoms as read-only arrays.
    """

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((float(v), float(w)) for v, w in self.atoms)
        if not atoms:
            raise ValueError("measure needs at least one atom")
        values = np.array([a[0] for a in atoms])
        weights = np.array([a[1] for a in atoms])
        if not np.isfinite(values).all() or values.min() < 0:
            raise ValueError("atom values must be finite and nonnegative")
        if (values[1:] <= values[:-1]).any():
            raise ValueError("atom values must be strictly increasing")
        if weights.min() <= 0 or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        values.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    def moment(self, k):
        return float(self.weights @ self.values**k)

    @classmethod
    def point_mass(cls, value):
        return cls(((value, 1.0),))

    @classmethod
    def from_eigenvalues(cls, eigs, weights=None, merge_tol=1e-10):
        """Collapse eigenvalues, in any order, into atoms, merging near-duplicates.

        After sorting, an atom starts at each value v whose gap to the
        previous value exceeds merge_tol * max(1, |v|); it sits at the
        weighted mean of its values and carries their total weight.  Weights
        default to equal ones and are normalized to sum 1.  A chain of
        near-duplicates whose every gap is within the tolerance is therefore
        one atom, even when it spans more than merge_tol; a merge into the
        running mean, compared with each next value, would split such a chain.
        """
        eigs = np.asarray(eigs, dtype=float)
        if weights is None:
            weights = np.full(eigs.size, 1.0 / eigs.size)
        else:
            weights = np.asarray(weights, dtype=float)
        order = np.argsort(eigs)
        eigs, weights = eigs[order], weights[order]
        gap = eigs[1:] - eigs[:-1] > merge_tol * np.maximum(1.0, np.abs(eigs[1:]))
        starts = np.concatenate([[0], np.flatnonzero(gap) + 1])
        wts = np.add.reduceat(weights, starts)
        vals = np.add.reduceat(eigs * weights, starts) / wts
        return cls(tuple(zip(vals, wts / wts.sum())))


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


def _newton(mu, z, c, t, w, steps=60, tol=1e-13):
    """Newton on the inverse map f(mu) = z + 1/mu - c sum w t / (1 + t mu).

    Where Im z > 0 a step that would take mu out of the upper half plane is
    halved until it does not.
    """
    upper = z.imag > 0
    for _ in range(steps):
        frac = 1.0 + t * mu[..., None]
        f = z + 1.0 / mu - c * np.sum(w * t / frac, axis=-1)
        fp = -1.0 / mu**2 + c * np.sum(w * t**2 / frac**2, axis=-1)
        step = f / fp
        for _ in range(60):
            out = upper & ((mu - step).imag <= 0)
            if not np.any(out):
                break
            step = np.where(out, 0.5 * step, step)
        mu = mu - step
        if np.all(np.abs(step) <= tol * np.abs(mu)):
            break
    return mu


def _solve_upper(z, c, t, w):
    """Companion transform mu at each z with Im z > 0, by continuation in Im z.

    Above max(t) (1 + sqrt(c))^2 + |Re z| the point is far from the spectrum,
    so mu is close to -1/z there.  Newton starts from that height and walks
    it down to Im z by factors of 4, warm-started at each level.
    """
    target = z.imag
    v = np.maximum(target, t[-1] * (1.0 + np.sqrt(c)) ** 2 + np.abs(z.real))
    zc = z.real + 1j * v
    mu = _newton(-1.0 / zc, zc, c, t, w)
    while np.any(v > target):
        act = v > target
        v[act] = np.maximum(v[act] / 4.0, target[act])
        mu[act] = _newton(mu[act], z.real[act] + 1j * v[act], c, t, w)
    return mu


def _m_from_mu(mu, z, t, w):
    # m = -(1/z) int dH(t) / (1 + t mu); unlike (mu + (1 - c)/z) / c it never divides by c
    return -np.sum(w / (1.0 + t * mu[..., None]), axis=-1) / z


def _mu_prime(mu, c, t, w):
    frac = 1.0 + t * mu[..., None]
    dz_dmu = 1.0 / mu**2 - c * np.sum(w * t**2 / frac**2, axis=-1)
    return 1.0 / dz_dmu


def solve_stieltjes_grid(model, zs):
    """Vectorized transform evaluation; returns arrays (m, m_under, m_under_prime).

    The companion transform mu is found by Newton continuation on the inverse
    map (see _solve_upper) and m is recovered from it.  Points in the lower
    half plane are handled by conjugation symmetry.  Real z must lie outside
    the support of F, decided by the exact lsd_support intervals and the atom
    of F at 0 (when c > 1 or H has one); otherwise ValueError.  Such points
    are solved 1e-9 above the axis and then polished on it; z = 0 outside the
    support is a pole of mu and raises ValueError as well.  Raises
    ConvergenceError unless every point satisfies the inverse map to a
    backward error of 1e-10 relative to its terms and lies on the physical
    branch: Im mu > 0 off the real axis, d mu / dz > 0 on it.
    """
    c, t, w = model.c, model.H.values, model.H.weights
    zs = np.asarray(zs, dtype=complex)
    flat = zs.ravel()
    lower = flat.imag < 0
    zq = np.where(lower, np.conj(flat), flat)
    real_mask = zq.imag == 0
    mu = _solve_upper(np.where(real_mask, zq + 1e-9j, zq), c, t, w)
    if np.any(real_mask):
        x = zq.real[real_mask]
        # F has an atom at 0 when c > 1 or H has one
        inside = (x == 0) & (c > 1 or np.any(t == 0))
        for a, b in lsd_support(model):
            inside |= (a <= x) & (x <= b)
        if np.any(inside):
            raise ValueError("real z lies inside the support of the spectral law")
        if np.any(x == 0):
            # outside the support, 0 is a pole of mu = -(1 - c)/z + c m(z)
            raise ValueError("the companion transform has a pole at z = 0")
        mu[real_mask] = _newton(mu[real_mask].real + 0j, zq[real_mask], c, t, w)
    terms = c * w * t / (1.0 + t * mu[:, None])
    resid = np.abs(zq + 1.0 / mu - np.sum(terms, axis=-1)) / (
        np.abs(zq) + np.abs(1.0 / mu) + np.sum(np.abs(terms), axis=-1)
    )
    m = _m_from_mu(mu, zq, t, w)
    if not np.max(resid) <= 1e-10:
        raise ConvergenceError(
            "Stieltjes solver did not converge", last_iterate=m, residual=float(np.max(resid))
        )
    mup = _mu_prime(mu, c, t, w)
    # the physical branch has Im mu > 0 above the real axis and mu increasing on it
    if np.any(np.where(real_mask, mup.real <= 0, mu.imag <= 0)):
        raise ConvergenceError("companion transform is off the physical branch", last_iterate=m)
    m = np.where(lower, np.conj(m), m)
    mu = np.where(lower, np.conj(mu), mu)
    mup = np.where(lower, np.conj(mup), mup)
    return m.reshape(zs.shape), mu.reshape(zs.shape), mup.reshape(zs.shape)


def solve_stieltjes(model, z):
    """Solve the Marchenko-Pastur equation at a single complex point z."""
    z = complex(z)
    if not np.isfinite(z.real) or not np.isfinite(z.imag):
        raise ValueError("z must be finite")
    m, mu, mup = solve_stieltjes_grid(model, np.array([z]))
    return StieltjesPair(m=complex(m[0]), m_under=complex(mu[0]), m_under_prime=complex(mup[0]))


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


def _x(y, c, t, w):
    """The inverse map x(y) = y (1 + c sum w t / (y - t)) at real or complex y."""
    return y * (1.0 + c * np.sum(w * t / (np.asarray(y)[..., None] - t), axis=-1))


def _dx(y, c, t, w):
    """x'(y) = 1 - c sum w t^2 / (y - t)^2 at real or complex y."""
    return 1.0 - c * np.sum(w * t**2 / (np.asarray(y)[..., None] - t) ** 2, axis=-1)


def _outer_critical_roots(c, t, w):
    """The roots of x' in (-inf, t_1) and (t_K, inf) for the nonzero atoms t of H.

    x increases up to the left one and from the right one on; each lies within
    sqrt(c alpha_2) of its pole, since |x' - 1| <= 1/4 at twice that distance.
    """
    reach = 2.0 * np.sqrt(c * np.sum(w * t**2))
    return (
        brentq(_dx, t[0] - reach, np.nextafter(t[0], -np.inf), args=(c, t, w)),
        brentq(_dx, np.nextafter(t[-1], np.inf), t[-1] + reach, args=(c, t, w)),
    )


def lsd_support(model):
    """Support intervals of the continuous part of F, exact from the inverse map.

    In y = -1/mu the inverse map reads x(y) = y (1 + c sum w t / (y - t)),
    with poles at the nonzero atoms t_1 < ... < t_K of H.  The support edges
    are the values of x at the real roots of x'(y) = 1 - c sum w t^2 / (y - t)^2
    (Silverstein and Choi 1995).  Each outer interval (-inf, t_1) and
    (t_K, inf) holds exactly one root (_outer_critical_roots).
    Between adjacent poles x' is concave, so the gap holds two roots, one on
    each side of the root of x'', when x' is positive there, and none
    otherwise.
    """
    c = model.c
    keep = model.H.values > 0
    t, w = model.H.values[keep], model.H.weights[keep]
    if t.size == 0:
        return []  # H = delta_0: F = delta_0 has no continuous part

    def d2x(y):
        return np.sum(w * t**2 / (y - t) ** 3)

    atoms = (c, t, w)
    roots = list(_outer_critical_roots(*atoms))
    for a, b in zip(t[:-1], t[1:]):
        # nextafter, not a + (b - a) * tiny, which rounds to a for near-equal atoms
        lo, hi = np.nextafter(a, b), np.nextafter(b, a)
        # x'' changes sign inside (lo, hi) unless the atoms sit a few ulps apart
        if lo < hi and d2x(lo) > 0.0 > d2x(hi):
            peak = brentq(d2x, lo, hi)
            if _dx(peak, *atoms) > 0.0:
                roots += [brentq(_dx, lo, peak, args=atoms), brentq(_dx, peak, hi, args=atoms)]
    edges = sorted(max(0.0, float(_x(y, *atoms))) for y in roots)  # x(root) ~ -1e-25 when c = 1
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


def _lagrange_moments(c, series, k_max):
    """beta_1..beta_k of F from phi(w) = 1 + c A(w): beta_k = [w^k] phi^(k+1) / (c (k+1)).

    series holds the coefficients 1, c alpha_1, ..., c alpha_k of phi.
    """
    series = series[: k_max + 1]
    power = series
    out = []
    for k in range(1, k_max + 1):
        power = np.convolve(power, series)[: k_max + 1]  # phi^(k+1)
        out.append(float(power[k]) / (c * (k + 1)))
    return out


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
    return _lagrange_moments(model.c, series, k_max)


def _population_moments(c, betas):
    """Moments alpha_1..alpha_k of H from the moments beta_1..beta_k of F.

    In beta_k = [w^k] phi^(k+1) / (c (k+1)) the coefficient of alpha_k is 1
    and the rest is a polynomial in alpha_1..alpha_{k-1}, so alpha follows
    order by order: with alpha_k set to 0 the series gives that polynomial.
    """
    series = np.zeros(len(betas) + 1)
    series[0] = 1.0
    for k, beta in enumerate(betas, start=1):
        series[k] = c * (beta - _lagrange_moments(c, series, k)[-1])
    return series[1:] / c
