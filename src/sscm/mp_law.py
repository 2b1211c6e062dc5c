"""Generalized Marchenko-Pastur law for a given aspect ratio and population spectrum.

The limiting spectral distribution F is characterized by its Stieltjes
transform m(z), the unique solution of

    m = int dH(t) / (t (1 - c - c z m) - z),        Im(z) > 0,

picked so that the companion transform  mu(z) = -(1-c)/z + c m(z)  has
positive imaginary part on the upper half plane.  The companion transform
is the Stieltjes transform of c F + (1-c) delta_0 and is the unique root
with Im mu > 0 of the inverse map

    z = -1/mu + c int t / (1 + t mu) dH(t)

(Silverstein and Bai 1995; Silverstein and Choi 1995).  In y = -1/mu it
reads z = x(y) = y (1 + c int t / (y - t) dH(t)), from which the support
edges, the moments, the CLT contour and the solver all work: Newton finds
the root with Im y > 0, continued down from a height above the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

_EPS = np.finfo(float).eps


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


def _newton(y, z, c, t, w, tol=1e-13):
    """Newton on x(y) = z, stopping each point on its own.

    A point stops once its step is at most tol |y| or its residual
    |x(y) - z| is at rounding level, 4 eps (|z| + |y|).  Near a support
    edge x' is small, so rounding in x moves y by more than tol |y|, and
    only the residual stop ends the point.  A step that would take y below
    the real axis is halved until it does not.
    """
    y = np.array(y, dtype=complex)
    z_abs = np.abs(z)
    live = np.ones(y.shape, dtype=bool)
    for _ in range(60):
        x, dx = _x_dx(y, c, t, w)
        resid = x - z
        step = np.where(live, resid / dx, 0.0)
        for _ in range(60):
            out = (y - step).imag < 0
            if not out.any():
                break
            step = np.where(out, 0.5 * step, step)
        y -= step
        y_abs = np.abs(y)
        live &= (np.abs(step) > tol * y_abs) & (np.abs(resid) > 4 * _EPS * (z_abs + y_abs))
        if not live.any():
            break
    return y


def _solve_upper(z, c, t, w):
    """The root y of x(y) = z with Im y > 0 at each z with Im z > 0, by continuation in Im z.

    Above max(t) (1 + sqrt(c))^2 + |Re z| the point is far from the spectrum,
    so y is close to z there.  Newton starts from that height and walks it
    down to Im z by factors of 4, warm-started at each level.
    """
    target = z.imag
    v = np.maximum(target, t[-1] * (1.0 + np.sqrt(c)) ** 2 + np.abs(z.real))
    zc = z.real + 1j * v
    y = _newton(zc, zc, c, t, w)
    while np.any(v > target):
        act = v > target
        v[act] = np.maximum(v[act] / 4.0, target[act])
        y[act] = _newton(y[act], z.real[act] + 1j * v[act], c, t, w)
    return y


def _solve(model, z, inside):
    """The physical root y = -1/mu of x(y) = z at each z with Im z >= 0.

    Real z is solved 1e-9 above the axis and polished on it.  The caller
    says where its real z lie: all inside the open support intervals
    (inside=True), where the polish starts from that root and Newton's
    guard keeps Im y > 0, or all off the support, where it starts from the
    real part, since the root is real and real steps keep it so.
    Raises ConvergenceError unless every point satisfies the inverse map to
    a backward error of 1e-10 relative to its terms.
    """
    c, t, w = model.c, model.H.values, model.H.weights
    real = z.imag == 0
    y = _solve_upper(np.where(real, z + 1e-9j, z), c, t, w)
    if np.any(real):
        start = y[real] if inside else y[real].real + 0j
        y[real] = _newton(start, z[real], c, t, w)
    terms = c * w * t * y[:, None] / (y[:, None] - t)
    resid = np.max(np.abs(z - y - terms.sum(-1)) / (np.abs(z) + np.abs(y) + np.abs(terms).sum(-1)))
    if not resid <= 1e-10:
        raise ConvergenceError("Stieltjes solver did not converge", last_iterate=-1.0 / y, residual=resid)
    return y


def solve_stieltjes_grid(model, zs):
    """Vectorized transform evaluation; returns arrays (m, m_under, m_under_prime).

    From the root y of x(y) = z (see _solve) come mu = -1/y,
    mu' = 1/(y^2 x'(y)) and m = -(1/z) sum w y / (y - t); the lower half
    plane follows by conjugation.  Real z must lie outside the support of F
    (the lsd_support intervals, and the atom at 0 when c > 1 or H has one)
    and off the pole of mu at z = 0; otherwise ValueError.  Raises
    ConvergenceError as _solve does, or off the physical branch: Im mu > 0
    off the real axis, d mu / dz > 0 on it.
    """
    c, t, w = model.c, model.H.values, model.H.weights
    zs = np.asarray(zs, dtype=complex)
    flat = zs.ravel()
    lower = flat.imag < 0
    zq = np.where(lower, np.conj(flat), flat)
    real_mask = zq.imag == 0
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
    y = _solve(model, zq, False)
    mu = -1.0 / y
    mup = 1.0 / (y**2 * _x_dx(y, c, t, w)[1])
    m = -np.sum(w * y[:, None] / (y[:, None] - t), axis=-1) / zq
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


def lsd_density(model, x):
    """Continuous-part density of F at real x, exact from the inverse map.

    It is 0 off the open lsd_support intervals and Im(mu)/(pi c) inside
    them, with mu = -1/y at the root y of x(y) = x with Im y > 0 (see
    _solve).  On the real axis Im m = Im mu / c, so this holds for every c.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    inside = np.zeros(xs.shape, dtype=bool)
    for a, b in lsd_support(model):
        inside |= (a < xs) & (xs < b)
    dens = np.zeros(xs.shape)
    if np.any(inside):
        dens[inside] = (-1.0 / _solve(model, xs[inside] + 0j, True)).imag / (np.pi * model.c)
    return float(dens[0]) if np.ndim(x) == 0 else dens


def mass_at_zero(model):
    """Point mass of F at 0; positive only when c > 1."""
    return max(0.0, 1.0 - 1.0 / model.c)


def _x_dx(y, c, t, w):
    """The inverse map x(y) = y (1 + c sum w t / (y - t)) and x'(y) = 1 - c sum w t^2 / (y - t)^2.

    Both at real or complex y, from one pass over the atoms.
    """
    q = t / (np.asarray(y)[..., None] - t)
    return y * (1.0 + c * (q @ w)), 1.0 - c * ((q * q) @ w)


def _derivatives(y, c, t, w):
    """x'(y) = 1 - c sum w t^2 / (y - t)^2, x''(y) and x'''(y) at real y."""
    d = y - t
    q = (t / d) ** 2
    return 1.0 - c * (q @ w), 2.0 * c * ((q / d) @ w), -6.0 * c * ((q / d / d) @ w)


def _root(f, lo, hi):
    """The root of a monotone f that changes sign on [lo, hi]; f(y) returns f and f' at y.

    Newton from the midpoint, where the sign of f' says which way f runs,
    bisecting whenever a step leaves the bracket or fails to halve the step
    before the last (Brent 1973).  A step is at least 2 eps |y|, so once
    Newton has converged the next point lands across the root, or, where
    rounding blurs the sign of f, the one after.  It stops when the bracket
    is within 4 eps relative, or at f = 0, and not on the step: next to a
    pole of f the Newton step is tiny while the root is still far.
    """
    y = 0.5 * (lo + hi)
    v, d = f(y)
    rising, step, older = d > 0.0, hi - lo, hi - lo
    for _ in range(100):
        if v == 0.0:
            return y
        lo, hi = (lo, y) if (v > 0.0) == rising else (y, hi)
        if hi - lo <= 4.0 * _EPS * max(abs(lo), abs(hi)):
            break
        newton = np.copysign(max(abs(v / d), 2.0 * _EPS * abs(y)), v / d)
        ok = lo <= y - newton <= hi and 2.0 * abs(newton) <= abs(older)
        older, step = step, newton if ok else y - 0.5 * (lo + hi)
        y -= step
        v, d = f(y)
    return 0.5 * (lo + hi)


def _outer_critical_roots(c, t, w):
    """The roots of x' in (-inf, t_1) and (t_K, inf) for the nonzero atoms t of H.

    x increases up to the left one and from the right one on; each lies within
    sqrt(c alpha_2) of its pole, since |x' - 1| <= 1/4 at twice that distance.
    """
    reach = 2.0 * np.sqrt(c * np.sum(w * t**2))
    return (
        _root(lambda y: _derivatives(y, c, t, w)[:2], t[0] - reach, np.nextafter(t[0], -np.inf)),
        _root(lambda y: _derivatives(y, c, t, w)[:2], np.nextafter(t[-1], np.inf), t[-1] + reach),
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

    atoms = (c, t, w)
    roots = list(_outer_critical_roots(*atoms))
    for a, b in zip(t[:-1], t[1:]):
        # nextafter, not a + (b - a) * tiny, which rounds to a for near-equal atoms
        lo, hi = np.nextafter(a, b), np.nextafter(b, a)
        # x'' changes sign inside (lo, hi) unless the atoms sit a few ulps apart
        if lo < hi and _derivatives(lo, *atoms)[1] > 0.0 > _derivatives(hi, *atoms)[1]:
            peak = _root(lambda y: _derivatives(y, *atoms)[1:], lo, hi)
            if _derivatives(peak, *atoms)[0] > 0.0:
                roots += [_root(lambda y: _derivatives(y, *atoms)[:2], *ends) for ends in ((lo, peak), (peak, hi))]
    edges = sorted(max(0.0, float(_x_dx(y, *atoms)[0])) for y in roots)  # x(root) ~ -1e-25 when c = 1
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
