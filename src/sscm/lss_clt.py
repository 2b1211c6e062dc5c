"""Gaussian approximation for linear spectral statistics of the sample SSCM.

Mean and covariance are contour integrals of closed-form kernels around the
limiting spectrum, taken in y = -1/mu, where the inverse map z = x(y) of the
MP law is explicit (Bai and Silverstein 2004): for trace powers exactly, as
residues at y = inf, and otherwise by the trapezoid rule on circles, which
converges geometrically (Trefethen and Weideman 2014).  The population side
is described by a ShapeContext: the mixing matrix, the sample size, the
fourth moment of the coordinates and the radial dispersion ratio, from which
it derives the population spectral distribution and the trace summaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from math import comb

import numpy as np
from scipy.optimize import brentq

from .errors import NumericError
from .mp_law import (
    DiscreteMeasure, SpectralModel, _outer_critical_roots, _x, _x_dx, lsd_moments, solve_stieltjes_grid,
)


@dataclass(frozen=True)
class ShapeContext:
    """Population-side inputs of the CLT for a given (p, n) design.

    The fields are the four inputs: the mixing matrix A, dense p x p or the
    1-d array of its diagonal, with T = A A' of trace p; the sample size n;
    tau = E z^4 of the coordinates; and the radial dispersion ratio r_w >= 1.
    Everything else follows from them: the population sign covariance sigma,
    the second-order expansion of T in tau (1-d when A is); H_p, the
    spectral distribution of sigma; c_n = p / n; and the kernels' summaries:
    trace_sigma2_over_p = tr(sigma^2) / p here, the Hadamard-trace terms in
    _HadamardOps.  sigma and H_p are derived when the context is built, so
    dataclasses.replace(ctx, tau=...) gives them at the new tau.  Raises
    ValueError unless A is finite, tr(A A') = p and r_w >= 1.
    """

    A: np.ndarray
    n: int
    tau: float
    r_w: float

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        p = A.shape[0]
        if not np.isfinite(A).all():
            raise ValueError("mixing matrix A must be finite")
        squares = A * A
        if abs(squares.sum() - p) > 1e-8 * p:
            raise ValueError("shape matrix A A' must have trace p")
        if self.r_w < 1.0 - 1e-12:
            raise ValueError("r_w must be >= 1")
        if A.ndim == 1:
            sigma = eigs = shape_to_sigma_eigs(squares, self.tau)
            merge_tol = 1e-10
        else:
            T = A @ A.T
            T2 = T @ T
            d = squares.sum(axis=0)  # diag(A'A)
            sigma = (
                T
                - (self.tau - 3.0) / p * ((A * d) @ A.T)
                - 2.0 / p * T2
                + ((self.tau - 3.0) / p**2 * np.sum(d**2) + 2.0 / p**2 * np.trace(T2)) * T
            )
            sigma = 0.5 * (sigma + sigma.T)
            eigs = np.linalg.eigvalsh(sigma)
            merge_tol = 1e-9
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "H_p", DiscreteMeasure.from_eigenvalues(eigs, merge_tol=merge_tol))

    @property
    def c_n(self):
        return self.A.shape[0] / self.n

    @property
    def diagonal(self):
        return self.A.ndim == 1

    @cached_property
    def trace_sigma2_over_p(self):
        return float(np.sum(self.sigma**2) / self.A.shape[0])

    @property
    def model(self):
        return SpectralModel(self.c_n, self.H_p)

    @cached_property
    def _hadamard(self):
        return _HadamardOps(self)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def isotropic(p, n, tau=3.0, r_w=1.0):
        """Identity shape matrix, so that sigma = I and H_p = delta_1."""
        return ShapeContext(np.ones(p), n, tau, r_w)

    @staticmethod
    def from_diagonal_shape(t_diag, n, tau=3.0, r_w=1.0):
        """Diagonal shape matrix T = diag(t_diag) of trace p; A = sqrt(t_diag), kept 1-d."""
        t = np.asarray(t_diag, dtype=float)
        if not np.all(t >= 0):
            raise ValueError("diagonal shape entries t_diag must be >= 0")
        return ShapeContext(np.sqrt(t), n, tau, r_w)

    @staticmethod
    def from_matrix(A, n, tau=3.0, r_w=1.0):
        """General mixing matrix A with T = A A' of trace p; a 1-d A is its diagonal."""
        return ShapeContext(A, n, tau, r_w)


def shape_to_sigma_eigs(t_eigs, tau):
    """Population sign-covariance eigenvalues from shape eigenvalues, diagonal case.

    Second-order expansion: sigma_i = t_i - (tau-1)/p (t_i^2 - alpha2 t_i)
    with alpha2 = mean(t^2); trace is preserved exactly.
    """
    t = np.asarray(t_eigs, dtype=float)
    p = t.size
    alpha2 = np.mean(t**2)
    return t - (tau - 1.0) / p * (t**2 - alpha2 * t)


@dataclass(frozen=True)
class NormalApprox:
    """Mean and covariance; a contour result also gives its nodes per circle
    and its quadrature self-check (both 0 for a closed form)."""

    mean: np.ndarray
    covariance: np.ndarray
    nodes: int = 0
    quad_error: float = 0.0

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        if np.min(np.linalg.eigvalsh(cov)) < -1e-8 * max(1.0, np.max(np.abs(cov))):
            raise ValueError("covariance must be positive semidefinite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)


# -- Hadamard-trace quantities ----------------------------------------------


class _HadamardOps:
    """h_p, g_p, their derivatives and zeta_p in the eigenbasis of sigma.

    With sigma = Q diag(lam) Q', B = Q'A with rows b_k and phi_k(u) =
    1/(lam_k - u): g_p(u, v) = phi(u)' M phi(v) with M_kl = (b_k . b_l)^2 / p,
    and h_p(u) = sum_k d_k phi_k(u) with d_k = b_k' A'A b_k / p, which is the
    row sum of M since A'A = B'B.  So zeta_p = tr(T^2) / p = sum_k d_k.  For
    diagonal A, Q = I and M = diag(A^4) / p.  Each eigenvector joins the atom
    of H_p nearest its eigenvalue, so lam = H_p.values and evaluations cost
    O(#atoms^2).
    """

    def __init__(self, ctx):
        A, p = ctx.A, ctx.A.shape[0]
        if ctx.diagonal:
            eigs = ctx.sigma
            M = np.diag(A**4 / p)
        else:
            eigs, Q = np.linalg.eigh(ctx.sigma)
            B = Q.T @ A
            M = (B @ B.T) ** 2 / p
        self.lam = ctx.H_p.values
        group = np.searchsorted(0.5 * (self.lam[1:] + self.lam[:-1]), eigs)
        S = (group == np.arange(self.lam.size)[:, None]).astype(float)
        self.M = S @ M @ S.T
        self.d = self.M.sum(axis=1)
        self.zeta_p = float(self.d.sum())

    def _phi(self, u):
        return 1.0 / (self.lam - np.asarray(u)[..., None])

    def h(self, u):
        return self._phi(u) @ self.d

    def h_prime(self, u):
        return self._phi(u) ** 2 @ self.d

    def g_d1_diag(self, u):
        """d/du g_p(u, v) at v = u."""
        phi = self._phi(u)
        return np.sum((phi**2 @ self.M) * phi, axis=-1)

    def g_d12(self, u, v):
        """Mixed partial d^2 g_p / du dv on the outer product of u and v."""
        return (self._phi(u) ** 2 @ self.M) @ (self._phi(v) ** 2).T


# -- kernels ---------------------------------------------------------------


def _kappa(mu, mup, z, r):
    zm = z * mu
    num = (mu + z * mup) * (1.0 + zm) * (zm * (r - 2.0) * (r - 1.0) - r)
    den = zm * (r + zm * (r - 1.0))
    return num / den


def _mu1(ctx, mu, mup, z):
    t = ctx.H_p.values
    w = ctx.H_p.weights
    c = ctx.c_n
    frac = 1.0 + t * mu[..., None]
    i1 = c * mup**2 / mu * np.sum(w * t**2 / frac**3, axis=-1)
    i2 = 2.0 * mup * (1.0 + z * mu) * np.sum(w * t**2 / frac**2, axis=-1)
    s2 = ctx.trace_sigma2_over_p
    i3a = np.sum(w * (s2 * t - t**2) / frac, axis=-1)
    i3b = 2.0 * c * mu * mup * np.sum(w * t / frac**2, axis=-1)
    return i1 - i2 + i3a * i3b


def _mu2(ctx, ops, mu, mup, z):
    t = ctx.H_p.values
    w = ctx.H_p.weights
    c = ctx.c_n
    u = -1.0 / mu
    int_t2 = np.sum(w * t / (1.0 + t * mu[..., None]) ** 2, axis=-1)
    one_zm = 1.0 + z * mu
    term1 = c * mup / mu**2 * ops.g_d1_diag(u)
    term2 = ops.zeta_p * one_zm * mup * int_t2
    term3 = one_zm * mup / mu**2 * ops.h_prime(u)
    term4 = c * mup * int_t2 * ops.h(u)
    return term1 + term2 - term3 - term4


def mean_kernel(ctx, z):
    """(kappa, mu1, mu2) of the CLT mean integrand at a single point z."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    _, mu, mup = solve_stieltjes_grid(ctx.model, z)
    kap = _kappa(mu, mup, z, ctx.r_w)
    m1 = _mu1(ctx, mu, mup, z)
    m2 = _mu2(ctx, ctx._hadamard, mu, mup, z)
    return complex(kap[0]), complex(m1[0]), complex(m2[0])


def _cov_kernels(ctx, ops, z1, mu1, mup1, z2, mu2, mup2):
    """(sigma1, sigma2) on the outer product of two node sets, in closed form.

    sigma1 is twice the mixed partial d^2/dz1 dz2 of
        log[(mu1 - mu2) / (mu1 mu2 (z1 - z2))]
        + (s2/c + 1/(c mu1) + 1/(c mu2)) (1 + z1 mu1)(1 + z2 mu2) - z1 mu1 - z2 mu2,
    sigma2 the mixed partial of
        c g_p(u1, u2) + (zeta/c)(1 + z1 mu1)(1 + z2 mu2)
        - (1 + z1 mu1) h_p(u2) - (1 + z2 mu2) h_p(u1),
    with u = -1/mu, so that d(1 + z mu)/dz = mu + z mu' and du/dz = mu'/mu^2.
    sigma2 is None when ops is None.
    """
    c = ctx.c_n
    e1 = (mu1 + z1 * mup1)[:, None]
    e2 = (mu2 + z2 * mup2)[None, :]
    s1 = (
        mup1[:, None] * mup2[None, :] / (mu1[:, None] - mu2[None, :]) ** 2
        - 1.0 / (z1[:, None] - z2[None, :]) ** 2
        + ctx.trace_sigma2_over_p / c * e1 * e2
        + (1.0 - mup1 / mu1**2)[:, None] * e2 / c
        + (1.0 - mup2 / mu2**2)[None, :] * e1 / c
    )
    if ops is None:
        return 2.0 * s1, None
    u1, up1 = -1.0 / mu1, mup1 / mu1**2
    u2, up2 = -1.0 / mu2, mup2 / mu2**2
    s2 = (
        c * up1[:, None] * up2[None, :] * ops.g_d12(u1, u2)
        + ops.zeta_p / c * e1 * e2
        - e1 * (up2 * ops.h_prime(u2))[None, :]
        - e2 * (up1 * ops.h_prime(u1))[:, None]
    )
    return 2.0 * s1, s2


def cov_kernel(ctx, z, z2):
    """(sigma1, sigma2) at a single pair of points; z must differ from z2."""
    if z == z2:
        raise ValueError("covariance kernel is singular at coinciding arguments")
    zs = np.array([z, z2], dtype=complex)
    _, mu, mup = solve_stieltjes_grid(ctx.model, zs)
    s1, s2 = _cov_kernels(ctx, ctx._hadamard, zs[:1], mu[:1], mup[:1], zs[1:], mu[1:], mup[1:])
    return complex(s1[0, 0]), complex(s2[0, 0])


RING_NODES = 128


def _ring(ctx, scales):
    """Trapezoid rule on concentric circles in y = -1/mu around the limiting spectrum.

    At scale 1 the circle crosses the real axis at the preimages, on the
    outer increasing branches of x(y), of sl - (sr - sl)/4 and
    sr + (sr - sl)/4, where [sl, sr] = [t_1 (1 - sqrt c)^2, t_K (1 + sqrt c)^2]
    (sl = 0 when c >= 1) brackets the spectrum; off [t_1, t_K],
    x(y) - y - c alpha_1 has the sign of y - t_1, which brackets both.
    The mean kernel's pole at the y* > t_K with c sum w t / (y* - t) =
    1/(r_w - 1) has y* - t_K <= c alpha_1 (r_w - 1), so a right crossing of
    at least t_K + 2 c alpha_1 (r_w - 1) lies at least y* - t_K beyond it.
    Per radius factor in `scales`, returns z = x(y), the weights x'(y) dy of
    dz, mu = -1/y and mu' = 1/(y^2 x'(y)) at nodes half a step off the real
    axis, counter-clockwise.  On the physical sheet Im z and Im y share their
    sign; a node where they do not raises NumericError.
    """
    c, values = ctx.c_n, ctx.H_p.values
    atoms = (c, values[values > 0], ctx.H_p.weights[values > 0])
    sl = values[0] * (1.0 - np.sqrt(c)) ** 2 if c < 1 else 0.0
    sr = values[-1] * (1.0 + np.sqrt(c)) ** 2
    z_lo, z_hi, shift = sl - 0.25 * (sr - sl), sr + 0.25 * (sr - sl), c * ctx.H_p.moment(1)
    lo, hi = _outer_critical_roots(*atoms)
    lo = brentq(lambda y: _x(y, *atoms) - z_lo, z_lo - shift, lo)
    hi = brentq(lambda y: _x(y, *atoms) - z_hi, hi, z_hi - shift)
    hi = max(hi, values[-1] + 2.0 * shift * (ctx.r_w - 1.0))
    e = np.exp(2j * np.pi * (np.arange(RING_NODES) + 0.5) / RING_NODES)
    out = []
    for scale in scales:
        step = 0.5 * scale * (hi - lo) * e
        y = 0.5 * (lo + hi) + step
        z, dx = _x_dx(y, *atoms)
        if np.any(z.imag * y.imag <= 0):
            raise NumericError("contour circle leaves the physical sheet of the inverse map")
        out.append((z, dx * step * (2j * np.pi / RING_NODES), -1.0 / y, 1.0 / (y**2 * dx)))
    return out


def _ring_integrals(ctx, fs, scale=1.0):
    """Mean vector, covariance matrix and self-check of the contour integrals.

    The outer circle is _ring's at `scale`, the inner one of the double
    integral the same at 0.9 times the radius.  The self-check is the
    largest difference from the rule on the even-indexed nodes of both
    circles, relative to max(1, largest entry), over mean and covariance.
    """
    (z1, dz1, mu1, mup1), (z2, dz2, mu2, mup2) = _ring(ctx, (scale, 0.9 * scale))
    ops = ctx._hadamard if ctx.tau != 3.0 else None
    kern = _kappa(mu1, mup1, z1, ctx.r_w) + _mu1(ctx, mu1, mup1, z1)
    sigma1, sigma2 = _cov_kernels(ctx, ops, z1, mu1, mup1, z2, mu2, mup2)
    if ops is not None:
        kern = kern + (ctx.tau - 3.0) * _mu2(ctx, ops, mu1, mup1, z1)
        sigma1 += (ctx.tau - 3.0) * sigma2
    f1 = np.array([np.broadcast_to(f(z1), z1.shape) for f in fs]) * dz1
    f2 = np.array([np.broadcast_to(f(z2), z2.shape) for f in fs]) * dz2
    mean = -(f1 @ kern) / (2.0j * np.pi)
    cov = -(f1 @ sigma1 @ f2.T) / (4.0 * np.pi**2)
    # the rule on every other node has twice the weights
    mean_half = -2.0 * (f1[:, ::2] @ kern[::2]) / (2.0j * np.pi)
    cov_half = -4.0 * (f1[:, ::2] @ sigma1[::2, ::2] @ f2[:, ::2].T) / (4.0 * np.pi**2)
    err = max(
        np.max(np.abs(mean - mean_half)) / max(1.0, np.max(np.abs(mean))),
        np.max(np.abs(cov - cov_half)) / max(1.0, np.max(np.abs(cov))),
    )
    return mean, cov, float(err)


def lss_normal_approx(ctx, fs):
    """Mean vector and covariance matrix of the Gaussian approximation.

    fs are callables, evaluated on arrays of complex z and analytic on a
    neighborhood of the limiting spectrum.  The contour integrals use the
    trapezoid rule with RING_NODES nodes on each of two circles in y = -1/mu
    (see _ring_integrals); the result reports the node count and the
    self-check against every other node.  Raises NumericError when that
    self-check exceeds 1e-9 or an imaginary part exceeds 1e-6 relative to
    max(1, largest entry).
    """
    mean, cov, err = _ring_integrals(ctx, list(fs))
    if err > 1e-9:
        raise NumericError("contour quadrature has not converged", estimates=(mean, cov))
    if any(np.max(np.abs(v.imag)) > 1e-6 * max(1.0, np.max(np.abs(v))) for v in (mean, cov)):
        raise NumericError("contour integrals have non-negligible imaginary part",
                           estimates=(mean, cov))
    cov = cov.real
    cov = 0.5 * (cov + cov.T)
    return NormalApprox(mean=mean.real, covariance=cov, nodes=RING_NODES, quad_error=err)


# -- trace powers: the contour integrals as residues at y = infinity -------


def beta_centering(ctx):
    """Centering terms (beta_2, beta_3) for the trace-power statistics."""
    return tuple(lsd_moments(ctx.model, 3)[1:])


def beta_moments_normal(ctx, powers=(2, 3)):
    """Normal approximation of tr(B^k) - p beta_k for each k >= 0 in `powers`, exactly.

    These are lss_normal_approx's integrals for f = x^k, in its convention
    (H_p, sigma and the Hadamard terms come from A itself), at any A, tau and
    r_w.  In y = -1/mu the integrands are rational with every pole inside the
    contour, so each is a residue at y = inf (Bai and Silverstein 2004), read
    off power series in w = 1/y: z = phi(w)/w with phi = 1 + c sum_j alpha_j w^j,
    x'(y) = phi - w phi', mu = -w and mu' = w^2/x', so x^k dz = w^-k phi^k x' dy.
    1/(y1 - y2)^2 is expanded in y2/y1, and 1/(z1 - z2)^2 adds nothing.
    Products are truncated np.convolve and quotients forward substitution.
    """
    powers = list(powers)
    if min(powers) < 0:
        raise ValueError("trace powers must be nonnegative")
    K, N = max(powers), 2 * max(powers) + 2  # series hold w^0 .. w^(N-1)
    c, r, s2, dtau = ctx.c_n, ctx.r_w, ctx.trace_sigma2_over_p, ctx.tau - 3.0
    j = np.arange(N)
    W = np.eye(N)  # W[m] is the series w^m

    def mul(*factors):
        return reduce(lambda a, b: np.convolve(a, b)[:N], factors)

    def div(a, b):  # order by order: a pivoting solve loses digits when b grows fast
        q = np.zeros(N)
        for m in range(N):
            q[m] = (a[m] - b[m:0:-1] @ q[:m]) / b[0]
        return q

    def S(a, b):  # sum_k w_k t_k^a / (1 - t_k w)^b
        return np.array([comb(m + b - 1, m) for m in j]) * alpha[a:a + N]

    alpha = ctx.H_p.weights @ ctx.H_p.values[:, None] ** np.arange(N + 2)
    phi = np.r_[1.0, c * alpha[1:N]]
    dphi = (j + 1) * c * alpha[1:N + 1]
    xp, one_phi = (1 - j) * phi, W[0] - phi
    P = [mul(W[0], *[phi] * k) for k in powers]
    # F @ g = [w^(k+1)](phi^k g), the residue of x^k against g, for each k
    F = np.array([np.r_[Pk[k + 1::-1], np.zeros(N - k - 2)] for k, Pk in zip(powers, P)])
    kern = (  # x' (kappa + mu1)
        div(mul(W[2], dphi, one_phi, -(r - 2) * (r - 1) * phi - r * W[0]),
            -mul(phi, r * W[0] - (r - 1) * phi))
        - c * div(mul(W[3], S(2, 3)), xp)
        - 2 * mul(W[2], one_phi, S(2, 2))
        - 2 * c * mul(W[3], S(1, 2), s2 * S(1, 1) - S(2, 1))
    )
    E, X = F @ mul(W[2], dphi), F @ (xp - W[0])
    # sum_j j [w^(a-j)] phi^a [w^(b+j)] phi^b, from 1/(y1 - y2)^2
    U = np.arange(1, K + 1) * F[:, 2:K + 2]
    V = np.array([Pk[k + 1:k + K + 1] for k, Pk in zip(powers, P)])
    cov = 2 * (U @ V.T + s2 / c * np.outer(E, E) + (np.outer(X, E) + np.outer(E, X)) / c)
    if dtau:
        ops = ctx._hadamard
        G1 = ops.lam[:, None] ** j  # rows 1/(1 - lam w): phi_k(y) = -w G1_k, phi_k(y)^2 = w^2 G2_k
        G2 = (j + 1) * G1
        h, hp = -mul(W[1], ops.d @ G1), mul(W[2], ops.d @ G2)
        g1 = -mul(W[3], np.bincount(np.add.outer(j, j).ravel(), (G2.T @ ops.M @ G1).ravel())[:N])
        kern += dtau * (  # x' mu2
            c * g1 + ops.zeta_p * mul(W[2], one_phi, S(1, 2))
            - mul(one_phi, hp) - c * mul(W[2], S(1, 2), h)
        )
        R, H = F[:, 2:] @ G2[:, :N - 2].T, F @ hp  # residues of w^2 G2_k and of h_p'
        cov += dtau * (c * R @ ops.M @ R.T + ops.zeta_p / c * np.outer(E, E)
                       - np.outer(E, H) - np.outer(H, E))
    return NormalApprox(mean=-F @ kern, covariance=0.5 * (cov + cov.T))
