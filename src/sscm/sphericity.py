"""Robust sphericity tests built on the sample SSCM spectrum."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .errors import NumericError, UnsupportedConfigError
from .sign_geometry import SscmMatrix


@dataclass(frozen=True)
class TestReport:
    test: str  # "frobenius" or "kl"
    statistic: float
    p_value: float
    raw: float
    kappa: float
    c_n: float
    r_w_used: float
    r_w_source: str

    def to_json(self):
        return json.dumps(asdict(self))


def _normal_sf(s):
    """P(Z > s) for a standard normal Z, to a few ulp also far in the upper tail.

    erfc avoids the cancellation of 1 - Phi(s).  For s > 0 the tail falls like
    exp(-x^2), x = s / sqrt 2, so rounding x alone would cost ~x^2 ulp (2e-13
    relative at s = 37); the exact s^2 / 2 - x^2 puts that rounding back.
    """
    x = s / math.sqrt(2.0)
    q = 0.5 * math.erfc(x)
    if not s > 0.0 or q == 0.0:  # also NaN, and beyond the subnormal range
        return q
    return q * math.exp(-float(Fraction(s) ** 2 / 2 - Fraction(x) ** 2))


def _unwrap(B):
    if isinstance(B, SscmMatrix):
        return B.matrix
    return np.asarray(B, dtype=float)


def frobenius_sphericity_test(B, n, r_w, r_w_source="supplied"):
    """Squared-Frobenius sphericity statistic, standard normal under the null.

    It is z_2 of the trace-power CLT (beta_moments_normal) at H = delta_1:
    (tr(B^2) - p beta_2 - mu_2) / sqrt(sigma_22) with c = p / n, beta_2 = 1 + c,
    mu_2 = c^2 (r_w^2 - 2 r_w + 2) - c, sigma_22 = 4 c^2 and kappa = 1 + mu_2 / c.
    Rejects two-sided: the centering can be undershot in finite samples.
    """
    if r_w < 1.0 - 1e-12:
        raise ValueError("r_w must be >= 1")
    M = _unwrap(B)
    p = M.shape[0]
    c_n = p / n
    mu2 = c_n**2 * (r_w**2 - 2.0 * r_w + 2.0) - c_n
    raw = float(np.sum(M * M))  # tr(B^2)
    stat = (raw - p * (1.0 + c_n) - mu2) / (2.0 * c_n)
    p_value = 2.0 * _normal_sf(abs(stat))
    return TestReport(
        test="frobenius",
        statistic=float(stat),
        p_value=float(p_value),
        raw=raw,
        kappa=float(1.0 + mu2 / c_n),
        c_n=c_n,
        r_w_used=float(r_w),
        r_w_source=r_w_source,
    )


def kl_sphericity_test(B, n, r_w, r_w_source="supplied"):
    """Likelihood-shaped (KL divergence) sphericity statistic; needs p < n.

    Rejects upper one-sided: the divergence grows under any alternative.
    """
    M = _unwrap(B)
    p = M.shape[0]
    if p >= n:
        raise UnsupportedConfigError("KL sphericity test requires p < n")
    c_n = p / n
    if c_n < 1e-3:
        raise NumericError("variance term degenerates for c_n below 1e-3")
    eigs = np.linalg.eigvalsh(M)
    if np.min(eigs) <= 1e-12:
        raise ValueError("B must be nonsingular for the KL statistic")
    kappa2 = (
        c_n * (r_w - 2.0)
        - np.log(1.0 - c_n)
        - np.log(1.0 + c_n * (r_w - 1.0))
    )
    raw = float(np.sum(eigs) - np.sum(np.log(eigs)))
    num = (
        raw
        - 2.0 * p
        + (p - n + 0.5) * np.log(1.0 - c_n)
        - kappa2
        + c_n
    )
    den = np.sqrt(-2.0 * np.log(1.0 - c_n) - 2.0 * c_n)
    stat = num / den
    p_value = _normal_sf(stat)
    return TestReport(
        test="kl",
        statistic=float(stat),
        p_value=float(p_value),
        raw=raw,
        kappa=float(kappa2),
        c_n=c_n,
        r_w_used=float(r_w),
        r_w_source=r_w_source,
    )
