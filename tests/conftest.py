"""Shared test helpers."""

import warnings

import numpy as np
import pytest

# On a failing property test, hypothesis imports libcst to suggest a patch, and
# that import raises a DeprecationWarning, which this suite turns into an error
# that aborts the whole session.  Importing it once here, with the warning
# silenced, lets the failure be reported like any other.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from sscm.mp_law import lsd_density, lsd_support


def _density_moments(model, k_max, nodes=200):
    """Moments beta_1..beta_k of the continuous part of F by quadrature.

    Integrates x^k against lsd_density over each interval of lsd_support with
    Gauss-Legendre in theta after the edge map x = a + (b - a) sin^2(theta),
    which absorbs the square-root behaviour of the density at both edges.
    """
    theta, wq = np.polynomial.legendre.leggauss(nodes)
    theta = 0.25 * np.pi * (theta + 1.0)  # [0, pi/2]
    wq = wq * 0.25 * np.pi
    total = np.zeros(k_max)
    for a, b in lsd_support(model):
        x = a + (b - a) * np.sin(theta) ** 2
        mass = wq * (b - a) * np.sin(2 * theta) * lsd_density(model, x)
        total += [np.sum(mass * x**k) for k in range(1, k_max + 1)]
    return total


@pytest.fixture
def density_moments():
    """Reference moments of F that use no closed form: quadrature of the density."""
    return _density_moments
