"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest -v tests/test_acceptance.py -s` to see the lines as they
complete.  The Monte Carlo criteria are scaled for desk runtimes.
"""

import numpy as np
import pytest
from scipy.stats import kstest

from sscm.lss_clt import (
    ShapeContext,
    _ring_integrals,
    beta_moments_normal,
    lss_normal_approx,
    shape_to_sigma_eigs,
)
from sscm.mp_law import (
    DiscreteMeasure,
    SpectralModel,
    lsd_moments_closed,
    solve_stieltjes_grid,
)
from sscm.shape_estimation import (
    estimate_shape,
    psi_normalize,
    sigma_to_shape_eigs,
    tyler_m_estimator,
)
from sscm.sign_geometry import spatial_median, spatial_signs, sscm
from sscm.simulation import (
    ModelSpec,
    generate_sample,
    run_qq_experiment,
)
from sscm.sphericity import frobenius_sphericity_test, kl_sphericity_test


def _report(name, ok, detail):
    print(f"\n{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def test_a1_mp_oracle_equivalence():
    """A1: solver matches the closed-form quadratic root for H = delta_1."""
    H = DiscreteMeasure.point_mass(1.0)
    worst = 0.0
    re = np.linspace(-1.0, 6.0, 20)
    im = np.linspace(-2.0, 2.0, 20)
    im = np.where(np.abs(im) < 0.05, 0.05, im)  # keep off the real axis
    zr, zi = np.meshgrid(re, im)
    zs = zr + 1j * zi
    for c in (0.25, 0.5, 1.0, 2.0):
        m, _, _ = solve_stieltjes_grid(SpectralModel(c, H), zs)
        for z, mv in zip(zs.ravel(), m.ravel()):
            roots = np.roots([c * z, z + c - 1.0, 1.0])
            root = roots[np.argmax(roots.imag * np.sign(z.imag))]
            worst = max(worst, abs(mv - root))
    _report("A1", worst < 1e-8, f"max |m - quadratic root| = {worst:.2e} (< 1e-8)")


def test_a2_moment_identities(density_moments):
    """A2: closed-form beta_2/beta_3 identities and quadrature agreement."""
    rng = np.random.default_rng(20)
    worst_closed, worst_quad = 0.0, 0.0
    for _ in range(10):
        c = float(rng.uniform(0.1, 2.0))
        vals = np.sort(rng.uniform(0.2, 3.0, size=3))
        w = rng.dirichlet(np.ones(3))
        H = DiscreteMeasure.from_eigenvalues(vals, w)
        model = SpectralModel(c, H)
        a = [H.moment(k) for k in (1, 2, 3)]
        beta = lsd_moments_closed(model, 3)
        worst_closed = max(
            worst_closed,
            abs(beta[1] - (a[1] + c * a[0] ** 2)),
            abs(beta[2] - (a[2] + 3 * c * a[0] * a[1] + c**2 * a[0] ** 3)),
        )
        quad = density_moments(model, 3)
        worst_quad = max(
            worst_quad,
            max(abs(q - b) / max(1.0, abs(b)) for q, b in zip(quad, beta)),
        )
    ok = worst_closed < 1e-10 and worst_quad < 1e-4
    _report(
        "A2", ok,
        f"identity error {worst_closed:.1e} (exact), quadrature error {worst_quad:.1e} (< 1e-4)",
    )


def _qq_check(model_id, p, n, reps=2000):
    spec = ModelSpec(model_id, p=p, n=n, seed=314)
    rows = np.array(run_qq_experiment(spec, reps))
    out = {}
    for j, name in ((3, "z2"), (4, "z3")):
        z = rows[:, j]
        se = z.std(ddof=1) / np.sqrt(len(z))
        ks = kstest(z, "norm", args=(z.mean(), z.std(ddof=1))).pvalue
        out[name] = (z.mean(), se, z.var(ddof=1), ks)
    return out


def test_a3_clt_qq_reproduction():
    """A3: normalized trace-power statistics are standard normal at desk scale."""
    details = []
    ok = True
    for model_id, p, n in (("M1", 200, 100), ("M3", 200, 200)):
        res = _qq_check(model_id, p, n)
        for name, (mean, se, var, ks) in res.items():
            good = abs(mean) <= 3 * se and 0.85 <= var <= 1.15 and ks > 0.01
            ok = ok and good
            details.append(
                f"{model_id}/{name}: mean {mean:+.3f} (3SE {3*se:.3f}), var {var:.3f}, KS p {ks:.3f}"
            )
    _report("A3", ok, "; ".join(details))


def test_a4_contour_appendix_agreement():
    """A4: contour integrals match the closed-form normal approximation."""
    worst = 0.0
    t3 = np.concatenate([np.full(100, 0.5), np.full(100, 1.5)])
    contexts = [
        ShapeContext.isotropic(200, 100, tau=9.0, r_w=1.0),
        ShapeContext.from_diagonal_shape(t3, 200, tau=4.2, r_w=1.2),
    ]
    fs = [lambda x: x**2, lambda x: x**3]
    for ctx in contexts:
        approx = lss_normal_approx(ctx, fs)
        closed = beta_moments_normal(ctx)
        worst = max(
            worst,
            np.max(np.abs(approx.mean - closed.mean) / np.maximum(1.0, np.abs(closed.mean))),
            np.max(np.abs(approx.covariance - closed.covariance) / np.abs(closed.covariance)),
        )
    _report("A4", worst < 1e-11, f"max relative mismatch {worst:.2e} (< 1e-11)")


def _size_frobenius(p, n, reps, rng, weights=None, r_w=1.0):
    rejections = 0
    for _ in range(reps):
        X = rng.standard_normal((n, p))
        if weights is not None:
            X = weights[rng.integers(0, len(weights), size=n), None] * X
        B = sscm(X)
        if frobenius_sphericity_test(B, n, r_w).p_value < 0.05:
            rejections += 1
    return rejections / reps


def test_a5_sphericity_size_and_power():
    """A5: empirical size within [3.5%, 6.5%] and power margin >= 40 points."""
    rng = np.random.default_rng(99)
    size_a = _size_frobenius(100, 50, 2000, rng)
    size_b = _size_frobenius(
        200, 100, 2000, rng, weights=np.array([1.0, 0.2]), r_w=13.0 / 9.0
    )
    kl_rej = 0
    for _ in range(2000):
        X = rng.standard_normal((200, 50))
        if kl_sphericity_test(sscm(X), 200, 1.0).p_value < 0.05:
            kl_rej += 1
    size_kl = kl_rej / 2000
    # power at (100, 100) under the two-level shape
    t = np.concatenate([np.full(50, 0.5), np.full(50, 1.5)])
    null_rej = alt_rej = 0
    for _ in range(500):
        Z = rng.standard_normal((100, 100))
        if frobenius_sphericity_test(sscm(Z), 100, 1.0).p_value < 0.05:
            null_rej += 1
        Xa = Z * np.sqrt(t)
        if frobenius_sphericity_test(sscm(Xa), 100, 1.0).p_value < 0.05:
            alt_rej += 1
    power, size_at = alt_rej / 500, null_rej / 500
    sizes_ok = all(0.035 <= s <= 0.065 for s in (size_a, size_b, size_kl))
    power_ok = power - size_at >= 0.40
    _report(
        "A5", sizes_ok and power_ok,
        f"sizes: frob(100,50) {size_a:.3f}, frob(200,100,two-point w) {size_b:.3f}, "
        f"kl(50,200) {size_kl:.3f} (in [0.035, 0.065]); "
        f"power {power:.3f} vs size {size_at:.3f} (margin >= 0.40)",
    )


def test_a6_shape_estimator_ordering():
    """A6: spectral correction helps; robust corrected wins under contamination."""
    p, n, reps = 80, 100, 200
    t = np.concatenate([np.full(p // 2, 0.5), np.full(p // 2, 1.5)])
    T = np.diag(t)
    means = {}
    for eps in (0.0, 0.01):
        spec = ModelSpec("M4", p=p, n=n, epsilon=eps, seed=2718)
        sums = {k: 0.0 for k in range(1, 7)}
        for r in range(reps):
            X = generate_sample(spec, replicate=r).data
            for k in range(1, 7):
                sums[k] += estimate_shape(X, k, reference=T).frobenius_to[1]
        means[eps] = {k: v / reps for k, v in sums.items()}
    clean, cont = means[0.0], means[0.01]
    corrected_ok = all(clean[c] < clean[u] for u, c in ((1, 2), (3, 4), (5, 6)))
    robust_ok = all(
        cont[k] < cont[j] for k in (4, 6) for j in (1, 2, 3, 5) if j != k
    )
    # p = 160 > n: Tyler-based estimators unavailable, corrected SSCM runs
    spec_wide = ModelSpec("M4", p=160, n=100, epsilon=0.0, seed=1)
    X = generate_sample(spec_wide).data
    from sscm.errors import UnsupportedConfigError

    try:
        estimate_shape(X, 5)
        tyler_blocked = False
    except UnsupportedConfigError:
        tyler_blocked = True
    t4_runs = estimate_shape(X, 4).T_hat.shape == (160, 160)
    ok = corrected_ok and robust_ok and tyler_blocked and t4_runs
    fm = lambda d: ", ".join(f"T{k}={v:.2f}" for k, v in d.items())
    _report(
        "A6", ok,
        f"eps=0 [{fm(clean)}] corrected<uncorrected={corrected_ok}; "
        f"eps=0.01 [{fm(cont)}] T4/T6 best={robust_ok}; "
        f"p=160: Tyler blocked={tyler_blocked}, T4 runs={t4_runs}",
    )


def test_a7_property_suite():
    """A7: structural invariants of the estimators and integrals."""
    rng = np.random.default_rng(7)
    checks = {}

    X = rng.standard_normal((150, 12)) + 1.0
    res = spatial_median(X)
    checks["median residual < 1e-8"] = res.residual_norm < 1e-8

    # Weiszfeld iteration decreases the objective monotonically
    obj = lambda mu: np.sum(np.linalg.norm(X - mu, axis=1))
    mu = X.mean(axis=0)
    vals = [obj(mu)]
    for _ in range(40):
        d = np.linalg.norm(X - mu, axis=1)
        w = 1.0 / d
        mu = (w @ X) / w.sum()
        vals.append(obj(mu))
    checks["Weiszfeld monotone"] = all(
        b <= a * (1 + 1e-14) for a, b in zip(vals, vals[1:])
    )

    B = sscm(X).matrix
    checks["tr(B) = p to 1e-10"] = abs(np.trace(B) - 12) < 1e-10

    Q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    B_rot = sscm(X @ Q.T).matrix
    checks["orthogonal equivariance 1e-8"] = np.linalg.norm(B_rot - Q @ B @ Q.T) < 1e-8

    C = B @ B.T
    checks["psi idempotent"] = np.allclose(
        psi_normalize(psi_normalize(C)), psi_normalize(C), atol=1e-13
    )

    M, _ = tyler_m_estimator(X - X.mean(axis=0))
    M2, _ = tyler_m_estimator(5.5 * (X - X.mean(axis=0)))
    checks["Tyler trace = p"] = abs(np.trace(M) - 12) < 1e-9
    checks["Tyler scale invariant"] = np.linalg.norm(M - M2) < 1e-9

    ctx = ShapeContext.isotropic(200, 100, tau=9.0, r_w=1.0)
    fs = [lambda x: x**2, lambda x: x**3]
    base_mean, base_cov, _ = _ring_integrals(ctx, fs)
    wide_mean, wide_cov, _ = _ring_integrals(ctx, fs, scale=1.5)
    drift = max(
        np.max(np.abs(base_mean - wide_mean) / np.maximum(1, np.abs(base_mean))),
        np.max(np.abs(base_cov - wide_cov) / np.abs(base_cov)),
    )
    checks["contour radius x1.5 drift < 1e-5"] = drift < 1e-5

    t = rng.uniform(0.3, 2.0, size=400)
    t *= 400 / t.sum()
    back = sigma_to_shape_eigs(shape_to_sigma_eigs(t, 4.2), 4.2)
    checks["sigma/shape round trip 1e-12"] = (
        np.max(np.abs(np.sort(back) - np.sort(t))) < 1e-12
    )

    ok = all(checks.values())
    _report("A7", ok, "; ".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in checks.items()))


def test_a8_simulation_determinism(tmp_path):
    """A8: identical seeds give byte-identical CSV output."""
    from sscm.cli import main

    pairs = []
    for name, argv in (
        ("qq", ["simulate", "--model", "M1", "--reps", "5", "--seed", "42",
                "--p", "40", "--n", "80"]),
        ("benchmark", ["simulate", "--model", "M4", "--reps", "2", "--seed", "42",
                       "--epsilon", "0.01", "--p-grid", "40"]),
    ):
        outs = []
        for tag in ("x", "y"):
            path = tmp_path / f"{name}-{tag}.csv"
            code = main(argv + ["--output", str(path)])
            assert code == 0
            outs.append(path.read_bytes())
        pairs.append((name, outs[0] == outs[1]))
    ok = all(same for _, same in pairs)
    _report("A8", ok, "; ".join(f"{n}: {'identical' if s else 'DIFFER'}" for n, s in pairs))
