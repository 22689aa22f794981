"""Closed-form optima: exact rationals, eigenvalue algebra, cost model.

The closed forms are cross-checked against independent oracles: brute-force
scans of the polynomial g, Vieta / back-substitution identities for the cubic
spectrum, and sampled smoothing factors from the symbol machinery.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from mac3mg import analytic, symbols

MU = math.sqrt(17.0 / 47.0)


# -- the polynomial g and its extrema ------------------------------------


def test_g_closed_form_values():
    assert analytic.g(0.0, 0.0) == 8.0
    assert analytic.g(1.0, 0.5) == 3.75
    assert analytic.g(0.5, 1.0) == 3.75
    assert analytic.g(-1.0, -1.0) == 4.0


def test_exact_rational_constants():
    assert analytic.QA_MIN == Fraction(5, 6)
    assert analytic.QA_MAX == Fraction(16, 9)
    assert analytic.MU_OPT == Fraction(17, 47)
    assert analytic.RATIO_OPT == Fraction(36, 47)
    ext = analytic.g_extrema()
    assert ext.minimum == Fraction(15, 4)
    assert ext.maximum == Fraction(8)
    assert ext.argmin == (Fraction(1), Fraction(1, 2))
    assert ext.argmax == (Fraction(0), Fraction(0))
    # scaling 2/9 maps the g-extrema onto the symbol bounds
    assert Fraction(2, 9) * ext.minimum == analytic.QA_MIN
    assert Fraction(2, 9) * ext.maximum == analytic.QA_MAX


def test_scan_confirms_extrema():
    lo, hi, arg_lo, arg_hi = analytic.scan_g(2001)
    ext = analytic.g_extrema()
    assert abs(lo - float(ext.minimum)) < 1e-6
    assert abs(hi - float(ext.maximum)) < 1e-6
    # minimum corners are exact grid points; the scan must land on one of the
    # two symmetric corners
    assert min(
        max(abs(arg_lo[0] - 1.0), abs(arg_lo[1] - 0.5)),
        max(abs(arg_lo[0] - 0.5), abs(arg_lo[1] - 1.0)),
    ) < 1e-12
    assert max(abs(arg_hi[0]), abs(arg_hi[1])) < 1e-3


def test_g_range_over_random_region_points():
    rng = np.random.default_rng(21)
    pts = rng.uniform(-1.0, 1.0, (40000, 2))
    mask = analytic.in_high_region(pts[:, 0], pts[:, 1])
    vals = analytic.g(pts[mask, 0], pts[mask, 1])
    assert vals.min() >= 3.75 - 1e-12
    assert vals.max() <= 8.0 + 1e-12


def test_region_membership():
    assert analytic.in_high_region(0.0, 0.0)
    assert analytic.in_high_region(1.0, 0.5)
    assert analytic.in_high_region(-0.75, 0.75)
    assert analytic.in_high_region(0.75, -0.75)
    assert not analytic.in_high_region(0.75, 0.75)
    assert not analytic.in_high_region(1.0, 1.0)


def test_high_frequency_cosines_land_in_region():
    # cos cannot tell the high edge +pi/3 from the low edge -pi/3: the high
    # samples whose largest component is pi/3 land on the region's boundary
    # cos = 1/2, which rounding puts on either side
    n = 27
    t = symbols.high_freq_samples(n)
    c = np.cos(t)
    edge = np.rint(np.abs(t).max(axis=-1) * n / np.pi) == n // 3
    assert edge.sum() == 2 * n // 3 + 1
    assert np.all(analytic.in_high_region(c[~edge, 0], c[~edge, 1]))
    assert np.allclose(c[edge].min(axis=-1), 0.5, rtol=0.0, atol=1e-15)
    t = symbols.low_freq_samples(n)
    assert not np.any(analytic.in_high_region(np.cos(t[:, 0]), np.cos(t[:, 1])))


# -- scheme optima --------------------------------------------------------


def test_optimal_scalar_qdr_qbsr_share_the_rational_optimum():
    for res in (analytic.optimal_scalar(), analytic.optimal_qdr(), analytic.optimal_qbsr()):
        assert res.mu_rational == Fraction(17, 47)
        assert not res.under_root
        assert res.ratio == Fraction(36, 47)
        assert res.mu_opt == 17.0 / 47.0
        assert res.reference["omega"] == Fraction(36, 47)


def test_qbsr_omega_interval_exact():
    res = analytic.optimal_qbsr()
    assert res.omega_interval == (Fraction(30, 47), Fraction(64, 47))


def test_optimal_result_rejects_bad_factor():
    with pytest.raises(ValueError):
        analytic.OptimalResult(scheme="x", mu_rational=Fraction(3, 2), reference={})
    with pytest.raises(ValueError):
        analytic.OptimalResult(scheme="x", mu_rational=Fraction(0), reference={})


def test_optimal_uzawa_reference_point():
    res = analytic.optimal_uzawa()
    assert res.mu_rational == Fraction(17, 47)
    assert res.under_root
    assert abs(res.mu_opt - MU) < 1e-15
    ref = res.reference
    assert ref["omega"] == Fraction(1)
    assert ref["alpha"] == Fraction(47, 36)
    assert ref["sigma"] == Fraction(15, 32)


def test_equioscillation_of_the_scalar_factor():
    # omega = 36/47 balances |1 - omega 5/6| = |1 - omega 16/9| = 17/47 and no
    # other omega does better on the interval ends
    w = 36.0 / 47.0
    lo, hi = 5.0 / 6.0, 16.0 / 9.0
    assert abs(abs(1 - w * lo) - 17.0 / 47.0) < 1e-15
    assert abs(abs(1 - w * hi) - 17.0 / 47.0) < 1e-15
    for dw in (-0.05, -0.01, 0.01, 0.05):
        worse = max(abs(1 - (w + dw) * lo), abs(1 - (w + dw) * hi))
        assert worse > 17.0 / 47.0


# -- Uzawa spectrum -------------------------------------------------------


def test_uzawa_spectrum_vieta_and_backsubstitution():
    rng = np.random.default_rng(22)
    for _ in range(200):
        m_r = rng.uniform(5.0 / 6.0, 16.0 / 9.0)
        alpha = rng.uniform(0.3, 3.0)
        sigma = rng.uniform(0.05, 3.0)
        sp = analytic.uzawa_spectrum(m_r, alpha, sigma)
        b = m_r * (1.0 + sigma) / alpha
        c = m_r * sigma / alpha
        assert abs(sp.lam1 + sp.lam2 - b) < 1e-12 * max(1.0, abs(b))
        assert abs(sp.lam1 * sp.lam2 - c) < 1e-12 * max(1.0, abs(c))
        assert abs(sp.lam3 - m_r / alpha) < 1e-14
        for lam in (sp.lam1, sp.lam2):
            assert abs(lam * lam - b * lam + c) < 1e-11 * max(1.0, b * b)
        # complex exactly when m_r < m2
        m2 = analytic.uzawa_m2(alpha, sigma)
        assert sp.m2 == m2
        if m_r < m2 - 1e-10:
            assert abs(complex(sp.lam1).imag) > 0.0
            assert complex(sp.lam2) == complex(sp.lam1).conjugate()
        elif m_r > m2 + 1e-10:
            assert abs(complex(sp.lam1).imag) == 0.0


def test_uzawa_spectrum_near_double_root():
    # at m_r = m2 the discriminant vanishes; the roots collapse within the
    # O(sqrt(eps)) accuracy inherent to double roots in floating point
    alpha, sigma = 47.0 / 36.0, 15.0 / 32.0
    m2 = analytic.uzawa_m2(alpha, sigma)
    sp = analytic.uzawa_spectrum(m2, alpha, sigma)
    assert abs(sp.discriminant) < 1e-12
    half_sum = m2 * (1.0 + sigma) / (2.0 * alpha)
    assert abs(sp.lam1 - half_sum) < 1e-7
    assert abs(sp.lam2 - half_sum) < 1e-7


def test_uzawa_reference_double_root_value():
    # at the reference point the quadratic branch has the double root 30/47
    # exactly at m2 = 160/141, and |1 - lam| = 17/47
    alpha, sigma = 47.0 / 36.0, 15.0 / 32.0
    m2 = analytic.uzawa_m2(alpha, sigma)
    assert abs(m2 - 160.0 / 141.0) < 1e-14
    half_sum = m2 * (1.0 + sigma) / (2.0 * alpha)
    assert abs(half_sum - 30.0 / 47.0) < 1e-14
    assert abs(abs(1.0 - half_sum) - 17.0 / 47.0) < 1e-14


def test_uzawa_spectrum_domain_errors():
    with pytest.raises(ValueError):
        analytic.uzawa_spectrum(0.5, 1.0, 0.5)
    with pytest.raises(ValueError):
        analytic.uzawa_spectrum(2.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        analytic.uzawa_spectrum(1.0, -1.0, 0.5)
    with pytest.raises(ValueError):
        analytic.uzawa_spectrum(1.0, 1.0, 0.0)


def test_uzawa_mu_branches_at_reference():
    alpha, sigma = 47.0 / 36.0, 15.0 / 32.0
    assert abs(analytic.uzawa_mu_c(1.0, alpha, sigma) - MU) < 1e-12
    assert abs(analytic.uzawa_mu_r(1.0, alpha, sigma) - MU) < 1e-12


def test_uzawa_mu_error_paths():
    # complex branch empty: m2 < 5/6
    with pytest.raises(ValueError):
        analytic.uzawa_mu_c(1.0, 1.0, 0.1)
    # real branch empty: m2 > 16/9
    with pytest.raises(ValueError, match="mu_c"):
        analytic.uzawa_mu_r(1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        analytic.uzawa_mu_c(-1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        analytic.uzawa_mu_r(1.0, 0.0, 0.5)


def test_uzawa_params_from_omega_exact_at_one():
    alpha, sigma = analytic.uzawa_params_from_omega(1)
    assert alpha == Fraction(47, 36)
    assert sigma == Fraction(15, 32)
    with pytest.raises(ValueError):
        analytic.uzawa_params_from_omega(Fraction(15, 47))
    with pytest.raises(ValueError):
        analytic.uzawa_params_from_omega(0.2)


def test_uzawa_optimal_curve_identities_for_all_feasible_omegas():
    # the (alpha, sigma) curve satisfies both optimality conditions
    # identically and keeps the smoothing factor pinned at sqrt(17/47)
    lo, hi = analytic.uzawa_omega_interval()
    assert 0.55 < lo < 0.56
    assert 1.59 < hi < 1.61
    for w in np.linspace(lo + 1e-6, hi - 1e-6, 100):
        alpha, sigma = map(float, analytic.uzawa_params_from_omega(w))
        assert abs((1.0 + sigma) * w / alpha - 9.0 / 8.0) < 1e-12
        assert abs(w * w * sigma / alpha - 135.0 / 376.0) < 1e-12
        assert abs(analytic.uzawa_mu_c(w, alpha, sigma) - MU) < 1e-12
        assert abs(analytic.uzawa_mu_r(w, alpha, sigma) - MU) < 1e-12
        # the always-real eigenvalue lam3 stays inside the band on [5/6, 16/9]
        for m_r in (5.0 / 6.0, 16.0 / 9.0):
            lam3 = m_r / alpha
            assert abs(1.0 - w * lam3) <= MU + 1e-12


def test_uzawa_branch_tradeoff_is_monotone():
    # fix a = (1+sigma) omega / alpha = 9/8 with omega = 1 and sweep sigma:
    # the complex-branch factor rises, the real-branch factor falls, and the
    # two can only meet at the optimum sigma = 15/32
    sigmas = np.linspace(15.0 / 49.0 + 1e-3, 1.0, 60)
    mu_c_vals, mu_r_vals = [], []
    for sigma in sigmas:
        alpha = 8.0 * (1.0 + sigma) / 9.0
        mu_c_vals.append(analytic.uzawa_mu_c(1.0, alpha, sigma))
        mu_r_vals.append(analytic.uzawa_mu_r(1.0, alpha, sigma))
    mu_c_vals = np.array(mu_c_vals)
    mu_r_vals = np.array(mu_r_vals)
    assert np.all(np.diff(mu_c_vals) > -1e-12)
    assert np.all(np.diff(mu_r_vals) < 1e-12)
    assert np.all(np.maximum(mu_c_vals, mu_r_vals) >= MU - 1e-12)
    best = np.argmin(np.maximum(mu_c_vals, mu_r_vals))
    assert abs(sigmas[best] - 15.0 / 32.0) < 2 * (sigmas[1] - sigmas[0])


# -- cross-checks against the sampled smoothing factors -------------------


def test_sampled_smoothing_matches_closed_form():
    mu_plain = 17.0 / 47.0
    got = symbols.smoothing_factor(symbols.reference_params("qdr"), n=81)
    assert abs(got - mu_plain) < 1e-3
    got = symbols.smoothing_factor(symbols.reference_params("qbsr"), n=81)
    assert abs(got - mu_plain) < 1e-3
    got = symbols.smoothing_factor(symbols.reference_params("quzawa"), n=81)
    assert abs(got - MU) < 1e-3
    # refinement tightens the gap
    got = symbols.smoothing_factor(symbols.reference_params("quzawa"), n=243)
    assert abs(got - MU) < 5e-4


def test_qbsr_outer_weight_interval_via_sampling():
    # inside the admissible interval (ratio held at 36/47) the sampled factor
    # stays at the optimum; just outside it degrades
    for w in (30.0 / 47.0, 1.0, 64.0 / 47.0):
        p = symbols.RelaxParams("qbsr", omega=w, alpha=47.0 * w / 36.0)
        assert symbols.smoothing_factor(p, n=81) <= 17.0 / 47.0 + 2e-3
    w = 64.0 / 47.0 + 0.05
    p = symbols.RelaxParams("qbsr", omega=w, alpha=47.0 * w / 36.0)
    assert symbols.smoothing_factor(p, n=81) > 17.0 / 47.0 + 0.04


# -- cost model -----------------------------------------------------------


def test_cost_ratio_value():
    ratio = analytic.cost_ratio()
    assert abs(ratio - 2.78) < 0.01
    assert abs(ratio - 3.0 * math.log(17.0 / 47.0) / math.log(1.0 / 3.0)) < 1e-12
