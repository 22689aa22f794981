"""Acceptance gate: ten numbered criteria, one printed pass/fail line each.

Criteria 3, 7 and 8 compare computed factors against published reference
tables (two-grid analysis at h = 1/81 and measured Dirichlet runs).  Any
out-of-tolerance cell is printed explicitly, never hidden: a red criterion
with a faithful implementation beats a green one with a fudged comparison.

A published two-grid factor is a maximum over sampled low frequencies, and
the package defines two h = 1/81 lattices: the offset lattice
2 pi (k + 1/2) / 81 of ``two_grid_factor_table``, which avoids the axes, and
the periodic lattice 2 pi k / 81 of ``periodic_lattice_factor``, which
contains them.  Where the two-grid symbol has a direction-dependent limit at
theta -> 0 (the ``(r1, qbsr, nu=1)`` cell) the two maxima differ, so
criterion 3 checks each published cell against the interval they span.
"""

import math
import time
from fractions import Fraction

import numpy as np

from mac3mg import analytic, grid, multigrid, smoothers, symbols, twogrid
from mac3mg.multigrid import GridHierarchy, solve
from mac3mg.symbols import reference_params
from mac3mg.twogrid import TransferPair

MU = math.sqrt(17.0 / 47.0)

# published two-grid factors rho_h(nu), nu = 1..4, sampled at h = 1/81:
# transfer -> scheme -> row
REFERENCE_RHO_H = {
    "r1": {
        "qdr": (0.546, 0.222, 0.116, 0.087),
        "qbsr": (0.515, 0.245, 0.181, 0.098),
        "quzawa": (0.642, 0.377, 0.226, 0.165),
    },
    "r9": {
        "qdr": (0.419, 0.205, 0.157, 0.126),
        "qbsr": (0.361, 0.166, 0.097, 0.073),
        "quzawa": (0.601, 0.361, 0.217, 0.154),
    },
    "r9b": {
        "qdr": (0.431, 0.192, 0.144, 0.117),
        "qbsr": (0.361, 0.149, 0.091, 0.052),
        "quzawa": (0.601, 0.361, 0.217, 0.150),
    },
    "p25t": {
        "qdr": (0.387, 0.257, 0.197, 0.160),
        "qbsr": (0.361, 0.161, 0.123, 0.099),
        "quzawa": (0.601, 0.361, 0.240, 0.197),
    },
}

# published measured factors rho_m (Dirichlet, n = 81, seed protocol):
# scheme -> cycle -> row over nu = 1..4
REFERENCE_MEASURED = {
    "qibsr": {"two": (0.349, 0.163, 0.115, 0.090),
              "v": (0.350, 0.183, 0.129, 0.097)},
    "qdr": {"two": (0.525, 0.507, 0.443, 0.394),
            "v": (0.797, 0.715, 0.658, 0.615)},
    "quzawa": {"two": (0.745, 0.602, 0.480, 0.382),
               "v": (0.759, 0.632, 0.542, 0.442)},
}

_HIERARCHIES: dict = {}


def report(num: int, ok: bool, detail: str) -> str:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    return line


def best_time(fn, repeats: int = 30) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measured_rho(scheme: str, cycle: str, nu: int) -> float:
    if scheme not in _HIERARCHIES:
        _HIERARCHIES[scheme] = GridHierarchy(
            81, "dirichlet", reference_params(scheme, "measured"), TransferPair("p25t")
        )
    return solve(_HIERARCHIES[scheme], nu, 0, cycle=cycle, seed=0).rho_m


def test_criterion_01_closed_form_optima_exact_and_fast():
    results = {
        "scalar": analytic.optimal_scalar(),
        "qdr": analytic.optimal_qdr(),
        "qbsr": analytic.optimal_qbsr(),
        "quzawa": analytic.optimal_uzawa(),
    }
    ok = all(
        results[k].mu_rational == Fraction(17, 47) and results[k].ratio == Fraction(36, 47)
        for k in ("scalar", "qdr", "qbsr")
    )
    uz = results["quzawa"]
    ok = ok and uz.under_root and abs(uz.mu_opt - MU) < 1e-15
    ref = uz.reference
    ok = ok and ref == {"omega": Fraction(1), "alpha": Fraction(47, 36),
                        "sigma": Fraction(15, 32)}
    lo, hi = uz.omega_interval
    ok = ok and lo < 1.0 < hi
    runtime = max(best_time(fn) for fn in (analytic.optimal_scalar, analytic.optimal_qdr,
                                           analytic.optimal_qbsr, analytic.optimal_uzawa))
    ok = ok and runtime < 1e-3
    line = report(1, ok, f"exact rationals 17/47, 36/47, sqrt optimum; "
                         f"slowest call {runtime * 1e6:.0f} us")
    assert ok, line


def test_criterion_02_sampled_smoothing_factors_at_n81():
    gaps = {}
    gaps["qdr"] = abs(symbols.smoothing_factor(reference_params("qdr"), n=81) - 17.0 / 47.0)
    gaps["qbsr"] = abs(symbols.smoothing_factor(reference_params("qbsr"), n=81) - 17.0 / 47.0)
    gaps["quzawa"] = abs(symbols.smoothing_factor(reference_params("quzawa"), n=81) - MU)
    ok = gaps["qdr"] <= 1e-3 and gaps["qbsr"] <= 1e-3 and gaps["quzawa"] <= 2e-3
    line = report(2, ok, "sampled vs analytic gaps: "
                  + ", ".join(f"{k}={v:.2e}" for k, v in gaps.items()))
    assert ok, line


def test_criterion_03_two_grid_factor_tables():
    # all 48 cells within 0.01 of the interval spanned by the offset and the
    # periodic h = 1/81 lattices, and a reduced n = 27 smoke pass (both
    # lattices at h = 1/27) within 0.03
    failures = []
    for n, h, tol, label in ((81, 1.0 / 81.0, 0.01, "full"), (27, 1.0 / 27.0, 0.03, "smoke")):
        for transfer, rows in REFERENCE_RHO_H.items():
            pair = TransferPair(transfer)
            for scheme, published in rows.items():
                params = reference_params(scheme)
                table = twogrid.two_grid_factor_table(
                    params, pair, nus=(1, 2, 3, 4), n=n, h=h
                )
                for nu, want in zip((1, 2, 3, 4), published):
                    lattice = twogrid.periodic_lattice_factor(params, pair, nu, 0, n)
                    lo, hi = sorted((table[nu], lattice))
                    if not lo - tol <= want <= hi + tol:
                        diff = max(lo - want, want - hi)
                        failures.append(
                            f"{label} ({transfer},{scheme},nu={nu}): "
                            f"offset {table[nu]:.3f} periodic {lattice:.3f} "
                            f"want {want:.3f} (outside by {diff:.3f})"
                        )
    ok = not failures
    detail = "all 96 table cells in tolerance" if ok else "; ".join(failures)
    line = report(3, ok, detail)
    assert ok, line


def test_criterion_04_polynomial_extrema_scan():
    lo, hi, arg_lo, arg_hi = analytic.scan_g(2001)
    corner_hit = min(
        max(abs(arg_lo[0] - 1.0), abs(arg_lo[1] - 0.5)),
        max(abs(arg_lo[0] - 0.5), abs(arg_lo[1] - 1.0)),
    )
    ok = (abs(lo - 3.75) <= 1e-6 and abs(hi - 8.0) <= 1e-6
          and corner_hit < 1e-12 and max(abs(arg_hi[0]), abs(arg_hi[1])) < 1e-3)
    line = report(4, ok, f"scan min {lo:.8f} at {tuple(round(a, 4) for a in arg_lo)}, "
                         f"max {hi:.8f} at {tuple(round(a, 4) for a in arg_hi)}")
    assert ok, line


def test_criterion_05_periodic_matrix_equals_lattice_analysis():
    pair = TransferPair("p25t")
    gaps = {}
    for scheme in symbols.SCHEMES:
        params = reference_params(scheme)
        mat = multigrid.assemble_two_grid_matrix(9, params, pair, 1, 0)
        rho_mat = np.abs(np.linalg.eigvals(mat)).max()
        rho_lat = twogrid.periodic_lattice_factor(params, pair, 1, 0, 9)
        gaps[scheme] = abs(rho_mat - rho_lat)
    ok = all(v <= 1e-8 for v in gaps.values())
    line = report(5, ok, "assembled-cycle vs lattice gaps: "
                  + ", ".join(f"{k}={v:.2e}" for k, v in gaps.items()))
    assert ok, line


def test_criterion_06_per_mode_relaxation_consistency():
    n = 27
    rng = np.random.default_rng(2024)
    ks = [(k1, k2) for k1 in range(n) for k2 in range(n) if (k1, k2) != (0, 0)]
    worst = 0.0
    for scheme in symbols.SCHEMES:
        params = reference_params(scheme)
        sysm = grid.build_system(n, "periodic")
        sm = smoothers.Smoother(sysm, params)
        for idx in rng.choice(len(ks), size=20, replace=False):
            k1, k2 = ks[idx]
            theta = (2 * np.pi * k1 / n, 2 * np.pi * k2 / n)
            cols = []
            for coeffs in np.eye(3):
                st = grid.fourier_state(n, theta, coeffs.astype(complex))
                sm.sweep(st, sysm.residual(st, None))
                cols.append(grid.mode_coefficients(st, theta))
            got = np.stack(cols, axis=1)
            want = symbols.relax_error_symbol(params, np.array(theta), h=1.0 / n)
            worst = max(worst, float(np.abs(got - want).max()))
    ok = worst <= 1e-10
    line = report(6, ok, f"80 single-mode probes, worst symbol mismatch {worst:.2e}")
    assert ok, line


def test_criterion_07_measured_inexact_schur_tables():
    failures = []
    worst = 0.0
    for cycle in ("two", "v"):
        for nu, want in zip((1, 2, 3, 4), REFERENCE_MEASURED["qibsr"][cycle]):
            got = measured_rho("qibsr", cycle, nu)
            diff = abs(got - want)
            worst = max(worst, diff)
            if diff > 0.03:
                failures.append(f"({cycle},nu={nu}): got {got:.3f} want {want:.3f}")
    ok = not failures
    detail = (f"8 cells, worst gap {worst:.3f}" if ok
              else f"worst gap {worst:.3f}; " + "; ".join(failures))
    line = report(7, ok, detail)
    assert ok, line


def test_criterion_08_measured_distributive_and_uzawa_tables():
    failures = []
    worst = 0.0
    for scheme in ("qdr", "quzawa"):
        for cycle in ("two", "v"):
            for nu, want in zip((1, 2, 3, 4), REFERENCE_MEASURED[scheme][cycle]):
                got = measured_rho(scheme, cycle, nu)
                diff = abs(got - want)
                worst = max(worst, diff)
                if diff > 0.05:
                    failures.append(
                        f"({scheme},{cycle},nu={nu}): got {got:.3f} want {want:.3f} "
                        f"(diff {diff:.3f})"
                    )
    ok = not failures
    detail = (f"16 cells, worst gap {worst:.3f}" if ok
              else f"{len(failures)}/16 cells out of 0.05; " + "; ".join(failures))
    line = report(8, ok, detail)
    assert ok, line


def test_criterion_09_uzawa_parameter_curve_identities():
    alpha_ref, sigma_ref = 47.0 / 36.0, 15.0 / 32.0
    gap_ref = max(abs(analytic.uzawa_mu_c(1.0, alpha_ref, sigma_ref) - MU),
                  abs(analytic.uzawa_mu_r(1.0, alpha_ref, sigma_ref) - MU))
    lo, hi = analytic.uzawa_omega_interval()
    worst_formula = 0.0
    worst_mu = 0.0
    for w in np.linspace(lo + 1e-9, hi - 1e-9, 100):
        alpha, sigma = map(float, analytic.uzawa_params_from_omega(w))
        worst_formula = max(
            worst_formula,
            abs(alpha - 376.0 * w * w / (9.0 * (47.0 * w - 15.0))),
            abs(sigma - 15.0 / (47.0 * w - 15.0)),
        )
        worst_mu = max(worst_mu,
                       abs(analytic.uzawa_mu_c(w, alpha, sigma) - MU),
                       abs(analytic.uzawa_mu_r(w, alpha, sigma) - MU))
    ok = gap_ref <= 1e-12 and worst_formula <= 1e-12 and worst_mu <= 1e-12
    line = report(9, ok, f"mu_c = mu_r = sqrt(17/47) gap {gap_ref:.1e}; "
                         f"100-point curve: formula {worst_formula:.1e}, "
                         f"factor {worst_mu:.1e}")
    assert ok, line


def test_criterion_10_cost_ratio():
    # cycles to reach eps at factor 1/3, against a third of those at 17/47
    ratio = analytic.cost_ratio()
    spread = max(abs(math.log(eps, 1.0 / 3.0) / (math.log(eps, 17.0 / 47.0) / 3.0) - ratio)
                 for eps in (1e-2, 1e-3, 1e-6, 1e-9, 1e-12))
    ok = abs(ratio - 2.78) <= 0.01 and spread <= 1e-12
    line = report(10, ok, f"work ratio {ratio:.5f}, eps spread {spread:.1e}")
    assert ok, line
