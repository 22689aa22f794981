"""Closed-form optimal parameters and smoothing factors for the relaxations.

Every optimum in this module reduces to exact rational data (17/47, 36/47,
47/36, 15/32, 135/376, ...).  Values are carried as ``fractions.Fraction``
and converted to floating point only at the boundary, so downstream tests can
assert exact equality instead of stacking tolerances.

The scalar story: damped mass-based relaxation on the velocity Laplacian has
the per-mode factor 1 - omega * Qt * At where the dimensionless product
Qt * At equals (2/9) * g(cos t1, cos t2) with

    g(x, y) = (2 - x - y) * (4 + 2x + 2y + x y).

Over high frequencies (coarsening by three) the product ranges over
[5/6, 16/9], and equioscillation at the two ends gives omega = 36/47 with
worst factor 17/47.  The distributive and exact block Schur variants inherit
the same optimum; the sigma-Uzawa variant squares it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

QA_MIN = Fraction(5, 6)
QA_MAX = Fraction(16, 9)
MU_OPT = Fraction(17, 47)
RATIO_OPT = Fraction(36, 47)

# High-frequency image of theta -> (cos t1, cos t2): union of two rectangles.
REGION_RECTS = (
    ((-1.0, 1.0), (-1.0, 0.5)),
    ((-1.0, 0.5), (0.5, 1.0)),
)


def g(x, y):
    """Dimensionless smoothing polynomial in x = cos(t1), y = cos(t2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (2.0 - x - y) * (4.0 + 2.0 * x + 2.0 * y + x * y)


def in_high_region(x, y):
    """Membership test for the high-frequency image region, the union of
    ``REGION_RECTS``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    inside = False
    for (x0, x1), (y0, y1) in REGION_RECTS:
        inside = inside | ((x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1))
    return inside


@dataclass(frozen=True)
class GExtrema:
    minimum: Fraction
    maximum: Fraction
    argmin: tuple
    argmax: tuple


def g_extrema() -> GExtrema:
    """Extrema of g over the high-frequency region.

    The minimum sits at the corner (1, 1/2) (and at the symmetric corner
    (1/2, 1)); the maximum at the interior saddle-adjacent boundary point
    (0, 0).  Scaled by 2/9 these give the bounds 5/6 and 16/9.
    """
    return GExtrema(
        minimum=Fraction(15, 4),
        maximum=Fraction(8),
        argmin=(Fraction(1), Fraction(1, 2)),
        argmax=(Fraction(0), Fraction(0)),
    )


def scan_g(resolution: int = 2001):
    """Brute-force extrema of g on a resolution^2 grid of each rectangle.

    Returns (min, max, argmin, argmax) found by the scan.  Used as the
    independent check of ``g_extrema``; both rectangle scans include their
    corners, so the analytic argpoints are sampled exactly.
    """
    best_min, best_max = np.inf, -np.inf
    arg_min, arg_max = None, None
    for (x0, x1), (y0, y1) in REGION_RECTS:
        xs = np.linspace(x0, x1, resolution)
        ys = np.linspace(y0, y1, resolution)
        vals = g(xs[:, None], ys[None, :])
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        if vals[i, j] < best_min:
            best_min, arg_min = vals[i, j], (xs[i], ys[j])
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        if vals[i, j] > best_max:
            best_max, arg_max = vals[i, j], (xs[i], ys[j])
    return best_min, best_max, arg_min, arg_max


@dataclass(frozen=True)
class OptimalResult:
    """Closed-form optimum for one relaxation scheme.

    ``mu_rational`` is the exact optimal smoothing factor, or its square when
    ``under_root`` is set (the sigma-Uzawa optimum is sqrt(17/47)).  ``ratio``
    is the omega/alpha relation at the optimum where one exists, and
    ``omega_interval`` the admissible outer-weight interval.  ``reference``
    holds one concrete parameter point achieving the optimum.
    """

    scheme: str
    mu_rational: Fraction
    reference: dict
    under_root: bool = False
    ratio: Fraction | None = None
    omega_interval: tuple | None = None

    def __post_init__(self):
        if not 0 < self.mu_opt < 1:
            raise ValueError("optimal smoothing factor must lie in (0, 1)")

    @property
    def mu_opt(self) -> float:
        val = float(self.mu_rational)
        return math.sqrt(val) if self.under_root else val


def optimal_scalar() -> OptimalResult:
    """Optimum of the damped scalar relaxation 1 - omega * Qt * At."""
    return OptimalResult(
        scheme="scalar",
        mu_rational=MU_OPT,
        ratio=RATIO_OPT,
        reference={"omega": RATIO_OPT, "alpha": Fraction(1)},
    )


def optimal_qdr() -> OptimalResult:
    """Distributive relaxation optimum: unique at omega/alpha = 36/47."""
    return OptimalResult(
        scheme="qdr",
        mu_rational=MU_OPT,
        ratio=RATIO_OPT,
        reference={"omega": RATIO_OPT, "alpha": Fraction(1)},
    )


def optimal_qbsr() -> OptimalResult:
    """Exact block Schur relaxation optimum.

    The optimum requires omega/alpha = 36/47 but tolerates any outer weight
    omega in [30/47, 64/47]; outside the interval the worst factor exceeds
    17/47.
    """
    return OptimalResult(
        scheme="qbsr",
        mu_rational=MU_OPT,
        ratio=RATIO_OPT,
        omega_interval=(Fraction(30, 47), Fraction(64, 47)),
        reference={"omega": RATIO_OPT, "alpha": Fraction(1)},
    )


@dataclass(frozen=True)
class UzawaSpectrum:
    """Eigenvalue data of the sigma-Uzawa preconditioned symbol.

    lam1 and lam2 solve the monic quadratic with sum m_r (1+sigma)/alpha and
    product m_r sigma/alpha; lam3 = m_r/alpha is always real.  They are
    complex exactly when m_r < m2 = 4 alpha sigma / (1+sigma)^2.
    """

    lam1: complex
    lam2: complex
    lam3: float
    discriminant: float
    m2: float


def uzawa_m2(alpha_u: float, sigma: float) -> float:
    return 4.0 * alpha_u * sigma / (1.0 + sigma) ** 2


def uzawa_spectrum(m_r: float, alpha_u: float, sigma: float) -> UzawaSpectrum:
    """Roots of the factored cubic (lam - lam3)(lam^2 - b lam + c).

    The quadratic is solved in the numerically stable order: the larger
    magnitude root from the formula, the other from the product, so nearly
    repeated roots near the discriminant zero stay accurate.
    """
    if alpha_u <= 0.0 or sigma <= 0.0:
        raise ValueError("alpha_u and sigma must be positive")
    if not 5.0 / 6.0 - 1e-12 <= m_r <= 16.0 / 9.0 + 1e-12:
        raise ValueError("m_r must lie in [5/6, 16/9]")
    m2 = uzawa_m2(alpha_u, sigma)
    b = m_r * (1.0 + sigma) / alpha_u
    c = m_r * sigma / alpha_u
    disc = m_r * (1.0 + sigma) ** 2 / alpha_u**2 * (m_r - m2)
    if disc >= 0.0:
        root = math.sqrt(disc)
        lam1 = 0.5 * (b + root) if b >= 0.0 else 0.5 * (b - root)
        lam2 = c / lam1 if lam1 != 0.0 else 0.5 * (b - root)
    else:
        root = math.sqrt(-disc)
        lam1 = complex(0.5 * b, 0.5 * root)
        lam2 = complex(0.5 * b, -0.5 * root)
    return UzawaSpectrum(lam1=lam1, lam2=lam2, lam3=m_r / alpha_u, discriminant=disc, m2=m2)


def uzawa_mu_c(omega_u: float, alpha_u: float, sigma: float) -> float:
    """Worst damping of the complex-pair eigenvalues over m_r in [5/6, min(m2, 16/9)].

    On the complex branch |1 - omega lam1| = |1 - omega lam2| = Psi(m_r) with
    Psi^2(m_r) = 1 + (omega/alpha)(omega sigma - sigma - 1) m_r, maximized at
    the left end m_r = 5/6.  Requires m2 >= 5/6 so the complex branch is
    nonempty.
    """
    if omega_u <= 0.0 or alpha_u <= 0.0 or sigma <= 0.0:
        raise ValueError("parameters must be positive")
    m2 = uzawa_m2(alpha_u, sigma)
    if m2 < 5.0 / 6.0 - 1e-12:
        raise ValueError("mu_c needs m2 >= 5/6 (otherwise all eigenvalues are real)")
    radicand = 1.0 + 5.0 * omega_u * (omega_u * sigma - sigma - 1.0) / (6.0 * alpha_u)
    return math.sqrt(max(radicand, 0.0))


def uzawa_mu_r(omega_u: float, alpha_u: float, sigma: float) -> float:
    """Worst damping of the real eigenvalue pair over m_r in [m2, 16/9].

    The two real roots scale chi_(+/-)(m_r) = (m_r/2)(1 +/- sqrt(1 - m2/m_r));
    chi_+ peaks and chi_- bottoms out at m_r = 16/9, giving the two-branch
    maximum keyed on a = (1+sigma) omega / alpha against 9/8.
    """
    if omega_u <= 0.0 or alpha_u <= 0.0 or sigma <= 0.0:
        raise ValueError("parameters must be positive")
    radicand = 1.0 - 9.0 * uzawa_m2(alpha_u, sigma) / 16.0
    if radicand < 0.0:
        raise ValueError(
            "m2 > 16/9: no real branch; the smoothing factor is governed by mu_c alone"
        )
    root = math.sqrt(radicand)
    chi1 = 8.0 / 9.0 * (1.0 + root)
    chi2 = 8.0 / 9.0 * (1.0 - root)
    a = (1.0 + sigma) * omega_u / alpha_u
    if a >= 9.0 / 8.0:
        return a * chi1 - 1.0
    return 1.0 - a * chi2


def uzawa_params_from_omega(omega_u):
    """Map the outer weight to the (alpha, sigma) pair on the optimal curve.

    alpha = 376 omega^2 / (9 (47 omega - 15)) and sigma = 15 / (47 omega - 15)
    enforce the two optimality conditions (1+sigma) omega / alpha = 9/8 and
    omega^2 sigma / alpha = 135/376 for every feasible omega.  The outputs
    are exact ``Fraction``s: an int, a Fraction or a float (its binary
    value) converts exactly.
    """
    w = Fraction(omega_u)
    den = 47 * w - 15
    if den <= 0:
        raise ValueError("omega_u must exceed 15/47")
    return 376 * w * w / (9 * den), Fraction(15) / den


def uzawa_omega_interval() -> tuple:
    """Feasible outer-weight interval for the sigma-Uzawa optimum.

    Feasibility additionally requires the real eigenvalue lam3 = m_r/alpha to
    stay inside the mu_opt band, which pins omega between
    225/(47 (16 mu - 1)) and 30/(47 (1 - mu)) with mu = sqrt(17/47).
    """
    mu = math.sqrt(17.0 / 47.0)
    return 225.0 / (47.0 * (16.0 * mu - 1.0)), 30.0 / (47.0 * (1.0 - mu))


def optimal_uzawa() -> OptimalResult:
    """Sigma-Uzawa optimum sqrt(17/47), achieved on a one-parameter family."""
    return OptimalResult(
        scheme="quzawa",
        mu_rational=MU_OPT,
        under_root=True,
        omega_interval=uzawa_omega_interval(),
        reference={
            "omega": Fraction(1),
            "alpha": Fraction(47, 36),
            "sigma": Fraction(15, 32),
        },
    )


def cost_ratio() -> float:
    """Work ratio of standard coarsening to coarsening by three.

    Iterations to reach any eps scale with log of eps in the respective
    convergence factors (1/3 versus 17/47) while the per-cycle work drops by
    the coarsening factor, so the ratio does not depend on eps:
    3 ln(17/47) / ln(1/3) which is about 2.78.
    """
    return 3.0 * math.log(17.0 / 47.0) / math.log(1.0 / 3.0)
