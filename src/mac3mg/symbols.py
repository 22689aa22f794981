"""Fourier symbols of the staggered Stokes operator and its relaxations.

Block symbols are complex matrices over the field ordering ``(u, v, p)``.
Frequency arguments are pairs or arrays of pairs ``(..., 2)``; every symbol
routine broadcasts, returning ``(..., 3, 3)``, so a whole sampling sweep is
one batch of array expressions.  A relaxation's symbol is formed step by step
as its sweep forms the correction, with no solve or inverse.

Frequencies live on the torus ``[-pi, pi)^2``.  Under coarsening by three a
frequency is low when both components lie in ``[-pi/3, pi/3)``; everything
else is high.  The difference stencils sit on half-step staggered offsets, so
their scalar symbols are evaluated at ``theta/2``; the resulting matrix
symbols are 2*pi-periodic only up to a per-field sign flip, which cancels in
every spectral quantity computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import stencils

SCHEMES = ("qdr", "qbsr", "qibsr", "quzawa")
LOW_EDGE = np.pi / 3.0
# memory grows as n^2: at n = 729 twogrid-lfa peaked at 499-603 MB, smooth-opt at 294-305 MB
MAX_RESOLUTION = 729
# self-coefficient of the mass-preconditioned Schur stencil: the lattice mean
# of ``aux(theta).m_r``, which tests/test_symbols.py checks
SCHUR_JACOBI_WEIGHT = 4.0 / 3.0


@dataclass(frozen=True)
class RelaxParams:
    """Relaxation scheme tag and its parameters.

    ``omega`` is the outer damping factor and ``alpha`` the mass scaling of
    the approximate momentum block.  ``sigma`` is required by ``quzawa`` and
    ``omega_j`` (the weight of the single Jacobi sweep on the approximate
    Schur complement) by ``qibsr``; either is range-checked wherever given.
    """

    scheme: str
    omega: float
    alpha: float
    sigma: float | None = None
    omega_j: float | None = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        for name in ("omega", "alpha", "sigma", "omega_j"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.omega < 0.0:
            raise ValueError("omega must be nonnegative")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.sigma is not None and self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.omega_j is not None and not 0.0 < self.omega_j < 2.0:
            raise ValueError(f"omega_j must lie in (0, 2), got {self.omega_j}")
        if self.scheme == "quzawa" and self.sigma is None:
            raise ValueError("quzawa requires sigma > 0")
        if self.scheme == "qibsr" and self.omega_j is None:
            raise ValueError("qibsr requires omega_j in (0, 2)")
        for name in ("alpha", "sigma"):
            value = getattr(self, name)
            if value and not np.isfinite(1.0 / float(value)):
                raise ValueError(f"{name} must have a finite reciprocal, got {value}")


def reference_params(scheme: str, purpose: str = "lfa") -> RelaxParams:
    """Parameter sets used for the published tables.

    ``purpose="lfa"`` returns the analytically optimal smoothing parameters;
    ``purpose="measured"`` returns the values used in the Dirichlet runs
    (damped distributive relaxation, inexact Schur sweep with weight 0.9).
    """
    if purpose not in ("lfa", "measured"):
        raise ValueError("purpose must be 'lfa' or 'measured'")
    if scheme == "qdr":
        if purpose == "measured":
            return RelaxParams("qdr", omega=0.7 * 36.0 / 47.0, alpha=0.7)
        return RelaxParams("qdr", omega=36.0 / 47.0, alpha=1.0)
    if scheme == "qbsr":
        return RelaxParams("qbsr", omega=36.0 / 47.0, alpha=1.0)
    if scheme == "qibsr":
        return RelaxParams("qibsr", omega=1.0, alpha=47.0 / 36.0, omega_j=0.9)
    if scheme == "quzawa":
        return RelaxParams("quzawa", omega=1.0, alpha=47.0 / 36.0, sigma=15.0 / 32.0)
    raise ValueError(f"unknown scheme {scheme!r}")


class AuxSymbols(NamedTuple):
    m: np.ndarray
    m_s: np.ndarray
    m_r: np.ndarray


def canonicalize(theta):
    """Wrap frequencies into ``[-pi, pi)^2`` componentwise; values already
    there are returned unrounded."""
    theta = np.asarray(theta, dtype=float)
    inside = (theta >= -np.pi) & (theta < np.pi)
    return np.where(inside, theta, (theta + np.pi) % (2.0 * np.pi) - np.pi)


def is_low(theta):
    """True where both components lie in ``[-pi/3, pi/3)``."""
    theta = canonicalize(theta)
    return np.logical_and(
        np.logical_and(theta[..., 0] >= -LOW_EDGE, theta[..., 0] < LOW_EDGE),
        np.logical_and(theta[..., 1] >= -LOW_EDGE, theta[..., 1] < LOW_EDGE),
    )


def check_resolution(n: int) -> None:
    """Sampling resolutions are multiples of 3 (the offset lattice is then
    closed under the 2 pi / 3 harmonic shifts) from 9 to ``MAX_RESOLUTION``."""
    if n < 9 or n % 3 != 0 or n > MAX_RESOLUTION:
        raise ValueError(f"resolution {n} is not a multiple of 3 in [9, {MAX_RESOLUTION}]")


def offset_units(n: int) -> np.ndarray:
    """The offset frequencies ``2 pi (k + 1/2) / n``, k = 0, ..., n - 1, in
    units of ``pi / n``: the odd integers ``2k + 1`` wrapped into ``[-n, n)``.

    In these units a frequency is low exactly when ``-n <= 3 j < n``, with no
    rounding at the ``+-pi/3`` edges.
    """
    check_resolution(n)
    return (2 * np.arange(n) + 1 + n) % (2 * n) - n


def _offset_lattice(n: int):
    """All ``n^2`` offset frequencies, shape (n*n, 2), and the mask of the low
    ones ``[-pi/3, pi/3)^2``, decided in integer units."""
    units = offset_units(n)
    j1, j2 = np.meshgrid(units, units, indexing="ij")
    j = np.stack([j1.ravel(), j2.ravel()], axis=-1)
    low = np.all((-n <= 3 * j) & (3 * j < n), axis=-1)
    return np.pi * j / n, low


def high_freq_samples(n: int) -> np.ndarray:
    """Offset sampling of the high-frequency region, shape (8 n^2 / 9, 2).

    The half-step offset keeps every sample away from the singular frequency
    ``theta = 0`` and from the exact resonances of the smoother symbols.
    """
    grid, low = _offset_lattice(n)
    return grid[~low]


def low_freq_samples(n: int) -> np.ndarray:
    """Offset sampling of the low-frequency region ``[-pi/3, pi/3)^2``,
    shape (n^2 / 9, 2)."""
    grid, low = _offset_lattice(n)
    return grid[low]


def aux(theta) -> AuxSymbols:
    """Scalar helper symbols (m, m_s, m_r).

    ``m = sin^2(t1/2) + sin^2(t2/2)`` drives the scalar Laplacian symbol
    ``4m/h^2``; ``m_s`` is the reciprocal dimensionless mass symbol (of
    ``stencils.MASS``) and ``m_r = 4m/m_s`` the mass-preconditioned Schur one.
    """
    theta = np.asarray(theta, dtype=float)
    m = np.sin(theta[..., 0] / 2.0) ** 2 + np.sin(theta[..., 1] / 2.0) ** 2
    q = stencils.symbol(stencils.MASS, theta)
    m_s = 1.0 / q
    return AuxSymbols(m=m, m_s=m_s, m_r=4.0 * m * q)


def _halves(theta):
    theta = np.asarray(theta, dtype=float)
    return np.sin(theta[..., 0] / 2.0), np.sin(theta[..., 1] / 2.0)


def stokes_symbol(theta, h: float) -> np.ndarray:
    """Block symbol of the MAC Stokes operator, shape ``(..., 3, 3)``.

    Diagonal momentum entries ``4m/h^2``, gradient column ``2i sin(t_k/2)/h``
    and its negative adjoint row; the (p, p) entry is zero.
    """
    theta = np.asarray(theta, dtype=float)
    s1, s2 = _halves(theta)
    m = s1**2 + s2**2
    out = np.zeros(theta.shape[:-1] + (3, 3), dtype=complex)
    out[..., 0, 0] = 4.0 * m / h**2
    out[..., 1, 1] = 4.0 * m / h**2
    out[..., 0, 2] = 2.0j * s1 / h
    out[..., 1, 2] = 2.0j * s2 / h
    out[..., 2, 0] = -2.0j * s1 / h
    out[..., 2, 1] = -2.0j * s2 / h
    return out


def _step_symbol(params: RelaxParams, theta, h: float) -> np.ndarray:
    """Correction map ``K`` of one sweep, ``delta = K r``, shape ``(..., 3, 3)``,
    formed step by step as ``Smoother.sweep`` forms it.

    ``Q`` is the mass ``q h^2``, ``grad`` the gradient column of
    ``stokes_symbol`` and ``B = -grad^T`` its divergence row.  ``qdr`` and
    ``quzawa`` take ``du = Q r_u / alpha`` and ``t = r_p - B du``; then
    ``quzawa`` takes ``dp = -sigma t``, and ``qdr`` takes ``dp' = Q t / alpha``
    with ``delta = (du + grad dp', -A_p dp')``.  ``qbsr`` and ``qibsr`` take
    ``dp = c (B Q r_u - alpha r_p)`` and ``du = Q (r_u - grad dp) / alpha``,
    where ``c`` is the exact Schur inverse ``1 / (4 m q)`` or the Jacobi weight
    ``omega_j / SCHUR_JACOBI_WEIGHT``.  Raises ``LinAlgError`` where a huge
    ``alpha`` takes ``Q / alpha`` below the normal range.
    """
    s1, s2 = _halves(theta)
    q = (stencils.symbol(stencils.MASS, theta) * h**2)[..., None]
    qa = q / params.alpha
    if np.any(qa < np.finfo(float).tiny):
        raise np.linalg.LinAlgError(f"mass step underflows for alpha = {params.alpha:g}")
    grad = np.stack([2.0j * s1 / h, 2.0j * s2 / h], axis=-1)
    r_u, r_p = np.eye(3)[:2], np.eye(3)[2]  # the maps r -> r_u and r -> r_p
    b_u = -grad @ r_u  # r -> B r_u
    if params.scheme in ("qdr", "quzawa"):
        du = qa[..., None] * r_u
        t = r_p - qa * b_u  # r_p - B du
        if params.scheme == "quzawa":
            dp = -params.sigma * t
        else:  # dp' = Q_p t / alpha, distributed as (du + grad dp', -A_p dp')
            dp = qa * t
            du = du + grad[..., None] * dp[..., None, :]
            dp = -(4.0 * (s1**2 + s2**2) / h**2)[..., None] * dp
    else:
        c = (1.0 / aux(theta).m_r[..., None] if params.scheme == "qbsr"
             else params.omega_j / SCHUR_JACOBI_WEIGHT)
        dp = c * (q * b_u - params.alpha * r_p)
        du = qa[..., None] * (r_u - grad[..., None] * dp[..., None, :])
    return np.concatenate([du, dp[..., None, :]], axis=-2)


def relax_error_symbol(params: RelaxParams, theta, h: float = 1.0) -> np.ndarray:
    """Error propagation symbol ``S = I - omega K L``, ``K`` the correction map
    of one sweep (``_step_symbol``).

    Raises ``numpy.linalg.LinAlgError`` where the step is not finite: where
    ``qbsr``'s exact Schur inverse is singular (only at frequencies congruent
    to zero; the offset samplers never hit those, callers probing arbitrary
    frequencies must guard themselves), or where a huge ``alpha`` underflows
    the mass step or a huge ``omega`` overflows the symbol.
    """
    theta = np.asarray(theta, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        step = _step_symbol(params, theta, h) @ stokes_symbol(theta, h)
    if not np.all(np.isfinite(step)):
        raise np.linalg.LinAlgError("relaxation step overflows")
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.eye(3) - params.omega * step
    if not np.all(np.isfinite(out)):
        raise np.linalg.LinAlgError(f"relaxation error symbol overflows for omega = "
                                    f"{params.omega:g}")
    return out


def smoothing_factor(params: RelaxParams, n: int) -> float:
    """Max spectral radius of the relaxation error symbol over ``high_freq_samples(n)``.

    ``qdr``'s distributed operator is block triangular with three equal
    diagonal symbols, so its ``S`` has one triple eigenvalue, of which
    ``eigvals`` keeps about half the digits: its radius is ``|trace S| / 3``.
    """
    s = relax_error_symbol(params, high_freq_samples(n))
    if params.scheme == "qdr":
        return float(np.abs(np.trace(s, axis1=-2, axis2=-1)).max() / 3.0)
    return float(np.abs(np.linalg.eigvals(s)).max())
