"""Two-grid Fourier analysis for coarsening by three on staggered grids.

A low base frequency ``theta`` in ``[-pi/3, pi/3)^2`` couples with the eight
shifted harmonics ``theta + (2 pi / 3)(i, j)``, ``i, j in {-1, 0, 1}``; all
nine land in ``[-pi, pi)^2`` without rewrapping.  The two-grid error operator
acts on nine 3-field harmonic blocks, a 27x27 matrix per base frequency with
harmonic-major, field-minor ordering.

Because coarse unknowns coincide with every third staggered fine unknown, one
coarse Fourier mode restricted to the fine grid picks up a sign per harmonic
and field: ``(-1)^j`` for u, ``(-1)^i`` for v and ``(-1)^(i+j)`` for p.  The
transfer symbols consist of these signs times the scalar stencil symbol, with
the 1/9 aliasing factor attached to prolongation.  The coarse operator is the
direct rediscretization on the triple mesh, not a Galerkin product.

Every stencil and each low lattice is invariant under the eight sign flips
and axis swaps of the square (the swap exchanges u and v).  These maps are
symmetries of the discrete problem, so the two-grid spectral radius is the
same at all eight images of a base, and the factors are maxima over one wedge
``theta1 >= theta2 >= 0`` of each lattice.  The offset lattice's edge sample
``-pi/3`` enters the wedge as ``+pi/3``: both carry the same nine-harmonic
family because ``-pi/3 + 2 pi/3 = pi/3``, and the symbols are 2 pi periodic
up to per-field signs.

The factors are spectral radii of the real matrix ``D^-1 E D`` with
``D = diag(1, 1, i)`` per harmonic.  This is exact: gradient and divergence
entries are purely imaginary and the rest real, a pattern that survives
products, inverses and the coarse solve.  ``two_grid_symbol`` stays complex.

Each of ``grid.BANDS`` chunks of bases builds its symbols and powers on the
band pool (``grid.run_bands``); Gelfand's bound ``rho(E) <= ||E^256||_F^(1/256)``
leaves a second dispatch only the bases that may hold the maximum.  Each matrix
is computed on its own whatever its batch, so the factors are bit-identical.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import grid, stencils, symbols
from .symbols import RelaxParams

logger = logging.getLogger(__name__)

# lexicographic shift order; the base frequency sits at the (0, 0) slot
HARMONIC_SHIFTS = tuple((i, j) for i in (-1, 0, 1) for j in (-1, 0, 1))
BASE_INDEX = HARMONIC_SHIFTS.index((0, 0))

# per-field sign of the coinciding-point phase for each harmonic shift
FIELD_PHASES = np.array(
    [[(-1.0) ** j, (-1.0) ** i, (-1.0) ** (i + j)] for i, j in HARMONIC_SHIFTS]
)

_DET_FLOOR = 1e-13

# rho(E) <= ||E^m||_F^(1/m), m = 2^_SQUARINGS, lies 0-5.3% above the radii in the 16
# tables at resolution 81 and spares 6139 of 6720 eigvals on 2 chunks; the margin absorbs roundoff
_SQUARINGS = 8
_MARGIN = 1e-6
# a divisor of _SQUARINGS: the bounds of a table at resolution 81 took 8.9-9.8 ms at 4,
# 10.0-11.1 at 2 and 12.2-13.2 at 1 on one thread; at 8 every power underflows
_RENORM = 4
_TINY = 2.0**-900  # a power's sum of squares below this may have lost entries

# D^-1 X D = X * _SIMILARITY: pressure rows times -i, pressure columns times i
_SIMILARITY = np.outer(np.tile([1.0, 1.0, -1.0j], 9), np.tile([1.0, 1.0, 1.0j], 9))


@dataclass(frozen=True)
class TransferPair:
    """Prolongation/restriction tags; prolongation is always the 25-point one."""

    restrict: str
    prolong: str = "p25"

    def __post_init__(self) -> None:
        if self.prolong != "p25":
            raise ValueError("only the 25-point prolongation is supported")
        if self.restrict not in stencils.RESTRICTIONS:
            raise ValueError(
                f"unknown restriction {self.restrict!r}, "
                f"expected one of {tuple(stencils.RESTRICTIONS)}"
            )


def _harmonic_freqs(thetas) -> np.ndarray:
    """Harmonic frequencies, shape (..., 9, 2); no rewrapping is needed."""
    thetas = np.asarray(thetas, dtype=float)
    shifts = (2.0 * np.pi / 3.0) * np.asarray(HARMONIC_SHIFTS, dtype=float)
    return thetas[..., None, :] + shifts


def _expand(blocks: np.ndarray) -> np.ndarray:
    """(ns, 9, 3, 3) per-harmonic blocks -> (ns, 27, 27) block diagonal."""
    ns = blocks.shape[0]
    out = np.zeros((ns, 27, 27), dtype=complex)
    for a in range(9):
        out[:, 3 * a : 3 * a + 3, 3 * a : 3 * a + 3] = blocks[:, a]
    return out


def coarse_symbol(theta, h: float) -> np.ndarray:
    """Direct rediscretization on the coarse grid: Stokes symbol at (3 theta, 3h)."""
    theta = np.asarray(theta, dtype=float)
    return symbols.stokes_symbol(3.0 * theta, 3.0 * h)


def _transfer_mats(pair: TransferPair, freqs: np.ndarray):
    """Batched transfers for freqs (ns, 9, 2) -> (ns, 27, 3), (ns, 3, 27).

    Both stencils are even-symmetric so their symbols are real; the harmonic
    phase signs multiply in.  Prolongation carries the 1/9 aliasing factor.
    """
    ns = freqs.shape[0]
    p_sym = stencils.symbol(stencils.P25, freqs)  # (ns, 9)
    r_sym = stencils.symbol(stencils.RESTRICTIONS[pair.restrict], freqs)
    prolong = np.zeros((ns, 27, 3), dtype=complex)
    restrict = np.zeros((ns, 3, 27), dtype=complex)
    for a in range(9):
        for f in range(3):
            phase = FIELD_PHASES[a, f]
            prolong[:, 3 * a + f, f] = (1.0 / 9.0) * p_sym[:, a] * phase
            restrict[:, f, 3 * a + f] = r_sym[:, a] * phase
    return prolong, restrict


def _error_symbols(
    thetas: np.ndarray,
    params: RelaxParams,
    pair: TransferPair,
    h: float,
):
    """Coarse-grid correction and smoother symbols for a batch of low bases.

    Returns ``(cgc, smo, kept)`` with shapes (ns, 27, 27): bases whose coarse
    symbol is singular are dropped (cannot happen for offset sampling).
    """
    thetas = np.asarray(thetas, dtype=float).reshape(-1, 2)
    ch = coarse_symbol(thetas, h)
    det = np.abs(np.linalg.det(ch))
    kept = det > _DET_FLOOR * np.abs(ch).max(axis=(1, 2))
    if not np.all(kept):
        logger.warning("excluded %d singular coarse samples", int((~kept).sum()))
        thetas = thetas[kept]
        ch = ch[kept]

    freqs = _harmonic_freqs(thetas)
    prolong, restrict = _transfer_mats(pair, freqs)
    coarse_residual = restrict @ _expand(symbols.stokes_symbol(freqs, h))
    cgc = np.eye(27, dtype=complex)[None] - prolong @ np.linalg.solve(ch, coarse_residual)
    smo = _expand(symbols.relax_error_symbol(params, freqs, h))
    return cgc, smo, kept


def two_grid_symbol(
    theta,
    nu1: int,
    nu2: int,
    params: RelaxParams,
    pair: TransferPair,
    h: float = 1.0,
) -> np.ndarray:
    """27x27 two-grid error symbol ``S^nu2 (I - P Lc^-1 R L) S^nu1`` at one
    base: the single-sample oracle for the batched factors."""
    base = np.asarray(theta, dtype=float)
    if not bool(np.all(symbols.is_low(base))):
        raise ValueError("two-grid symbol requires a low base frequency")
    cgc, smo, kept = _error_symbols(base.reshape(1, 2), params, pair, h)
    if not kept.all():
        raise np.linalg.LinAlgError("coarse symbol is singular at this base frequency")
    e = np.linalg.matrix_power(smo[0], nu2) @ cgc[0] @ np.linalg.matrix_power(smo[0], nu1)
    return e


def _real_form(mats: np.ndarray) -> np.ndarray:
    """``D^-1 X D`` for a batch of 27x27 symbols ``X`` as float64, formed in
    place in ``mats``; raises ``LinAlgError`` unless the discarded imaginary
    part is exactly zero."""
    mats *= _SIMILARITY
    if np.any(mats.imag != 0.0):
        raise np.linalg.LinAlgError("two-grid symbol is not similar to a real matrix")
    return np.ascontiguousarray(mats.real)


def _radius_bounds(e: np.ndarray) -> np.ndarray:
    """Bounds ``||E^m||_F^(1/m)``, ``m = 2^_SQUARINGS``, on the radii of a finite
    batch, squaring in two buffers.  Each ``E`` is scaled once by a power of two
    to entries below 1 (exact) and its power to a unit Frobenius norm every
    ``_RENORM`` squarings, the logs of the scales carried, so nothing overflows.
    A power whose sum of squares falls below ``_TINY`` may have underflowed: its
    base keeps the previous bound (``inf`` before the first), so it is not pruned."""
    top = np.abs(e).max(axis=(1, 2))
    _, exp = np.frexp(top)
    a, b = np.ldexp(e, -exp[:, None, None]), np.empty_like(e)
    log, bound = exp * np.log(2.0), np.where(top > 0.0, np.inf, 0.0)
    for k in range(_RENORM, _SQUARINGS + 1, _RENORM):
        for _ in range(_RENORM):
            a, b = np.matmul(a, a, out=b), a
        sq = np.einsum("ijk,ijk->i", a, a)
        norm = np.sqrt(sq, out=np.ones_like(sq), where=sq >= _TINY)
        log += np.log(norm) / 2**k
        bound = np.where(sq >= _TINY, np.exp(log), bound)
        if k < _SQUARINGS:
            a *= (1.0 / norm)[:, None, None]
    return bound


def _wedge(vals: np.ndarray) -> np.ndarray:
    """Pairs ``(vals[i], vals[j])`` with ``i >= j`` of ascending nonnegative 1D
    frequencies: the wedge ``theta1 >= theta2 >= 0``, shape (count, 2)."""
    i, j = np.tril_indices(len(vals))
    return np.stack([vals[i], vals[j]], axis=-1)


def _max_radius(
    bases: np.ndarray,
    params: RelaxParams,
    pair: TransferPair,
    h: float,
    nus: tuple[int, ...],
) -> dict[int, float]:
    """Largest spectral radius of ``C S^nu`` over the bases, for each nu.

    ``S^nu2 C S^nu1`` is similar to ``C S^(nu1 + nu2)``, so one smoothing
    count per entry covers every pre/post split.  Powers of the smoother are
    built incrementally across the sorted counts, all in real arithmetic.
    The bases run in up to ``grid.BANDS`` chunks on the band pool, each
    building its own symbols.  Raises ``LinAlgError`` where a power overflows
    (a smoother that amplifies by far more than 1).  A chunk solves its base
    of largest ``_radius_bounds`` and keeps ``E`` of the bases whose bound is
    at least that radius times ``1 - _MARGIN``; a second dispatch solves those
    that reach the largest radius of all chunks.  A pruned base's ``eigvals``
    never runs, so a non-convergence there is not raised.
    """
    order, found = sorted(nus), {}

    def chunk(lo: int, hi: int) -> None:
        c, s, _ = _error_symbols(bases[lo:hi], params, pair, h)
        c = _real_form(c)
        s = _real_form(s)
        power = np.broadcast_to(np.eye(27), s.shape).copy()
        last, found[lo] = 0, []
        for nu in order:
            # errstate is per thread: each chunk sets its own
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(nu - last):
                    power = s @ power
                e = c @ power
            if not np.all(np.isfinite(e)):
                raise np.linalg.LinAlgError(f"two-grid symbol overflows at nu = {nu}")
            last = nu
            bound = _radius_bounds(e)
            top = int(np.argmax(bound))
            rho = np.abs(np.linalg.eigvals(e[top])).max()
            keep = bound >= rho * (1.0 - _MARGIN)
            keep[top] = False
            found[lo].append((rho, e[keep], bound[keep]))

    grid.run_bands(chunk, len(bases), max(1, min(grid.BANDS, len(bases))))
    tops = np.max([[rho for rho, _, _ in kept] for kept in found.values()], axis=0)
    picked = [(col, e[bound >= tops[col] * (1.0 - _MARGIN)])
              for kept in found.values() for col, (_, e, bound) in enumerate(kept)]
    es = np.concatenate([e for _, e in picked])
    radii = np.empty(len(es))

    def solve(lo: int, hi: int) -> None:
        radii[lo:hi] = np.abs(np.linalg.eigvals(es[lo:hi])).max(axis=-1)

    grid.run_bands(solve, len(es), max(1, min(grid.BANDS, len(es))))
    np.maximum.at(tops, np.repeat([col for col, _ in picked], [len(e) for _, e in picked]), radii)
    return {nu: float(r) for nu, r in zip(order, tops)}


def two_grid_factor_table(
    params: RelaxParams,
    pair: TransferPair,
    nus: tuple[int, ...] = (1, 2, 3, 4),
    n: int = 81,
    h: float = 1.0 / 81.0,
) -> dict[int, float]:
    """Sampled two-grid factors ``rho(nu)`` for several smoothing counts.

    One sweep over the wedge of the offset low-frequency samples (105 of 729
    at n = 81); smoothing is applied as pre-relaxation only (the factor
    depends on nu1 + nu2 only).
    """
    # positive offsets up to pi/3, the alias of the edge sample -pi/3
    units = symbols.offset_units(n)
    units = units[(units > 0) & (3 * units <= n)]
    return _max_radius(_wedge(np.pi * units / n), params, pair, h, nus)


def periodic_lattice_factor(
    params: RelaxParams,
    pair: TransferPair,
    nu1: int,
    nu2: int,
    n: int,
    h: float | None = None,
) -> float:
    """Exact error contraction factor of the two-grid cycle on an n x n
    periodic grid, by frequency-space evaluation over the discrete lattice.

    Low lattice bases are ``2 pi k / n`` with ``|k| < n/6``; the nonzero ones
    are evaluated over their wedge ``k1 >= k2 >= 0`` (104 of 728 at n = 81).
    The zero base needs care: the constant modes are fixed points removed by
    the gauge projection, and the coarse correction vanishes on that family,
    so its contribution is the relaxation factor over the eight nonzero
    harmonics.
    """
    if h is None:
        h = 1.0 / n
    m = n // 3
    kmax = (m - 1) // 2  # n/3 is odd for sizes 3 * 3**k
    bases = _wedge(2.0 * np.pi * np.arange(kmax + 1) / n)[1:]  # [0] is the zero base
    nu = nu1 + nu2
    rho = _max_radius(bases, params, pair, h, (nu,))[nu]

    # zero-base family: pure relaxation on the nonzero harmonics
    zero_freqs = _harmonic_freqs(np.zeros(2))
    keep = [a for a in range(9) if a != BASE_INDEX]
    s = symbols.relax_error_symbol(params, zero_freqs[keep], h)
    s = np.linalg.matrix_power(s, nu)
    rho_zero = float(np.abs(np.linalg.eigvals(s)).max())
    return max(rho, rho_zero)
