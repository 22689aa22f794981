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

The smoother is block diagonal over the harmonics and the coarse-grid
correction is the identity minus a rank-3 product, so the batched factors
build ``E = blockdiag(S^nu) - P (Z S^nu)``, ``Z = Lc^-1 R L``, from 3x3 blocks,
as the real ``D^-1 E D`` with ``D = diag(1, 1, i)`` per harmonic.  This is
exact: gradient and divergence entries are purely imaginary and the rest
real, a pattern that survives products, inverses and the coarse solve.
``two_grid_symbol`` stays complex and dense.

Each of ``grid.BANDS`` chunks of bases builds its blocks and ``E`` on the band
pool (``grid.run_each``).  Gelfand's bound ``rho(E) <= ||A^m||_F^(1/m)``, ``A``
similar to ``E`` by a power-of-two diagonal (Parlett and Reinsch 1969), prunes
at ``m = 16`` and 256, leaving a second dispatch only the bases that may hold the
maximum.  Each matrix is computed alone, whatever its batch: bit-identical factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid, stencils, symbols
from .symbols import RelaxParams

# lexicographic shift order; the base frequency sits at the (0, 0) slot
HARMONIC_SHIFTS = tuple((i, j) for i in (-1, 0, 1) for j in (-1, 0, 1))
BASE_INDEX = HARMONIC_SHIFTS.index((0, 0))

# per-field sign of the coinciding-point phase for each harmonic shift
FIELD_PHASES = np.array(
    [[(-1.0) ** j, (-1.0) ** i, (-1.0) ** (i + j)] for i, j in HARMONIC_SHIFTS]
)

# the balanced rho(E) <= ||A^m||_F^(1/m), m = 2^_SQUARINGS, lies 0-3.5% above the radii in the
# 16 tables at resolution 81 (0-46% at m = 16); the margin absorbs roundoff
_SQUARINGS = 8
_MARGIN = 1e-6
# a divisor of _SQUARINGS, and where the bounds prune: at 8 every power underflows
_RENORM = 4
_TINY = 2.0**-900  # a power's sum of squares below this may have lost entries

# D^-1 X D = X * _SIMILARITY for a 3x3 block: pressure row times -i, pressure column times i
_SIMILARITY = np.outer([1.0, 1.0, -1.0j], [1.0, 1.0, 1.0j])


@dataclass(frozen=True)
class TransferPair:
    """Restriction tag; prolongation is always the 25-point one."""

    restrict: str

    def __post_init__(self) -> None:
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
    return (np.eye(9)[:, None, :, None] * blocks[:, :, :, None, :]).reshape(-1, 27, 27)


def _blocks(thetas: np.ndarray, params: RelaxParams, pair: TransferPair, h: float):
    """Complex symbols of a batch of low bases: ``(stokes, smo, coarse,
    prolong, restrict)``, the fine Stokes and smoother blocks (ns, 9, 3, 3),
    the coarse symbol (ns, 3, 3) and the transfer weights (ns, 9, 3): field f
    of harmonic a couples with coarse field f alone, by the stencil symbol
    (real: the stencils are even) times ``FIELD_PHASES[a, f]``, and
    prolongation carries the 1/9 aliasing factor.  No base is dropped: a
    singular coarse symbol (the zero base) makes the coarse solve raise
    ``LinAlgError``."""
    thetas = np.asarray(thetas, dtype=float).reshape(-1, 2)
    ch = symbols.stokes_symbol(3.0 * thetas, 3.0 * h)  # rediscretised on the triple mesh
    freqs = _harmonic_freqs(thetas)
    p_sym = stencils.symbol(stencils.P25, freqs)[..., None]
    r_sym = stencils.symbol(stencils.RESTRICTIONS[pair.restrict], freqs)[..., None]
    return (symbols.stokes_symbol(freqs, h), symbols.relax_error_symbol(params, freqs, h), ch,
            (1.0 / 9.0) * p_sym * FIELD_PHASES, r_sym * FIELD_PHASES)


def _real_form(blocks: np.ndarray) -> np.ndarray:
    """``D^-1 X D`` for a batch of 3x3 blocks ``X`` as float64; raises
    ``LinAlgError`` unless the discarded imaginary part is exactly zero."""
    blocks = blocks * _SIMILARITY
    if np.any(blocks.imag != 0.0):
        raise np.linalg.LinAlgError("two-grid symbol is not similar to a real matrix")
    return np.ascontiguousarray(blocks.real)


def _error_symbols(thetas: np.ndarray, params: RelaxParams, pair: TransferPair, h: float):
    """Real forms of ``_blocks``: ``(smo, prolong, z)``, the smoother
    blocks (ns, 9, 3, 3), the prolongation weights (ns, 9, 3) and
    ``Z = Lc^-1 R L`` as its nine 3x3 blocks (ns, 9, 3, 3)."""
    stokes, smo, coarse, prolong, restrict = _blocks(thetas, params, pair, h)
    ns = len(coarse)
    rl = (restrict[..., None] * _real_form(stokes)).transpose(0, 2, 1, 3).reshape(ns, 3, 27)
    z = np.linalg.solve(_real_form(coarse), rl).reshape(ns, 3, 9, 3).transpose(0, 2, 1, 3)
    return _real_form(smo), prolong, np.ascontiguousarray(z)


def _error_matrices(power: np.ndarray, prolong: np.ndarray, z: np.ndarray,
                    out: np.ndarray | None) -> np.ndarray:
    """``E = blockdiag(W) - P (Z W)`` (ns, 27, 27), into ``out`` unless None, from
    smoother power blocks ``W`` and the weights and ``Z`` of ``_error_symbols``."""
    ns = len(power)
    zw = (z @ power).transpose(0, 2, 1, 3).reshape(ns, 1, 3, 27)  # Z W, rows by field
    e = np.empty((ns, 27, 27)) if out is None else out
    np.multiply(-prolong[..., None], zw, out=e.reshape(ns, 9, 3, 27))
    diagonal = np.einsum("nafag->nafg", e.reshape(ns, 9, 3, 9, 3))  # a writable view
    diagonal += power
    return e


def two_grid_symbol(theta, nu1: int, nu2: int, params: RelaxParams, pair: TransferPair,
                    h: float = 1.0) -> np.ndarray:
    """27x27 two-grid error symbol ``S^nu2 (I - P Lc^-1 R L) S^nu1`` at one
    base, complex and dense: the single-sample oracle for the batched factors."""
    base = np.asarray(theta, dtype=float)
    if not bool(np.all(symbols.is_low(base))):
        raise ValueError("two-grid symbol requires a low base frequency")
    stokes, smo, coarse, prolong, restrict = _blocks(base, params, pair, h)
    p, r = ((w[0, :, :, None] * np.eye(3)).reshape(27, 3) for w in (prolong, restrict))
    cgc = np.eye(27) - p @ np.linalg.solve(coarse[0], r.T @ _expand(stokes)[0])
    s = _expand(smo)[0]
    return np.linalg.matrix_power(s, nu2) @ cgc @ np.linalg.matrix_power(s, nu1)


def _balance(e: np.ndarray, out: np.ndarray):
    """``(A, t)`` with ``A = 2^-t D^-1 E D``, into ``out``, for a batch
    ``E``.  ``D = diag(2^k)`` halves the gap between the binary exponents of
    each row's and column's 1-norm (Parlett and Reinsch 1969), clamped so that
    every nonzero entry of ``A`` stays normal, and ``t`` brings the largest
    into ``[1/2, 1)``: ``A`` is exact, with the radii of ``E`` over ``2^t``."""
    mag = np.abs(e, out=out)
    _, hi = np.frexp(mag.max(axis=(1, 2)))
    _, lo = np.frexp(mag.min(axis=(1, 2), where=mag > 0.0, initial=np.inf))
    _, rows = np.frexp(mag @ np.ones(27))
    _, cols = np.frexp(np.ones(27) @ mag)
    # A's nonzero entries lie in [2^(lo - 1 - hi - 2 spread), 1), spread = max k - min k
    reach = np.maximum((lo - hi + 1021) // 4, 0)[:, None]
    k = np.clip((rows - cols) // 2, -reach, reach)
    low = k.min(axis=1, keepdims=True)
    spread = k.max(axis=1, keepdims=True) - low
    # in mag's memory: rows times 2^(min k - k - spread - hi), columns times 2^(k - min k)
    a = np.ldexp(e, (low - k - spread - hi[:, None])[:, :, None], out=mag)
    a *= np.ldexp(1.0, k - low)[:, None, :]
    _, top = np.frexp(np.maximum(a.max(axis=(1, 2)), -a.min(axis=(1, 2))))
    np.ldexp(a.reshape(len(e), -1), -top[:, None], out=a.reshape(len(e), -1))
    return a, hi + spread[:, 0] + top


def _radius_bounds(e: np.ndarray, matrices, groups: int, work: np.ndarray):
    """Bounds ``||A^m||_F^(1/m) 2^t``, ``(A, t) = _balance(e)``, ``m = 2^_SQUARINGS``,
    on the radii of a finite batch in equal groups, each group's largest radius
    solved and the set of bases solved.  The powers square in ``work``'s two
    buffers (``e`` may be the second), scaled to a unit norm every ``_RENORM``
    squarings.  There and at ``m``, ``eigvals`` solves each group's top base on
    its ``E``, ``matrices(bases)``; only bases whose bound reaches their group's
    radius times ``1 - _MARGIN`` square on, as ``||A^2j|| <= ||A^j||^2``.  A power
    whose sum of squares falls below ``_TINY`` may have underflowed: its base
    keeps the previous bound (``inf`` before the first), so it is not pruned."""
    a, b = work
    a, t = _balance(e, a)
    size, live, rho, solved = len(e) // groups, np.arange(len(e)), np.zeros(groups), set()
    log, bound = t * np.log(2.0), np.where(a.any(axis=(1, 2)), np.inf, 0.0)
    for k in range(_RENORM, _SQUARINGS + 1, _RENORM):
        for _ in range(_RENORM):
            a, b = np.matmul(a, a, out=b), a
        sq = np.einsum("ijk,ijk->i", a, a)
        ok = sq >= _TINY
        norm = np.sqrt(sq, out=np.ones_like(sq), where=ok)
        log += np.log(norm) / 2**k
        cur = bound[live] = np.where(ok, np.exp(log), bound[live])
        full = np.full(len(e), -np.inf)
        full[live] = cur
        tops = np.setdiff1d(full.reshape(groups, size).argmax(axis=1) + size * np.arange(groups),
                            list(solved))
        if tops.size:
            np.maximum.at(rho, tops // size, np.abs(np.linalg.eigvals(matrices(tops))).max(-1))
            solved.update(tops.tolist())
        if k < _SQUARINGS:
            stay = cur >= rho[live // size] * (1.0 - _MARGIN)
            live, log, count = live[stay], log[stay], int(stay.sum())
            a, b = np.compress(stay, a, axis=0, out=b[:count]), a[:count]
            a *= (1.0 / norm[stay])[:, None, None]
    return bound, rho, solved


def _wedge(vals: np.ndarray) -> np.ndarray:
    """Pairs ``(vals[i], vals[j])`` with ``i >= j`` of ascending nonnegative 1D
    frequencies: the wedge ``theta1 >= theta2 >= 0``, shape (count, 2)."""
    i, j = np.tril_indices(len(vals))
    return np.stack([vals[i], vals[j]], axis=-1)


def _max_radius(bases: np.ndarray, params: RelaxParams, pair: TransferPair, h: float,
                nus: tuple[int, ...]) -> dict[int, float]:
    """Largest spectral radius of ``C S^nu`` over the bases, for each nu.

    ``S^nu2 C S^nu1`` is similar to ``C S^(nu1 + nu2)``, so one smoothing
    count per entry covers every pre/post split.  The smoother's 3x3 blocks
    are powered incrementally across the sorted counts.  The bases run in up
    to ``grid.BANDS`` chunks on the band pool, each building its own blocks
    and bounding the ``E`` of all counts in one batch, one group per count.
    Raises ``LinAlgError`` where a power overflows (a smoother that amplifies
    by far more than 1).  Per count, a chunk keeps ``E`` of the bases whose
    bound reaches the largest radius ``_radius_bounds`` solved times
    ``1 - _MARGIN``; a second dispatch solves those that reach the largest
    radius of all chunks, if any do.  A pruned base's ``eigvals`` never runs.
    """
    order, found = sorted(nus), {}

    def chunk(lo: int, hi: int) -> None:
        s, p, z = _error_symbols(bases[lo:hi], params, pair, h)
        ns, g, power, powers = len(s), len(order), np.broadcast_to(np.eye(3), s.shape), []
        # errstate is per thread: each chunk sets its own
        with np.errstate(over="ignore", invalid="ignore"):
            for last, nu in zip([0, *order], order):
                for _ in range(nu - last):
                    power = s @ power
                powers.append(power)
        w, p, z = np.concatenate(powers), np.tile(p, (g, 1, 1)), np.tile(z, (g, 1, 1, 1))

        def matrices(idx, out=None):
            with np.errstate(over="ignore", invalid="ignore"):
                return _error_matrices(w[idx], p[idx], z[idx], out)

        work = np.empty((2, g * ns, 27, 27))
        e = matrices(slice(None), work[1])
        finite = np.isfinite(e).reshape(g, -1).all(axis=1)
        if not finite.all():
            nu = order[np.argmin(finite)]
            raise np.linalg.LinAlgError(f"two-grid symbol overflows at nu = {nu}")
        bound, rho, solved = _radius_bounds(e, matrices, g, work)
        keep = bound >= np.repeat(rho, ns) * (1.0 - _MARGIN)
        keep[list(solved)] = False
        idx = np.flatnonzero(keep)
        groups = np.split(idx, np.searchsorted(idx, ns * np.arange(1, g)))
        found[lo] = [(r, matrices(i), bound[i]) for r, i in zip(rho, groups)]

    grid.run_each(chunk, grid.cuts(len(bases), max(1, min(grid.BANDS, len(bases)))))
    tops = np.max([[rho for rho, _, _ in held] for held in found.values()], axis=0)
    picked = [(col, e[bound >= tops[col] * (1.0 - _MARGIN)])
              for held in found.values() for col, (_, e, bound) in enumerate(held)]
    es = np.concatenate([e for _, e in picked])
    radii = np.empty(len(es))

    def solve(lo: int, hi: int) -> None:
        radii[lo:hi] = np.abs(np.linalg.eigvals(es[lo:hi])).max(axis=-1)

    if len(es):
        grid.run_each(solve, grid.cuts(len(es), min(grid.BANDS, len(es))))
    np.maximum.at(tops, np.repeat([col for col, _ in picked], [len(e) for _, e in picked]), radii)
    return {nu: float(r) for nu, r in zip(order, tops)}


def two_grid_factor_table(params: RelaxParams, pair: TransferPair, nus: tuple[int, ...],
                          n: int, h: float) -> dict[int, float]:
    """Sampled two-grid factors ``rho(nu)`` for several smoothing counts, on
    the mesh size ``h``.

    One sweep over the wedge of the offset low-frequency samples of
    resolution ``n`` (105 of 729 at n = 81); smoothing is applied as
    pre-relaxation only (the factor depends on nu1 + nu2 only).  ``nus`` is a
    nonempty set of counts >= 0.
    """
    if not nus or min(nus) < 0:
        raise ValueError(f"smoothing counts must be a nonempty set of integers >= 0, got {nus}")
    # positive offsets up to pi/3, the alias of the edge sample -pi/3
    units = symbols.offset_units(n)
    units = units[(units > 0) & (3 * units <= n)]
    return _max_radius(_wedge(np.pi * units / n), params, pair, h, nus)


def periodic_lattice_factor(params: RelaxParams, pair: TransferPair, nu1: int, nu2: int,
                            n: int) -> float:
    """Exact two-grid error contraction factor on the n x n periodic grid of
    mesh size 1/n (n >= 9), by frequency-space evaluation over the lattice.

    Low lattice bases are ``2 pi k / n`` with ``|k| < n/6``; the nonzero ones
    are evaluated over their wedge ``k1 >= k2 >= 0`` (104 of 728 at n = 81).
    The zero base needs care: the constant modes are fixed points removed by
    the gauge projection, and the coarse correction vanishes on that family,
    so its contribution is the relaxation factor over the eight nonzero
    harmonics.
    """
    grid.check_size(n)
    if n < 9 or min(nu1, nu2) < 0:
        raise ValueError(f"lattice factor needs n >= 9, nu1 >= 0, nu2 >= 0; got {n}, {nu1}, {nu2}")
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
