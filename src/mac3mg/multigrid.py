"""Coarsening-by-three multigrid cycles for the staggered Stokes system.

Levels step down n -> n/3 -> ... -> 3, each carrying a rediscretized saddle
system (mesh size 3h per step).  Coarse unknowns sit exactly on fine unknown
locations; per-field nested offsets below record where the (0, 0) coarse
point lands inside the fine index arrays.  Every transfer is stored as the
even 1D weight vector ``w`` of ``stencils`` (its 2D kernel is ``outer(w, w)``),
and applied as two strided 1D passes (x, then y): restriction evaluates
``sum_k w[k] f[o + 3I + k]`` at the nested points only, prolongation
scatter-adds ``w[k] c[I]`` around them.
Periodic fields wrap; Dirichlet fields are closed by the transfer folds of
the closure table in ``grid`` (``grid.TRANSFER_FOLDS``), so contributions
reaching across the eliminated normal-velocity wall lines drop out.  The
coarse closure stands in for the fine one because the lattices are nested: a
wall mirror maps coarse points to coarse points (fine pressure index 1
mirrors to -2 = 1 - 3), and 3 divides n for the periodic wrap.

Up to ``DENSE_MAX`` fine points per side a transfer is instead ``A_x F A_y^T``,
two BLAS products with 1D matrices: there a strided call would cost its Python
overhead several times over its arithmetic.  The input size picks the path.

A cycle allocates no grid field after its first call: each level's
residual, coarse data and coarse state, and every sweep and transfer
temporary, are work arrays of that level's ``SaddleSystem`` (roles in
``grid.Workspace``), and the prolongation adds straight into the fine state.
Each coarse level starts from a zero guess (Trottenberg, Oosterlee and
Schueller, *Multigrid*, 2001), so its first pre-smoothing sweep takes the
restricted residual as its residual and writes the state without reading it.

The drivers measure convergence the way the experiments report it: iterate
cycles on a seeded random initial guess with zero right-hand side until the
residual norm falls below 1e-12, then report rho_m = (r_k / r_0)^(1/k).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import assemble, grid, stencils
from .smoothers import SeparableInverse, Smoother
from .symbols import RelaxParams
from .twogrid import TransferPair

NESTED_OFFSETS = {
    ("periodic", "u"): (0, 1),
    ("periodic", "v"): (1, 0),
    ("periodic", "p"): (1, 1),
    ("dirichlet", "u"): (2, 1),
    ("dirichlet", "v"): (1, 2),
    ("dirichlet", "p"): (1, 1),
}


# the largest fine grid whose transfers run as dense 1D matrix products; the
# measurements behind it are in the README's transfer paragraph
DENSE_MAX = 81

# the smallest fine grid whose strided transfers run in row bands: at n = 243
# a banded restriction took 0.36-0.67 ms against 0.24 ms whole (see README)
TRANSFER_BAND_MIN = 729 * 729 // 2

# OpenBLAS threads a dgemm with m n k > 262144, so a SeparableInverse on a
# grid of this many points per side does; cycles that make one run no bands
BLAS_THREADED_MIN = 81


def _restrict_pass(s: np.ndarray, d: np.ndarray, tmp: np.ndarray | None, w: np.ndarray,
                   o: int) -> np.ndarray:
    """``d[I] = sum_k w[k] s[o + 3I + k]`` along axis 0; ``tmp`` (None: fresh)
    has d's shape and layout, or the in-place add strides badly."""
    np.multiply(s[o::3][: len(d)], w[0], out=d)
    for k in range(1, len(w)):
        d += np.multiply(s[o + k :: 3][: len(d)], w[k], out=tmp)
    return d


def _prolong_pass(s: np.ndarray, d: np.ndarray, tmp: np.ndarray | None, w: np.ndarray,
                  o: int) -> np.ndarray:
    """Along axis 0, padded coarse index J adds ``w[k] s[J]`` to fine index
    ``3J + k - (3 + r - o)``, r the stencil radius, where that index exists;
    ``tmp`` has at least ``len(s)`` rows and d's memory layout, or is None."""
    start = 3 + len(w) // 2 - o
    for k in range(len(w)):
        j0 = max(0, -((k - start) // 3))  # first J landing at index >= 0
        i0 = 3 * j0 + k - start
        count = min(len(range(i0, len(d), 3)), len(s) - j0)
        d[i0::3][:count] += np.multiply(s[j0 : j0 + count], w[k],
                                        out=None if tmp is None else tmp[:count])
    return d


def restrict_field(fine: np.ndarray, w: np.ndarray, offsets, bc: str, signs,
                   out: np.ndarray, work: grid.Workspace, bands: int = 1) -> np.ndarray:
    """Apply ``outer(w, w)`` at the nested points only, one axis at a time,
    into ``out``; the padded field and the x pass are work arrays.  A large
    fine field runs in up to ``bands`` bands of out's rows, one phase: band k
    pads the fine rows its x pass reads into rows of the padded array that
    only it uses (neighbouring bands both read ``len(w) - 3`` of them), then
    runs both passes on its rows."""
    r, dtype = len(w) // 2, out.dtype
    bands = bands if fine.size >= TRANSFER_BAND_MIN else 1
    extra = max(0, len(w) - 3)
    fp = work("pad", (fine.shape[0] + 2 * r + bands * extra, fine.shape[1] + 2 * r), dtype)
    mid = work("xfer_mid", (out.shape[0], fp.shape[1]), dtype)
    tmp = work("xfer_tmp", mid.shape, dtype)  # each pass lays its block over the band's rows

    def band(k: int, lo: int, hi: int) -> None:
        first = offsets[0] + 3 * lo
        seg = fp[first + k * extra : first + k * extra + 3 * (hi - lo) + len(w) - 3]
        grid.pad_rows(fine, r, signs, bc, seg, first)
        _restrict_pass(seg, mid[lo:hi], tmp[lo:hi], w, 0)
        band_tmp = grid.block(tmp[lo:hi].reshape(-1), (hi - lo, out.shape[1]))
        _restrict_pass(mid[lo:hi].T, out[lo:hi].T, band_tmp.T, w, offsets[1])

    grid.run_each(band, [(k, lo, hi) for k, (lo, hi) in enumerate(grid.cuts(len(out), bands))])
    return out


def prolong_field(coarse: np.ndarray, w: np.ndarray, offsets, bc: str, signs,
                  add_to: np.ndarray, work: grid.Workspace, bands: int = 1) -> np.ndarray:
    """Add the prolongation of ``coarse`` to ``add_to``, one axis at a time;
    when add_to is large the y pass runs in up to ``bands`` bands of its rows."""
    dtype = add_to.dtype
    bands = bands if add_to.size >= TRANSFER_BAND_MIN else 1
    cp = grid.pad_field(coarse, 1, signs, bc,
                        out=work("pad", (coarse.shape[0] + 2, coarse.shape[1] + 2), dtype))
    mid = work("xfer_mid", (add_to.shape[0], cp.shape[1]), dtype)
    mid.fill(0.0)
    # the x pass stays whole: split across its columns it ran no faster, and
    # row bands would share rows of its temporary
    _prolong_pass(cp, mid, work("xfer_tmp", cp.shape, dtype), w, offsets[0])
    tmp = work("xfer_tmp", mid.shape, dtype)
    grid.run_bands(lambda lo, hi: _prolong_pass(mid[lo:hi].T, add_to[lo:hi].T, tmp[lo:hi].T,
                                                w, offsets[1]), len(add_to), bands)
    return add_to


# bounded by DENSE_MAX: at most 5 transfers x 3 sizes x 2 BCs x 3 fields x 2 dtypes
@functools.lru_cache(maxsize=None)
def _transfer_matrices(tag: str, n: int, bc: str, name: str, dtype) -> tuple:
    """Read-only 1D matrices ``(A_x, A_y)`` of restriction ``tag`` (or "p25")
    of field ``name`` from grid n: ``A_x F A_y^T``.  Each is its strided pass
    applied to an identity closed by ``grid.pad_field``, the one wall fold."""
    fine, coarse = grid.field_shapes(n, bc)[name], grid.field_shapes(n // 3, bc)[name]
    prolong = tag == "p25"
    w = stencils.P25 if prolong else stencils.RESTRICTIONS[tag]
    r = 1 if prolong else len(w) // 2  # the pad widths of prolong_field and restrict_field
    mats = []
    for axis in range(2):
        sign, o = grid.TRANSFER_FOLDS[name][axis], NESTED_OFFSETS[(bc, name)][axis]
        m = coarse[axis] if prolong else fine[axis]
        closed = grid.pad_field(np.eye(m, dtype=dtype), r, (sign, sign), bc)[:, r : r + m]
        a = (_prolong_pass(closed, np.zeros((fine[axis], m), dtype), None, w, o) if prolong
             else _restrict_pass(closed, np.empty((coarse[axis], m), dtype), None, w, o))
        a.flags.writeable = False
        mats.append(a)
    return tuple(mats)


def restrict_state(fine: grid.StaggeredState, tag: str,
                   out: grid.StaggeredState | None = None,
                   work: grid.Workspace | None = None, bands: int = 1) -> grid.StaggeredState:
    """Restriction ``tag`` of a fine state, into ``out`` if given; ``work``
    and ``bands`` are the fine level's (throwaway work arrays if None)."""
    w = stencils.RESTRICTIONS[tag]
    if out is None:
        out = grid.StaggeredState.zeros(fine.n // 3, fine.bc, fine.u.dtype)
    work = grid.Workspace() if work is None else work
    for name in ("u", "v", "p"):
        f, o = getattr(fine, name), getattr(out, name)
        if fine.n <= DENSE_MAX:
            ax, ay = _transfer_matrices(tag, fine.n, fine.bc, name, o.dtype)
            mid = np.matmul(ax, f, out=work("xfer_mid", (o.shape[0], f.shape[1]), o.dtype))
            np.matmul(mid, ay.T, out=o)
        else:
            restrict_field(f, w, NESTED_OFFSETS[(fine.bc, name)], fine.bc,
                           grid.TRANSFER_FOLDS[name], o, work, bands)
    return out


def prolong_state(coarse: grid.StaggeredState, n_fine: int,
                  add_to: grid.StaggeredState | None = None,
                  work: grid.Workspace | None = None, bands: int = 1) -> grid.StaggeredState:
    """The p25 prolongation of a coarse state, added to ``add_to`` (a zero
    fine state if None); ``work`` and ``bands`` are the fine level's."""
    if n_fine != 3 * coarse.n:
        raise ValueError("prolongation must step up by exactly one level")
    w = stencils.P25
    if add_to is None:
        add_to = grid.StaggeredState.zeros(n_fine, coarse.bc, coarse.u.dtype)
    work = grid.Workspace() if work is None else work
    for name in ("u", "v", "p"):
        c, a = getattr(coarse, name), getattr(add_to, name)
        if n_fine <= DENSE_MAX:
            ax, ay = _transfer_matrices("p25", n_fine, coarse.bc, name, a.dtype)
            mid = np.matmul(ax, c, out=work("xfer_mid", (a.shape[0], c.shape[1]), a.dtype))
            a += np.matmul(mid, ay.T, out=work("xfer_tmp", a.shape, a.dtype))
        else:
            prolong_field(c, w, NESTED_OFFSETS[(coarse.bc, name)], coarse.bc,
                          grid.TRANSFER_FOLDS[name], a, work, bands)
    return add_to


# Conjugate gradients on the pressure Schur complement stop at this relative
# residual, or fail after CG_MAXITER iterations.  On mean-zero periodic
# pressures the complement is the identity (1-2 iterations); Dirichlet grids
# up to n = 729 need at most 26.
CG_TOL = 1e-14
CG_MAXITER = 100


class DirectSolver:
    """Exact solve of one level's saddle system ``[[A, B^T], [B, 0]]``.

    The velocity Laplacians are Kronecker sums of 1D second differences
    (``assemble._lap1``), so ``A^+`` is one ``SeparableInverse`` per
    component.  Conjugate gradients solve ``B A^+ B^T p = B A^+ f - g`` for
    the pressure, and ``u = A^+ (f - B^T p)``.  The nullspace components of
    the data (mean pressure; mean velocities under periodic BCs) are dropped
    and the result has none, which is the gauge-projected solution the cycles
    need.  Missing the CG tolerance raises ``np.linalg.LinAlgError``.
    """

    def __init__(self, n: int, bc: str):
        self.n = n
        self.bc = bc
        self.system = grid.SaddleSystem(n, bc)
        h = 1.0 / n
        if bc == "periodic":
            lap = assemble._lap1(n, h, bc, 0.0).toarray()
            self._inv_u = self._inv_v = SeparableInverse(lap, None, lap, None, 1.0, True)
        else:
            edge = assemble._lap1(n - 1, h, bc, 0.0).toarray()
            tan = assemble._lap1(n, h, bc, grid.VELOCITY_GHOST).toarray()
            self._inv_u = SeparableInverse(edge, None, tan, None, 1.0, False)
            self._inv_v = SeparableInverse(tan, None, edge, None, 1.0, False)

    def _schur(self, p: np.ndarray) -> np.ndarray:
        gu, gv = self.system.grad(p)
        return self.system.neg_div(self._inv_u(gu), self._inv_v(gv))

    def _pressure(self, b: np.ndarray) -> np.ndarray:
        """Conjugate gradients for ``B A^+ B^T p = b`` over mean-zero pressures.

        The mean of ``b`` and of each residual is projected out: the operator
        annihilates it, so a leftover mean breaks the iteration.  ``b - mean``
        keeps a roundoff mean of the size of ``b``, hence the second
        projection; and the residual is measured against all of ``b``, so a
        ``b`` that is constant up to roundoff needs no iteration."""
        r = b - b.mean()
        r -= r.mean()
        x = np.zeros_like(r)
        d = r.copy()
        # a diverging cycle's data can overflow the sum of squares: the
        # infinite norm then ends the iteration at once, and the run's own
        # residual check reports the divergence
        with np.errstate(over="ignore"):
            bnorm = np.linalg.norm(b)
        rr = np.vdot(r, r).real
        for it in range(CG_MAXITER + 1):
            if np.sqrt(rr) <= CG_TOL * bnorm:
                return x - x.mean()
            if it == CG_MAXITER:
                break
            q = self._schur(d)
            dq = np.vdot(d, q).real
            if not dq > 0.0:  # breakdown: no descent left above roundoff
                break
            x += (rr / dq) * d
            r -= (rr / dq) * q
            r -= r.mean()
            rr, rr_old = np.vdot(r, r).real, rr
            d = r + (rr / rr_old) * d
        raise np.linalg.LinAlgError(
            f"direct solve n={self.n} bc={self.bc}: conjugate gradients stopped at relative "
            f"residual {np.sqrt(rr) / bnorm:.3e} after {it} iterations "
            f"(tolerance {CG_TOL:g}, cap {CG_MAXITER})")

    def solve_state(self, rhs: grid.StaggeredState,
                    out: grid.StaggeredState | None = None) -> grid.StaggeredState:
        sysm = self.system
        b = sysm.neg_div(self._inv_u(rhs.u), self._inv_v(rhs.v))
        b -= rhs.p
        p = self._pressure(b)
        gu, gv = sysm.grad(p)
        u, v = self._inv_u(rhs.u - gu), self._inv_v(rhs.v - gv)
        if out is None:
            return grid.StaggeredState(self.n, self.bc, u, v, p)
        out.u[...], out.v[...], out.p[...] = u, v, p
        return out


class GridHierarchy:
    """Nested systems from n down to 3, one smoother per level."""

    def __init__(self, n: int, bc: str, params: RelaxParams,
                 transfer: TransferPair = TransferPair("r9")):
        grid.check_size(n)
        sizes = [n]
        while sizes[-1] > 3:
            sizes.append(sizes[-1] // 3)
        self.sizes = sizes
        self.bc = bc
        self.params = params
        self.transfer = transfer
        self.systems = [grid.build_system(m, bc) for m in sizes]
        self.smoothers = [Smoother(s, params) for s in self.systems]
        self._direct: dict[int, DirectSolver] = {}

    @property
    def levels(self) -> int:
        return len(self.sizes)

    def direct(self, level: int) -> DirectSolver:
        if level not in self._direct:
            self._direct[level] = DirectSolver(self.sizes[level], self.bc)
        return self._direct[level]


def _descend(hier: GridHierarchy, level: int, state: grid.StaggeredState,
             rhs: grid.StaggeredState, nu1: int, nu2: int, solve_level: int) -> None:
    """One cycle from ``level`` down, in place.  Below the finest level the
    state's contents are taken as zero (a coarse level's first guess): the
    first pre-smoothing sweep starts from ``rhs`` alone, and only a cycle
    without pre-smoothing zero-fills the state."""
    if level == solve_level:
        hier.direct(level).solve_state(rhs, out=state)
        return
    # the residual, coarse data and coarse state are the levels' work arrays
    system, below = hier.systems[level], hier.systems[level + 1]
    dtype = state.u.dtype
    sm = hier.smoothers[level]
    zero = level > 0
    if zero and nu1 == 0:
        for f in (state.u, state.v, state.p):
            f.fill(0.0)
    for i in range(nu1):
        sm.sweep(state, rhs, zero=zero and i == 0)
    resid = system.residual(state, rhs, out=system.work_state("r", dtype))
    coarse_rhs = restrict_state(resid, hier.transfer.restrict,
                                out=below.work_state("f", dtype), work=system.work,
                                bands=system.bands)
    coarse = below.work_state("x", dtype)
    _descend(hier, level + 1, coarse, coarse_rhs, nu1, nu2, solve_level)
    prolong_state(coarse, hier.sizes[level], add_to=state, work=system.work,
                  bands=system.bands)
    for _ in range(nu2):
        sm.sweep(state, rhs)


def _set_bands(hier: GridHierarchy, solve_level: int) -> None:
    """Give the cycle's systems ``grid.BANDS`` bands unless a level makes a
    product OpenBLAS threads (``qbsr``'s Schur solve or the direct solve):
    its workers spin for tens of ms after it, against the band workers."""
    threaded = (hier.sizes[solve_level] >= BLAS_THREADED_MIN
                or hier.params.scheme == "qbsr" and hier.sizes[0] >= BLAS_THREADED_MIN)
    for system in hier.systems:
        system.bands = 1 if threaded else grid.BANDS


def two_grid_cycle(hier: GridHierarchy, state, rhs, nu1: int, nu2: int) -> None:
    """One two-grid cycle in place: smooth, exact next-level solve, correct."""
    if hier.levels < 2:
        raise ValueError("two-grid cycle needs at least two levels")
    _set_bands(hier, 1)
    _descend(hier, 0, state, rhs, nu1, nu2, solve_level=1)


def v_cycle(hier: GridHierarchy, state, rhs, nu1: int, nu2: int) -> None:
    """One V-cycle in place, recursing to the 3x3 grid's direct solve."""
    _set_bands(hier, hier.levels - 1)
    _descend(hier, 0, state, rhs, nu1, nu2, solve_level=hier.levels - 1)


@dataclass
class ConvergenceReport:
    """Residual history of a measured run and its convergence factor."""

    residual_norms: list[float]
    iterations: int
    rho_m: float
    converged: bool
    diverged: bool
    config: dict = field(default_factory=dict)

    def summary(self) -> str:
        status = "converged" if self.converged else ("diverged" if self.diverged else "max-iters")
        return (f"k={self.iterations} rho_m={self.rho_m:.4f} "
                f"r0={self.residual_norms[0]:.3e} rk={self.residual_norms[-1]:.3e} [{status}]")


def solve(hier: GridHierarchy, nu1: int, nu2: int, cycle: str = "v",
          rhs: grid.StaggeredState | None = None, max_iters: int = 200,
          tol: float = 1e-12, seed: int = 0) -> ConvergenceReport:
    """Iterate cycles from a seeded random start until the residual reaches tol.

    With the default zero right-hand side the exact solution is zero, the
    state is the error, and rho_m estimates the cycle's convergence factor.
    """
    if cycle not in ("v", "two"):
        raise ValueError(f"cycle must be 'v' or 'two', got {cycle!r}")
    step = v_cycle if cycle == "v" else two_grid_cycle
    n = hier.sizes[0]
    state = grid.random_state(n, hier.bc, seed=seed)
    if rhs is None:
        rhs = grid.StaggeredState.zeros(n, hier.bc)
    system = hier.systems[0]
    # measured into the residual work array the cycle itself uses
    resid = system.work_state("r", np.result_type(state.u, rhs.u))
    r0 = system.residual(state, rhs, out=resid).norm()
    norms = [r0]
    converged = diverged = False
    k = 0
    while k < max_iters:
        step(hier, state, rhs, nu1, nu2)
        grid.project_gauge(state)
        k += 1
        rk = system.residual(state, rhs, out=resid).norm()
        norms.append(rk)
        if not np.isfinite(rk) or rk > 1e6 * r0:
            diverged = True
            break
        if rk <= tol:
            converged = True
            break
    rho = float((norms[-1] / r0) ** (1.0 / k)) if k else float("nan")
    p = hier.params
    config = {
        "n": n, "bc": hier.bc, "cycle": cycle, "nu1": nu1, "nu2": nu2,
        "scheme": p.scheme, "omega": p.omega, "alpha": p.alpha,
        "sigma": p.sigma, "omega_j": p.omega_j,
        "restrict": hier.transfer.restrict, "prolong": hier.transfer.prolong,
        "seed": seed, "tol": tol, "max_iters": max_iters,
    }
    return ConvergenceReport(norms, k, rho, converged, diverged, config)


def asymptotic_factor(hier: GridHierarchy, nu1: int, nu2: int, cycle: str = "two",
                      iters: int = 360, window: int = 60, seed: int = 0) -> float:
    """Asymptotic per-cycle error contraction by renormalized power iteration.

    Applies the cycle to the homogeneous problem, rescaling the state to unit
    norm each step so the iteration never hits the floating point floor.  The
    estimate is the geometric mean of the last ``window`` contraction ratios,
    which rides out oscillations from complex or clustered eigenvalues.
    """
    if cycle not in ("v", "two"):
        raise ValueError(f"cycle must be 'v' or 'two', got {cycle!r}")
    step = v_cycle if cycle == "v" else two_grid_cycle
    n = hier.sizes[0]
    state = grid.random_state(n, hier.bc, seed=seed)
    rhs = grid.StaggeredState.zeros(n, hier.bc)
    grid.project_gauge(state)
    scale = state.norm()
    for f in (state.u, state.v, state.p):
        f /= scale
    ratios = []
    for _ in range(iters):
        step(hier, state, rhs, nu1, nu2)
        grid.project_gauge(state)
        nrm = state.norm()
        ratios.append(nrm)
        if nrm == 0.0 or not np.isfinite(nrm):
            return float(nrm)
        for f in (state.u, state.v, state.p):
            f /= nrm
    tail = np.array(ratios[-window:])
    return float(np.exp(np.mean(np.log(tail))))


def assemble_two_grid_matrix(n: int, params: RelaxParams, transfer: TransferPair,
                             nu1: int, nu2: int, bc: str = "periodic") -> np.ndarray:
    """Dense error-propagation matrix of one two-grid cycle, by column probing.

    Applies the cycle with zero right-hand side to every unit-error state, so
    column j is the propagated error of basis vector j.  Guarded to tiny grids.
    """
    if n > 9:
        raise ValueError("brute-force matrix oracle is limited to n <= 9")
    hier = GridHierarchy(n, bc, params, transfer)
    rhs = grid.StaggeredState.zeros(n, bc)
    size = rhs.flat().size
    mat = np.empty((size, size))
    for j in range(size):
        e = np.zeros(size)
        e[j] = 1.0
        st = grid.StaggeredState.from_flat(e, n, bc)
        two_grid_cycle(hier, st, rhs, nu1, nu2)
        mat[:, j] = st.flat()
    return mat


def projected_spectral_radius(mat: np.ndarray, n: int, bc: str) -> float:
    """Spectral radius with the operator nullspace (fixed modes) projected out."""
    ns = assemble.nullspace(n, bc)
    proj = np.eye(mat.shape[0]) - ns @ ns.T
    return float(np.abs(np.linalg.eigvals(proj @ mat @ proj)).max())
