"""Staggered (MAC) discretization of the Stokes system on the unit square.

Arrays are indexed ``[x-index, y-index]`` with mesh width ``h = 1/n``:

* ``u[i, j]`` lives at ``(i h, (j + 1/2) h)`` (vertical edge midpoints),
* ``v[i, j]`` lives at ``((i + 1/2) h, j h)`` (horizontal edge midpoints),
* ``p[i, j]`` lives at ``((i + 1/2) h, (j + 1/2) h)`` (cell centers).

With periodic boundaries every field is ``n x n``.  With Dirichlet (no-slip)
boundaries the normal velocities on the boundary lines are eliminated as
zeros, so ``u`` is ``(n-1) x n``, ``v`` is ``n x (n-1)`` and ``p`` is
``n x n``.

Every boundary closure goes through ``pad_rows``: periodic fields wrap, and
Dirichlet fields are padded per axis with ``sign * mirrored interior``, where
a sign of 0 means zero extension.  The normal axis of a velocity component
ends on the wall line itself, which carries the eliminated zero unknowns, so
its sign is always 0.  The Dirichlet signs, ``(x-axis, y-axis)``:

===========================  ==========  ==========  ==========
closure                      u           v           p
===========================  ==========  ==========  ==========
Laplacian (operator ghost)   (0, -1)     (-1, 0)     (+1, +1)
mass (operator ghost)        (0, -1)     (-1, 0)     (0, 0)
transfer fold                (0, -1)     (-1, 0)     (+1, +1)
===========================  ==========  ==========  ==========

The velocity sign -1 is the linear interpolant through the zero wall value;
the pressure mass drops outside contributions; the cell Laplacian of the
distributive update reads the Neumann ghost.  ``assemble`` reads the same
operator signs, and ``multigrid`` the transfer folds.

The saddle operator is ``[[A, B^T], [B, 0]]`` where ``A`` is the vector
Laplacian, ``B^T`` the pressure gradient and ``B`` the negative divergence,
so the whole matrix is symmetric.  All actions here are matrix-free slicing
into given arrays, with temporaries taken from the level's ``Workspace``;
``assemble`` builds the same operators as sparse matrices, as oracles.  The
only whole-field actions are ``SaddleSystem.residual``, ``grad`` and
``neg_div``; the sweeps chain the same row kernels through
``SaddleSystem.run``, and ``L x`` is the negated residual for no right-hand
side, so an operator is applied one way only.

Every kernel is written once, over a range of memory rows (the x index).
``SaddleSystem.run`` runs a chain of *phases*, each a body over rows
``lo:hi``: on a level of at least ``BAND_MIN`` points (n = 243 and 729)
each phase runs in ``BANDS`` row bands, the caller running one and a
per-process thread pool the rest while numpy releases the GIL, and the next
phase starts when all are done; otherwise each phase runs once over all
rows.  Within a phase no band reads
rows another band writes: a stencil pads its band's rows plus a 1-row halo
into rows of the padded work array that only that band uses, and a step that
reads neighbouring rows of a field computed in the chain (a stencil, the x
differences of ``grad`` and ``neg_div``) starts a new phase.  Every element
goes through the same ufuncs in the same order, so results are
bit-identical; reductions are never banded.
"""

from __future__ import annotations

import functools
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

BCS = ("periodic", "dirichlet")

# Dirichlet ghost signs: a stencil leg past the wall reads sign * interior.
# The velocity sign is the standard MAC treatment; the mass and
# cell-Laplacian signs are the ones validated by reproducing the measured
# Dirichlet convergence tables.  The assembled-matrix route in ``assemble``
# reads the same constants, keeping both routes identical.
VELOCITY_GHOST = -1.0  # velocity Laplacian and velocity mass
PRESSURE_MASS_GHOST = 0.0
CELL_LAPLACIAN_GHOST = 1.0  # distributive cell Laplacian (Neumann)

# Per-axis pad signs of the velocity components: zero on the normal axis
# (the wall line), the ghost sign on the tangential one.
VELOCITY_SIGNS = {"u": (0.0, VELOCITY_GHOST), "v": (VELOCITY_GHOST, 0.0)}
PRESSURE_MASS_SIGNS = (PRESSURE_MASS_GHOST,) * 2
CELL_LAPLACIAN_SIGNS = (CELL_LAPLACIAN_GHOST,) * 2

# Transfer stencil legs reaching past a wall mirror the field's symmetry
# there: odd fold for tangential velocity (no-slip), zero extension in the
# normal velocity direction, even fold for pressure (cells mirror across the
# wall face).
TRANSFER_FOLDS = {**VELOCITY_SIGNS, "p": (1.0, 1.0)}


# the smallest level, in grid points, whose phases run in row bands: n = 243
# gains and n = 81 loses to the pool's round trips (see README)
BAND_MIN = 243 * 243 // 2
BANDS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@functools.lru_cache(maxsize=1)
def band_pool(pid: int) -> ThreadPoolExecutor:
    """Process ``pid``'s band workers; a forked child gets its own."""
    return ThreadPoolExecutor(max(1, BANDS - 1))


def cuts(count: int, bands: int) -> list:
    """``bands`` contiguous ``(lo, hi)`` ranges covering ``range(count)``."""
    return [(count * k // bands, count * (k + 1) // bands) for k in range(bands)]


def run_each(body, items) -> None:
    """``body(*item)`` for every item, the caller running the first and the
    per-process pool the rest; returns when all are done.  A body (a phase's row
    band, a chunk of LFA bases) is leaf numpy code: no workspace lookup, no nesting."""
    if len(items) == 1:
        body(*items[0])
        return
    pool = band_pool(os.getpid())
    futures = [pool.submit(body, *item) for item in items[1:]]
    try:
        body(*items[0])
    finally:
        for fut in futures:
            fut.result()


def check_size(n: int) -> None:
    """Mesh sizes are 3 * 3**k so the hierarchy bottoms out on a 3x3 grid."""
    m = n
    while m % 3 == 0 and m > 3:
        m //= 3
    if m != 3:
        raise ValueError(f"grid size {n} is not of the form 3 * 3**k")


def field_shapes(n: int, bc: str) -> dict[str, tuple[int, int]]:
    if bc not in BCS:
        raise ValueError(f"unknown boundary mode {bc!r}")
    if bc == "periodic":
        return {"u": (n, n), "v": (n, n), "p": (n, n)}
    return {"u": (n - 1, n), "v": (n, n - 1), "p": (n, n)}


def pad_rows(f: np.ndarray, radius: int, signs, bc: str, out: np.ndarray,
             first: int = 0) -> np.ndarray:
    """Rows ``first : first + len(out)`` of ``f`` padded by ``radius`` with
    its boundary closure, into ``out`` (``f.shape[1] + 2 radius`` columns).

    Padded row ``i`` holds field row ``i - radius``.  Periodic fields wrap.
    Dirichlet fields are zero-extended, and each border along axis ``k`` is
    ``signs[k] * mirrored interior`` (reflection between samples); a sign of 0
    leaves the zero extension.  The x borders are closed first and each row
    then along y, so corners take both closures.  Only ``f`` is read, so
    bands may pad overlapping rows into rows of their own.
    """
    r, (m, cols) = radius, f.shape
    if bc == "periodic" and r > min(m, cols):
        raise ValueError(f"wrap radius {r} exceeds the field length {min(m, cols)}")
    a, b = first, first + len(out)
    inner = out[:, r : r + cols]
    lo, hi = max(a, r), min(b, r + m)
    if lo < hi:
        inner[lo - a : hi - a] = f[lo - r : hi - r]
    for i in (*range(a, min(b, r)), *range(max(a, r + m), b)):
        t = r - 1 - i if i < r else i - r - m  # the border row's distance from the wall
        if bc == "periodic":
            inner[i - a] = f[(i - r) % m]
        elif signs[0] == 0.0 or t >= m:
            inner[i - a] = 0.0
        else:
            # np.multiply with out= makes no temporary; np.negative would be the
            # obvious -1 case, but numpy 2.4.6 gets it wrong on some strided columns
            np.multiply(f[t if i < r else m - 1 - t], signs[0], out=inner[i - a])
    if bc == "periodic":
        out[:, :r] = out[:, cols : cols + r]
        out[:, r + cols :] = out[:, r : 2 * r]
        return out
    out[:, :r] = 0.0
    out[:, r + cols :] = 0.0
    s = signs[1]
    if s != 0.0:
        for t in range(min(r, cols)):
            np.multiply(out[:, r + t], s, out=out[:, r - 1 - t])
            np.multiply(out[:, r + cols - 1 - t], s, out=out[:, r + cols + t])
    return out


def block(flat: np.ndarray, shape) -> np.ndarray:
    """A contiguous ``shape`` array over the start of a flat work array."""
    return flat[: shape[0] * shape[1]].reshape(shape)


def pad_field(f: np.ndarray, radius: int, signs, bc: str) -> np.ndarray:
    """A whole field padded by ``radius`` with its boundary closure (``pad_rows``)."""
    if bc not in BCS:
        raise ValueError(f"unknown boundary mode {bc!r}")
    out = np.empty((f.shape[0] + 2 * radius, f.shape[1] + 2 * radius), f.dtype)
    return pad_rows(f, radius, signs, bc, out)


class Workspace:
    """Work arrays kept per role and dtype, allocated on first use.

    ``ws(role, shape, dtype)`` returns a ``shape`` view of the flat array kept
    for ``(role, dtype)``, grown when a larger shape asks for it, so the u, v
    and p shapes of one role share storage.  Two live arrays need two roles.
    Each view is made once per ``(role, shape, dtype)`` and made again after
    its flat array grows, as are the band views (``band_rows``) of its dtype.

    Every ``SaddleSystem`` of one grid size built in one thread shares one
    workspace (``_level_workspace``), whatever its scheme or boundary, so its
    arrays are scratch for one cycle or one action at a time: hierarchies
    built in one thread must not run cycles at the same time, while those
    built in different threads never share.
    """

    def __init__(self):
        self._flat: dict = {}
        self._views: dict = {}

    def __call__(self, role: str, shape, dtype) -> np.ndarray:
        view = self._views.get((role, shape, dtype))
        if view is None:
            view = self._views[(role, shape, dtype)] = self._view(role, shape, np.dtype(dtype))
        return view

    def _view(self, role: str, shape, dtype: np.dtype) -> np.ndarray:
        size = shape[0] * shape[1]
        flat = self._flat.get((role, dtype))
        if flat is None or flat.size < size:
            flat = self._flat[(role, dtype)] = np.empty(size, dtype)
            # band views of this dtype go too, whichever role grew
            self._views = {key: v for key, v in self._views.items()
                           if key[0] not in (role, "bands") or np.dtype(key[2]) != dtype}
        return flat[:size].reshape(shape)

    def band_rows(self, n: int, bands: int, dtype) -> list:
        """``(lo, hi, seg, gx)`` per row band of an n-row level: band k pads into
        rows ``lo + 2k`` to ``hi + 2k + 2`` of the flat ``pad`` (n + 2 columns),
        so no two bands share a row, and ``gx`` is its rows of ``mass``."""
        key = ("bands", (n, bands), dtype)
        if key not in self._views:
            w = n + 2
            pad = self("pad", (1, (n + 2 * bands) * w), dtype)[0]
            gx = self("mass", (1, n * w), dtype)[0]
            self._views[key] = [(lo, hi, pad[(lo + 2 * k) * w : (hi + 2 * k + 2) * w],
                                 gx[lo * w : hi * w]) for k, (lo, hi) in enumerate(cuts(n, bands))]
        return self._views[key]


_LEVELS = threading.local()


def _level_workspace(n: int) -> Workspace:
    """This thread's workspace of grid size n, made when no live system of
    that size holds one, and freed with the last system that does."""
    shared = getattr(_LEVELS, "by_n", None)
    if shared is None:
        shared = _LEVELS.by_n = weakref.WeakValueDictionary()
    work = shared.get(n)
    if work is None:
        work = shared[n] = Workspace()
    return work


@dataclass
class StaggeredState:
    """One velocity-pressure grid function (or residual / correction)."""

    n: int
    bc: str
    u: np.ndarray
    v: np.ndarray
    p: np.ndarray

    @classmethod
    def zeros(cls, n: int, bc: str, dtype=float) -> "StaggeredState":
        shapes = field_shapes(n, bc)
        return cls(
            n,
            bc,
            np.zeros(shapes["u"], dtype),
            np.zeros(shapes["v"], dtype),
            np.zeros(shapes["p"], dtype),
        )

    def copy(self) -> "StaggeredState":
        return StaggeredState(self.n, self.bc, self.u.copy(), self.v.copy(), self.p.copy())

    def norm(self) -> float:
        # einsum sums in numpy's own loops: np.vdot on a large field wakes
        # OpenBLAS's threads, which then spin against the band workers
        parts = [g for f in (self.u, self.v, self.p)
                 for g in ((f.real, f.imag) if np.iscomplexobj(f) else (f,))]
        return float(np.sqrt(sum(np.einsum("ij,ij->", g, g) for g in parts)))

    def flat(self) -> np.ndarray:
        return np.concatenate([self.u.ravel(), self.v.ravel(), self.p.ravel()])

    @classmethod
    def from_flat(cls, vec: np.ndarray, n: int, bc: str) -> "StaggeredState":
        shapes = field_shapes(n, bc)
        sizes = [shapes[f][0] * shapes[f][1] for f in ("u", "v", "p")]
        if vec.size != sum(sizes):
            raise ValueError("flat vector length does not match the field shapes")
        cu = vec[: sizes[0]].reshape(shapes["u"])
        cv = vec[sizes[0] : sizes[0] + sizes[1]].reshape(shapes["v"])
        cp = vec[sizes[0] + sizes[1] :].reshape(shapes["p"])
        return cls(n, bc, cu.copy(), cv.copy(), cp.copy())


def project_gauge(state: StaggeredState) -> StaggeredState:
    """Remove the nullspace components in place: mean pressure, and for
    periodic boundaries also the constant velocity modes."""
    state.p -= state.p.mean()
    if state.bc == "periodic":
        state.u -= state.u.mean()
        state.v -= state.v.mean()
    return state


class SaddleSystem:
    """Matrix-free actions of the MAC Stokes operator on one grid level.

    The whole-field actions are ``residual``, ``grad`` and ``neg_div``.
    ``grad`` and ``neg_div`` write into the ``out`` they are given, and
    ``residual`` into ``out`` when given and a new state otherwise; their
    padded copies and temporaries come from ``work``, the ``Workspace`` that
    every system of size n built in the same thread shares (so they may not
    run at the same time), and a call with ``out`` allocates nothing after
    the first.  Each is one phase of
    row kernels (``run``), as is each step of a sweep; levels of at least
    ``BAND_MIN`` points run their phases in ``BANDS`` row bands.

    The row kernels (``*_rows``) compute rows ``lo:hi`` of their output,
    clipped to its length, from inputs that no band of the running phase
    writes.  ``seg`` is the band's own rows of the padded work array, and
    ``gx``, which only ``mass_rows`` takes, of the mass stencil's first pass.
    """

    def __init__(self, n: int, bc: str):
        check_size(n)
        if bc not in BCS:
            raise ValueError(f"unknown boundary mode {bc!r}")
        self.n = n
        self.bc = bc
        self.h = 1.0 / n
        self.shapes = field_shapes(n, bc)
        self.work = _level_workspace(n)

    def work_state(self, role: str, dtype) -> StaggeredState:
        """A state of workspace arrays; ``role`` names its three fields."""
        return StaggeredState(self.n, self.bc, *(self.work(role + f, self.shapes[f], dtype)
                                                 for f in ("u", "v", "p")))

    def run(self, dtype, *phases) -> None:
        """Each ``phase(lo, hi, seg, gx)`` over the level's row bands in turn.
        ``seg`` and ``gx`` are flat rows of the shared workspace that only
        this band uses (``Workspace.band_rows``), over which each kernel lays
        a contiguous block of its shape (``block``)."""
        bands = BANDS if self.n * self.n >= BAND_MIN else 1
        rows = self.work.band_rows(self.n, bands, dtype)
        for phase in phases:
            run_each(phase, rows)

    # -- stencils: pad the band's rows with a halo, then in-place slicing

    def _padded(self, f: np.ndarray, signs, seg: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Rows ``lo - 1 .. hi`` of f padded by 1 (hi clipped to f), in seg."""
        rows = max(min(hi, len(f)) - lo, 0)
        return pad_rows(f, 1, signs, self.bc, block(seg, (rows + 2, f.shape[1] + 2)), lo)

    def five_point_rows(self, f, signs, out, lo, hi, seg) -> np.ndarray:
        """Rows lo:hi of the five-point Laplacian of f, into out's rows."""
        fp = self._padded(f, signs, seg, lo, hi)
        o = out[lo : lo + len(fp) - 2]
        np.multiply(fp[1:-1, 1:-1], 4.0, out=o)
        o -= fp[:-2, 1:-1]
        o -= fp[2:, 1:-1]
        o -= fp[1:-1, :-2]
        o -= fp[1:-1, 2:]
        o /= self.h**2
        return o

    def mass_rows(self, f, signs, out, lo, hi, seg, gx) -> np.ndarray:
        """Rows lo:hi of the nine-point mass of f, into out's rows or, with
        ``out`` None, into the first rows of seg, which the second pass may
        overwrite: it reads only gx."""
        fp = self._padded(f, signs, seg, lo, hi)
        rows = len(fp) - 2
        o = block(seg, (rows, f.shape[1])) if out is None else out[lo : lo + rows]
        gx = block(gx, (rows, fp.shape[1]))
        # separable [1 4 1] passes; the additions keep their left-to-right order
        np.multiply(fp[1:-1, :], 4.0, out=gx)
        gx += fp[:-2, :]
        gx += fp[2:, :]
        np.multiply(gx[:, 1:-1], 4.0, out=o)
        o += gx[:, :-2]
        o += gx[:, 2:]
        o *= self.h**2 / 36.0
        return o

    # -- gradient / divergence: 1D passes along axis 0 over rows lo:hi
    # (they read rows lo - 1 .. hi); along axis 1 each band runs the whole
    # pass on its rows, transposed

    def _grad_pass(self, p: np.ndarray, g: np.ndarray, lo: int, hi: int) -> None:
        # periodic g[i] = p[i] - p[i - 1]; Dirichlet g[i] = p[i + 1] - p[i]
        hi = min(hi, len(g))
        if self.bc == "periodic":
            if lo == 0:
                np.subtract(p[:1], p[-1:], out=g[:1])
            a = max(lo, 1)
            np.subtract(p[a:hi], p[a - 1 : hi - 1], out=g[a:hi])
        else:
            np.subtract(p[lo + 1 : hi + 1], p[lo:hi], out=g[lo:hi])
        np.divide(g[lo:hi], self.h, out=g[lo:hi])

    def _div_pass(self, u: np.ndarray, d: np.ndarray, lo: int, hi: int) -> None:
        hi = min(hi, len(d))
        if self.bc == "periodic":
            b = min(hi, len(d) - 1)
            np.subtract(u[lo + 1 : b + 1], u[lo:b], out=d[lo:b])
            if hi == len(d):
                np.subtract(u[:1], u[-1:], out=d[-1:])
            return
        # the eliminated wall velocities are zero; multiply by -1 rather
        # than np.negative (see pad_rows)
        if lo == 0:
            d[0] = u[0]
        a, b = max(lo, 1), min(hi, len(d) - 1)
        np.subtract(u[a:b], u[a - 1 : b - 1], out=d[a:b])
        if hi == len(d):
            np.multiply(u[-1], -1.0, out=d[-1])

    def grad_rows(self, p: np.ndarray, axis: int, g: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Rows lo:hi of gradient component ``axis`` of p, into g; returns them."""
        if axis == 0:
            self._grad_pass(p, g, lo, hi)
        else:
            band = g[lo:hi]
            self._grad_pass(p[lo:hi].T, band.T, 0, band.shape[1])
        return g[lo:hi]

    def div_rows(self, u: np.ndarray, v: np.ndarray, out: np.ndarray, lo: int, hi: int,
                 seg: np.ndarray) -> np.ndarray:
        """Rows lo:hi of the negative divergence, into out's rows; the y
        differences go through seg.  Returns the rows."""
        self._div_pass(u, out, lo, hi)
        o = out[lo:hi]
        dv = block(seg, o.shape)
        self._div_pass(v[lo:hi].T, dv.T, 0, o.shape[1])
        np.add(o, dv, out=o)
        return np.divide(o, -self.h, out=o)

    def apply_rows(self, st: StaggeredState, out: StaggeredState, lo: int, hi: int,
                   seg: np.ndarray) -> None:
        """Rows lo:hi of the saddle operator applied to st."""
        # each gradient component is formed in out.p, which neg_div writes last
        for axis, comp, f, o in ((0, "u", st.u, out.u), (1, "v", st.v, out.v)):
            lap = self.five_point_rows(f, VELOCITY_SIGNS[comp], o, lo, hi, seg)
            g = self.grad_rows(st.p, axis, out.p[: o.shape[0], : o.shape[1]], lo, hi)
            np.add(lap, g, out=lap)
        self.div_rows(st.u, st.v, out.p, lo, hi, seg)

    # -- the whole-field actions, one phase each ----------------------------

    def grad(self, p: np.ndarray, out: tuple) -> tuple:
        """Pressure gradient onto the velocity points (the B^T action), into
        the ``(u, v)`` pair ``out``."""
        gu, gv = out
        self.run(gu.dtype, lambda lo, hi, seg, gx: (self.grad_rows(p, 0, gu, lo, hi),
                                                   self.grad_rows(p, 1, gv, lo, hi)))
        return gu, gv

    def neg_div(self, u: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Negative discrete divergence at cell centers (the B action), into ``out``."""
        self.run(out.dtype, lambda lo, hi, seg, gx: self.div_rows(u, v, out, lo, hi, seg))
        return out

    def residual(self, st: StaggeredState, rhs: StaggeredState | None,
                 out: StaggeredState | None = None) -> StaggeredState:
        if out is None:
            dtype = st.u.dtype if rhs is None else np.result_type(st.u, rhs.u)
            out = StaggeredState.zeros(self.n, self.bc, dtype)

        def rows(lo, hi, seg, gx):
            self.apply_rows(st, out, lo, hi, seg)
            for name in ("u", "v", "p"):
                f = getattr(out, name)[lo:hi]
                if rhs is None:
                    np.multiply(f, -1.0, out=f)
                else:
                    np.subtract(getattr(rhs, name)[lo:hi], f, out=f)

        self.run(out.p.dtype, rows)
        return out


def build_system(n: int, bc: str) -> SaddleSystem:
    return SaddleSystem(n, bc)


def random_state(n: int, bc: str, seed: int) -> StaggeredState:
    """Deterministic uniform [-1, 1] initial guess with the gauge projected out."""
    rng = np.random.default_rng(seed)
    shapes = field_shapes(n, bc)
    st = StaggeredState(
        n,
        bc,
        rng.uniform(-1.0, 1.0, shapes["u"]),
        rng.uniform(-1.0, 1.0, shapes["v"]),
        rng.uniform(-1.0, 1.0, shapes["p"]),
    )
    return project_gauge(st)


def fourier_state(n: int, theta, coeffs=(1.0, 1.0, 1.0)) -> StaggeredState:
    """Single staggered Fourier mode on the periodic grid.

    ``theta`` must lie on the lattice ``2 pi k / n`` for exact periodicity.
    The staggered offsets enter the phases: u carries ``(i, j + 1/2)``,
    v ``(i + 1/2, j)`` and p ``(i + 1/2, j + 1/2)``.
    """
    t1, t2 = float(theta[0]), float(theta[1])
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    st = StaggeredState.zeros(n, "periodic", dtype=complex)
    st.u = coeffs[0] * np.exp(1j * (t1 * i + t2 * (j + 0.5)))
    st.v = coeffs[1] * np.exp(1j * (t1 * (i + 0.5) + t2 * j))
    st.p = coeffs[2] * np.exp(1j * (t1 * (i + 0.5) + t2 * (j + 0.5)))
    return st


def mode_coefficients(st: StaggeredState, theta) -> np.ndarray:
    """Project a periodic state onto one staggered Fourier mode (exact on the
    lattice by orthogonality); returns the three field coefficients."""
    n = st.n
    base = fourier_state(n, theta)
    return np.array(
        [
            np.vdot(base.u, st.u) / n**2,
            np.vdot(base.v, st.v) / n**2,
            np.vdot(base.p, st.p) / n**2,
        ]
    )
