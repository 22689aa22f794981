"""Staggered (MAC) discretization of the Stokes system on the unit square.

Arrays are indexed ``[x-index, y-index]`` with mesh width ``h = 1/n``:

* ``u[i, j]`` lives at ``(i h, (j + 1/2) h)`` (vertical edge midpoints),
* ``v[i, j]`` lives at ``((i + 1/2) h, j h)`` (horizontal edge midpoints),
* ``p[i, j]`` lives at ``((i + 1/2) h, (j + 1/2) h)`` (cell centers).

With periodic boundaries every field is ``n x n``.  With Dirichlet (no-slip)
boundaries the normal velocities on the boundary lines are eliminated as
zeros, so ``u`` is ``(n-1) x n``, ``v`` is ``n x (n-1)`` and ``p`` is
``n x n``.

Every boundary closure goes through ``pad_field``: periodic fields wrap, and
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
``assemble`` builds the same operators as sparse matrices, as oracles.

On fields of at least ``BAND_MIN`` elements (n = 729, not 243) a system
whose ``bands`` the multigrid cycles set above 1 splits its kernels into
bands of memory rows, the caller running one and a per-process thread pool
the rest while numpy releases the GIL: the interior copy of ``pad_field``,
the stencils (with a 2-row halo of the padded input), the 1D differences of
``grad`` and ``neg_div`` (a 1-row halo along axis 0, none along axis 1), the
elementwise steps of ``residual`` and the sweeps, and the strided transfer
passes.  Every element goes through the same ufuncs in the same order, so
results are bit-identical; reductions are never banded.
"""

from __future__ import annotations

import functools
import os
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

# Per-axis pad_field signs of the velocity components: zero on the normal
# axis (the wall line), the ghost sign on the tangential one.
VELOCITY_SIGNS = {"u": (0.0, VELOCITY_GHOST), "v": (VELOCITY_GHOST, 0.0)}

# Transfer stencil legs reaching past a wall mirror the field's symmetry
# there: odd fold for tangential velocity (no-slip), zero extension in the
# normal velocity direction, even fold for pressure (cells mirror across the
# wall face).
TRANSFER_FOLDS = {**VELOCITY_SIGNS, "p": (1.0, 1.0)}


# the smallest field whose kernels run in bands: n = 729 gains, and on smaller
# fields the pool's round trips would cost more than they split (see README)
BAND_MIN = 729 * 729 // 2
BANDS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@functools.lru_cache(maxsize=1)
def band_pool(pid: int) -> ThreadPoolExecutor:
    """Process ``pid``'s band workers; a forked child gets its own."""
    return ThreadPoolExecutor(max(1, BANDS - 1))


def bands_for(f: np.ndarray, bands: int) -> int:
    """The bands a kernel on ``f`` runs in: ``bands`` from BAND_MIN elements up."""
    return bands if f.size >= BAND_MIN else 1


def run_bands(body, count: int, bands: int) -> None:
    """``body(lo, hi)`` over ``bands`` contiguous ranges of ``range(count)``,
    the caller running the first.  A body is leaf numpy code: no workspace
    lookup, no nested banding.  The kernels' row bands and the two-grid LFA's
    chunks of base frequencies (``twogrid._max_radius``) run through here."""
    cuts = [count * k // bands for k in range(bands + 1)]
    pool = band_pool(os.getpid())
    futures = [pool.submit(body, lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])]
    try:
        body(cuts[0], cuts[1])
    finally:
        for fut in futures:
            fut.result()


def ufunc_rows(ufunc, x, y, out: np.ndarray, bands: int) -> np.ndarray:
    """``ufunc(x, y, out=out)`` in ``bands`` row bands; ``x`` and ``y`` are
    arrays of out's shape (``x[1:]`` makes a 1-row halo) or scalars."""
    if bands == 1:
        return ufunc(x, y, out=out)
    cut = lambda a, lo, hi: a[lo:hi] if isinstance(a, np.ndarray) else a  # noqa: E731
    run_bands(lambda lo, hi: ufunc(cut(x, lo, hi), cut(y, lo, hi), out=out[lo:hi]),
              len(out), bands)
    return out


def across(bands: int, fn, arrays, *rest) -> None:
    """``fn(*arrays, *rest)``, a pass along axis 0 of transposed views, in
    ``bands`` bands across axis 1 (memory rows), which need no halo."""
    if bands == 1:
        fn(*arrays, *rest)
    else:
        run_bands(lambda lo, hi: fn(*(a[:, lo:hi] for a in arrays), *rest),
                  arrays[0].shape[1], bands)


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


def pad_field(f: np.ndarray, radius: int, signs, bc: str,
              out: np.ndarray | None = None, bands: int = 1) -> np.ndarray:
    """Pad a field by ``radius`` with its boundary closure, into ``out`` if
    given (shape ``f.shape + 2 * radius`` per axis).

    Periodic fields wrap.  Dirichlet fields are zero-padded, then each border
    along axis ``k`` is set to ``signs[k] * mirrored interior`` (reflection
    between samples); a sign of 0 leaves the zero extension.  Each axis is
    closed over the full extent of the other, so corners take both closures.
    A large interior is copied in up to ``bands`` row bands.
    """
    if bc not in BCS:
        raise ValueError(f"unknown boundary mode {bc!r}")
    r = radius
    if out is None:
        out = np.empty((f.shape[0] + 2 * r, f.shape[1] + 2 * r), f.dtype)
    inner = out[r : r + f.shape[0], r : r + f.shape[1]]
    if bands_for(f, bands) == 1:
        inner[...] = f
    else:
        run_bands(lambda lo, hi: np.copyto(inner[lo:hi], f[lo:hi]), len(f), bands)
    for axis in range(2):
        src = out if axis == 0 else out.T
        m = f.shape[axis]
        if bc == "periodic":
            if r > m:
                raise ValueError(f"wrap radius {r} exceeds the field length {m}")
            src[:r] = src[m : m + r]
            src[r + m :] = src[r : 2 * r]
            continue
        src[:r] = 0.0
        src[r + m :] = 0.0
        s = signs[axis]
        if s == 0.0:
            continue
        # np.multiply with out= makes no temporary; np.negative would be the
        # obvious -1 case, but numpy 2.4.6 gets it wrong on some strided columns
        for t in range(min(r, m)):
            np.multiply(src[r + t], s, out=src[r - 1 - t])
            np.multiply(src[r + m - 1 - t], s, out=src[r + m + t])
    return out


class Workspace:
    """Work arrays kept per role and dtype, allocated on first use.

    ``ws(role, shape, dtype)`` returns a ``shape`` view of the flat array kept
    for ``(role, dtype)``, grown when a larger shape asks for it, so the u, v
    and p shapes of one role share storage.  Two live arrays need two roles.
    """

    def __init__(self):
        self._flat: dict = {}

    def __call__(self, role: str, shape, dtype) -> np.ndarray:
        key, size = (role, np.dtype(dtype)), shape[0] * shape[1]
        flat = self._flat.get(key)
        if flat is None or flat.size < size:
            flat = self._flat[key] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


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

    Every action writes into ``out`` when given and allocates its result
    otherwise; its padded copies and temporaries come from the level's
    ``work`` arrays, so a call with ``out`` allocates nothing after the first.
    Large fields are worked in ``bands`` row bands (1 until a cycle sets it).
    """

    def __init__(self, n: int, bc: str):
        check_size(n)
        if bc not in BCS:
            raise ValueError(f"unknown boundary mode {bc!r}")
        self.n = n
        self.bc = bc
        self.h = 1.0 / n
        self.shapes = field_shapes(n, bc)
        self.work = Workspace()
        self.bands = 1

    def work_state(self, role: str, dtype) -> StaggeredState:
        """A state of workspace arrays; ``role`` names its three fields."""
        return StaggeredState(self.n, self.bc, *(self.work(role + f, self.shapes[f], dtype)
                                                 for f in ("u", "v", "p")))

    def _out(self, out, comp: str, dtype) -> np.ndarray:
        return np.empty(self.shapes[comp], dtype) if out is None else out

    def _pad(self, f: np.ndarray, signs, dtype) -> np.ndarray:
        shape = (f.shape[0] + 2, f.shape[1] + 2)
        return pad_field(f, 1, signs, self.bc, out=self.work("pad", shape, dtype),
                         bands=self.bands)

    # -- stencils: pad with the boundary closure, then in-place slicing

    def _stencil(self, kernel, fp: np.ndarray, out: np.ndarray, *work) -> np.ndarray:
        """``kernel(fp, h, out, *work)``; out rows lo:hi read fp rows lo:hi + 2."""
        bands = bands_for(out, self.bands)
        if bands == 1:
            return kernel(fp, self.h, out, *work)
        run_bands(lambda lo, hi: kernel(fp[lo : hi + 2], self.h, out[lo:hi],
                                        *(w[lo:hi] for w in work)), len(out), bands)
        return out

    @staticmethod
    def _five_point(fp: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
        np.multiply(fp[1:-1, 1:-1], 4.0, out=out)
        out -= fp[:-2, 1:-1]
        out -= fp[2:, 1:-1]
        out -= fp[1:-1, :-2]
        out -= fp[1:-1, 2:]
        out /= h**2
        return out

    @staticmethod
    def _nine_point_mass(fp: np.ndarray, h: float, out: np.ndarray,
                         gx: np.ndarray) -> np.ndarray:
        # separable [1 4 1] passes; the additions keep their left-to-right order
        np.multiply(fp[1:-1, :], 4.0, out=gx)
        gx += fp[:-2, :]
        gx += fp[2:, :]
        np.multiply(gx[:, 1:-1], 4.0, out=out)
        out += gx[:, :-2]
        out += gx[:, 2:]
        out *= h**2 / 36.0
        return out

    def _mass(self, f: np.ndarray, signs, out: np.ndarray) -> np.ndarray:
        fp = self._pad(f, signs, out.dtype)
        gx = self.work("mass", (f.shape[0], f.shape[1] + 2), out.dtype)
        return self._stencil(self._nine_point_mass, fp, out, gx)

    # -- momentum block -------------------------------------------------

    def apply_lap_u(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = self._out(out, "u", u.dtype)
        return self._stencil(self._five_point, self._pad(u, VELOCITY_SIGNS["u"], out.dtype), out)

    def apply_lap_v(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = self._out(out, "v", v.dtype)
        return self._stencil(self._five_point, self._pad(v, VELOCITY_SIGNS["v"], out.dtype), out)

    # -- gradient / divergence: 1D passes along axis 0 (axis 1 through .T;
    # those are banded across, each band running the whole pass)

    def _grad_pass(self, p: np.ndarray, g: np.ndarray, bands: int) -> None:
        # periodic g[i] = p[i] - p[i - 1]; Dirichlet g[i] = p[i + 1] - p[i]
        if self.bc == "periodic":
            np.subtract(p[:1], p[-1:], out=g[:1])
            ufunc_rows(np.subtract, p[1:], p[:-1], g[1:], bands)
        else:
            ufunc_rows(np.subtract, p[1:], p[:-1], g, bands)
        ufunc_rows(np.divide, g, self.h, g, bands)

    def _div_pass(self, u: np.ndarray, d: np.ndarray, bands: int) -> None:
        if self.bc == "periodic":
            ufunc_rows(np.subtract, u[1:], u[:-1], d[:-1], bands)
            np.subtract(u[:1], u[-1:], out=d[-1:])
        else:
            # the eliminated wall velocities are zero; multiply by -1 rather
            # than np.negative (see pad_field)
            d[0] = u[0]
            ufunc_rows(np.subtract, u[1:], u[:-1], d[1:-1], bands)
            np.multiply(u[-1], -1.0, out=d[-1])

    def grad_axis(self, p: np.ndarray, axis: int, g: np.ndarray) -> np.ndarray:
        """Component ``axis`` of the pressure gradient, into ``g``."""
        bands = bands_for(p, self.bands)
        if axis == 0:
            self._grad_pass(p, g, bands)
        else:
            across(bands, self._grad_pass, (p.T, g.T), 1)
        return g

    def grad(self, p: np.ndarray, out=None):
        """Pressure gradient onto the velocity points (the B^T action)."""
        gu, gv = out if out is not None else (self._out(None, "u", p.dtype),
                                              self._out(None, "v", p.dtype))
        return self.grad_axis(p, 0, gu), self.grad_axis(p, 1, gv)

    def neg_div(self, u: np.ndarray, v: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
        """Negative discrete divergence at cell centers (the B action)."""
        out = self._out(out, "p", np.result_type(u, v))
        dv = self.work("pad", self.shapes["p"], out.dtype)  # no padded copy is live here
        bands = bands_for(out, self.bands)
        self._div_pass(u, out, bands)
        across(bands, self._div_pass, (v.T, dv.T), 1)
        ufunc_rows(np.add, out, dv, out, bands)
        return ufunc_rows(np.divide, out, -self.h, out, bands)

    # -- mass operators and the distributive pressure operator ----------

    def apply_q(self, f: np.ndarray, comp: str, out: np.ndarray | None = None) -> np.ndarray:
        """Velocity mass operator (a multiply, never a solve)."""
        return self._mass(f, VELOCITY_SIGNS[comp], self._out(out, comp, f.dtype))

    def apply_qp(self, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Pressure mass operator."""
        return self._mass(p, (PRESSURE_MASS_GHOST,) * 2, self._out(out, "p", p.dtype))

    def apply_ap(self, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Cell-centered Laplacian used by the distributive update."""
        out = self._out(out, "p", p.dtype)
        return self._stencil(self._five_point,
                             self._pad(p, (CELL_LAPLACIAN_GHOST,) * 2, out.dtype), out)

    # -- full operator ---------------------------------------------------

    def apply(self, st: StaggeredState, out: StaggeredState | None = None) -> StaggeredState:
        if out is None:
            out = StaggeredState.zeros(self.n, self.bc, np.result_type(st.u, st.v, st.p))
        bands = bands_for(out.p, self.bands)
        # each gradient component is formed in out.p, which neg_div writes last
        for axis, lap, f, o in ((0, self.apply_lap_u, st.u, out.u),
                                (1, self.apply_lap_v, st.v, out.v)):
            lap(f, out=o)
            g = self.grad_axis(st.p, axis, out.p[: o.shape[0], : o.shape[1]])
            ufunc_rows(np.add, o, g, o, bands)
        self.neg_div(st.u, st.v, out=out.p)
        return out

    def residual(self, st: StaggeredState, rhs: StaggeredState | None,
                 out: StaggeredState | None = None) -> StaggeredState:
        if out is None:
            dtype = st.u.dtype if rhs is None else np.result_type(st.u, rhs.u)
            out = StaggeredState.zeros(self.n, self.bc, dtype)
        ax = self.apply(st, out=out)
        bands = bands_for(ax.p, self.bands)
        for name in ("u", "v", "p"):
            f = getattr(ax, name)
            if rhs is None:
                ufunc_rows(np.multiply, f, -1.0, f, bands)
            else:
                ufunc_rows(np.subtract, getattr(rhs, name), f, f, bands)
        return ax


def build_system(n: int, bc: str = "dirichlet") -> SaddleSystem:
    return SaddleSystem(n, bc)


def random_state(n: int, bc: str, seed: int = 0) -> StaggeredState:
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
