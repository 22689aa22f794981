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
"""

from __future__ import annotations

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
              out: np.ndarray | None = None) -> np.ndarray:
    """Pad a field by ``radius`` with its boundary closure, into ``out`` if
    given (shape ``f.shape + 2 * radius`` per axis).

    Periodic fields wrap.  Dirichlet fields are zero-padded, then each border
    along axis ``k`` is set to ``signs[k] * mirrored interior`` (reflection
    between samples); a sign of 0 leaves the zero extension.  Each axis is
    closed over the full extent of the other, so corners take both closures.
    """
    if bc not in BCS:
        raise ValueError(f"unknown boundary mode {bc!r}")
    r = radius
    if out is None:
        out = np.empty((f.shape[0] + 2 * r, f.shape[1] + 2 * r), f.dtype)
    out[r : r + f.shape[0], r : r + f.shape[1]] = f
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
        s = (
            np.vdot(self.u, self.u) + np.vdot(self.v, self.v) + np.vdot(self.p, self.p)
        ).real
        return float(np.sqrt(s))

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

    def work_state(self, role: str, dtype) -> StaggeredState:
        """A state of workspace arrays; ``role`` names its three fields."""
        return StaggeredState(self.n, self.bc, *(self.work(role + f, self.shapes[f], dtype)
                                                 for f in ("u", "v", "p")))

    def _out(self, out, comp: str, dtype) -> np.ndarray:
        return np.empty(self.shapes[comp], dtype) if out is None else out

    def _pad(self, f: np.ndarray, signs, dtype) -> np.ndarray:
        shape = (f.shape[0] + 2, f.shape[1] + 2)
        return pad_field(f, 1, signs, self.bc, out=self.work("pad", shape, dtype))

    # -- stencils: pad with the boundary closure, then in-place slicing

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
        return self._nine_point_mass(fp, self.h, out, gx)

    # -- momentum block -------------------------------------------------

    def apply_lap_u(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = self._out(out, "u", u.dtype)
        return self._five_point(self._pad(u, VELOCITY_SIGNS["u"], out.dtype), self.h, out)

    def apply_lap_v(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = self._out(out, "v", v.dtype)
        return self._five_point(self._pad(v, VELOCITY_SIGNS["v"], out.dtype), self.h, out)

    # -- gradient / divergence ------------------------------------------

    def grad(self, p: np.ndarray, out=None):
        """Pressure gradient onto the velocity points (the B^T action)."""
        gu, gv = out if out is not None else (self._out(None, "u", p.dtype),
                                              self._out(None, "v", p.dtype))
        if self.bc == "periodic":
            np.subtract(p[:1, :], p[-1:, :], out=gu[:1, :])
            np.subtract(p[:, :1], p[:, -1:], out=gv[:, :1])
            np.subtract(p[1:, :], p[:-1, :], out=gu[1:, :])
            np.subtract(p[:, 1:], p[:, :-1], out=gv[:, 1:])
        else:
            np.subtract(p[1:, :], p[:-1, :], out=gu)
            np.subtract(p[:, 1:], p[:, :-1], out=gv)
        gu /= self.h
        gv /= self.h
        return gu, gv

    def neg_div(self, u: np.ndarray, v: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
        """Negative discrete divergence at cell centers (the B action)."""
        out = self._out(out, "p", np.result_type(u, v))
        dv = self.work("div", self.shapes["p"], out.dtype)
        if self.bc == "periodic":
            np.subtract(u[1:, :], u[:-1, :], out=out[:-1, :])
            np.subtract(u[:1, :], u[-1:, :], out=out[-1:, :])
            np.subtract(v[:, 1:], v[:, :-1], out=dv[:, :-1])
            np.subtract(v[:, :1], v[:, -1:], out=dv[:, -1:])
        else:
            # the eliminated wall velocities are zero; multiply by -1 rather
            # than np.negative (see pad_field)
            out[0, :] = u[0, :]
            np.subtract(u[1:, :], u[:-1, :], out=out[1:-1, :])
            np.multiply(u[-1, :], -1.0, out=out[-1, :])
            dv[:, 0] = v[:, 0]
            np.subtract(v[:, 1:], v[:, :-1], out=dv[:, 1:-1])
            np.multiply(v[:, -1], -1.0, out=dv[:, -1])
        out += dv
        out /= -self.h
        return out

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
        return self._five_point(self._pad(p, (CELL_LAPLACIAN_GHOST,) * 2, out.dtype),
                                self.h, out)

    # -- full operator ---------------------------------------------------

    def apply(self, st: StaggeredState, out: StaggeredState | None = None) -> StaggeredState:
        if out is None:
            out = StaggeredState.zeros(self.n, self.bc, np.result_type(st.u, st.v, st.p))
        gu, gv = self.grad(st.p, out=(self.work("grad_u", self.shapes["u"], out.u.dtype),
                                      self.work("grad_v", self.shapes["v"], out.v.dtype)))
        self.apply_lap_u(st.u, out=out.u)
        out.u += gu
        self.apply_lap_v(st.v, out=out.v)
        out.v += gv
        self.neg_div(st.u, st.v, out=out.p)
        return out

    def residual(self, st: StaggeredState, rhs: StaggeredState | None,
                 out: StaggeredState | None = None) -> StaggeredState:
        if out is None:
            dtype = st.u.dtype if rhs is None else np.result_type(st.u, rhs.u)
            out = StaggeredState.zeros(self.n, self.bc, dtype)
        ax = self.apply(st, out=out)
        for name in ("u", "v", "p"):
            f = getattr(ax, name)
            if rhs is None:
                f *= -1.0
            else:
                np.subtract(getattr(rhs, name), f, out=f)
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
