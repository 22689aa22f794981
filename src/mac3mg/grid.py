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
so the whole matrix is symmetric.  All actions here are matrix-free slicing;
``assemble`` builds the same operators as sparse matrices for the small
direct solves and the cross-validation tests.
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


def pad_field(f: np.ndarray, radius: int, signs, bc: str) -> np.ndarray:
    """Pad a field by ``radius`` with its boundary closure.

    Periodic fields wrap.  Dirichlet fields are zero-padded, then each border
    along axis ``k`` is set to ``signs[k] * mirrored interior`` (reflection
    between samples); a sign of 0 leaves the zero extension.
    """
    if bc not in BCS:
        raise ValueError(f"unknown boundary mode {bc!r}")
    if bc == "periodic":
        return np.pad(f, radius, mode="wrap")
    out = np.pad(f, radius)
    for axis, s in enumerate(signs):
        if s == 0.0:
            continue
        src = np.moveaxis(out, axis, 0)
        m = f.shape[axis]
        for t in range(min(radius, m)):
            src[radius - 1 - t] = s * src[radius + t]
            src[radius + m + t] = s * src[radius + m - 1 - t]
    return out


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

    def add_scaled(self, other: "StaggeredState", c: float) -> None:
        self.u += c * other.u
        self.v += c * other.v
        self.p += c * other.p


def project_gauge(state: StaggeredState) -> StaggeredState:
    """Remove the nullspace components in place: mean pressure, and for
    periodic boundaries also the constant velocity modes."""
    state.p -= state.p.mean()
    if state.bc == "periodic":
        state.u -= state.u.mean()
        state.v -= state.v.mean()
    return state


class SaddleSystem:
    """Matrix-free actions of the MAC Stokes operator on one grid level."""

    def __init__(self, n: int, bc: str):
        check_size(n)
        if bc not in BCS:
            raise ValueError(f"unknown boundary mode {bc!r}")
        self.n = n
        self.bc = bc
        self.h = 1.0 / n
        self.shapes = field_shapes(n, bc)

    # -- stencils: pad with the boundary closure, then one slicing expression

    @staticmethod
    def _five_point(fp: np.ndarray, h: float) -> np.ndarray:
        c = fp[1:-1, 1:-1]
        return (
            4.0 * c - fp[:-2, 1:-1] - fp[2:, 1:-1] - fp[1:-1, :-2] - fp[1:-1, 2:]
        ) / h**2

    @staticmethod
    def _nine_point_mass(fp: np.ndarray, h: float) -> np.ndarray:
        # In place: numpy does not elide the temporaries of this sum of strided
        # views, and the expression form took about 1.4x as long at n = 729 on
        # a 2-core machine.  The additions keep their left-to-right order.
        gx = 4.0 * fp[1:-1, :]
        gx += fp[:-2, :]
        gx += fp[2:, :]
        g = 4.0 * gx[:, 1:-1]
        g += gx[:, :-2]
        g += gx[:, 2:]
        g *= h**2 / 36.0
        return g

    # -- momentum block -------------------------------------------------

    def apply_lap_u(self, u: np.ndarray) -> np.ndarray:
        return self._five_point(pad_field(u, 1, VELOCITY_SIGNS["u"], self.bc), self.h)

    def apply_lap_v(self, v: np.ndarray) -> np.ndarray:
        return self._five_point(pad_field(v, 1, VELOCITY_SIGNS["v"], self.bc), self.h)

    # -- gradient / divergence ------------------------------------------

    def grad(self, p: np.ndarray):
        """Pressure gradient onto the velocity points (the B^T action)."""
        if self.bc == "periodic":
            gu = np.diff(p, axis=0, prepend=p[-1:, :]) / self.h
            gv = np.diff(p, axis=1, prepend=p[:, -1:]) / self.h
        else:
            gu = (p[1:, :] - p[:-1, :]) / self.h
            gv = (p[:, 1:] - p[:, :-1]) / self.h
        return gu, gv

    def neg_div(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Negative discrete divergence at cell centers (the B action)."""
        if self.bc == "periodic":
            du = np.diff(u, axis=0, append=u[:1, :])
            dv = np.diff(v, axis=1, append=v[:, :1])
            return -(du + dv) / self.h
        n = self.n
        ux = np.zeros((n + 1, n), u.dtype)
        ux[1:n, :] = u
        vy = np.zeros((n, n + 1), v.dtype)
        vy[:, 1:n] = v
        return -((ux[1:, :] - ux[:-1, :]) + (vy[:, 1:] - vy[:, :-1])) / self.h

    # -- mass operators and the distributive pressure operator ----------

    def apply_q(self, f: np.ndarray, comp: str) -> np.ndarray:
        """Velocity mass operator (a multiply, never a solve)."""
        return self._nine_point_mass(pad_field(f, 1, VELOCITY_SIGNS[comp], self.bc), self.h)

    def apply_qp(self, p: np.ndarray) -> np.ndarray:
        """Pressure mass operator."""
        fp = pad_field(p, 1, (PRESSURE_MASS_GHOST,) * 2, self.bc)
        return self._nine_point_mass(fp, self.h)

    def apply_ap(self, p: np.ndarray) -> np.ndarray:
        """Cell-centered Laplacian used by the distributive update."""
        fp = pad_field(p, 1, (CELL_LAPLACIAN_GHOST,) * 2, self.bc)
        return self._five_point(fp, self.h)

    # -- full operator ---------------------------------------------------

    def apply(self, st: StaggeredState) -> StaggeredState:
        gu, gv = self.grad(st.p)
        return StaggeredState(
            self.n,
            self.bc,
            self.apply_lap_u(st.u) + gu,
            self.apply_lap_v(st.v) + gv,
            self.neg_div(st.u, st.v),
        )

    def residual(self, st: StaggeredState, rhs: StaggeredState | None) -> StaggeredState:
        ax = self.apply(st)
        if rhs is None:
            ax.u *= -1.0
            ax.v *= -1.0
            ax.p *= -1.0
            return ax
        return StaggeredState(self.n, self.bc, rhs.u - ax.u, rhs.v - ax.v, rhs.p - ax.p)


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
