"""Sparse assembly of the MAC operators via 1D Kronecker factors.

This mirrors the matrix-free actions in :mod:`mac3mg.grid` entry for entry
(the consistency tests enforce it): a Dirichlet wall reads the ghost signs
``grid.VELOCITY_GHOST``, ``grid.PRESSURE_MASS_GHOST`` and
``grid.CELL_LAPLACIAN_GHOST``, which set the corner entries of the 1D
factors.  One construction serves both boundary modes, which differ only at
the factor ends: ``_band`` wraps them (periodic) or writes the ghost corner
(Dirichlet), and ``_grad1`` adds the wrap entry.  Each entry is scaled
before the build (``-1/h^2``, ``4/6``), as dividing a sparse matrix by a
scalar would multiply by the rounded reciprocal instead.  The assembled
matrices are oracles: the tests and the benchmark
check the matrix-free actions, the fast exact solves and the brute-force
two-grid matrix against them.  ``SchurOperator`` and ``DirectSolver`` use
none: their eigenpairs and diagonals are closed form.

Flattening is row-major over ``[x-index, y-index]`` so ``kron(Ax, Ay)`` acts
with ``Ax`` on the x index and ``Ay`` on the y index, matching ``ravel()``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from . import grid
from .grid import check_size, field_shapes


def _band(n: int, bc: str, off: float, diag: float, corner: float) -> sp.csr_matrix:
    """Symmetric tridiagonal ``[off diag off]`` of size n: periodic wraps the
    off-diagonal into the corners, Dirichlet puts ``corner`` at both ends of
    the diagonal."""
    d = np.full(n, diag)
    if bc == "periodic":
        return sp.diags([off, off, d, off, off], [1 - n, -1, 0, 1, n - 1], shape=(n, n),
                        format="csr")
    d[[0, -1]] = corner
    return sp.diags([off, d, off], [-1, 0, 1], shape=(n, n), format="csr")


def _lap1(n: int, h: float, bc: str, ghost: float) -> sp.csr_matrix:
    """1D second-difference factor ``[-1 2 -1]/h^2``; a Dirichlet wall reads
    the ghost ``ghost * interior``, which sets the corners to ``2 - ghost``."""
    return _band(n, bc, -1.0 / h**2, 2.0 / h**2, (2.0 - ghost) / h**2)


def _mass1(n: int, bc: str, ghost: float) -> sp.csr_matrix:
    """Dimensionless 1D mass factor ``[1 4 1]/6``; a Dirichlet wall reads the
    ghost ``ghost * interior``, which sets the corners to ``4 + ghost``."""
    return _band(n, bc, 1.0 / 6.0, 4.0 / 6.0, (4.0 + ghost) / 6.0)


def _grad1(n: int, h: float, bc: str) -> sp.csr_matrix:
    """1D cell-to-edge difference ``(p[i] - p[i-1])/h`` onto the edges of
    ``field_shapes``: Dirichlet keeps the n - 1 interior edges, periodic all
    n and wraps."""
    e = field_shapes(n, bc)["u"][0]
    diagonals, offsets = [-1.0 / h, 1.0 / h], [n - e - 1, n - e]
    if bc == "periodic":
        diagonals.append(-1.0 / h)
        offsets.append(n - 1)
    return sp.diags(diagonals, offsets, shape=(e, n), format="csr")


def assemble_ops(n: int, bc: str) -> SimpleNamespace:
    """All sparse operators for one level, mirroring the matrix-free actions.

    The edge-direction factors (size ``e``, the edges of ``field_shapes``)
    see the eliminated zero normal velocities; periodic ignores every ghost,
    so each factor is the one circulant of its kind."""
    check_size(n)
    h = 1.0 / n
    e = field_shapes(n, bc)["u"][0]
    eye_n = sp.identity(n, format="csr")
    eye_e = sp.identity(e, format="csr")
    lap_edge = _lap1(e, h, bc, 0.0)
    lap_tan = _lap1(n, h, bc, grid.VELOCITY_GHOST)
    lap_neu = _lap1(n, h, bc, grid.CELL_LAPLACIAN_GHOST)
    mass_edge = _mass1(e, bc, 0.0)
    mass_tan = _mass1(n, bc, grid.VELOCITY_GHOST)
    mass_p = _mass1(n, bc, grid.PRESSURE_MASS_GHOST)
    a_u = sp.kron(lap_edge, eye_n) + sp.kron(eye_e, lap_tan)
    a_v = sp.kron(lap_tan, eye_e) + sp.kron(eye_n, lap_edge)
    gx = sp.kron(_grad1(n, h, bc), eye_n)
    gy = sp.kron(eye_n, _grad1(n, h, bc))
    q_u = h**2 * sp.kron(mass_edge, mass_tan)
    q_v = h**2 * sp.kron(mass_tan, mass_edge)
    q_p = h**2 * sp.kron(mass_p, mass_p)
    a_p = sp.kron(lap_neu, eye_n) + sp.kron(eye_n, lap_neu)

    b = sp.hstack([gx.T, gy.T], format="csr")
    saddle = sp.bmat(
        [
            [a_u, None, gx],
            [None, a_v, gy],
            [gx.T, gy.T, None],
        ],
        format="csr",
    )
    return SimpleNamespace(
        a_u=a_u.tocsr(), a_v=a_v.tocsr(), gx=gx.tocsr(), gy=gy.tocsr(),
        q_u=q_u.tocsr(), q_v=q_v.tocsr(), q_p=q_p.tocsr(), a_p=a_p.tocsr(),
        b=b, saddle=saddle,
    )


def assemble_schur(n: int, bc: str = "dirichlet") -> sp.csr_matrix:
    """Pressure Schur complement ``B diag(Q, Q) B^T`` (a multiply, so exact)."""
    ops = assemble_ops(n, bc)
    c_inv = sp.block_diag([ops.q_u, ops.q_v], format="csr")
    return (ops.b @ c_inv @ ops.b.T).tocsr()


def nullspace(n: int, bc: str) -> np.ndarray:
    """Orthonormal nullspace vectors of the saddle operator (columns): the
    constant pressure, after the constant u and v when periodic."""
    shapes = field_shapes(n, bc)
    ends = np.cumsum([0] + [shapes[f][0] * shapes[f][1] for f in ("u", "v", "p")])
    cols = []
    for k in (0, 1, 2) if bc == "periodic" else (2,):
        const = np.zeros(ends[-1])
        const[ends[k] : ends[k + 1]] = 1.0
        cols.append(const / np.linalg.norm(const))
    return np.stack(cols, axis=1)
