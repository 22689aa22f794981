"""Sparse assembly of the MAC operators via 1D Kronecker factors.

This mirrors the matrix-free actions in :mod:`mac3mg.grid` entry for entry
(the consistency tests enforce it): a Dirichlet wall reads the ghost signs
``grid.VELOCITY_GHOST``, ``grid.PRESSURE_MASS_GHOST`` and
``grid.CELL_LAPLACIAN_GHOST``, which set the corner entries of the 1D
factors.  The assembled matrices are oracles: the tests and the benchmark
check the matrix-free actions, the fast exact solves and the brute-force
two-grid matrix against them.  The solvers use only the 1D factors.

Flattening is row-major over ``[x-index, y-index]`` so ``kron(Ax, Ay)`` acts
with ``Ax`` on the x index and ``Ay`` on the y index, matching ``ravel()``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from . import grid
from .grid import BCS, check_size, field_shapes


def _circulant(n: int, offsets: dict[int, float]) -> sp.csr_matrix:
    rows, cols, vals = [], [], []
    for off, c in offsets.items():
        rows.extend(range(n))
        cols.extend((np.arange(n) + off) % n)
        vals.extend([c] * n)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _tridiag(n: int, sub: float, diag: float, sup: float) -> sp.lil_matrix:
    return sp.diags([sub * np.ones(n - 1), diag * np.ones(n), sup * np.ones(n - 1)],
                    [-1, 0, 1]).tolil()


def _lap1(n: int, h: float, bc: str, ghost: float) -> sp.csr_matrix:
    """1D second-difference factor ``[-1 2 -1]/h^2``.

    A Dirichlet wall reads the ghost ``ghost * interior``, which sets the
    corner entries to ``2 - ghost``; periodic ignores the ghost.
    """
    if bc == "periodic":
        return _circulant(n, {0: 2.0, 1: -1.0, -1: -1.0}) / h**2
    t = _tridiag(n, -1.0, 2.0, -1.0)
    t[0, 0] = t[n - 1, n - 1] = 2.0 - ghost
    return (t / h**2).tocsr()


def _mass1(n: int, bc: str, ghost: float) -> sp.csr_matrix:
    """Dimensionless 1D mass factor ``[1 4 1]/6``; a Dirichlet wall reads the
    ghost ``ghost * interior``, which sets the corners to ``4 + ghost``."""
    if bc == "periodic":
        return _circulant(n, {0: 4.0, 1: 1.0, -1: 1.0}) / 6.0
    t = _tridiag(n, 1.0, 4.0, 1.0)
    t[0, 0] = t[n - 1, n - 1] = 4.0 + ghost
    return (t / 6.0).tocsr()


def _grad1(n: int, h: float, bc: str) -> sp.csr_matrix:
    """1D cell-to-edge difference ``(p[i] - p[i-1])/h``.

    Dirichlet keeps the interior edges only: shape (n-1, n); periodic wraps.
    """
    if bc == "periodic":
        return _circulant(n, {0: 1.0, -1: -1.0}) / h
    rows = np.repeat(np.arange(n - 1), 2)
    cols = np.empty(2 * (n - 1), dtype=int)
    cols[0::2] = np.arange(n - 1)
    cols[1::2] = np.arange(1, n)
    vals = np.tile([-1.0, 1.0], n - 1) / h
    return sp.csr_matrix((vals, (rows, cols)), shape=(n - 1, n))


def assemble_ops(n: int, bc: str = "dirichlet") -> SimpleNamespace:
    """All sparse operators for one level, mirroring the matrix-free actions."""
    check_size(n)
    if bc not in BCS:
        raise ValueError(f"unknown boundary mode {bc!r}")
    h = 1.0 / n
    shapes = field_shapes(n, bc)

    if bc == "periodic":
        eye = sp.identity(n, format="csr")
        lap = _lap1(n, h, bc, 0.0)
        mass = _mass1(n, bc, 0.0)
        a_u = sp.kron(lap, eye) + sp.kron(eye, lap)
        a_v = a_u.copy()
        gx = sp.kron(_grad1(n, h, bc), eye)
        gy = sp.kron(eye, _grad1(n, h, bc))
        q_u = h**2 * sp.kron(mass, mass)
        q_v = q_u.copy()
        q_p = q_u.copy()
        a_p = a_u.copy()
    else:
        # edge-direction factors see the eliminated zero normal velocities
        eye_n = sp.identity(n, format="csr")
        eye_e = sp.identity(n - 1, format="csr")
        lap_edge = _lap1(n - 1, h, bc, 0.0)
        lap_tan = _lap1(n, h, bc, grid.VELOCITY_GHOST)
        lap_neu = _lap1(n, h, bc, grid.CELL_LAPLACIAN_GHOST)
        mass_edge = _mass1(n - 1, bc, 0.0)
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
        n=n, bc=bc, h=h, shapes=shapes,
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
    """Orthonormal nullspace vectors of the saddle operator (columns)."""
    shapes = field_shapes(n, bc)
    sizes = {f: shapes[f][0] * shapes[f][1] for f in ("u", "v", "p")}
    total = sum(sizes.values())
    cols = []
    const_p = np.zeros(total)
    const_p[sizes["u"] + sizes["v"] :] = 1.0
    cols.append(const_p / np.linalg.norm(const_p))
    if bc == "periodic":
        const_u = np.zeros(total)
        const_u[: sizes["u"]] = 1.0
        const_v = np.zeros(total)
        const_v[sizes["u"] : sizes["u"] + sizes["v"]] = 1.0
        cols.insert(0, const_v / np.linalg.norm(const_v))
        cols.insert(0, const_u / np.linalg.norm(const_u))
    return np.stack(cols, axis=1)
