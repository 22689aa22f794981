"""Grid-transfer and mass stencils as 1D weight vectors, and their symbols.

With coarsening by three every transfer stencil, and the lumped bilinear mass
too, is ``outer(w, w)`` of one even 1D vector ``w`` of odd length ``2r + 1``:
the 2D coefficient at offset ``(k1, k2)`` is ``w[r + k1] * w[r + k2]``.  The
vector is the whole stencil.  The grid transfers of ``multigrid`` apply it as
two 1D matrices, one per axis, each the scatter of ``w`` over a coarse
identity (transposed for a restriction): dense on small grids, CSR above
``multigrid.DENSE_MAX``.  Its Fourier symbol is a product of two axis sums.

The vectors are dimensionless: the mass carries ``h**2``, which the caller
applies, and the transfers carry no power of ``h``.  Which staggered
sub-grid a stencil acts on is decided by the caller.
"""

from __future__ import annotations

import numpy as np

P25 = np.array([1.0, 2.0, 3.0, 2.0, 1.0]) / 3.0
"""25-point prolongation ``outer(P25, P25) = (1/9) outer(v, v)``, v = [1 2 3 2 1].

Unit coefficient on the coinciding coarse point; the aliasing factor 1/9 of
coarsening by three is applied by the symbol assembly, not stored here."""

MASS = np.array([1.0, 4.0, 1.0]) / 6.0
"""Lumped bilinear mass ``(1/36) [1 4 1; 4 16 4; 1 4 1]`` (times ``h**2``),
shared by the velocity mass and the pressure mass on the cell centers."""

# restriction tags accepted throughout the package
RESTRICTIONS = {
    "r1": np.array([1.0]),  # injection
    "r9": np.array([1.0, 1.0, 1.0]) / 3.0,  # average, ones(3, 3) / 9
    "r9b": np.array([1.0, 2.0, 1.0]) / 4.0,  # weighted, [1 2 1; 2 4 2; 1 2 1] / 16
    "p25t": P25 / 3.0,  # full weighting, the scaled transpose P25^T / 9
}

# every transfer and symbol call shares these arrays, so none may write to them
for _w in (P25, MASS, *RESTRICTIONS.values()):
    _w.flags.writeable = False


def symbol(w: np.ndarray, theta) -> np.ndarray:
    """Fourier symbol ``sum_k w[r + k1] w[r + k2] exp(i theta.k)`` of ``outer(w, w)``.

    ``w`` is even, so the symbol is real: the product over both axes of
    ``w[r] + 2 sum_k w[r + k] cos(k t)``.  ``theta`` has shape ``(..., 2)``
    and the result shape ``(...)``.
    """
    theta = np.asarray(theta, dtype=float)
    r = len(w) // 2
    k = np.arange(1, r + 1)
    axis = w[r] + 2.0 * (w[r + 1 :] * np.cos(theta[..., None] * k)).sum(axis=-1)
    return axis[..., 0] * axis[..., 1]
