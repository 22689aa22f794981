"""Constant-coefficient stencils and their Fourier symbols.

A stencil is a finite table of dimensionless coefficients on integer grid
offsets together with a mesh-width power: the physical coefficient at offset
``k`` is ``entries[k] * h**h_power``.  The Laplacian carries ``h_power = -2``,
the half-step differences ``-1``, the lumped bilinear mass stencils ``+2`` and
all grid transfers ``0``, so one table serves every level of a mesh hierarchy.

The tables are geometry-free: which staggered sub-grid a stencil acts on (and
the half-step evaluation of the difference stencils) is decided by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

Offset = tuple[int, int]


@dataclass(frozen=True)
class Stencil:
    """Dimensionless coefficient table ``entries`` plus mesh-width power."""

    entries: Mapping[Offset, float]
    h_power: int = 0

    def symbol(self, theta, h: float = 1.0):
        """Fourier symbol ``h**h_power * sum_k entries[k] * exp(i theta.k)``.

        ``theta`` is a pair or an array of pairs with shape ``(..., 2)``; the
        result has shape ``(...)`` (a plain complex scalar for a single pair).
        """
        theta = np.asarray(theta, dtype=float)
        scalar = theta.shape == (2,)
        t1 = theta[..., 0]
        t2 = theta[..., 1]
        acc = np.zeros(t1.shape, dtype=complex)
        for (k1, k2), s in self.entries.items():
            acc += s * np.exp(1j * (k1 * t1 + k2 * t2))
        acc *= float(h) ** self.h_power
        return complex(acc) if scalar else acc

    def radius(self) -> int:
        return max(max(abs(k1), abs(k2)) for k1, k2 in self.entries)

    def kernel(self) -> np.ndarray:
        """Dense ``(2r+1, 2r+1)`` array with ``kernel[k1+r, k2+r] = entries[k]``."""
        r = self.radius()
        w = np.zeros((2 * r + 1, 2 * r + 1))
        for (k1, k2), s in self.entries.items():
            w[k1 + r, k2 + r] = s
        return w

    def is_symmetric(self) -> bool:
        """True when ``entries[-k] == entries[k]`` for every offset."""
        return all(
            abs(self.entries.get((-k1, -k2), 0.0) - s) < 1e-15
            for (k1, k2), s in self.entries.items()
        )


def laplacian_5pt() -> Stencil:
    """Five-point Laplacian, physical coefficients ``1/h**2 * [-1; -1 4 -1; -1]``."""
    return Stencil(
        {(0, 0): 4.0, (1, 0): -1.0, (-1, 0): -1.0, (0, 1): -1.0, (0, -1): -1.0},
        h_power=-2,
    )


def grad_x_half() -> Stencil:
    """Centered difference in x across two half steps; evaluate at theta/2.

    On the staggered grid this couples cell-centered values to the x-edge
    midpoints half a step away, so its symbol is used at ``theta/2``:
    ``symbol(theta/2, h) = 2i sin(theta1/2) / h``.
    """
    return Stencil({(1, 0): 1.0, (-1, 0): -1.0}, h_power=-1)


def grad_y_half() -> Stencil:
    """Transpose orientation of :func:`grad_x_half`."""
    return Stencil({(0, 1): 1.0, (0, -1): -1.0}, h_power=-1)


def mass_q() -> Stencil:
    """Lumped bilinear mass stencil ``(h^2/36) [1 4 1; 4 16 4; 1 4 1]``.

    The velocity mass and the pressure mass (on the cell centers) share it.
    """
    w = np.array([[1.0, 4.0, 1.0], [4.0, 16.0, 4.0], [1.0, 4.0, 1.0]]) / 36.0
    return Stencil(
        {(k1, k2): w[k1 + 1, k2 + 1] for k1 in (-1, 0, 1) for k2 in (-1, 0, 1)},
        h_power=2,
    )


def p25() -> Stencil:
    """25-point prolongation ``(1/9) outer([1 2 3 2 1], [1 2 3 2 1])``.

    Unit coefficient on the coinciding coarse point; the aliasing factor 1/9
    of coarsening by three is applied by the symbol assembly, not stored here.
    """
    v = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
    w = np.outer(v, v) / 9.0
    return Stencil(
        {(k1, k2): w[k1 + 2, k2 + 2] for k1 in range(-2, 3) for k2 in range(-2, 3)},
        h_power=0,
    )


def r1() -> Stencil:
    """Injection restriction."""
    return Stencil({(0, 0): 1.0}, h_power=0)


def r9() -> Stencil:
    """Nine-point average restriction ``(1/9) ones(3, 3)``."""
    return Stencil(
        {(k1, k2): 1.0 / 9.0 for k1 in (-1, 0, 1) for k2 in (-1, 0, 1)},
        h_power=0,
    )


def r9b() -> Stencil:
    """Nine-point weighted restriction ``(1/16) [1 2 1; 2 4 2; 1 2 1]``."""
    w = np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 1.0]]) / 16.0
    return Stencil(
        {(k1, k2): w[k1 + 1, k2 + 1] for k1 in (-1, 0, 1) for k2 in (-1, 0, 1)},
        h_power=0,
    )


def rp25t() -> Stencil:
    """Scaled transpose of :func:`p25`: full-weighting restriction ``P25^T / 9``."""
    s = p25()
    return Stencil({k: v / 9.0 for k, v in s.entries.items()}, h_power=0)


# restriction tags accepted throughout the package
RESTRICTIONS = {
    "r1": r1,
    "r9": r9,
    "r9b": r9b,
    "p25t": rp25t,
}
