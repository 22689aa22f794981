"""One-sweep relaxation schemes for the staggered Stokes system.

Four schemes share the pattern ``x <- x + omega * delta`` where ``delta``
comes from an approximate solve of ``M delta = r`` with the full residual
``r = rhs - L x``:

* ``qdr``     distributive relaxation: triangular mass solve, then the
              distribution ``(du, dp) = (du' + grad dp', -A_p dp')``.
* ``qbsr``    exact block solve: pressure Schur system solved directly.
* ``qibsr``   inexact block solve: one weighted Jacobi sweep on the Schur
              system, using the assembled Schur diagonal.
* ``quzawa``  mass-scaled velocity update, sigma-scaled pressure update.

The inverse momentum approximation is everywhere ``C^-1 = diag(Q, Q)``, a
stencil multiplication, so only ``qbsr`` performs a linear solve.  All sweeps
are whole-field (Jacobi-type) updates and accept complex fields, which the
per-mode Fourier consistency tests rely on.
"""

from __future__ import annotations

import numpy as np

from . import assemble, grid
from .symbols import RelaxParams


class SchurOperator:
    """Assembled pressure Schur complement ``B diag(Q, Q) B^T`` for one level.

    The matrix is symmetric positive semi-definite with the constant pressure
    in its kernel.  ``solve`` factorizes it on first use with the constant-mode
    constraint, returning the mean-zero solution of consistent systems
    (equivalently the pseudoinverse applied to the right-hand side).
    """

    def __init__(self, n: int, bc: str):
        self.n = n
        self.bc = bc
        self.mat = assemble.assemble_schur(n, bc)
        self.diag = self.mat.diagonal().copy()
        if (self.diag <= 0.0).any():
            raise ValueError("Schur diagonal must be positive")
        self._solve = None

    def solve(self, g: np.ndarray) -> np.ndarray:
        """Mean-zero solution of ``S x = g`` (g is consistent up to roundoff)."""
        if self._solve is None:
            m = self.mat.shape[0]
            self._solve = assemble.constrained_lu(self.mat, np.full((m, 1), 1.0 / np.sqrt(m)))
        return self._solve(g.ravel()).reshape(g.shape)


class Smoother:
    """Bound relaxation sweep: a system, a scheme, and its parameters.

    Schur-related pieces are built lazily so the cheap schemes never pay for
    an assembly.
    """

    def __init__(self, system: grid.SaddleSystem, params: RelaxParams):
        self.system = system
        self.params = params
        self._schur: SchurOperator | None = None

    def schur(self) -> SchurOperator:
        if self._schur is None:
            self._schur = SchurOperator(self.system.n, self.system.bc)
        return self._schur

    def sweep(self, state: grid.StaggeredState, rhs: grid.StaggeredState | None) -> None:
        """Apply one relaxation sweep in place."""
        sysm = self.system
        p = self.params
        r = sysm.residual(state, rhs)
        if p.scheme == "qdr":
            du = sysm.apply_q(r.u, "u") / p.alpha
            dv = sysm.apply_q(r.v, "v") / p.alpha
            dp_hat = sysm.apply_qp(r.p - sysm.neg_div(du, dv)) / p.alpha
            gx, gy = sysm.grad(dp_hat)
            delta = grid.StaggeredState(state.n, state.bc,
                                        du + gx, dv + gy, -sysm.apply_ap(dp_hat))
        elif p.scheme in ("qbsr", "qibsr"):
            qu = sysm.apply_q(r.u, "u")
            qv = sysm.apply_q(r.v, "v")
            g = sysm.neg_div(qu, qv) - p.alpha * r.p
            if p.scheme == "qbsr":
                dp = self.schur().solve(g)
            else:
                dp = p.omega_j * g / self.schur().diag.reshape(g.shape)
            gx, gy = sysm.grad(dp)
            delta = grid.StaggeredState(
                state.n, state.bc,
                sysm.apply_q(r.u - gx, "u") / p.alpha,
                sysm.apply_q(r.v - gy, "v") / p.alpha,
                dp,
            )
        elif p.scheme == "quzawa":
            du = sysm.apply_q(r.u, "u") / p.alpha
            dv = sysm.apply_q(r.v, "v") / p.alpha
            delta = grid.StaggeredState(state.n, state.bc,
                                        du, dv, -p.sigma * (r.p - sysm.neg_div(du, dv)))
        else:
            raise ValueError(f"unknown scheme {p.scheme!r}")
        state.add_scaled(delta, p.omega)
