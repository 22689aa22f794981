"""One-sweep relaxation schemes for the staggered Stokes system.

Four schemes share the pattern ``x <- x + omega * delta`` where ``delta``
comes from an approximate solve of ``M delta = r`` with the full residual
``r = rhs - L x``:

* ``qdr``     distributive relaxation: triangular mass solve, then the
              distribution ``(du, dp) = (du' + grad dp', -A_p dp')``.
* ``qbsr``    exact block solve: pressure Schur system solved exactly by
              fast diagonalisation of its 1D factors.
* ``qibsr``   inexact block solve: one weighted Jacobi sweep on the Schur
              system, using its diagonal (an outer sum of 1D diagonals).
* ``quzawa``  mass-scaled velocity update, sigma-scaled pressure update.

The inverse momentum approximation is everywhere ``C^-1 = diag(Q, Q)``, a
stencil multiplication, so only ``qbsr`` performs a linear solve.  All sweeps
are whole-field (Jacobi-type) updates and accept complex fields, which the
per-mode Fourier consistency tests rely on.
"""

from __future__ import annotations

import numpy as np
import scipy.fft
import scipy.linalg

from . import assemble, grid
from .symbols import RelaxParams


def lap1_eig(m: int, h: float, bc: str, ghost: float = 0.0) -> tuple:
    """``(lambda, V)`` of ``assemble._lap1(m, h, bc, ghost)`` in closed form
    (Swarztrauber, *SIAM Review* 19, 1977): ``V`` is the orthonormal Hartley
    (``Re F - Im F``, periodic), DST-I (ghost 0) or DCT-II (ghost +1)
    transform of the identity, ``lambda = (4/h^2) sin^2(pi k / d)`` with k
    reduced in integers, so the edge factor (size n - 1) and the Neumann one
    (size n) share eigenvalues bit for bit.  A zero pair comes first, exact."""
    eye, j = np.eye(m), np.arange(m)
    if bc == "periodic":
        f = scipy.fft.fft(eye, norm="ortho", workers=1)
        k, d, v = np.minimum(j, m - j), m, f.real - f.imag
    elif ghost == 0.0:
        k, d, v = j + 1, 2 * (m + 1), scipy.fft.dst(eye, 1, norm="ortho", workers=1)
    elif ghost == 1.0:
        k, d, v = j, 2 * m, scipy.fft.dct(eye, 2, norm="ortho", workers=1)
    else:
        raise ValueError(f"no closed form for a Dirichlet ghost {ghost}")
    return 4.0 / h**2 * np.sin(np.pi * k / d) ** 2, v


class SeparableInverse:
    """(Pseudo-)inverse of a Kronecker sum ``scale (kron(k1, m2) + kron(m1, k2))``.

    The operator acts on ``(n1, n2)`` arrays; each ``k`` is symmetric and each
    ``m`` positive definite (``None`` for the identity).  Given each axis's
    generalised eigenpairs ``e = (lambda, V)``, ``k V = m V diag(lambda)``
    with ``V^T m V = I`` (Lynch, Rice and Thomas 1964):
    ``x = V1 ((V1^T g V2) / (scale (lambda1_i + lambda2_j))) V2^T``.  When
    ``singular``, both ``k`` annihilate the constant and so does the
    operator: the zero pair, first on each axis with lambda exactly 0, is
    dropped and the mean is projected out of ``g`` and of ``x``, giving the
    mean-zero solution for ``g - mean(g)``.
    """

    def __init__(self, e1: tuple, e2: tuple, scale: float, singular: bool):
        (lam1, self.v1), (lam2, self.v2) = e1, e2
        denom = scale * (lam1[:, None] + lam2[None, :])
        if singular:
            denom[0, 0] = np.inf
        self.inv = 1.0 / denom
        self.singular = singular
        self.work = grid.Workspace()

    def __call__(self, g: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The solution for ``g``, into ``out`` (``g``'s shape)."""
        dtype = np.result_type(g, self.v1)
        t0, t1 = self.work("t0", g.shape, dtype), self.work("t1", g.shape, dtype)
        if self.singular:
            np.subtract(g, g.mean(), out=t0)
            g = t0
        np.matmul(self.v1.T, g, out=t1)
        np.matmul(t1, self.v2, out=t0)
        t0 *= self.inv
        np.matmul(self.v1, t0, out=t1)
        np.matmul(t1, self.v2.T, out=out)
        if self.singular:
            out -= out.mean()
        return out


class SchurOperator:
    """Pressure Schur complement ``S = B diag(Q, Q) B^T`` of one level, from
    its 1D factors.

    ``B^T`` is ``kron(G, I)`` and ``kron(I, G)`` and the velocity masses are
    ``h^2 kron(M_edge, M)`` and ``h^2 kron(M, M_edge)``, so
    ``S = h^2 (kron(K, M) + kron(M, K))`` with ``K = G^T M_edge G``; ``M`` is
    the tangential (Dirichlet) or periodic 1D mass.  ``diag`` is the outer
    sum of the factor diagonals.  ``S`` is symmetric positive semi-definite
    with the constant pressure in its kernel; ``solve`` returns the mean-zero
    solution of consistent systems through a ``SeparableInverse`` built on
    first use.
    """

    def __init__(self, n: int, bc: str):
        self.n = n
        self.bc = bc
        h = 1.0 / n
        g1 = assemble._grad1(n, h, bc)
        m_edge = assemble._mass1(g1.shape[0], bc, 0.0)
        # sparse until a first solve needs them dense: qibsr never does
        self._k = g1.T @ m_edge @ g1
        self._m = assemble._mass1(n, bc, grid.VELOCITY_GHOST)
        self._h2 = h**2
        dk, dm = self._k.diagonal(), self._m.diagonal()
        self.diag = (self._h2 * (np.outer(dk, dm) + np.outer(dm, dk))).ravel()
        if (self.diag <= 0.0).any():
            raise ValueError("Schur diagonal must be positive")
        self._inverse: SeparableInverse | None = None

    def solve(self, g: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Mean-zero solution of ``S x = g`` (g is consistent up to roundoff),
        into ``out``; both are ``(n, n)``."""
        if self._inverse is None:
            lam, v = scipy.linalg.eigh(self._k.toarray(), self._m.toarray(), driver="gvd")
            lam[0] = 0.0  # the constant's
            self._inverse = SeparableInverse((lam, v), (lam, v), self._h2, singular=True)
        return self._inverse(g, out)


class Smoother:
    """Bound relaxation sweep: a system, a scheme, and its parameters.

    Schur-related pieces are built lazily so the cheap schemes never pay for
    them.  A sweep reads the residual it is given and works in the system's
    workspace (roles ``a`` and, but for ``quzawa``, ``bp``), so it allocates
    nothing after its first call.  It is a chain of phases of the system's
    row kernels (``SaddleSystem.run``): a new phase starts only where a step
    reads neighbouring rows of a field computed earlier in the sweep.
    """

    def __init__(self, system: grid.SaddleSystem, params: RelaxParams):
        self.system = system
        self.params = params
        self._schur: SchurOperator | None = None

    def schur(self) -> SchurOperator:
        if self._schur is None:
            self._schur = SchurOperator(self.system.n, self.system.bc)
        return self._schur

    def sweep(self, state: grid.StaggeredState, r: grid.StaggeredState) -> None:
        """Add one sweep's correction ``omega K r`` to the state in place, for
        the residual ``r`` of the state (``symbols._step_symbol`` is ``K``);
        ``r`` is only read."""
        sysm, p = self.system, self.params
        dtype = state.u.dtype
        a = sysm.work_state("a", dtype)
        su, sv = grid.VELOCITY_SIGNS["u"], grid.VELOCITY_SIGNS["v"]

        def update(d, f, tmp=None):
            # f += omega * d, d scaled in place unless a tmp takes omega * d
            d = np.multiply(d, p.omega, out=d if tmp is None else grid.block(tmp, d.shape))
            np.add(f, d, out=f)

        if p.scheme in ("qdr", "quzawa"):
            # du = Q r_u / alpha, t = r_p - B du; quzawa: dp = -sigma t; qdr:
            # dp' = Q_p t / alpha and delta = (du + grad dp', -A_p dp')
            def mass(lo, hi, seg, gx):
                for f, o, s, x in ((r.u, a.u, su, state.u), (r.v, a.v, sv, state.v)):
                    d = sysm.mass_rows(f, s, o, lo, hi, seg, gx)
                    np.divide(d, p.alpha, out=d)
                    if p.scheme == "quzawa":  # d stays for B du in the next phase
                        update(d, x[lo:hi], tmp=seg)

            def div(lo, hi, seg, gx):
                t = sysm.div_rows(a.u, a.v, a.p, lo, hi, seg)
                np.subtract(r.p[lo:hi], t, out=t)
                if p.scheme == "quzawa":
                    np.multiply(t, -p.sigma, out=t)
                    update(t, state.p[lo:hi])

            phases = [mass, div]
            if p.scheme == "qdr":
                dp = sysm.work("bp", sysm.shapes["p"], dtype)

                def mass_p(lo, hi, seg, gx):
                    d = sysm.mass_rows(a.p, grid.PRESSURE_MASS_SIGNS, dp, lo, hi, seg, gx)
                    np.divide(d, p.alpha, out=d)

                def distribute(lo, hi, seg, gx):
                    # each gradient component is formed in a.p, free until
                    # A_p dp' fills it
                    for axis, d in ((0, a.u), (1, a.v)):
                        g = sysm.grad_rows(dp, axis, a.p[: d.shape[0], : d.shape[1]], lo, hi)
                        np.add(d[lo:hi], g, out=d[lo:hi])
                    t = sysm.five_point_rows(dp, grid.CELL_LAPLACIAN_SIGNS, a.p, lo, hi, seg)
                    np.multiply(t, -1.0, out=t)
                    for d, f in zip((a.u, a.v, a.p), (state.u, state.v, state.p)):
                        update(d[lo:hi], f[lo:hi])

                phases += [mass_p, distribute]
            sysm.run(dtype, *phases)
        elif p.scheme in ("qbsr", "qibsr"):
            # g = B Q r_u - alpha r_p, dp from S dp = g, du = Q (r_u - grad dp) / alpha
            dp = sysm.work("bp", sysm.shapes["p"], dtype)
            diag = self.schur().diag.reshape(dp.shape) if p.scheme == "qibsr" else None

            def mass(lo, hi, seg, gx):
                sysm.mass_rows(r.u, su, a.u, lo, hi, seg, gx)
                sysm.mass_rows(r.v, sv, a.v, lo, hi, seg, gx)

            def schur_rhs(lo, hi, seg, gx):
                g = sysm.div_rows(a.u, a.v, a.p, lo, hi, seg)
                d = np.multiply(r.p[lo:hi], p.alpha, out=dp[lo:hi])
                np.subtract(g, d, out=g)
                if diag is not None:
                    np.multiply(g, p.omega_j, out=d)
                    np.divide(d, diag[lo:hi], out=d)

            sysm.run(dtype, mass, schur_rhs)
            if p.scheme == "qbsr":
                self.schur().solve(a.p, out=dp)

            def velocity_rhs(lo, hi, seg, gx):
                for axis, d, f in ((0, a.u, r.u), (1, a.v, r.v)):
                    g = sysm.grad_rows(dp, axis, d, lo, hi)
                    np.subtract(f[lo:hi], g, out=g)

            def correct(lo, hi, seg, gx):
                # du = Q (r_u - grad dp) / alpha lands in the band's padded rows
                for d, s, f in ((a.u, su, state.u), (a.v, sv, state.v)):
                    t = sysm.mass_rows(d, s, None, lo, hi, seg, gx)
                    np.divide(t, p.alpha, out=t)
                    update(t, f[lo:hi])
                update(dp[lo:hi], state.p[lo:hi])

            sysm.run(dtype, velocity_rhs, correct)
        else:
            raise ValueError(f"unknown scheme {p.scheme!r}")
