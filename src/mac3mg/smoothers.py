"""One-sweep relaxation schemes for the staggered Stokes system.

Four schemes share the pattern ``x <- x + omega * delta`` where ``delta``
comes from an approximate solve of ``M delta = r`` with the full residual
``r = rhs - L x``:

* ``qdr``     distributive relaxation: triangular mass solve, then the
              distribution ``(du, dp) = (du' + grad dp', -A_p dp')``.
* ``qbsr``    exact block solve: pressure Schur system solved exactly by
              fast transforms and a wall capacitance (``SchurOperator``).
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

from . import grid
from .symbols import RelaxParams


def lap1_eig(m: int, h: float, bc: str, ghost: float = 0.0) -> tuple:
    """``(lambda, kind)`` of ``assemble._lap1(m, h, bc, ghost)`` in closed form
    (Swarztrauber, *SIAM Review* 19, 1977): the orthonormal transform ``kind``
    (``transform``) diagonalises it, the DFT (periodic), DST-I (ghost 0) or
    DCT-II (ghost +1), with ``lambda = (4/h^2) sin^2(pi k / d)`` and k reduced
    in integers, so the edge factor (size n - 1) and the Neumann one (size n)
    share eigenvalues bit for bit.  A zero pair comes first, exact."""
    j = np.arange(m)
    if bc == "periodic":
        k, d, kind = np.minimum(j, m - j), m, "dft"
    elif ghost == 0.0:
        k, d, kind = j + 1, 2 * (m + 1), "dst1"
    elif ghost == 1.0:
        k, d, kind = j, 2 * m, "dct2"
    else:
        raise ValueError(f"no closed form for a Dirichlet ghost {ghost}")
    return 4.0 / h**2 * np.sin(np.pi * k / d) ** 2, kind


# per basis kind: the forward (V^T) and back (V) scipy.fft transforms, and their type
_TRANSFORMS = {"dft": (scipy.fft.fftn, scipy.fft.ifftn, {}),
               "dst1": (scipy.fft.dstn, scipy.fft.dstn, {"type": 1}),
               "dct2": (scipy.fft.dctn, scipy.fft.idctn, {"type": 2})}


def transform(x: np.ndarray, kinds: tuple, back: bool) -> np.ndarray:
    """``V^T x``, or ``V x`` when ``back``, over the last ``len(kinds)`` axes
    for the orthonormal bases ``V`` of ``kinds`` (``lap1_eig``; the DFT's is
    unitary, so ``V^H`` for ``V^T``), one one-worker ``scipy.fft`` call per
    kind.  A ``back`` transform may overwrite ``x``: the solves own it."""
    for i, kind in enumerate(dict.fromkeys(kinds)):
        forward, inverse, opts = _TRANSFORMS[kind]
        axes = [a for a, k in enumerate(kinds, -len(kinds)) if k == kind]
        x = (inverse if back else forward)(x, axes=axes, norm="ortho", overwrite_x=back or i > 0,
                                           workers=1, **opts)
    return x


def separable_weights(lam: np.ndarray, scale) -> np.ndarray:
    """The weights of the pseudo-inverse of an operator on ``(n, n)`` arrays
    with the eigenvalues ``scale (lambda_i + lambda_j)`` in the transforms of
    ``lap1_eig``'s pair on both axes, ``scale`` a number or an ``(n, n)``
    array (fast diagonalisation, Lynch, Rice and Thomas 1964):
    ``1 / (scale (lambda_i + lambda_j))``.  The zero pair, first with lambda
    exactly 0, is the constant and gets weight 0: the mean-zero solution."""
    denom = scale * (lam[:, None] + lam[None, :])
    denom[0, 0] = np.inf
    return 1.0 / denom


def synthesise(c: np.ndarray, kinds: tuple, out: np.ndarray) -> np.ndarray:
    """The array of transform coefficients ``c`` of ``kinds``, into ``out``."""
    x = transform(c, kinds, True)
    out[...] = x if np.iscomplexobj(out) else x.real
    return out


# the four parity classes of the 2D DCT-II coefficients, as (x, y) slices
_PARITIES = [(slice(p, None, 2), slice(q, None, 2)) for p in (0, 1) for q in (0, 1)]


class SchurOperator:
    """Pressure Schur complement ``S = B diag(Q, Q) B^T`` of one level:
    ``S = h^2 (kron(K, M) + kron(M, K))`` with ``K = G^T M_edge G`` and ``M``
    the tangential (Dirichlet) or periodic 1D mass; ``diag`` is the outer sum
    of the factor diagonals.  ``S`` is symmetric positive semi-definite with
    the constant pressure in its kernel; ``solve`` returns the mean-zero
    solution of consistent systems, built on its first call.

    With ``M_N = I - (h^2/6) G^T G`` for ``M`` (corners 5/6, a wall's are
    3/6), ``S_N`` has the eigenvalues ``h^2 mu_i mu_j (lambda_i + lambda_j)``,
    ``mu = 1 - h^2 lambda / 6``, in the basis of ``G^T G`` (``lap1_eig``), so
    ``S_N^+`` weights the transform coefficients (``separable_weights``).  On
    walls ``S = S_N - U W U^T``, ``U`` placing the four wall lines and ``W =
    (h^2/3) K``, so (Woodbury with ``W^(1/2)``, as ``K`` is singular; Buzbee,
    Dorr, George and Golub, *SIAM J. Numer. Anal.* 8, 1971) ``S^+ g = S_N^+
    (g + U W^(1/2) z)`` for ``C z = W^(1/2) U^T S_N^+ g``, ``C = I - W^(1/2)
    U^T S_N^+ U W^(1/2)`` symmetric positive definite, read and applied in
    the transform coefficients as in ``multigrid.DirectSolver``.  Its items
    are DCT-II modes along the x-lines ``j = 0, n - 1`` or the y-lines ``i =
    0, n - 1``, in the even or odd sum of the pair.  The
    square's reflections commute with ``S`` and mode k has parity
    ``(-1)^k``, so ``C`` has one block per parity class ``(x, y)`` of the 2D
    coefficients (``_PARITIES``), whose x-line item k is
    ``sum_(q in y) coef_kq c_q``, ``c`` the basis row at a wall times sqrt 2.
    The blocks' eigenvalues lie in [1/sqrt 3, 1], so their inverses, applied
    in one batch, are as accurate as Cholesky solves and cost fewer calls.
    """

    def __init__(self, n: int, bc: str):
        self.n = n
        self.bc = bc
        h = 1.0 / n
        # the factor diagonals, summed as the assembled products sum them: a
        # cell's two edges less their coupling, one edge beside a wall
        d, walls = 1.0 / h, [0, -1] if bc == "dirichlet" else []
        half = d * (4.0 / 6.0) - d * (1.0 / 6.0)
        dk, dm = np.full(n, half * d + half * d), np.full(n, 4.0 / 6.0)
        dk[walls], dm[walls] = d * (4.0 / 6.0) * d, (4.0 + grid.VELOCITY_GHOST) / 6.0
        self.diag = (h**2 * (np.outer(dk, dm) + np.outer(dm, dk))).ravel()
        self._inv: np.ndarray | None = None

    def _build(self) -> None:
        """The weights of ``S_N^+``; ``c``, its even and odd halves and the
        ``W^(1/2)`` weights ``root`` of the modes along a line; the blocks'
        inverses."""
        n, h = self.n, 1.0 / self.n
        lam, kind = lap1_eig(n, h, self.bc, grid.CELL_LAPLACIAN_GHOST)
        mu = 1.0 - h * h * lam / 6.0
        self._inv, self._kinds = separable_weights(lam, h * h * np.outer(mu, mu)), (kind, kind)
        self._index = None
        if self.bc == "periodic":
            return
        self._c = np.sqrt(2.0) * transform(np.eye(n)[0], (kind,), False)
        self._rows = np.where(np.arange(n) % 2 == np.arange(2)[:, None], self._c, 0.0)
        self._root = h * np.sqrt(lam * mu / 3.0)
        # each block's inverse, padded by the identity to n + 1 items, and its
        # items' places among the x-line items (sum, mode), the y-line items
        # and, for the padding, a zero past them
        modes, self._index = np.arange(n), np.full((4, n + 1), 4 * n)
        self._cinv = np.tile(np.eye(n + 1), (4, 1, 1))
        for b, ((x, y), cap) in enumerate(zip(_PARITIES, self._capacitance_blocks())):
            self._index[b, : len(cap)] = np.r_[modes[x] + y.start * n, modes[y] + (2 + x.start) * n]
            self._cinv[b, : len(cap), : len(cap)] = np.linalg.inv(cap)

    def _capacitance_blocks(self) -> list:
        """``C`` per class ``(x, y)``: the x-line items of the modes x, then
        the y-line items of the modes y.  Items of one pair of lines couple in
        one mode only, and x-line item k with y-line item l by ``c_k inv_kl
        c_l``, ``inv`` the weights of ``S_N^+``."""
        blocks = []
        for x, y in _PARITIES:
            inv, cx, cy = self._inv[x, y], self._c[x], self._c[y]
            cross = cx[:, None] * inv * cy
            g = np.block([[np.diag(np.einsum("kq,q->k", inv, cy * cy)), cross],
                          [cross.T, np.diag(np.einsum("k,kq->q", cx * cx, inv))]])
            w = np.concatenate([self._root[x], self._root[y]])
            blocks.append(np.eye(len(w)) - w[:, None] * g * w)
        return blocks

    def solve(self, g: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Mean-zero solution of ``S x = g`` (g is consistent up to roundoff),
        into ``out``; both are ``(n, n)``."""
        if self._inv is None:
            self._build()
        coef = transform(g, self._kinds, False)
        coef *= self._inv
        if self._index is not None:
            # W^(1/2) U^T S_N^+ g: the items, summed in numpy's own loops, as
            # a product could wake OpenBLAS's threads; then z, one batch
            rows, root = self._rows, self._root
            t = np.concatenate([(np.einsum("kq,sq->sk", coef, rows) * root).ravel(),
                                (np.einsum("sp,pl->sl", rows, coef) * root).ravel(), [0.0]])
            t[self._index] = np.einsum("bij,bj->bi", self._cinv, t[self._index])
            t = t[:-1].reshape(2, 2, -1) * root
            # U W^(1/2) z in the coefficients: one rank-4 sum
            c = np.einsum("ak,aq->kq", np.concatenate([t[0], rows]), np.concatenate([rows, t[1]]))
            c *= self._inv
            coef += c
        return synthesise(coef, self._kinds, out)


class Smoother:
    """Bound relaxation sweep: a system, a scheme, and its parameters.

    Schur-related pieces are built lazily so the cheap schemes never pay for
    them.  A sweep reads the residual it is given and works in the system's
    workspace (roles ``a`` and, but for ``quzawa``, ``bp``), so it allocates
    nothing after its first call but the transforms of ``qbsr``'s Schur
    solve.  It is a chain of phases of the system's
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
