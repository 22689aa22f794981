"""The in-place kernels against the allocating expressions they replaced.

Every stencil (a row kernel run through ``SaddleSystem.run``), ``grad``,
``neg_div``, ``residual``, one sweep per scheme, the four restrictions and the
prolongation write into given arrays and draw their temporaries from a
level's workspace.  The oracles below are the earlier allocating forms: the
same operations in the same order.  Each kernel runs twice on
different data into arrays first filled with NaN, so stale workspace contents
or unwritten entries show up.  n = 9 matters: it hit a numpy 2.4.6 fault in
``np.negative`` on strided columns.  Transfers are 1D matrix products, so
they sum in another order; the transfer test adds n = 243 to reach the CSR
matrices used above ``multigrid.DENSE_MAX``.
"""

import numpy as np
import pytest

from conftest import stencil
from mac3mg import grid, multigrid, stencils, symbols
from mac3mg.grid import (CELL_LAPLACIAN_GHOST, CELL_LAPLACIAN_SIGNS, PRESSURE_MASS_GHOST,
                         PRESSURE_MASS_SIGNS, TRANSFER_FOLDS, VELOCITY_SIGNS)
from mac3mg.smoothers import SchurOperator, Smoother
from mac3mg.symbols import reference_params

CASES = [(n, bc, dtype) for n in (9, 27) for bc in grid.BCS for dtype in (float, complex)]


# -- the allocating oracles ------------------------------------------------


def old_pad(f, radius, signs, bc):
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


def old_five_point(fp, h):
    c = fp[1:-1, 1:-1]
    return (4.0 * c - fp[:-2, 1:-1] - fp[2:, 1:-1] - fp[1:-1, :-2] - fp[1:-1, 2:]) / h**2


def old_nine_point_mass(fp, h):
    gx = 4.0 * fp[1:-1, :] + fp[:-2, :] + fp[2:, :]
    return (4.0 * gx[:, 1:-1] + gx[:, :-2] + gx[:, 2:]) * (h**2 / 36.0)


class Old:
    """The allocating matrix-free actions of one level."""

    def __init__(self, n, bc):
        self.n, self.bc, self.h = n, bc, 1.0 / n

    def lap(self, f, comp):
        return old_five_point(old_pad(f, 1, VELOCITY_SIGNS[comp], self.bc), self.h)

    def q(self, f, comp):
        return old_nine_point_mass(old_pad(f, 1, VELOCITY_SIGNS[comp], self.bc), self.h)

    def qp(self, p):
        return old_nine_point_mass(old_pad(p, 1, (PRESSURE_MASS_GHOST,) * 2, self.bc), self.h)

    def ap(self, p):
        return old_five_point(old_pad(p, 1, (CELL_LAPLACIAN_GHOST,) * 2, self.bc), self.h)

    def grad(self, p):
        if self.bc == "periodic":
            gu = np.diff(p, axis=0, prepend=p[-1:, :]) / self.h
            gv = np.diff(p, axis=1, prepend=p[:, -1:]) / self.h
        else:
            gu = (p[1:, :] - p[:-1, :]) / self.h
            gv = (p[:, 1:] - p[:, :-1]) / self.h
        return gu, gv

    def neg_div(self, u, v):
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

    def residual(self, st, rhs):
        gu, gv = self.grad(st.p)
        ax = [self.lap(st.u, "u") + gu, self.lap(st.v, "v") + gv, self.neg_div(st.u, st.v)]
        if rhs is None:
            return [-a for a in ax]
        return [rhs.u - ax[0], rhs.v - ax[1], rhs.p - ax[2]]

    def sweep(self, st, rhs, p, schur):
        """One sweep; returns the new (u, v, p).  ``schur`` supplies the
        qbsr solve and the qibsr diagonal, which have oracles of their own."""
        ru, rv, rp = self.residual(st, rhs)
        if p.scheme == "qdr":
            du = self.q(ru, "u") / p.alpha
            dv = self.q(rv, "v") / p.alpha
            dp_hat = self.qp(rp - self.neg_div(du, dv)) / p.alpha
            gx, gy = self.grad(dp_hat)
            delta = (du + gx, dv + gy, -self.ap(dp_hat))
        elif p.scheme in ("qbsr", "qibsr"):
            g = self.neg_div(self.q(ru, "u"), self.q(rv, "v")) - p.alpha * rp
            if p.scheme == "qbsr":
                dp = schur.solve(g, np.empty_like(g))
            else:
                dp = p.omega_j * g / schur.diag.reshape(g.shape)
            gx, gy = self.grad(dp)
            delta = (self.q(ru - gx, "u") / p.alpha, self.q(rv - gy, "v") / p.alpha, dp)
        else:
            du = self.q(ru, "u") / p.alpha
            dv = self.q(rv, "v") / p.alpha
            delta = (du, dv, -p.sigma * (rp - self.neg_div(du, dv)))
        return [f + p.omega * d for f, d in zip((st.u, st.v, st.p), delta)]


def old_restrict_field(fine, w, offsets, bc, signs):
    out = old_pad(fine, len(w) // 2, signs, bc)
    for axis, o in enumerate(offsets):
        src = np.moveaxis(out, axis, 0)
        count = len(range(o, fine.shape[axis], 3))
        acc = w[0] * src[o::3][:count]
        for k in range(1, len(w)):
            acc += w[k] * src[o + k :: 3][:count]
        out = np.moveaxis(acc, 0, axis)
    return out


def old_prolong_field(coarse, fine_shape, w, offsets, bc, signs):
    out = old_pad(coarse, 1, signs, bc)
    for axis, o in enumerate(offsets):
        shape = list(out.shape)
        shape[axis] = 3 * out.shape[axis] + len(w)
        acc = np.zeros(shape, np.result_type(out, w))
        dst, src = np.moveaxis(acc, axis, 0), np.moveaxis(out, axis, 0)
        for k in range(len(w)):
            dst[k::3][: len(src)] += w[k] * src
        start = 3 + len(w) // 2 - o
        out = np.moveaxis(dst[start : start + fine_shape[axis]], 0, axis)
    return out


# -- helpers ---------------------------------------------------------------


def field(rng, shape, dtype):
    f = rng.standard_normal(shape)
    return f + 1j * rng.standard_normal(shape) if dtype is complex else f


def state(rng, n, bc, dtype):
    shapes = grid.field_shapes(n, bc)
    return grid.StaggeredState(n, bc, *(field(rng, shapes[f], dtype) for f in "uvp"))


def nan_state(n, bc, dtype):
    st = grid.StaggeredState.zeros(n, bc, dtype)
    for f in (st.u, st.v, st.p):
        f.fill(np.nan)
    return st


def assert_close(got, want, tol=1e-14):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.abs(got - want).max() <= tol * max(np.abs(want).max(), 1.0)


# -- the tests -------------------------------------------------------------


@pytest.mark.parametrize("n, bc, dtype", CASES)
def test_stencils_grad_and_div_write_into_out(n, bc, dtype):
    rng = np.random.default_rng(n)
    sysm, old = grid.SaddleSystem(n, bc), Old(n, bc)
    shapes = sysm.shapes
    kernels = [
        (lambda f, out: stencil(sysm, sysm.five_point_rows, f["u"], VELOCITY_SIGNS["u"], out),
         lambda f: old.lap(f["u"], "u"), "u"),
        (lambda f, out: stencil(sysm, sysm.five_point_rows, f["v"], VELOCITY_SIGNS["v"], out),
         lambda f: old.lap(f["v"], "v"), "v"),
        (lambda f, out: stencil(sysm, sysm.mass_rows, f["u"], VELOCITY_SIGNS["u"], out),
         lambda f: old.q(f["u"], "u"), "u"),
        (lambda f, out: stencil(sysm, sysm.mass_rows, f["v"], VELOCITY_SIGNS["v"], out),
         lambda f: old.q(f["v"], "v"), "v"),
        (lambda f, out: stencil(sysm, sysm.mass_rows, f["p"], PRESSURE_MASS_SIGNS, out),
         lambda f: old.qp(f["p"]), "p"),
        (lambda f, out: stencil(sysm, sysm.five_point_rows, f["p"], CELL_LAPLACIAN_SIGNS, out),
         lambda f: old.ap(f["p"]), "p"),
        (lambda f, out: sysm.neg_div(f["u"], f["v"], out=out),
         lambda f: old.neg_div(f["u"], f["v"]), "p"),
    ]
    for new, want, comp in kernels:
        out = np.full(shapes[comp], np.nan, dtype)
        for _ in range(2):
            f = {c: field(rng, shapes[c], dtype) for c in "uvp"}
            assert new(f, out) is out
            assert_close(out, want(f))
    gu, gv = np.full(shapes["u"], np.nan, dtype), np.full(shapes["v"], np.nan, dtype)
    for _ in range(2):
        p = field(rng, shapes["p"], dtype)
        got = sysm.grad(p, out=(gu, gv))
        assert got[0] is gu and got[1] is gv
        for g, w in zip(got, old.grad(p)):
            assert_close(g, w)


@pytest.mark.parametrize("n, bc, dtype", CASES)
def test_residual_writes_into_out(n, bc, dtype):
    rng = np.random.default_rng(n + 1)
    sysm, old = grid.SaddleSystem(n, bc), Old(n, bc)
    out = nan_state(n, bc, dtype)
    for rhs_kind in ("rhs", None, "rhs"):
        st = state(rng, n, bc, dtype)
        rhs = state(rng, n, bc, dtype) if rhs_kind else None
        assert sysm.residual(st, rhs, out=out) is out
        for got, want in zip((out.u, out.v, out.p), old.residual(st, rhs)):
            assert_close(got, want)
    st, rhs = state(rng, n, bc, dtype), state(rng, n, bc, dtype)
    res = sysm.residual(st, rhs)
    for got, want in zip((res.u, res.v, res.p), old.residual(st, rhs)):
        assert_close(got, want)


@pytest.mark.parametrize("scheme", symbols.SCHEMES)
@pytest.mark.parametrize("n, bc, dtype", CASES)
def test_sweep_in_place_matches_allocating_sweep(n, bc, dtype, scheme):
    rng = np.random.default_rng(n + 2)
    params = reference_params(scheme, "measured")
    sysm, old = grid.SaddleSystem(n, bc), Old(n, bc)
    sm = Smoother(sysm, params)
    schur = SchurOperator(n, bc)
    for rhs_kind in ("rhs", None):
        st = state(rng, n, bc, dtype)
        rhs = state(rng, n, bc, dtype) if rhs_kind else None
        want = old.sweep(st, rhs, params, schur)
        sm.sweep(st, sysm.residual(st, rhs))
        for got, w in zip((st.u, st.v, st.p), want):
            assert_close(got, w, tol=1e-13)


# dense 1D matrices up to multigrid.DENSE_MAX, CSR ones above it
TRANSFER_CASES = CASES + [(243, bc, dtype) for bc in grid.BCS for dtype in (float, complex)]


@pytest.mark.parametrize("n, bc, dtype", TRANSFER_CASES)
def test_transfers_write_into_out(n, bc, dtype):
    rng = np.random.default_rng(n + 3)
    nc = n // 3
    out = nan_state(nc, bc, dtype)
    for tag in ("r1", "r9", "r9b", "p25t"):
        w = stencils.RESTRICTIONS[tag]
        for _ in range(2):
            fine = state(rng, n, bc, dtype)
            assert multigrid.restrict_state(fine, tag, out=out) is out
            for name in "uvp":
                want = old_restrict_field(getattr(fine, name), w,
                                          multigrid.NESTED_OFFSETS[(bc, name)], bc,
                                          TRANSFER_FOLDS[name])
                assert_close(getattr(out, name), want)
    w = stencils.P25
    for _ in range(2):
        coarse, target = state(rng, nc, bc, dtype), state(rng, n, bc, dtype)
        before = target.copy()
        assert multigrid.prolong_state(coarse, n, add_to=target) is target
        for name in "uvp":
            want = old_prolong_field(getattr(coarse, name), getattr(target, name).shape, w,
                                     multigrid.NESTED_OFFSETS[(bc, name)], bc,
                                     TRANSFER_FOLDS[name])
            assert_close(getattr(target, name), getattr(before, name) + want)
