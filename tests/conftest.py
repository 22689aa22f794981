"""Operator actions for the tests, built as the solver builds them: row
kernels run through ``SaddleSystem.run``, into new arrays.  Test modules
import them by name, as ``from conftest import apply, stencil``."""

import numpy as np


def stencil(system, kernel, f, signs, out=None):
    """``kernel`` (``system.five_point_rows`` or ``system.mass_rows``) of
    field ``f`` padded with ``signs``, run as one phase into ``out`` (a new
    array of f's shape and dtype when None); returns ``out``.  Each kernel
    is called with its own signature: only the mass kernel takes ``gx``."""
    out = np.empty_like(f) if out is None else out
    if kernel == system.mass_rows:
        system.run(out.dtype, lambda lo, hi, seg, gx: kernel(f, signs, out, lo, hi, seg, gx))
    else:
        system.run(out.dtype, lambda lo, hi, seg, gx: kernel(f, signs, out, lo, hi, seg))
    return out


def apply(system, st):
    """The saddle operator applied to ``st``: the residual for no right-hand
    side, negated.  The residual multiplies by -1.0, so this is bit-exact."""
    out = system.residual(st, None)
    for f in (out.u, out.v, out.p):
        f *= -1.0
    return out


def grad(system, p, out=None):
    """The gradient of ``p``, ``grad_rows`` of both axes run as one phase into
    the ``(u, v)`` pair ``out`` (new arrays of p's dtype when None); returns
    ``out``."""
    gu, gv = tuple(np.empty(system.shapes[f], p.dtype) for f in "uv") if out is None else out
    system.run(gu.dtype, lambda lo, hi, seg, gx: (system.grad_rows(p, 0, gu, lo, hi),
                                                  system.grad_rows(p, 1, gv, lo, hi)))
    return gu, gv


def neg_div(system, u, v, out=None):
    """The negative divergence of ``(u, v)``, ``div_rows`` run as one phase
    into ``out`` (a new array when None); returns ``out``."""
    out = np.empty(system.shapes["p"], np.result_type(u, v)) if out is None else out
    system.run(out.dtype, lambda lo, hi, seg, gx: system.div_rows(u, v, out, lo, hi, seg))
    return out
