"""Scalar fields on a chart: expression-backed or callable-backed.

A :class:`ScalarField` bundles a vectorized value function with optional
hand-coded first partial derivatives.  Built-in metric presets supply them
where a caller reads them (making downstream curvature recovery exact).
Every partial not supplied, those of fields parsed from user expressions
among them, and every second partial is a fourth-order central difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import expressions as ex

_FD1_STEP = 1e-6
_FD2_STEP = 2e-3


def _fd_partials(fn, x, y, h=None):
    """Fourth-order central differences of ``fn`` at (x, y)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if h is None:
        h = _FD1_STEP * (1.0 + np.hypot(x, y))
    fx = (-fn(x + 2 * h, y) + 8 * fn(x + h, y) - 8 * fn(x - h, y) + fn(x - 2 * h, y)) / (12 * h)
    fy = (-fn(x, y + 2 * h) + 8 * fn(x, y + h) - 8 * fn(x, y - h) + fn(x, y - 2 * h)) / (12 * h)
    return fx, fy


def _fd_second(fn, x, y, h=None):
    """(f_xx, f_xy, f_yy) by fourth-order differences; wider step than first
    derivatives to balance truncation against roundoff amplification."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if h is None:
        h = _FD2_STEP * (1.0 + np.hypot(x, y))

    def d2(g):
        return (-g(2 * h) + 16 * g(h) - 30 * g(0.0) + 16 * g(-h) - g(2 * h * -1)) / (12 * h * h)

    fxx = d2(lambda s: fn(x + s, y))
    fyy = d2(lambda s: fn(x, y + s))
    w = np.array([-1.0, 8.0, -8.0, 1.0]) / 12.0
    off = np.array([2.0, 1.0, -1.0, -2.0])
    fxy = 0.0
    for wj, oj in zip(w, off):
        gx = (-fn(x + 2 * h, y + oj * h) + 8 * fn(x + h, y + oj * h)
              - 8 * fn(x - h, y + oj * h) + fn(x - 2 * h, y + oj * h)) / (12 * h)
        fxy = fxy + wj * gx / h
    return fxx, fxy, fyy


@dataclass
class ScalarField:
    """A scalar function of chart coordinates with optional analytic first partials."""

    fn: Callable
    fx: Optional[Callable] = None
    fy: Optional[Callable] = None

    def value(self, x, y):
        return np.asarray(self.fn(np.asarray(x, dtype=np.float64),
                                  np.asarray(y, dtype=np.float64)), dtype=np.float64)

    def __call__(self, x, y):
        return self.value(x, y)

    def partials(self, x, y):
        if self.fx is not None and self.fy is not None:
            return (np.asarray(self.fx(x, y), dtype=np.float64),
                    np.asarray(self.fy(x, y), dtype=np.float64))
        return _fd_partials(self.fn, x, y)

    def second_partials(self, x, y):
        return _fd_second(self.fn, x, y)


def const_field(c: float) -> ScalarField:
    c = float(c)
    zero = lambda x, y: np.zeros(np.broadcast(x, y).shape)
    return ScalarField(fn=lambda x, y: np.full(np.broadcast(x, y).shape, c), fx=zero, fy=zero)


def expr_field(source: str) -> ScalarField:
    """Field backed by a parsed expression; derivatives are numeric."""
    ast = ex.parse_expr(source)
    return ScalarField(fn=lambda x, y: ex.evaluate(ast, x, y))


def callable_field(fn, fx=None, fy=None) -> ScalarField:
    return ScalarField(fn=fn, fx=fx, fy=fy)


def as_field(spec) -> ScalarField:
    """Coerce a number, expression string, callable or ScalarField to a field."""
    if isinstance(spec, ScalarField):
        return spec
    if isinstance(spec, str):
        return expr_field(spec)
    if callable(spec):
        return ScalarField(fn=lambda x, y: np.asarray(spec(x, y), dtype=np.float64)
                           + np.zeros(np.broadcast(x, y).shape))
    return const_field(float(spec))
