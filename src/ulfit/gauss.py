"""Gauss-Legendre and Gauss-Hermite rules, numpy.polynomial's own.

Every fit number rests on three fixed rules, so gauss_rule builds each
once per process and hands every caller the same arrays, read-only so
that no caller can change another's rule. Only bound and fit import this
module, and with it numpy.polynomial; simulate and compare load neither.
"""

from __future__ import annotations

import functools

from numpy.polynomial import hermite, legendre

__all__ = ["gauss_rule"]


@functools.cache
def gauss_rule(kind: str, n: int):
    """The n-point Gauss rule (nodes, weights): "legendre" integrates over
    [-1, 1] with weight 1, and "hermite" over the real line with weight
    exp(-x^2)."""
    x, w = legendre.leggauss(n) if kind == "legendre" else hermite.hermgauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w
