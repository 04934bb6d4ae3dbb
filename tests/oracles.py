"""Independent quadrature oracles and reference implementations used across the tests.

Deliberately kept free of package internals beyond the data types: every
expected value here comes from trapezoid quadrature on a wide fine grid, or
from a plain per-element loop, so the package is checked against something it
does not share code with.
"""
import numpy as np


def vgrid(half_width=30.0, n=6001):
    v = np.linspace(-half_width, half_width, n)
    w = np.full(n, v[1] - v[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return v, w


def raw_moment(fv, v, w, k):
    return float(np.sum(w * v**k * fv))


def nuT(fv, v, w, mass_ratio=1.0):
    """(n, u, T) of samples, with the species temperature convention."""
    n = raw_moment(fv, v, w, 0)
    u = raw_moment(fv, v, w, 1) / n
    T = (raw_moment(fv, v, w, 2) / n - u * u) * mass_ratio
    return n, u, T


def gaussian(n, u, theta, v):
    return n / np.sqrt(2 * np.pi * theta) * np.exp(-((v - u) ** 2) / (2 * theta))


def snapshot_csv_text(x, v, f):
    """Reference for one species' snapshot CSV: the per-element loop over the
    (x, v) grid, every value through float() and 17 significant digits."""
    lines = ["x,v,f"]
    for i, xi in enumerate(x):
        for j, vj in enumerate(v):
            lines.append(f"{float(xi):.17g},{float(vj):.17g},{float(f[i, j]):.17g}")
    return "\n".join(lines) + "\n"
