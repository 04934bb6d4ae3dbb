"""Weighted orthogonal projection onto span{M, vM, |v|^2 M}.

Every projection here is the Maxwellian M times a polynomial in its scaled
velocity h1 = (v - u)/sigma, sigma^2 = theta = T/m, with per-cell
coefficients on (1, h1, h1^2).  `bracket` turns a function's three moments
into those coefficients in closed form, and `eval_projection` evaluates any
such product on samples: the micro source, the particle matching correction
and the reference solver's discrete Maxwellians all go through it.

Where the span has to be matched on samples rather than in closed form (the
particle matching solve, the reference solver's moment-pinned discrete
Maxwellians), both solve against the one Gram matrix of `hermite_gram`.
"""
from __future__ import annotations

import numpy as np


def bracket(m0, m1, m2, n, th):
    """Coefficients of Pi(phi)/M on (1, h1, h1^2), from phi's moments
    (m0, m1, m2) = (<phi>, <(v-u) phi>, <(v-u)^2 phi>) and the Maxwellian's
    density n and variance th; broadcasts over per-cell arrays."""
    P0 = m0 / n
    P1 = m1 / (np.sqrt(th) * n)
    P2 = (m2 / th - m0) / (2.0 * n)
    return P0 - P2, P1, P2


def eval_projection(coeffs, h1: np.ndarray, M: np.ndarray, spread, out: np.ndarray) -> np.ndarray:
    """out = M sum_j c_j h1^j by Horner's rule, one spread per coefficient.

    coeffs are the polynomial's coefficients c_j, lowest degree first (at
    least two), as per-cell fields that `spread` maps onto the samples h1 and
    M (`Cells.repeat` or `Cells.expand` for particles, a column for grid
    rows)."""
    np.multiply(spread(coeffs[-1]), h1, out=out)
    for c in coeffs[-2:0:-1]:
        out += spread(c)
        out *= h1
    out += spread(coeffs[0])
    out *= M
    return out


def hermite_gram(M: np.ndarray, h1: np.ndarray, reduce, out: np.ndarray | None = None) -> np.ndarray:
    """Per-cell Gram matrix <b_i b_j M> of the scaled Hermite basis
    b = (1, h1, h2 = h1^2 - 1), shape (..., 3, 3).

    M and h1 are samples (velocity nodes of each cell's row, or particles in
    cell order) and `reduce` sums samples into per-cell values (quadrature
    over the nodes, or segment sums over each cell's particles).  Every entry
    is a combination of the five sums S_k = reduce(M h1^k), k = 0..4, so one
    sample-length temporary is live at a time: `out` when given."""
    S = [reduce(M)]
    t = np.multiply(M, h1, out=out)
    S.append(reduce(t))
    for _ in range(3):
        t *= h1
        S.append(reduce(t))
    S0, S1, S2, S3, S4 = S
    G = np.stack([S0, S1, S2 - S0, S1, S2, S3 - S1, S2 - S0, S3 - S1, S4 - 2.0 * S2 + S0], axis=-1)
    return G.reshape(G.shape[:-1] + (3, 3))
