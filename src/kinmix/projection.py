"""Weighted orthogonal projection onto span{M, vM, |v|^2 M}.

A projection is stored as the three raw moment functionals of the projected
function plus the reference Maxwellian moments; evaluation is lazy, so the
particle path never touches a velocity grid.  All fields broadcast, which
lets one object hold per-cell (or per-particle, after a gather) arrays.

Where the span has to be matched on samples rather than in closed form (the
particle matching solve, the reference solver's moment-pinned discrete
Maxwellians), both solve against the one Gram matrix of `hermite_gram`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ExchangeQuantities, SpeciesMoments


@dataclass
class ProjectionCoeffs:
    """Raw moments (a0, a1, a2) = (<phi>, <(v-u) phi>, <|v-u|^2 phi>) of the
    projected function, with the reference Maxwellian (n, u, theta)."""

    a0: np.ndarray | float
    a1: np.ndarray | float
    a2: np.ndarray | float
    n: np.ndarray | float
    u: np.ndarray | float
    theta: np.ndarray | float


def project_from_moments(Mk: SpeciesMoments, mass_ratio: float, phi_moments) -> ProjectionCoeffs:
    """Projection of any phi given its three moments against m(v)."""
    n = np.asarray(Mk.n, dtype=float)
    if not np.all(n > 0):
        raise ValueError("projection undefined for n <= 0")
    a0, a1, a2 = phi_moments
    return ProjectionCoeffs(a0=a0, a1=a1, a2=a2, n=Mk.n, u=Mk.u, theta=Mk.theta(mass_ratio))


def project_cross_maxwellian(
    Mk: SpeciesMoments, exch: ExchangeQuantities, species: int, mass_ratio: float
) -> ProjectionCoeffs:
    """Closed-form projection of the interaction Maxwellian M_kj onto the
    span of species k's Maxwellian (no quadrature involved)."""
    if species == 1:
        ukj, theta_kj = exch.u12, exch.T12  # species-1 interaction Maxwellian carries m1
    elif species == 2:
        ukj, theta_kj = exch.u21, exch.T21 / mass_ratio
    else:
        raise ValueError("species must be 1 or 2")
    dukj = ukj - Mk.u
    return ProjectionCoeffs(
        a0=Mk.n * np.ones_like(np.asarray(dukj, dtype=float)),
        a1=Mk.n * dukj,
        a2=Mk.n * (theta_kj + dukj * dukj),
        n=Mk.n,
        u=Mk.u,
        theta=Mk.theta(mass_ratio),
    )


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


def eval_projection(coeffs: ProjectionCoeffs, v):
    """Pi(phi)(v); broadcasts over v and over array-valued coefficients."""
    w = v - coeffs.u
    th = coeffs.theta
    Mk = coeffs.n / np.sqrt(2.0 * np.pi * th) * np.exp(-(w * w) / (2.0 * th))
    bracket = (
        coeffs.a0
        + w * coeffs.a1 / th
        + (w * w / (2.0 * th) - 0.5) * (coeffs.a2 / th - coeffs.a0)
    )
    return bracket * Mk / coeffs.n


def complement_eval(phi_at_v, coeffs: ProjectionCoeffs, v):
    """(1 - Pi)(phi)(v) = phi(v) - Pi(phi)(v)."""
    return phi_at_v - eval_projection(coeffs, v)
