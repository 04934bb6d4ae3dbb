"""Weighted orthogonal projection onto span{M, vM, |v|^2 M}.

A projection is stored as the three raw moment functionals of the projected
function plus the reference Maxwellian moments; evaluation is lazy, so the
particle path never touches a velocity grid.  All fields broadcast, which
lets one object hold per-cell (or per-particle, after a gather) arrays.
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
