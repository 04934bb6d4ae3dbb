"""Dimensionless two-species BGK mixture model.

Everything here lives in the dimensionless frame: species 1 carries the
reference mass, species k has mass ratio mr = m_k/m1 and its Maxwellian has
velocity variance theta = T/mr.  Exchange velocities/temperatures (u12, T12,
u21, T21) are the interaction-Maxwellian parameters that make interspecies
relaxation conserve total momentum and energy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ParameterError(ValueError):
    """A mixture parameter violates its admissibility bound."""


@dataclass(frozen=True)
class MixtureParams:
    """Masses, interpolation weights and Knudsen numbers of the mixture.

    eps1/eps2 scale the intraspecies relaxation, epst1/epst2 the
    interspecies one.  The frequency ratio eps is not free: it is fixed to
    epst2/epst1 so the parameter set stays consistent by construction.
    """

    m1: float = 1.0
    m2: float = 1.5
    delta: float = 0.5
    alpha: float = 0.5
    gamma: float = 0.1
    eps1: float = 1.0
    epst1: float = 1.0
    eps2: float = 1.0
    epst2: float = 1.0
    nu12: float = 1.0

    @property
    def eps(self) -> float:
        return self.epst2 / self.epst1

    @property
    def mass_ratio2(self) -> float:
        return self.m2 / self.m1

    def gamma_max(self) -> float:
        r = (self.m1 / self.m2) * self.eps
        return self.m1 * (1.0 - self.delta) * ((1.0 + r) * self.delta + 1.0 - r)

    def delta_min(self) -> float:
        r = (self.m1 / self.m2) * self.eps
        return (r - 1.0) / (1.0 + r)


def validate_params(p: MixtureParams) -> MixtureParams:
    """Return p unchanged if admissible, else raise naming the violated bound."""
    if not (p.m1 > 0 and p.m2 > 0):
        raise ParameterError(f"masses must be positive, got m1={p.m1}, m2={p.m2}")
    for name in ("eps1", "epst1", "eps2", "epst2"):
        val = getattr(p, name)
        if not val > 0:
            raise ParameterError(f"Knudsen number {name}={val} must be strictly positive")
    if not p.nu12 > 0:
        raise ParameterError(f"nu12={p.nu12} must be strictly positive")
    if p.eps > 1.0:
        raise ParameterError(
            f"eps = epst2/epst1 = {p.eps} > 1: swap the species labels "
            "(species 1 must be the one with the larger interspecies rate)"
        )
    if not 0.0 <= p.alpha <= 1.0:
        raise ParameterError(f"alpha={p.alpha} outside [0, 1]")
    dmin = p.delta_min()
    if not dmin <= p.delta <= 1.0:
        raise ParameterError(f"delta={p.delta} outside [{dmin}, 1]")
    gmax = p.gamma_max()
    if not 0.0 <= p.gamma <= gmax:
        raise ParameterError(f"gamma={p.gamma} outside [0, {gmax}]")
    return p


@dataclass
class SpeciesMoments:
    """Per-cell (or scalar) density, mean velocity and temperature."""

    n: np.ndarray | float
    u: np.ndarray | float
    T: np.ndarray | float


@dataclass
class ExchangeQuantities:
    u12: np.ndarray | float
    T12: np.ndarray | float
    u21: np.ndarray | float
    T21: np.ndarray | float


def exchange_quantities(M1: SpeciesMoments, M2: SpeciesMoments, p: MixtureParams) -> ExchangeQuantities:
    """Interaction-Maxwellian velocities and temperatures for both species."""
    r = (p.m1 / p.m2) * p.eps
    du = M1.u - M2.u
    du2 = du * du
    u12 = p.delta * M1.u + (1.0 - p.delta) * M2.u
    T12 = p.alpha * M1.T + (1.0 - p.alpha) * M2.T + (p.gamma / p.m1) * du2
    u21 = (1.0 - r * (1.0 - p.delta)) * M2.u + r * (1.0 - p.delta) * M1.u
    T21 = (
        (1.0 - p.eps * (1.0 - p.alpha)) * M2.T
        + p.eps * (1.0 - p.alpha) * M1.T
        + (p.eps * (1.0 - p.delta) * (r * (p.delta - 1.0) + p.delta + 1.0) - p.eps * p.gamma / p.m1) * du2
    )
    return ExchangeQuantities(u12=u12, T12=T12, u21=u21, T21=T21)


@dataclass(frozen=True)
class Relaxation:
    """Species k's mass ratio and moments, its rates toward M_k (`intra`)
    and toward M_kj (`inter`), and M_kj's velocity and temperature; every
    solver reads a species' relaxation from this view."""

    mr: float
    moments: SpeciesMoments
    intra: np.ndarray | float
    inter: np.ndarray | float
    u_cross: np.ndarray | float
    T_cross: np.ndarray | float


def relaxations(m1: SpeciesMoments, m2: SpeciesMoments, ex: ExchangeQuantities, p: MixtureParams):
    """The views of species 1 and 2, given ex = exchange_quantities(m1, m2, p)."""
    return (
        Relaxation(1.0, m1, p.nu12 * m1.n / p.eps1, p.nu12 * m2.n / p.epst1, ex.u12, ex.T12),
        Relaxation(p.mass_ratio2, m2, p.nu12 * m2.n / p.eps2, p.nu12 * m1.n / p.epst2, ex.u21, ex.T21),
    )


def maxwellian(M: SpeciesMoments, mass_ratio: float, v):
    """n sqrt(mr/(2 pi T)) exp(-mr |v-u|^2 / (2T)), broadcast over v."""
    T = np.asarray(M.T, dtype=float)
    if not np.all(T > 0):
        raise ValueError("Maxwellian requires T > 0")
    th = T / mass_ratio
    # in place in the result, which is a new array
    f = np.asarray(np.subtract(v, M.u), dtype=float)
    np.square(f, out=f)
    np.negative(f, out=f)
    f /= 2.0 * th
    np.exp(f, out=f)
    f *= M.n / np.sqrt(2.0 * np.pi * th)
    return f

