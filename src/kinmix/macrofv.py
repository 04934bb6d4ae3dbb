"""Finite-volume solver for the macroscopic (Maxwellian) part.

Conserved vectors per cell are U_k = (n_k, n_k u_k, <v^2 f_k>).  Transport is
Rusanov + forward Euler, interspecies relaxation enters as a moment-level
source; the source is sub-stepped when dt does not resolve the interspecies
rate.  Periodic boundaries throughout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MixtureParams, SpeciesMoments, exchange_quantities


class CFLError(RuntimeError):
    pass


class PositivityError(RuntimeError):
    pass


@dataclass
class MacroState:
    U1: np.ndarray  # (Nx, 3)
    U2: np.ndarray  # (Nx, 3)
    dx: float
    t: float = 0.0

    def copy(self) -> "MacroState":
        return MacroState(U1=self.U1.copy(), U2=self.U2.copy(), dx=self.dx, t=self.t)


def conserved_from_moments(M: SpeciesMoments, mass_ratio: float) -> np.ndarray:
    th = M.T / mass_ratio
    return np.stack(
        [np.asarray(M.n, dtype=float), M.n * M.u, M.n * (th + M.u * M.u)], axis=-1
    )


def moments_from_conserved(U: np.ndarray, mass_ratio: float, where: str = "") -> SpeciesMoments:
    """Invert U = (n, nu, <v^2 f>); raises if n or the reconstructed T is not
    positive (NaN included)."""
    n = U[..., 0]
    if not np.all(n > 0):
        raise PositivityError(f"non-positive density {n.min()} {where}".strip())
    u = U[..., 1] / n
    T = (U[..., 2] / n - u * u) * mass_ratio
    if not np.all(T > 0):
        raise PositivityError(f"non-positive reconstructed temperature {T.min()} {where}".strip())
    return SpeciesMoments(n=n, u=u, T=T)


def maxwellian_flux(U: np.ndarray, mass_ratio: float) -> np.ndarray:
    """<m(v) v M> = (n u, n(T/mr + u^2), n u (u^2 + 3 T/mr)) from Gaussian moments."""
    M = moments_from_conserved(U, mass_ratio)
    th = M.T / mass_ratio
    return np.stack([M.n * M.u, M.n * (th + M.u * M.u), M.n * M.u * (M.u * M.u + 3.0 * th)], axis=-1)


def max_signal_speed(U: np.ndarray, mass_ratio: float, where: str = "") -> float:
    M = moments_from_conserved(U, mass_ratio, where=where)
    return float(np.max(np.abs(M.u) + np.sqrt(3.0 * M.T / mass_ratio)))


def numerical_flux(U_left: np.ndarray, U_right: np.ndarray, mass_ratio: float) -> np.ndarray:
    """Rusanov (local Lax-Friedrichs) interface flux."""
    FL = maxwellian_flux(U_left, mass_ratio)
    FR = maxwellian_flux(U_right, mass_ratio)
    ML = moments_from_conserved(U_left, mass_ratio)
    MR = moments_from_conserved(U_right, mass_ratio)
    sL = np.abs(ML.u) + np.sqrt(3.0 * ML.T / mass_ratio)
    sR = np.abs(MR.u) + np.sqrt(3.0 * MR.T / mass_ratio)
    s = np.maximum(sL, sR)[..., None]
    return 0.5 * (FL + FR) - 0.5 * s * (U_right - U_left)


def relaxation_source(U1: np.ndarray, U2: np.ndarray, p: MixtureParams):
    """Moment-level interspecies sources (S1, S2).

    S1 = nu12 n2/epst1 * (0, n1(u12-u1), n1(T12+u12^2-T1-u1^2)) and S2 with
    the m1/m2 temperature scaling; their mass rows vanish identically and
    the momentum/energy rows cancel under the m2/m1 weighting.
    """
    mr2 = p.mass_ratio2
    M1 = moments_from_conserved(U1, 1.0)
    M2 = moments_from_conserved(U2, mr2)
    ex = exchange_quantities(M1, M2, p)
    z1 = np.zeros_like(np.asarray(M1.n, dtype=float))
    S1 = (p.nu12 * M2.n / p.epst1)[..., None] * np.stack(
        [z1, M1.n * (ex.u12 - M1.u), M1.n * (ex.T12 + ex.u12**2 - M1.T - M1.u**2)], axis=-1
    )
    S2 = (p.nu12 * M1.n / p.epst2)[..., None] * np.stack(
        [z1, M2.n * (ex.u21 - M2.u), M2.n * ((ex.T21 - M2.T) / mr2 + ex.u21**2 - M2.u**2)], axis=-1
    )
    return S1, S2


def relaxation_substeps(dt: float, U1: np.ndarray, U2: np.ndarray, p: MixtureParams) -> int:
    """Sub-step count resolving the interspecies moment rates: one step while
    rate*dt <= 1, otherwise ceil(2*rate*dt) sub-steps (so each has rate*dt <= 1/2)."""
    r = p.nu12 * max(
        float(np.max(U2[..., 0])) / p.epst1, float(np.max(U1[..., 0])) / p.epst2
    )
    return 1 if dt * r <= 1.0 else int(np.ceil(2.0 * dt * r))


def fv_step(
    state: MacroState,
    particle_flux_div,
    p: MixtureParams,
    dt: float,
    cfl: float = 0.5,
    substep_source: bool = True,
) -> MacroState:
    """One forward-Euler macro step: transport + particle-flux coupling + relaxation.

    particle_flux_div is a pair of (Nx, 3) arrays holding the per-cell
    divergence of <m(v) v g_kk>, or None for no kinetic coupling.
    """
    mr2 = p.mass_ratio2
    smax = max(max_signal_speed(state.U1, 1.0, "(species 1)"), max_signal_speed(state.U2, mr2, "(species 2)"))
    dt_max = cfl * state.dx / smax
    if dt > dt_max:
        raise CFLError(f"dt={dt} violates CFL: need dt <= {dt_max}")

    new = state.copy()
    for U, Unew, mr in ((state.U1, new.U1, 1.0), (state.U2, new.U2, mr2)):
        Fh = numerical_flux(U, np.roll(U, -1, axis=0), mr)  # F_{i+1/2}
        Unew -= dt / state.dx * (Fh - np.roll(Fh, 1, axis=0))
    if particle_flux_div is not None:
        new.U1 -= dt * particle_flux_div[0]
        new.U2 -= dt * particle_flux_div[1]

    nsub = relaxation_substeps(dt, state.U1, state.U2, p) if substep_source else 1
    if nsub == 1:
        # beginning-of-step source
        S1, S2 = relaxation_source(state.U1, state.U2, p)
        new.U1 += dt * S1
        new.U2 += dt * S2
    else:
        h = dt / nsub
        for _ in range(nsub):
            S1, S2 = relaxation_source(new.U1, new.U2, p)
            new.U1 += h * S1
            new.U2 += h * S2

    # positivity watchdog: fail loudly rather than clip
    moments_from_conserved(new.U1, 1.0, where="(species 1, after step)")
    moments_from_conserved(new.U2, mr2, where="(species 2, after step)")
    new.t = state.t + dt
    return new
