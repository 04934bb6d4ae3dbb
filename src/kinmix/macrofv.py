"""Finite-volume solver for the macroscopic (Maxwellian) part, and the one
interspecies exchange law every solver in the package uses.

Conserved vectors per cell are U_k = (n_k, n_k u_k, <v^2 f_k>).  Transport is
Rusanov + forward Euler at CFL number 1/2; interspecies relaxation enters as a
moment-level source built from `exchange_increment`, sub-stepped by
`relaxation_substeps` (the rule the reference and homogeneous solvers share)
when dt does not resolve the interspecies rate.  Periodic boundaries
throughout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MixtureParams, SpeciesMoments, exchange_quantities, relaxations


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


def signal_speed(U: np.ndarray, mass_ratio: float, where: str = "") -> np.ndarray:
    """Per-cell wave-speed bound |u| + sqrt(3 T/mr) of the Maxwellian flux."""
    M = moments_from_conserved(U, mass_ratio, where=where)
    return np.abs(M.u) + np.sqrt(3.0 * M.T / mass_ratio)


def numerical_flux(U_left: np.ndarray, U_right: np.ndarray, mass_ratio: float) -> np.ndarray:
    """Rusanov (local Lax-Friedrichs) interface flux."""
    FL = maxwellian_flux(U_left, mass_ratio)
    FR = maxwellian_flux(U_right, mass_ratio)
    s = np.maximum(signal_speed(U_left, mass_ratio), signal_speed(U_right, mass_ratio))[..., None]
    return 0.5 * (FL + FR) - 0.5 * s * (U_right - U_left)


def exchange_increment(m1: SpeciesMoments, m2: SpeciesMoments, p: MixtureParams):
    """d/dt of (n1 u1, E1, n2 u2, E2), E_k = n_k(theta_k + u_k^2), from
    interspecies relaxation: each view's rate `inter` times the moment gap
    between the interaction Maxwellian M_kj and M_k.  The densities do not
    change, and the momentum/energy rates cancel under the m2/m1 weighting."""
    out = ()
    for sp in relaxations(m1, m2, exchange_quantities(m1, m2, p), p):
        m = sp.moments
        dP = m.n * (sp.u_cross - m.u)
        dE = m.n * ((sp.T_cross - m.T) / sp.mr + sp.u_cross**2 - m.u**2)
        out += (sp.inter * dP, sp.inter * dE)
    return out


def relaxation_source(U1: np.ndarray, U2: np.ndarray, p: MixtureParams):
    """Moment-level interspecies sources (S1, S2): zero mass rows, then the
    exchange increment of the momentum and energy rows."""
    k = exchange_increment(moments_from_conserved(U1, 1.0), moments_from_conserved(U2, p.mass_ratio2), p)
    z = np.zeros_like(k[0])
    return np.stack([z, k[0], k[1]], axis=-1), np.stack([z, k[2], k[3]], axis=-1)


def relaxation_substeps(dt: float, n1, n2, p: MixtureParams) -> int:
    """Sub-step count resolving the interspecies moment rates of densities
    n1, n2 (scalars or per-cell arrays): ceil(2*rate*dt), at least one, so
    each sub-step has rate*dt <= 1/2."""
    rate = p.nu12 * max(float(np.max(n2)) / p.epst1, float(np.max(n1)) / p.epst2)
    return max(1, int(np.ceil(2.0 * dt * rate)))


def fv_step(
    state: MacroState,
    particle_flux_div,
    p: MixtureParams,
    dt: float,
) -> MacroState:
    """One forward-Euler macro step: transport + particle-flux coupling + relaxation.

    particle_flux_div is a pair of (Nx, 3) arrays holding the per-cell
    divergence of <m(v) v g_kk>, or None for no kinetic coupling.
    """
    mr2 = p.mass_ratio2
    smax = float(max(np.max(signal_speed(state.U1, 1.0, "(species 1)")), np.max(signal_speed(state.U2, mr2, "(species 2)"))))
    dt_max = 0.5 * state.dx / smax
    if dt > dt_max:
        raise CFLError(f"dt={dt} violates CFL: need dt <= {dt_max}")

    new = state.copy()
    for U, Unew, mr in ((state.U1, new.U1, 1.0), (state.U2, new.U2, mr2)):
        Fh = numerical_flux(U, np.roll(U, -1, axis=0), mr)  # F_{i+1/2}
        Unew -= dt / state.dx * (Fh - np.roll(Fh, 1, axis=0))
    if particle_flux_div is not None:
        new.U1 -= dt * particle_flux_div[0]
        new.U2 -= dt * particle_flux_div[1]

    nsub = relaxation_substeps(dt, state.U1[:, 0], state.U2[:, 0], p)
    h = dt / nsub
    for _ in range(nsub):
        # one step takes the beginning-of-step source, sub-steps the current state
        S1, S2 = relaxation_source(*((state.U1, state.U2) if nsub == 1 else (new.U1, new.U2)), p)
        new.U1 += h * S1
        new.U2 += h * S2

    # positivity watchdog: fail loudly rather than clip
    moments_from_conserved(new.U1, 1.0, where="(species 1, after step)")
    moments_from_conserved(new.U2, mr2, where="(species 2, after step)")
    new.t = state.t + dt
    return new
