"""Finite-volume solver for the macroscopic (Maxwellian) part, and the one
interspecies exchange law every solver in the package uses.

Conserved vectors per cell are U_k = (n_k, n_k u_k, <v^2 f_k>).  Transport is
Rusanov + forward Euler at CFL number 1/2, built from one inversion of each
species' U per step: `maxwellian_flux` returns the Maxwellian flux and its
wave-speed bound together, and the step forms the CFL bound and the interface
fluxes from those and their neighbours'.  Interspecies relaxation follows as
a split step, `exchange_map`: with the densities fixed the exchange ODE of
`exchange_increment` has a closed form, so the map is exact at any step and
needs no sub-steps however stiff the interspecies rate.  Periodic boundaries
throughout; on one cell (the homogeneous mode) a step is the exchange map
alone, at any dt.
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


def maxwellian_flux(U: np.ndarray, mass_ratio: float, where: str = "") -> tuple[np.ndarray, np.ndarray]:
    """(F, s) from one inversion of U: the flux <m(v) v M> =
    (n u, n(T/mr + u^2), n u (u^2 + 3 T/mr)) from Gaussian moments, and its
    per-cell wave-speed bound s = |u| + sqrt(3 T/mr)."""
    M = moments_from_conserved(U, mass_ratio, where)
    th = M.T / mass_ratio
    F = np.stack([M.n * M.u, M.n * (th + M.u * M.u), M.n * M.u * (M.u * M.u + 3.0 * th)], axis=-1)
    return F, np.abs(M.u) + np.sqrt(3.0 * M.T / mass_ratio)


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


@dataclass(frozen=True)
class DecayConstants:
    C1: np.ndarray | float  # rate of the temperature gap
    C2: np.ndarray | float  # gain of the temperature gap from the squared velocity gap
    C3: np.ndarray | float  # rate of the squared velocity gap
    C: np.ndarray | float  # entropy-bound rate: min of the two total relaxation rates


def decay_constants(p: MixtureParams, n1, n2) -> DecayConstants:
    """Constants of the homogeneous decay laws at densities n1, n2 (scalars
    or per-cell arrays): d(u1-u2)^2/dt = -C3 (u1-u2)^2 and
    d(T1-T2)/dt = -C1 (T1-T2) + C2 (u1-u2)^2."""
    b1 = p.nu12 * n2 / p.epst1
    b2e = p.nu12 * n1 * p.eps / p.epst2  # = nu12 n1 / epst1 by construction
    C1 = (1.0 - p.alpha) * (b1 + b2e)
    C2 = b1 * ((1.0 - p.delta) ** 2 + p.gamma / p.m1) - b2e * (1.0 - p.delta**2 - p.gamma / p.m1)
    C3 = 2.0 * (1.0 - p.delta) * (b1 + b2e * p.m1 / p.m2)
    C = np.minimum(p.nu12 * (n1 / p.eps1 + n2 / p.epst1), p.nu12 * (n2 / p.eps2 + n1 / p.epst2))
    return DecayConstants(C1=C1, C2=C2, C3=C3, C=C)


def two_rate(C1, C3, h):
    """(e^{-C3 h} - e^{-C1 h}) / (C1 - C3), written so it neither overflows
    nor divides by zero: h e^{-min(C1, C3) h} (1 - e^{-d}) / d with
    d = |C1 - C3| h, whose limit at d = 0 is h e^{-C1 h}."""
    d = np.asarray(np.abs(C1 - C3) * h, dtype=float)
    ratio = np.divide(-np.expm1(-d), d, out=np.ones_like(d), where=d > 0)
    return h * np.exp(-np.minimum(C1, C3) * h) * ratio


def exchange_map(U1: np.ndarray, U2: np.ndarray, p: MixtureParams, h: float):
    """Both species' conserved vectors after interspecies exchange over h,
    in closed form per cell.  The densities and the totals
    U1[..., 1] + mr2 U2[..., 1] and U1[..., 2] + mr2 U2[..., 2] are kept; the
    velocity gap u1 - u2 decays by e^{-C3 h/2} and the temperature gap
    follows the two-rate law of `decay_constants` at the cell's densities."""
    mr2 = p.mass_ratio2
    m1 = moments_from_conserved(U1, 1.0, "(species 1)")
    m2 = moments_from_conserved(U2, mr2, "(species 2)")
    n1, n2 = m1.n, m2.n
    c = decay_constants(p, n1, n2)
    du0 = m1.u - m2.u
    du = np.exp(-0.5 * c.C3 * h) * du0
    dT = np.exp(-c.C1 * h) * (m1.T - m2.T) + c.C2 * (du0 * du0) * two_rate(c.C1, c.C3, h)
    # u1 from the total momentum and the new gap, T1 from the thermal energy
    # left over (n1 T1 + n2 T2) and the new temperature gap
    u1 = (U1[..., 1] + mr2 * U2[..., 1] + mr2 * n2 * du) / (n1 + mr2 * n2)
    u2 = u1 - du
    thermal = U1[..., 2] + mr2 * U2[..., 2] - n1 * u1 * u1 - mr2 * n2 * u2 * u2
    T1 = (thermal + n2 * dT) / (n1 + n2)
    return (
        conserved_from_moments(SpeciesMoments(n=n1, u=u1, T=T1), 1.0),
        conserved_from_moments(SpeciesMoments(n=n2, u=u2, T=T1 - dT), mr2),
    )


def relaxation_substeps(dt: float, n1, n2, p: MixtureParams) -> int:
    """Sub-step count of the RK4 moment ODEs (`homogeneous.moment_ode_step`,
    the independent check of `exchange_map`) at densities n1, n2 (scalars or
    per-cell arrays): ceil(2*rate*dt), at least one, so each sub-step has
    rate*dt <= 1/2."""
    rate = p.nu12 * max(float(np.max(n2)) / p.epst1, float(np.max(n1)) / p.epst2)
    return max(1, int(np.ceil(2.0 * dt * rate)))


def fv_step(
    state: MacroState,
    particle_flux_div,
    p: MixtureParams,
    dt: float,
) -> MacroState:
    """One macro step: forward-Euler Rusanov transport and particle-flux
    coupling, then interspecies exchange by the exact `exchange_map` over
    dt, which stops a non-positive transported state with a
    `PositivityError`.

    Each species' U is inverted once (`maxwellian_flux`, species 1 first)
    for its flux F and wave speed s, which give the CFL bound and, with
    their right neighbours (a roll by -1), the interface flux
    F_{i+1/2} = (F_i + F_{i+1})/2 - max(s_i, s_{i+1}) (U_{i+1} - U_i)/2.

    particle_flux_div is a pair of (Nx, 3) arrays holding the per-cell
    divergence of <m(v) v g_kk>, or None for no kinetic coupling.  On one
    periodic cell the Rusanov difference is F - F, exactly zero, so the step
    forms no flux and checks no CFL bound: it is `exchange_map` bit for bit,
    and U is inverted only there.
    """
    U1, U2 = state.U1, state.U2
    if len(U1) > 1:
        F1, s1 = maxwellian_flux(U1, 1.0, "(species 1)")
        F2, s2 = maxwellian_flux(U2, p.mass_ratio2, "(species 2)")
        dt_max = 0.5 * state.dx / float(max(np.max(s1), np.max(s2)))
        if dt > dt_max:
            raise CFLError(f"dt={dt} violates CFL: need dt <= {dt_max}")
        U1, U2 = U1.copy(), U2.copy()
        for U, Unew, F, s in ((state.U1, U1, F1, s1), (state.U2, U2, F2, s2)):
            FR, sR, UR = (np.roll(a, -1, axis=0) for a in (F, s, U))  # cell i+1
            Fh = 0.5 * (F + FR) - 0.5 * np.maximum(s, sR)[..., None] * (UR - U)  # F_{i+1/2}
            Unew -= dt / state.dx * (Fh - np.roll(Fh, 1, axis=0))
    if particle_flux_div is not None:
        U1 = U1 - dt * particle_flux_div[0]
        U2 = U2 - dt * particle_flux_div[1]
    return MacroState(*exchange_map(U1, U2, p, dt), dx=state.dx)
