"""Space-homogeneous laboratory: moment ODEs with their closed-form decay
laws, relative entropy, and a kinetic integrator on a velocity grid.

Densities are constant in the homogeneous case, so the macroscopic dynamics
reduce to four coupled ODEs for (u1, u2, T1, T2), the exchange increment of
`macrofv` in (u, T) variables; the velocity gap decays at a single
exponential rate and the temperature gap follows a two-rate law with
constants C1, C2, C3 (`macrofv.decay_constants`, re-exported here).  The
solvers step that law exactly (`macrofv.exchange_map`); the sub-stepped RK4
integration of the ODEs here (`moment_ode_step`, `moment_ode_run`) is the
independent check of it.  The kinetic integrator is the discrete-velocity
reference solver on one cell (`reference.dvm_step` with Nx=1), recording the
moments, L1 gaps and relative entropies along the way.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grids import GridSpec
from .macrofv import DecayConstants, decay_constants, exchange_increment, relaxation_substeps, two_rate
from .model import MixtureParams, SpeciesMoments, maxwellian
from .reference import GridDistribution, cellwise_moments, dvm_step


def _moment_rhs(y: np.ndarray, p: MixtureParams, n1: float, n2: float) -> np.ndarray:
    """d/dt (u1, u2, T1, T2): the exchange increment of the momenta and
    energies, divided by the constant densities."""
    u1, u2, T1, T2 = y
    dP1, dE1, dP2, dE2 = exchange_increment(SpeciesMoments(n1, u1, T1), SpeciesMoments(n2, u2, T2), p)
    du1, du2 = dP1 / n1, dP2 / n2
    return np.array([du1, du2, dE1 / n1 - 2.0 * u1 * du1, (dE2 / n2 - 2.0 * u2 * du2) * p.mass_ratio2])


def moment_ode_step(u1, u2, T1, T2, p: MixtureParams, n1: float, n2: float, dt: float):
    """RK4 over dt of the coupled (u1, u2, T1, T2) relaxation ODEs, in the
    sub-steps of `relaxation_substeps`: unresolved, RK4 blows up."""
    y = np.array([u1, u2, T1, T2], dtype=float)
    nsub = relaxation_substeps(dt, n1, n2, p)
    h = dt / nsub
    for _ in range(nsub):
        k1 = _moment_rhs(y, p, n1, n2)
        k2 = _moment_rhs(y + 0.5 * h * k1, p, n1, n2)
        k3 = _moment_rhs(y + 0.5 * h * k2, p, n1, n2)
        k4 = _moment_rhs(y + h * k3, p, n1, n2)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return tuple(y)


def moment_ode_run(u1, u2, T1, T2, p: MixtureParams, n1, n2, dt, t_end, output_every=1):
    """RK4 trajectory; returns (times, u1, u2, T1, T2) arrays."""
    nsteps = int(round(t_end / dt))
    rec = [(0.0, u1, u2, T1, T2)]
    for k in range(nsteps):
        u1, u2, T1, T2 = moment_ode_step(u1, u2, T1, T2, p, n1, n2, dt)
        t = (k + 1) * dt
        if (k + 1) % output_every == 0 or k == nsteps - 1:
            rec.append((t, u1, u2, T1, T2))
    cols = np.array(rec).T
    return cols[0], cols[1], cols[2], cols[3], cols[4]


def analytic_velocity_gap(t, u1_0: float, u2_0: float, p: MixtureParams, n1: float, n2: float):
    """|u1 - u2|^2 (t) from the homogeneous decay law: it decays at rate C3."""
    return np.exp(-decay_constants(p, n1, n2).C3 * np.asarray(t, dtype=float)) * (u1_0 - u2_0) ** 2


def analytic_temperature_gap(t, u1_0, u2_0, T1_0, T2_0, p: MixtureParams, n1, n2):
    """T1 - T2 at time t from the two-rate law, e^{-C1 t} (T1 - T2)(0) plus
    C2 (u1 - u2)^2(0) `two_rate`(C1, C3, t), finite for any admissible rates."""
    c = decay_constants(p, n1, n2)
    t = np.asarray(t, dtype=float)
    return np.exp(-c.C1 * t) * (T1_0 - T2_0) + c.C2 * (u1_0 - u2_0) ** 2 * two_rate(c.C1, c.C3, t)


# --- velocity-grid diagnostics -------------------------------------------

def relative_entropy(f: np.ndarray, M: SpeciesMoments, mass_ratio: float, grid: GridSpec) -> float:
    """H(f|M) = int f ln(f/M) dv by trapezoid, with 0 ln 0 := 0.

    ln M is evaluated analytically so far-tail underflow of M cannot
    produce spurious infinities where f is still positive.
    """
    f = np.asarray(f, dtype=float)
    if not np.all(f >= -1e-14):
        raise ValueError(f"negative distribution sample {f.min()} in relative_entropy")
    f = np.clip(f, 0.0, None)
    th = M.T / mass_ratio
    if not th > 0:
        raise ValueError("relative_entropy requires T > 0")
    v = grid.v_nodes
    lnM = np.log(M.n) - 0.5 * np.log(2.0 * np.pi * th) - ((v - M.u) ** 2) / (2.0 * th)
    out = np.zeros_like(f)
    pos = f > 0
    out[pos] = f[pos] * (np.log(f[pos]) - lnM[pos])
    return float(np.sum(grid.v_weights * out))


def l1_gap(f: np.ndarray, M: SpeciesMoments, mass_ratio: float, grid: GridSpec) -> float:
    return float(np.sum(grid.v_weights * np.abs(f - maxwellian(M, mass_ratio, grid.v_nodes))))


# --- kinetic integration of the homogeneous system ---------------------

@dataclass
class HomogeneousTrajectory:
    times: np.ndarray
    n1: np.ndarray
    u1: np.ndarray
    T1: np.ndarray
    n2: np.ndarray
    u2: np.ndarray
    T2: np.ndarray
    l1_gap1: np.ndarray
    l1_gap2: np.ndarray
    entropy1: np.ndarray
    entropy2: np.ndarray
    entropy_per_step: list = field(default_factory=list)  # (t, H1+H2) every step
    f1: np.ndarray | None = None
    f2: np.ndarray | None = None


def kinetic_homogeneous_run(
    f1: np.ndarray,
    f2: np.ndarray,
    p: MixtureParams,
    grid: GridSpec,
    dt: float,
    t_end: float,
    output_every: int = 1,
) -> HomogeneousTrajectory:
    """Integrate the homogeneous two-species BGK system on the velocity grid:
    `reference.dvm_step` on one cell, plus the moments, L1 gaps and relative
    entropies every output_every steps and H(f1|M1)+H(f2|M2) every step."""
    mr2 = p.mass_ratio2
    grid = replace(grid, Nx=1)
    state = GridDistribution(f1=np.array(f1, dtype=float)[None, :], f2=np.array(f2, dtype=float)[None, :], grid=grid)
    nsteps = int(round(t_end / dt))

    rows = []
    per_step = []

    def moments():
        return cellwise_moments(state.f1[0], grid, 1.0), cellwise_moments(state.f2[0], grid, mr2)

    def entropies(m1, m2):
        return relative_entropy(state.f1[0], m1, 1.0, grid), relative_entropy(state.f2[0], m2, mr2, grid)

    def record(t):
        m1, m2 = moments()
        rows.append(
            (
                t,
                m1.n, m1.u, m1.T, m2.n, m2.u, m2.T,
                l1_gap(state.f1[0], m1, 1.0, grid),
                l1_gap(state.f2[0], m2, mr2, grid),
                *entropies(m1, m2),
            )
        )

    record(0.0)
    for k in range(nsteps):
        state = dvm_step(state, p, dt)
        t = (k + 1) * dt
        per_step.append((t, sum(entropies(*moments()))))
        if (k + 1) % output_every == 0 or k == nsteps - 1:
            record(t)

    cols = np.array(rows).T
    return HomogeneousTrajectory(
        times=cols[0],
        n1=cols[1], u1=cols[2], T1=cols[3],
        n2=cols[4], u2=cols[5], T2=cols[6],
        l1_gap1=cols[7], l1_gap2=cols[8],
        entropy1=cols[9], entropy2=cols[10],
        entropy_per_step=per_step,
        f1=state.f1[0], f2=state.f2[0],
    )
