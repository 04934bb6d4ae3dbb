"""Space-homogeneous laboratory: moment ODEs with their closed-form decay
laws, relative entropy, and a direct kinetic integrator on a velocity grid.

Densities are constant in the homogeneous case, so the macroscopic dynamics
reduce to four coupled ODEs for (u1, u2, T1, T2); the velocity gap decays at
a single exponential rate and the temperature gap follows a two-rate law
with constants C1, C2, C3.  The kinetic integrator relaxes the distribution
shapes exponentially against frozen attractors while the moments follow a
conservative two-stage update, and renormalized discrete Maxwellians pin the
grid moments so the conserved totals stay at round-off.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import GridSpec
from .model import MixtureParams, SpeciesMoments, exchange_quantities, maxwellian


@dataclass(frozen=True)
class DecayConstants:
    C1: float
    C2: float
    C3: float
    C: float  # entropy-bound rate: min of the two total relaxation rates


def decay_constants(p: MixtureParams, n1: float, n2: float) -> DecayConstants:
    b1 = p.nu12 * n2 / p.epst1
    b2e = p.nu12 * n1 * p.eps / p.epst2  # = nu12 n1 / epst1 by construction
    C1 = (1.0 - p.alpha) * (b1 + b2e)
    C2 = b1 * ((1.0 - p.delta) ** 2 + p.gamma / p.m1) - b2e * (1.0 - p.delta**2 - p.gamma / p.m1)
    C3 = 2.0 * (1.0 - p.delta) * (b1 + b2e * p.m1 / p.m2)
    C = min(
        p.nu12 * (n1 / p.eps1 + n2 / p.epst1),
        p.nu12 * (n2 / p.eps2 + n1 / p.epst2),
    )
    return DecayConstants(C1=C1, C2=C2, C3=C3, C=C)


def _moment_rhs(y: np.ndarray, p: MixtureParams, n1: float, n2: float) -> np.ndarray:
    u1, u2, T1, T2 = y
    b1 = p.nu12 * n2 / p.epst1
    b2 = p.nu12 * n1 / p.epst2
    du2 = (u1 - u2) ** 2
    return np.array(
        [
            b1 * (1.0 - p.delta) * (u2 - u1),
            b2 * (p.m1 / p.m2) * p.eps * (1.0 - p.delta) * (u1 - u2),
            b1 * ((1.0 - p.alpha) * (T2 - T1) + ((1.0 - p.delta) ** 2 + p.gamma / p.m1) * du2),
            b2 * (p.eps * (1.0 - p.alpha) * (T1 - T2) + p.eps * (1.0 - p.delta**2 - p.gamma / p.m1) * du2),
        ]
    )


def moment_ode_step(u1, u2, T1, T2, p: MixtureParams, n1: float, n2: float, dt: float):
    """One RK4 step of the coupled (u1, u2, T1, T2) relaxation ODEs."""
    y = np.array([u1, u2, T1, T2], dtype=float)
    k1 = _moment_rhs(y, p, n1, n2)
    k2 = _moment_rhs(y + 0.5 * dt * k1, p, n1, n2)
    k3 = _moment_rhs(y + 0.5 * dt * k2, p, n1, n2)
    k4 = _moment_rhs(y + dt * k3, p, n1, n2)
    out = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return tuple(out)


def moment_ode_run(u1, u2, T1, T2, p: MixtureParams, n1, n2, dt, t_end, output_every=1):
    """RK4 trajectory; returns (times, u1, u2, T1, T2) arrays."""
    nsteps = int(round(t_end / dt))
    rec = [(0.0, u1, u2, T1, T2)]
    t = 0.0
    for k in range(nsteps):
        u1, u2, T1, T2 = moment_ode_step(u1, u2, T1, T2, p, n1, n2, dt)
        t = (k + 1) * dt
        if (k + 1) % output_every == 0 or k == nsteps - 1:
            rec.append((t, u1, u2, T1, T2))
    cols = np.array(rec).T
    return cols[0], cols[1], cols[2], cols[3], cols[4]


def analytic_velocity_gap(t, u1_0: float, u2_0: float, p: MixtureParams, n1: float, n2: float):
    """|u1 - u2|^2 (t) from the homogeneous decay law."""
    rate = 2.0 * p.nu12 * (1.0 - p.delta) * (n2 / p.epst1 + (p.eps / p.epst2) * (p.m1 / p.m2) * n1)
    return np.exp(-rate * np.asarray(t, dtype=float)) * (u1_0 - u2_0) ** 2


def analytic_temperature_gap(t, u1_0, u2_0, T1_0, T2_0, p: MixtureParams, n1, n2):
    """T1 - T2 at time t, including the degenerate C1 = C3 branch."""
    c = decay_constants(p, n1, n2)
    t = np.asarray(t, dtype=float)
    du2 = (u1_0 - u2_0) ** 2
    dT0 = T1_0 - T2_0
    if abs(c.C1 - c.C3) < 1e-12:
        return c.C2 * t * np.exp(-c.C1 * t) * du2 + np.exp(-c.C1 * t) * dT0
    return np.exp(-c.C1 * t) * (dT0 + c.C2 / (c.C1 - c.C3) * (np.exp((c.C1 - c.C3) * t) - 1.0) * du2)


# --- velocity-grid diagnostics -------------------------------------------

def grid_moments(f: np.ndarray, grid: GridSpec, mass_ratio: float) -> SpeciesMoments:
    """Trapezoid (n, u, T) of samples on the velocity nodes."""
    v, wq = grid.v_nodes, grid.v_weights
    n = float(np.sum(wq * f))
    u = float(np.sum(wq * v * f) / n)
    T = (float(np.sum(wq * v * v * f) / n) - u * u) * mass_ratio
    return SpeciesMoments(n=n, u=u, T=T)


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
    if th <= 0:
        raise ValueError("relative_entropy requires T > 0")
    v = grid.v_nodes
    lnM = np.log(M.n) - 0.5 * np.log(2.0 * np.pi * th) - ((v - M.u) ** 2) / (2.0 * th)
    out = np.zeros_like(f)
    pos = f > 0
    out[pos] = f[pos] * (np.log(f[pos]) - lnM[pos])
    return float(np.sum(grid.v_weights * out))


def l1_gap(f: np.ndarray, M: SpeciesMoments, mass_ratio: float, grid: GridSpec) -> float:
    return float(np.sum(grid.v_weights * np.abs(f - maxwellian(M, mass_ratio, grid.v_nodes))))


# --- direct kinetic integration of the homogeneous system ----------------

def _discrete_maxwellian(n: float, u: float, th: float, v: np.ndarray, wq: np.ndarray) -> np.ndarray:
    """Maxwellian samples corrected so the grid moments match (n, nu, n(th+u^2))
    exactly; the correction solves a 3x3 system in the centered Hermite basis."""
    M = n / np.sqrt(2.0 * np.pi * th) * np.exp(-((v - u) ** 2) / (2.0 * th))
    h1 = (v - u) / np.sqrt(th)
    h2 = h1 * h1 - 1.0
    H = np.stack([np.ones_like(v), h1, h2])
    A = (H * wq * M) @ H.T
    r = np.array([n, 0.0, 0.0]) - (H * wq) @ M
    c = np.linalg.solve(A, r)
    return M * (1.0 + c[0] + c[1] * h1 + c[2] * h2)


def _exchange_increment(m1: SpeciesMoments, m2: SpeciesMoments, p: MixtureParams):
    """d/dt of (n1 u1, E1, n2 u2, E2) from interspecies relaxation (theta form)."""
    mr2 = p.mass_ratio2
    ex = exchange_quantities(m1, m2, p)
    b1 = p.nu12 * m2.n / p.epst1
    b2 = p.nu12 * m1.n / p.epst2
    th1, th2 = m1.T, m2.T / mr2
    th12, th21 = ex.T12, ex.T21 / mr2
    return (
        b1 * m1.n * (ex.u12 - m1.u),
        b1 * m1.n * (th12 + ex.u12**2 - th1 - m1.u**2),
        b2 * m2.n * (ex.u21 - m2.u),
        b2 * m2.n * (th21 + ex.u21**2 - th2 - m2.u**2),
    )


def _heun_moments(m1: SpeciesMoments, m2: SpeciesMoments, p: MixtureParams, dt: float):
    """Conservative Heun update of (u, E) for both species, sub-stepped when
    stiff.  Every stage satisfies the exchange identities at a single state,
    so total momentum/energy move only by round-off."""
    mr2 = p.mass_ratio2
    rate = p.nu12 * max(m2.n / p.epst1, m1.n / p.epst2)
    nsub = 1 if dt * rate <= 0.5 else int(np.ceil(2.0 * dt * rate))
    h = dt / nsub
    P1, E1 = m1.n * m1.u, m1.n * (m1.T + m1.u**2)
    P2, E2 = m2.n * m2.u, m2.n * (m2.T / mr2 + m2.u**2)
    for _ in range(nsub):
        k1 = _exchange_increment(m1, m2, p)
        P1a, E1a, P2a, E2a = P1 + h * k1[0], E1 + h * k1[1], P2 + h * k1[2], E2 + h * k1[3]
        m1a = SpeciesMoments(n=m1.n, u=P1a / m1.n, T=E1a / m1.n - (P1a / m1.n) ** 2)
        m2a = SpeciesMoments(n=m2.n, u=P2a / m2.n, T=(E2a / m2.n - (P2a / m2.n) ** 2) * mr2)
        k2 = _exchange_increment(m1a, m2a, p)
        P1 += 0.5 * h * (k1[0] + k2[0])
        E1 += 0.5 * h * (k1[1] + k2[1])
        P2 += 0.5 * h * (k1[2] + k2[2])
        E2 += 0.5 * h * (k1[3] + k2[3])
        m1 = SpeciesMoments(n=m1.n, u=P1 / m1.n, T=E1 / m1.n - (P1 / m1.n) ** 2)
        m2 = SpeciesMoments(n=m2.n, u=P2 / m2.n, T=(E2 / m2.n - (P2 / m2.n) ** 2) * mr2)
    return m1, m2


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
    """Integrate the homogeneous two-species BGK system on the velocity grid.

    Each step: conservative Heun update of the moments, exponential shape
    relaxation against frozen discrete attractors at the total rate
    lam_k = nu12 (n_k/eps_k + n_j/epst_k), then a discrete-Maxwellian
    correction pinning the grid moments to the updated values.
    """
    v, wq = grid.v_nodes, grid.v_weights
    mr2 = p.mass_ratio2
    f1 = np.array(f1, dtype=float)
    f2 = np.array(f2, dtype=float)
    nsteps = int(round(t_end / dt))

    rows = []
    per_step = []

    def record(t):
        m1 = grid_moments(f1, grid, 1.0)
        m2 = grid_moments(f2, grid, mr2)
        rows.append(
            (
                t,
                m1.n, m1.u, m1.T, m2.n, m2.u, m2.T,
                l1_gap(f1, m1, 1.0, grid),
                l1_gap(f2, m2, mr2, grid),
                relative_entropy(f1, m1, 1.0, grid),
                relative_entropy(f2, m2, mr2, grid),
            )
        )

    record(0.0)
    for k in range(nsteps):
        m1 = grid_moments(f1, grid, 1.0)
        m2 = grid_moments(f2, grid, mr2)
        ex = exchange_quantities(m1, m2, p)

        m1_new, m2_new = _heun_moments(m1, m2, p, dt)

        a1 = p.nu12 * m1.n / p.eps1
        b1 = p.nu12 * m2.n / p.epst1
        a2 = p.nu12 * m2.n / p.eps2
        b2 = p.nu12 * m1.n / p.epst2
        lam1, lam2 = a1 + b1, a2 + b2

        Md1 = _discrete_maxwellian(m1.n, m1.u, m1.T, v, wq)
        Md12 = _discrete_maxwellian(m1.n, ex.u12, ex.T12, v, wq)
        Md2 = _discrete_maxwellian(m2.n, m2.u, m2.T / mr2, v, wq)
        Md21 = _discrete_maxwellian(m2.n, ex.u21, ex.T21 / mr2, v, wq)

        Mbar1 = (a1 * Md1 + b1 * Md12) / lam1
        Mbar2 = (a2 * Md2 + b2 * Md21) / lam2
        f1 = Mbar1 + (f1 - Mbar1) * np.exp(-lam1 * dt)
        f2 = Mbar2 + (f2 - Mbar2) * np.exp(-lam2 * dt)

        # pin grid moments to the conservative moment update
        mg1 = grid_moments(f1, grid, 1.0)
        mg2 = grid_moments(f2, grid, mr2)
        f1 = f1 + _discrete_maxwellian(m1_new.n, m1_new.u, m1_new.T, v, wq) - _discrete_maxwellian(
            mg1.n, mg1.u, mg1.T, v, wq
        )
        f2 = f2 + _discrete_maxwellian(m2_new.n, m2_new.u, m2_new.T / mr2, v, wq) - _discrete_maxwellian(
            mg2.n, mg2.u, mg2.T / mr2, v, wq
        )

        t = (k + 1) * dt
        mh1 = grid_moments(f1, grid, 1.0)
        mh2 = grid_moments(f2, grid, mr2)
        per_step.append(
            (t, relative_entropy(f1, mh1, 1.0, grid) + relative_entropy(f2, mh2, mr2, grid))
        )
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
        f1=f1, f2=f2,
    )
