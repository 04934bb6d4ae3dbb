"""Independent quadrature oracles and reference implementations used across the tests.

Deliberately kept free of package internals beyond the data types: every
expected value here comes from trapezoid quadrature on a wide fine grid, from
a closed formula written out in full, or from a plain per-element loop, so the
package is checked against something it does not share code with.  The two
exceptions reuse the package's exchange law: `relaxation_source` only arranges
its exchange increment as moment-level source rows for the tests of that
increment, and `rusanov_fv_step` applies `exchange_map` after a transport
update it writes out cell by cell.
"""
from dataclasses import dataclass

import numpy as np

from kinmix.macrofv import exchange_increment, exchange_map, moments_from_conserved


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


def maxwellian_v3_moment(M, mass_ratio: float):
    """Third raw moment <v^3 M> = n u (u^2 + 3 T/mr) of a species Maxwellian."""
    th = M.T / mass_ratio
    return M.n * M.u * (M.u * M.u + 3.0 * th)


def beta1(p):
    """epst1/eps1: the intra frequency of species 1 relative to nu12."""
    return p.epst1 / p.eps1


def beta2(p):
    """epst2/eps2: the intra frequency of species 2 relative to nu12."""
    return p.epst2 / p.eps2


def min_value(state):
    """Smallest sample of f1 and f2 of a discrete-velocity state."""
    return float(min(state.f1.min(), state.f2.min()))


def snapshot_csv_text(x, v, f):
    """Reference for one species' snapshot CSV: the per-element loop over the
    (x, v) grid, every value through float() and 17 significant digits."""
    lines = ["x,v,f"]
    for i, xi in enumerate(x):
        for j, vj in enumerate(v):
            lines.append(f"{float(xi):.17g},{float(vj):.17g},{float(f[i, j]):.17g}")
    return "\n".join(lines) + "\n"


def hermite_gram_pairwise(M, h1, cell, ncells, weight=None):
    """Per-cell Gram sum_s weight_s M_s b_i(h1_s) b_j(h1_s) of the basis
    b = (1, h1, h1^2 - 1), accumulated sample by sample and pair by pair:
    sample s lies in cell[s] and has quadrature weight weight[s] (1 when
    omitted)."""
    G = np.zeros((ncells, 3, 3))
    for s in range(len(M)):
        b = (1.0, float(h1[s]), float(h1[s]) ** 2 - 1.0)
        ws = 1.0 if weight is None else float(weight[s])
        for i in range(3):
            for j in range(3):
                G[cell[s], i, j] += ws * float(M[s]) * b[i] * b[j]
    return G


def match_two_pass(cell, v, w, n, u, theta, passes=2):
    """Reference matching: per cell, solve the Gram system of the scaled
    Hermite basis (1, h1, h1^2 - 1) under the cell Maxwellian sampled at the
    particles and subtract the correction, a fixed number of times (two:
    the second solve removes the first one's round-off).

    cell[s] is particle s's cell and (n, u, theta) the per-cell Maxwellian
    fields.  Cells with fewer than three particles, or whose Gram
    determinant is below 1e-10 times the cube of its largest entry, are
    left untouched and counted.  Returns (new weights, skipped cells)."""
    w = np.array(w, dtype=float)
    skipped = 0
    for c in range(len(n)):
        sel = np.flatnonzero(cell == c)
        if sel.size == 0:
            continue
        h1 = (v[sel] - u[c]) / np.sqrt(theta[c])
        M = n[c] / np.sqrt(2 * np.pi * theta[c]) * np.exp(-0.5 * h1 * h1)
        basis = np.stack([np.ones_like(h1), h1, h1 * h1 - 1.0])
        G = (basis * M) @ basis.T
        if sel.size < 3 or abs(np.linalg.det(G)) <= 1e-10 * np.abs(G).max() ** 3:
            skipped += 1
            continue
        for _ in range(passes):
            a = np.linalg.solve(G, basis @ w[sel])
            w[sel] -= (a @ basis) * M
    return w, skipped


@dataclass
class ProjectionCoeffs:
    """Raw moments (a0, a1, a2) = (<phi>, <(v-u) phi>, <|v-u|^2 phi>) of a
    projected function phi, with the Maxwellian (n, u, theta) it is
    projected against; every field broadcasts."""

    a0: np.ndarray | float
    a1: np.ndarray | float
    a2: np.ndarray | float
    n: np.ndarray | float
    u: np.ndarray | float
    theta: np.ndarray | float


def project_from_moments(Mk, mass_ratio, phi_moments):
    """Projection of any phi onto span{M, vM, |v|^2 M} of the species
    Maxwellian Mk (a SpeciesMoments), given phi's three moments."""
    if not np.all(np.asarray(Mk.n, dtype=float) > 0):
        raise ValueError("projection undefined for n <= 0")
    a0, a1, a2 = phi_moments
    return ProjectionCoeffs(a0=a0, a1=a1, a2=a2, n=Mk.n, u=Mk.u, theta=Mk.T / mass_ratio)


def project_cross_maxwellian(Mk, exch, species, mass_ratio):
    """Closed-form projection of the interaction Maxwellian M_kj (density
    n_k, the exchange velocity and temperature of `exch`) onto the span of
    species k's Maxwellian Mk."""
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
        theta=Mk.T / mass_ratio,
    )


def projection_at(coeffs, v):
    """Pi(phi)(v) = M(v)/n [a0 + (v-u) a1/theta + ((v-u)^2/(2 theta) - 1/2)
    (a2/theta - a0)]; broadcasts over v and over array-valued coefficients."""
    w = v - coeffs.u
    th = coeffs.theta
    Mk = gaussian(coeffs.n, coeffs.u, th, v)
    bracket = coeffs.a0 + w * coeffs.a1 / th + (w * w / (2.0 * th) - 0.5) * (coeffs.a2 / th - coeffs.a0)
    return bracket * Mk / coeffs.n


def complement_at(phi_at_v, coeffs, v):
    """(1 - Pi)(phi)(v) = phi(v) - Pi(phi)(v)."""
    return phi_at_v - projection_at(coeffs, v)


def relaxation_source(U1, U2, p):
    """Moment-level interspecies sources (S1, S2) of conserved vectors U1, U2:
    zero mass rows, then `exchange_increment`'s momentum and energy rows."""
    k = exchange_increment(moments_from_conserved(U1, 1.0), moments_from_conserved(U2, p.mass_ratio2), p)
    z = np.zeros_like(k[0])
    return np.stack([z, k[0], k[1]], axis=-1), np.stack([z, k[2], k[3]], axis=-1)


def rusanov_fv_step(U1, U2, dx, p, dt):
    """The textbook macro step on periodic cells, interface by interface:
    each species' Maxwellian flux F_i = (n u, n(th + u^2), n u (u^2 + 3 th))
    and wave speed s_i = |u| + sqrt(3 th), th = T/mr, per cell; the Rusanov
    flux F_{i+1/2} = (F_i + F_{i+1})/2 - max(s_i, s_{i+1}) (U_{i+1} - U_i)/2
    at each interface; U_i - dt/dx (F_{i+1/2} - F_{i-1/2}) per cell; then the
    package's `exchange_map` over dt."""
    out = []
    for U, mr in ((U1, 1.0), (U2, p.mass_ratio2)):
        Nx = len(U)
        F, s = np.empty((Nx, 3)), np.empty(Nx)
        for i in range(Nx):
            n = float(U[i, 0])
            u = float(U[i, 1]) / n
            th = float(U[i, 2]) / n - u * u
            F[i] = (n * u, n * (th + u * u), n * u * (u * u + 3.0 * th))
            s[i] = abs(u) + np.sqrt(3.0 * th)
        Fh = np.empty((Nx, 3))  # Fh[i] is F_{i+1/2}
        for i in range(Nx):
            r = (i + 1) % Nx
            Fh[i] = 0.5 * (F[i] + F[r]) - 0.5 * max(s[i], s[r]) * (U[r] - U[i])
        new = np.empty((Nx, 3))
        for i in range(Nx):
            new[i] = U[i] - dt / dx * (Fh[i] - Fh[i - 1])
        out.append(new)
    return exchange_map(out[0], out[1], p, dt)
