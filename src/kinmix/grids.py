"""Phase-space grids: periodic spatial cells and a velocity grid for
quadrature, the discrete-velocity reference solver and particle histograms."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Spatial cells on [0, Lx) and velocity nodes on [-Lv/2, Lv/2].

    Velocity nodes include both endpoints and carry trapezoid weights;
    histogram binning uses Nv equal bins over the same interval.
    """

    Lx: float = 4.0 * np.pi
    Nx: int = 128
    Lv: float = 20.0
    Nv: int = 512

    def __post_init__(self):
        if self.Lx <= 0 or self.Lv <= 0:
            raise ValueError("domain lengths must be positive")
        if self.Nx < 1 or self.Nv < 2:
            raise ValueError("need Nx >= 1 and Nv >= 2")

    @property
    def dx(self) -> float:
        return self.Lx / self.Nx

    @property
    def x_centers(self) -> np.ndarray:
        return (np.arange(self.Nx) + 0.5) * self.dx

    @property
    def v_nodes(self) -> np.ndarray:
        return np.linspace(-0.5 * self.Lv, 0.5 * self.Lv, self.Nv)

    @property
    def v_weights(self) -> np.ndarray:
        # trapezoid: half weight at the two endpoints
        dv = self.Lv / (self.Nv - 1)
        w = np.full(self.Nv, dv)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    @property
    def v_bin_edges(self) -> np.ndarray:
        return np.linspace(-0.5 * self.Lv, 0.5 * self.Lv, self.Nv + 1)

    @property
    def v_bin_centers(self) -> np.ndarray:
        e = self.v_bin_edges
        return 0.5 * (e[:-1] + e[1:])

    @property
    def dv_bin(self) -> float:
        return self.Lv / self.Nv

    def cell_index(self, x) -> np.ndarray:
        """Nearest-grid-point cell of each position (periodic)."""
        q = np.floor(np.asarray(x) / self.dx)
        # wrapped positions already land in range; only others need the modulo
        if not (q.size == 0 or (q.min() >= 0 and q.max() < self.Nx)):
            q = np.mod(q, self.Nx)
        return q.astype(np.intp)

    def wrap(self, x, out=None) -> np.ndarray:
        """np.mod(x, Lx) (except that -0.0 stays -0.0), into `out` when given,
        which may be x itself."""
        x = np.asarray(x, dtype=float)
        if x.size and -self.Lx <= x.min() and x.max() < 2.0 * self.Lx:
            # at most one period out: a single exact shift by Lx gives the same
            # values as np.mod, without its floating-point division
            if out is None:
                out = x.copy()
            elif out is not x:
                np.copyto(out, x)
            np.subtract(out, self.Lx, out=out, where=out >= self.Lx)
            np.add(out, self.Lx, out=out, where=out < 0.0)
            return out
        return np.mod(x, self.Lx, out=out)
