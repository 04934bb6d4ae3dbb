"""Phase-space grids: periodic spatial cells and a velocity grid for
quadrature, the discrete-velocity reference solver and particle histograms,
the work buffers that a time step keeps across steps, and the one run clock
of every trajectory (`step_count`, `run_clock`).

A `GridSpec` computes each of its node arrays once, on first use, and hands
out that one read-only array afterwards: a caller that needs to change one
works on a copy.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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
        if not (self.Lx > 0 and self.Lv > 0):
            raise ValueError("domain lengths must be positive")
        if self.Nx < 1 or self.Nv < 2:
            raise ValueError("need Nx >= 1 and Nv >= 2")

    @property
    def dx(self) -> float:
        return self.Lx / self.Nx

    # cached_property stores into the instance __dict__ directly, which the
    # frozen dataclass allows
    @cached_property
    def x_centers(self) -> np.ndarray:
        return _read_only((np.arange(self.Nx) + 0.5) * self.dx)

    @cached_property
    def v_nodes(self) -> np.ndarray:
        return _read_only(np.linspace(-0.5 * self.Lv, 0.5 * self.Lv, self.Nv))

    @cached_property
    def v_weights(self) -> np.ndarray:
        # trapezoid: half weight at the two endpoints
        dv = self.Lv / (self.Nv - 1)
        w = np.full(self.Nv, dv)
        w[0] *= 0.5
        w[-1] *= 0.5
        return _read_only(w)

    @cached_property
    def v_bin_edges(self) -> np.ndarray:
        return _read_only(np.linspace(-0.5 * self.Lv, 0.5 * self.Lv, self.Nv + 1))

    @cached_property
    def v_bin_centers(self) -> np.ndarray:
        e = self.v_bin_edges
        return _read_only(0.5 * (e[:-1] + e[1:]))

    @property
    def dv_bin(self) -> float:
        return self.Lv / self.Nv

    def upwind_dt_max(self) -> float:
        """Largest dt of upwind transport on the velocity nodes, dx / max|v|;
        unbounded on one periodic cell, where nothing is transported."""
        return math.inf if self.Nx == 1 else self.dx / float(np.max(np.abs(self.v_nodes)))

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


class StepWorkspace:
    """Work buffers of a time step, kept across steps.

    The state of a run carries one (`driver.SimState.work`,
    `reference.GridDistribution.work`) and hands it on to the next state, so
    a buffer lives as long as the run.  Buffers are named by their role
    (`particles` and `reference` list theirs), have undefined content until
    written, and are written with `out=`.
    """

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}

    def buffer(self, name: str, shape: int | tuple[int, ...]) -> np.ndarray:
        """Buffer `name` as floats of the given shape (a length, or a tuple)
        and undefined content, reallocated only when it is too short."""
        n = math.prod(shape) if isinstance(shape, tuple) else shape
        buf = self.buffers.get(name)
        if buf is None or buf.size < n:
            buf = self.buffers[name] = np.empty(n)
        return buf[:n].reshape(shape)


def step_workspace(work: StepWorkspace | None) -> StepWorkspace:
    """`work`, or a fresh workspace (whose buffers are then new arrays)."""
    return StepWorkspace() if work is None else work


def step_count(dt: float, t_end: float) -> int:
    """The number of dt steps in t_end, which must be whole to a relative
    1e-9 and at least 1, or 0 when t_end is 0; ValueError naming t_end
    otherwise."""
    steps = t_end / dt if dt > 0 else math.nan
    n = round(steps) if math.isfinite(steps) else -1
    if not ((n >= 1 or t_end == 0) and abs(steps - n) <= 1e-9 * steps):
        raise ValueError(f"t_end must be a whole number (>= 1) of dt steps, got t_end={t_end!r}, dt={dt!r}")
    return n


def run_clock(state, advance: Callable, dt: float, t_end: float, output_every: int) -> Iterator[tuple]:
    """Step `state` to t_end with `advance` (state -> next state), yielding
    (t, state, recorded) for the initial state and after each step.  t is
    k dt after step k, except after the last step, where it is t_end itself;
    `recorded` marks the initial state, every output_every-th step and the
    last.  A step that raises ends the run with RuntimeError naming it."""
    nsteps = step_count(dt, t_end)
    if not output_every >= 1:
        raise ValueError(f"output_every must be an integer >= 1, got {output_every!r}")
    yield 0.0, state, True
    for k in range(1, nsteps + 1):
        try:
            state = advance(state)
        except Exception as e:
            raise RuntimeError(f"run aborted at step {k}/{nsteps} (t={(k - 1) * dt:.6g}): {e}") from e
        yield (t_end if k == nsteps else k * dt), state, k % output_every == 0 or k == nsteps
