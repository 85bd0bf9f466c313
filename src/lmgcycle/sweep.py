"""Cycle sweeps over the small field, peak census, and derivatives."""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .cycle import CycleSpec, _corner_block, _strokes, carnot_bound

__all__ = [
    "PROMINENCE_FLOOR",
    "SweepRecord",
    "SweepSpec",
    "detect_peaks",
    "derivative_records",
    "efficiency_derivative",
    "sweep_lambda1",
]

# Efficiency bumps shallower than this are treated as grid noise.
PROMINENCE_FLOOR = 1e-4

# Default half-width of the finite-difference stencil in lambda1.
DERIVATIVE_STEP = 1e-3


@dataclass(frozen=True)
class SweepSpec:
    """A family of cycles sharing baths and lambda2, swept over lambda1.

    The grid must be non-empty, strictly ascending, and contained in
    [0, lambda2].
    """

    n: int
    t_hot: float
    t_cold: float
    lambda2: float
    lambda1_grid: tuple[float, ...]
    backend: str = "exact"

    def __post_init__(self) -> None:
        grid = tuple(map(float, self.lambda1_grid))
        object.__setattr__(self, "lambda1_grid", grid)
        if not grid:
            raise ValueError("lambda1_grid must not be empty")
        if any(map(operator.le, grid[1:], grid)):
            raise ValueError("lambda1_grid must be strictly ascending")
        # Delegates the remaining checks, including grid containment and
        # the backend.
        CycleSpec(self.n, self.t_hot, self.t_cold, grid[0], self.lambda2, self.backend)
        CycleSpec(self.n, self.t_hot, self.t_cold, grid[-1], self.lambda2, self.backend)


@dataclass(frozen=True)
class SweepRecord:
    """One sweep row: the cycle energetics at a single lambda1."""

    lambda1: float
    efficiency: float
    eta_carnot: float
    work: float
    q_h: float
    q_ab: float
    q_bc: float
    q_cd: float
    q_da: float
    s_a: float
    s_b: float
    s_c: float
    s_d: float
    is_engine: bool


def _grid_strokes(spec, lambda1s: np.ndarray, grid: tuple[float, ...]):
    """Corner entropies and cycle energetics at each lambda1, from one corner block.

    A lambda1 outside [0, lambda2] raises CycleSpec's error, prefixed
    with the grid point it belongs to (position modulo len(grid)).
    """
    outside = np.flatnonzero(~((lambda1s >= 0.0) & (lambda1s <= spec.lambda2)))
    if outside.size:
        value, index = float(lambda1s[outside[0]]), int(outside[0]) % len(grid)
        try:
            CycleSpec(spec.n, spec.t_hot, spec.t_cold, value, spec.lambda2, spec.backend)
        except ValueError as err:
            raise ValueError(f"grid index {index} (lambda1={grid[index]!r}): {err}") from err
    lams = np.concatenate(([spec.lambda2], lambda1s))
    block = _corner_block(spec.n, spec.t_hot, spec.t_cold, lams, spec.backend)
    entropies, excesses = (
        (hot[0], hot[1:], cold[1:], cold[0])
        for hot, cold in (np.asarray(block.entropy), np.asarray(block.excess))
    )
    levels = (spec.n, spec.lambda2, lambda1s) if spec.backend == "exact" else None
    return entropies, _strokes(spec.t_hot, spec.t_cold, entropies, excesses, levels)


# One sweep as columns, in SweepRecord field order.  Each field is a list
# over the grid, except eta_carnot, q_da, s_a and s_d: they depend only
# on corners A and D, which every row of a sweep shares, so each is a
# single float.  q_da is a list where some row re-formed it from the
# states' log-ratio (see cycle._refine).
_SweepColumns = namedtuple(
    "_SweepColumns",
    "lambda1 efficiency eta_carnot work q_h q_ab q_bc q_cd q_da s_a s_b s_c s_d is_engine",
)


def _sweep_columns(spec: SweepSpec) -> _SweepColumns:
    """The rows of sweep_lambda1, as columns."""
    grid = np.array(spec.lambda1_grid, dtype=np.float64)
    (s_a, s_b, s_c, s_d), st = _grid_strokes(spec, grid, spec.lambda1_grid)
    return _SweepColumns(
        list(spec.lambda1_grid), st.efficiency.tolist(), carnot_bound(spec.t_hot, spec.t_cold),
        st.work.tolist(), st.q_h.tolist(), st.q_ab.tolist(), st.q_bc.tolist(),
        st.q_cd.tolist(), st.q_da.tolist() if np.ndim(st.q_da) else float(st.q_da),
        float(s_a), s_b.tolist(), s_c.tolist(), float(s_d), st.is_engine.tolist(),
    )


def sweep_lambda1(spec: SweepSpec) -> list[SweepRecord]:
    """One cycle per grid point, in grid order.

    Corners A and D are evaluated once for the whole sweep and B and C
    as one block.  A grid value outside [0, lambda2] is reported with
    its grid index and field value, so a bad grid names its own culprit.
    """
    columns = _sweep_columns(spec)
    rows = len(columns.lambda1)
    fields = (c if isinstance(c, list) else repeat(c, rows) for c in columns)
    return [SweepRecord(*row) for row in zip(*fields)]


def efficiency_derivative(spec: CycleSpec, lambda1: float, h: float = DERIVATIVE_STEP) -> float:
    """Central-difference d(efficiency)/d(lambda1) at the given point.

    Raises
    ------
    ValueError
        If h is not positive or the stencil [lambda1 - h, lambda1 + h]
        leaves [0, lambda2].
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be finite and > 0, got {h!r}")
    if lambda1 - h < 0.0 or lambda1 + h > spec.lambda2:
        raise ValueError(
            f"stencil [{lambda1 - h}, {lambda1 + h}] leaves [0, {spec.lambda2}]"
        )
    sweep = SweepSpec(spec.n, spec.t_hot, spec.t_cold, spec.lambda2, (lambda1,), spec.backend)
    return derivative_records(sweep, h)[0][1]


def derivative_records(spec: SweepSpec, h: float = DERIVATIVE_STEP) -> list[tuple[float, float]]:
    """(lambda1, d(efficiency)/d(lambda1)) on the sweep grid.

    Interior points use the central stencil; a point whose stencil
    would leave [0, lambda2] falls back to the matching one-sided
    difference, so grids that touch the domain edges stay legal.  All
    stencil points are evaluated as one block.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be finite and > 0, got {h!r}")
    grid = np.array(spec.lambda1_grid, dtype=np.float64)
    central = (grid - h >= 0.0) & (grid + h <= spec.lambda2)
    forward = ~central & (grid - h < 0.0)
    upper = np.where(central | forward, grid + h, grid)
    lower = np.where(forward, grid, grid - h)
    stencil = np.concatenate((upper, lower))
    eta = _grid_strokes(spec, stencil, spec.lambda1_grid)[1].efficiency
    slopes = (eta[: grid.size] - eta[grid.size :]) / np.where(central, 2.0 * h, h)
    return list(zip(spec.lambda1_grid, slopes.tolist()))


def detect_peaks(
    records: list[SweepRecord], prominence: float = PROMINENCE_FLOOR
) -> list[tuple[float, float]]:
    """Prominent strict local maxima of efficiency along the sweep.

    A candidate must beat both neighbours strictly.  Its prominence is
    measured against the higher of the two flanking local minima,
    found by walking downhill (ties included) on each side, and must
    reach the requested floor.

    Raises
    ------
    ValueError
        If fewer than three records are given or their lambda1 values
        are not strictly ascending.
    """
    if len(records) < 3:
        raise ValueError(f"need at least 3 records, got {len(records)}")
    grid = [r.lambda1 for r in records]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("records must be strictly ascending in lambda1")

    eff = [r.efficiency for r in records]
    peaks = []
    for i in range(1, len(eff) - 1):
        if not (eff[i] > eff[i - 1] and eff[i] > eff[i + 1]):
            continue
        j = i
        while j > 0 and eff[j - 1] <= eff[j]:
            j -= 1
        left_min = eff[j]
        j = i
        while j < len(eff) - 1 and eff[j + 1] <= eff[j]:
            j += 1
        right_min = eff[j]
        if eff[i] - max(left_min, right_min) >= prominence:
            peaks.append((grid[i], eff[i]))
    return peaks
