"""Four-stroke heat-engine cycle between two baths and two field values.

The cycle visits four equilibrium corners: A = (lambda2, t_hot),
B = (lambda1, t_hot), C = (lambda1, t_cold), D = (lambda2, t_cold).
Strokes A->B and C->D are isothermal field ramps exchanging heat
T dS with their bath; B->C and D->A change the bath at fixed field and
exchange the internal-energy difference.  Net output work is the sum of
the four heats.

Heat for the fixed-field strokes is formed from the decomposition
U = floor + excess carried by each corner state: the floors of two
corners sharing a field strength are the same float, so their
difference drops out exactly and the stroke heat is the difference of
two small non-negative excess energies.  Without this, cycles deep in
the frozen regime drown in cancellation noise.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .asymptotics import integral_state
from .core import ModelSpec
from .ensemble import ThermalState, _check_offset, _ladder, _Ladder, _row_state, _close_differences

__all__ = ["BACKENDS", "CycleResult", "CycleSpec", "carnot_bound", "run_cycle"]

BACKENDS = ("exact", "asymptotic")


@dataclass(frozen=True)
class CycleSpec:
    """Cycle parameters: bath temperatures, field pair, and backend.

    Requires t_hot > t_cold > 0 and 0 <= lambda1 <= lambda2, all
    finite.  The asymptotic backend evaluates the corners from the
    saddle-point log Z instead of the level sum.
    """

    n: int
    t_hot: float
    t_cold: float
    lambda1: float
    lambda2: float
    backend: str = "exact"

    def __post_init__(self) -> None:
        ModelSpec(self.n, self.lambda2)
        if not (math.isfinite(self.t_cold) and math.isfinite(self.t_hot)):
            raise ValueError("bath temperatures must be finite")
        if not 0.0 < self.t_cold < self.t_hot:
            raise ValueError(
                f"need t_hot > t_cold > 0, got t_hot={self.t_hot!r}, t_cold={self.t_cold!r}"
            )
        if not (math.isfinite(self.lambda1) and 0.0 <= self.lambda1 <= self.lambda2):
            raise ValueError(
                f"need 0 <= lambda1 <= lambda2, got lambda1={self.lambda1!r}, "
                f"lambda2={self.lambda2!r}"
            )
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")


@dataclass(frozen=True)
class CycleResult:
    """Corners, stroke heats, and figures of merit of one cycle.

    Heats are positive when absorbed by the working medium.  The
    efficiency is work / q_h whenever q_h > 0 and zero otherwise, so it
    can be negative for a cycle that absorbs hot heat but consumes
    work.  is_engine requires both work > 0 and q_h > 0.
    """

    spec: CycleSpec
    corners: tuple[ThermalState, ThermalState, ThermalState, ThermalState]
    q_ab: float
    q_bc: float
    q_cd: float
    q_da: float
    work: float
    q_h: float
    efficiency: float
    eta_carnot: float
    is_engine: bool


def carnot_bound(t_hot: float, t_cold: float) -> float:
    """Carnot efficiency 1 - t_cold/t_hot for a valid bath pair."""
    if not (math.isfinite(t_cold) and math.isfinite(t_hot) and 0.0 < t_cold < t_hot):
        raise ValueError(f"need t_hot > t_cold > 0, got t_hot={t_hot!r}, t_cold={t_cold!r}")
    return 1.0 - t_cold / t_hot


def _corner_block(n: int, t_hot: float, t_cold: float, lams, backend: str) -> _Ladder:
    """All corners of the cycles sharing n, the baths and lambda2.

    Row [0] is the hot bath and [1] the cold one.  lams[0] is lambda2
    (corners A and D), formed once however many lambda1 follow, and
    lams[1:] hold corners B and C.  The asymptotic backend evaluates
    each corner with one scalar integral_state call and a zero floor.
    """
    if backend == "exact":
        return _ladder(n, (1.0 / t_hot, 1.0 / t_cold), lams)
    models = [ModelSpec(n, lam) for lam in map(float, lams)]
    states = [[integral_state(model, t) for model in models] for t in (t_hot, t_cold)]
    log_z, energy, entropy = ([[state[k] for state in row] for row in states] for k in range(3))
    return _Ladder([0.0] * len(models), energy, entropy, log_z)


# Cycle energetics, as floats for one cycle or arrays over lambda1.
_Strokes = namedtuple("_Strokes", "q_ab q_bc q_cd q_da work q_h efficiency is_engine")

# A heat whose two entropies (isotherms) or excess energies (fixed field)
# differ by less than this fraction of the larger, and whose rounding
# reaches this fraction of q_h, is re-formed by _refine.
_CLOSE = 2.0**-30


def _refine(heats, q_h, reach, t_hot: float, t_cold: float, levels, entropies, excesses):
    """The heats (q_ab, q_cd, q_bc, q_da), with those of close states re-formed.

    levels is (n, lambda2, lambda1) of exact corners, whose entropies and
    excess energies are >= 0.  A heat is a difference of two such values
    (times T on an isotherm) and rounds off up to 2^-50 of the larger.
    For nearly uniform or nearly degenerate states that is all of it:
    they round their deficits below an ulp of S and of the excess.  Where
    the two values are close and the close heats' rounding reaches
    _CLOSE of q_h, the efficiency's scale, they become T (S_q - S_p) or
    U_q - U_p from _close_differences, wherever that is resolved and
    rounds off less.  Elsewhere the heats keep their floats.  reach
    marks the columns whose heats could reach _CLOSE of q_h together
    (see _strokes); no other column is re-formed.  Each column decides
    from its own values alone, so a sweep row equals the lone cycle at
    its lambda1; a sweep's q_da is one float unless some column
    re-forms it.
    """
    n, lambda2, lambda1 = levels
    s_a, s_b, s_c, s_d = entropies
    x_a, x_b, x_c, x_d = excesses
    beta_h, beta_c, lam1 = 1.0 / t_hot, 1.0 / t_cold, np.atleast_1d(lambda1)
    # One row per heat, from state p to state q, and one column per lambda1.
    table = lambda *row: np.stack(np.broadcast_arrays(*row, lam1)[:-1])
    heat, v_p, v_q = table(*heats), table(s_a, s_d, x_b, x_d), table(s_b, s_c, x_c, x_a)
    beta_p, beta_q = table(beta_h, beta_c, beta_h, beta_c), table(beta_h, beta_c, beta_c, beta_h)
    lam_p, lam_q = table(lambda2, lambda2, lam1, lambda2), table(lam1, lam1, lam1, lambda2)
    factor = table(t_hot, -t_cold, 1.0, 1.0)
    top = np.maximum(v_p, v_q)
    # Two zeros are not close, and equal states' heats are 0 already.
    close = (np.abs(v_q - v_p) < _CLOSE * top) & ((beta_p != beta_q) | (lam_p != lam_q))
    refine = close & reach & (np.sum(close * (2.0**-50 * np.abs(factor) * top), axis=0) >= _CLOSE * np.abs(q_h))
    if not refine.any():
        return heats
    rise, rise_scale, gain, gain_scale = _close_differences(
        n, beta_p[refine], lam_p[refine], beta_q[refine], lam_q[refine]
    )
    energy = np.broadcast_to(np.arange(4)[:, None] >= 2, heat.shape)[refine]
    value, bound = np.where(energy, gain, rise), np.where(energy, gain_scale, rise_scale)
    # A difference resolved as 0 keeps the heat's own float (and sign).
    finer = (bound <= top[refine]) & (value != 0.0)
    heat[refine] = np.where(finer, factor[refine] * value, heat[refine])
    if np.ndim(lambda1) == 0:
        return heat[:, 0].tolist()
    return heat[0], heat[1], heat[2], heat[3] if refine[3].any() else heats[3]


def _strokes(t_hot: float, t_cold: float, entropies, excesses, levels=None) -> _Strokes:
    """Heats, work, heat intake and efficiency from corners A, B, C, D.

    levels, (n, lambda2, lambda1) for corners formed from the exact
    ladder, lets strokes between close states take their heat from the
    states' log-ratio (see _refine).
    """
    s_a, s_b, s_c, s_d = entropies
    x_a, x_b, x_c, x_d = excesses
    q_ab = t_hot * (s_b - s_a)
    q_cd = t_cold * (s_d - s_c)
    # Corners sharing a field share their floor float, so the fixed-field
    # heats are differences of excess energies alone.
    q_bc = x_c - x_b
    q_da = x_a - x_d
    q_h = q_ab + q_da
    if levels is not None:
        # Columns whose heats cannot round off _CLOSE of q_h even together
        # keep them, at the cost of a few flops.
        reach = (2.0**-50 * t_hot) * (s_a + s_b) + (2.0**-50 * t_cold) * (s_c + s_d)
        reach = reach + 2.0**-50 * (x_a + x_b + x_c + x_d) >= _CLOSE * abs(q_h)
        if reach.any() if isinstance(reach, np.ndarray) else reach:
            heats = (q_ab, q_cd, q_bc, q_da)
            q_ab, q_cd, q_bc, q_da = _refine(heats, q_h, reach, t_hot, t_cold, levels, entropies, excesses)
            q_h = q_ab + q_da
    work = q_ab + q_bc + q_cd + q_da
    intake = q_h > 0.0
    if isinstance(q_h, np.ndarray):
        efficiency = np.divide(work, q_h, out=np.zeros(q_h.shape), where=intake)
    else:
        efficiency = work / q_h if intake else 0.0
    return _Strokes(q_ab, q_bc, q_cd, q_da, work, q_h, efficiency, intake & (work > 0.0))


def run_cycle(spec: CycleSpec, energy_offset: float = 0.0) -> CycleResult:
    """Evaluate all four corners and the resulting cycle energetics.

    A finite energy_offset is added to every level; it shifts corner
    energies and log Z but leaves every heat, the work, and the
    efficiency unchanged bit for bit.
    """
    _check_offset(energy_offset)
    t_hot, t_cold = spec.t_hot, spec.t_cold
    block = _corner_block(spec.n, t_hot, t_cold, (spec.lambda2, spec.lambda1), spec.backend)
    # Python floats: one tolist per sum of the exact 2 x 2 block.
    low, ((x_a, x_b), (x_d, x_c)), ((s_a, s_b), (s_d, s_c)), (z_h, z_c), total = (
        map(np.ndarray.tolist, block) if spec.backend == "exact" else block
    )
    total_h, total_c = total or ((None, None), (None, None))
    model_2, model_1 = ModelSpec(spec.n, spec.lambda2), ModelSpec(spec.n, spec.lambda1)
    beta_h, beta_c = 1.0 / t_hot, 1.0 / t_cold
    corners = (
        _row_state(model_2, t_hot, beta_h, low[0], x_a, s_a, z_h[0], total_h[0], energy_offset),
        _row_state(model_1, t_hot, beta_h, low[1], x_b, s_b, z_h[1], total_h[1], energy_offset),
        _row_state(model_1, t_cold, beta_c, low[1], x_c, s_c, z_c[1], total_c[1], energy_offset),
        _row_state(model_2, t_cold, beta_c, low[0], x_d, s_d, z_c[0], total_c[0], energy_offset),
    )
    levels = (spec.n, spec.lambda2, spec.lambda1) if spec.backend == "exact" else None
    strokes = _strokes(t_hot, t_cold, (s_a, s_b, s_c, s_d), (x_a, x_b, x_c, x_d), levels)
    return CycleResult(
        spec, corners, *strokes[:7], eta_carnot=carnot_bound(t_hot, t_cold),
        is_engine=strokes.is_engine,
    )
