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
from .ensemble import ThermalState, _check_offset, _ladder, _Ladder, _row_state

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


def _corner_block(n: int, t_hot: float, t_cold: float, lambda2: float, lambda1s, backend: str) -> _Ladder:
    """All corners of the cycles sharing n, the baths and lambda2.

    Row [0] is the hot bath and [1] the cold one.  Column 0 holds
    lambda2 (corners A and D), formed once however many lambda1
    follow, and columns 1.. hold corners B and C.  The asymptotic
    backend evaluates each corner with one scalar integral_state call
    and a zero floor.
    """
    if backend == "exact":
        lams = np.concatenate(([lambda2], lambda1s))
        return _ladder(n, (1.0 / t_hot, 1.0 / t_cold), lams)
    models = [ModelSpec(n, lam) for lam in (lambda2, *map(float, lambda1s))]
    states = [[integral_state(model, t) for model in models] for t in (t_hot, t_cold)]
    log_z, energy, entropy = ([[state[k] for state in row] for row in states] for k in range(3))
    return _Ladder([[0.0] * len(models)] * 2, energy, entropy, log_z)


# Cycle energetics, as floats for one cycle or arrays over lambda1.
_Strokes = namedtuple("_Strokes", "q_ab q_bc q_cd q_da work q_h efficiency is_engine")


def _strokes(t_hot: float, t_cold: float, entropies, excesses) -> _Strokes:
    """Heats, work, heat intake and efficiency from corners A, B, C, D."""
    s_a, s_b, s_c, s_d = entropies
    x_a, x_b, x_c, x_d = excesses
    q_ab = t_hot * (s_b - s_a)
    q_cd = t_cold * (s_d - s_c)
    # Corners sharing a field share their floor float, so the fixed-field
    # heats are differences of excess energies alone.
    q_bc = x_c - x_b
    q_da = x_a - x_d
    work = q_ab + q_bc + q_cd + q_da
    q_h = q_ab + q_da
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
    block = _corner_block(spec.n, spec.t_hot, spec.t_cold, spec.lambda2, (spec.lambda1,), spec.backend)
    model_2, model_1 = ModelSpec(spec.n, spec.lambda2), ModelSpec(spec.n, spec.lambda1)
    corners = (
        _row_state(model_2, spec.t_hot, block, 0, 0, energy_offset),
        _row_state(model_1, spec.t_hot, block, 0, 1, energy_offset),
        _row_state(model_1, spec.t_cold, block, 1, 1, energy_offset),
        _row_state(model_2, spec.t_cold, block, 1, 0, energy_offset),
    )
    strokes = _strokes(
        spec.t_hot, spec.t_cold, [c.entropy for c in corners], [c.excess_energy for c in corners]
    )
    return CycleResult(
        spec, corners, *strokes[:7], eta_carnot=carnot_bound(spec.t_hot, spec.t_cold),
        is_engine=strokes.is_engine,
    )
