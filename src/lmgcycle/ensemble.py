"""Canonical-ensemble thermodynamics restricted to the maximal-spin sector.

Populations and entropy are always computed from the bare level
energies; a caller-supplied additive energy offset shifts log Z and the
internal energy but can never leak into occupation numbers.  Internal
energy is carried as a floor (lowest level plus offset) and a separate
non-negative excess above it, so that downstream differences between
states sharing a field strength cancel the floor exactly instead of
losing it to rounding.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core import ModelSpec, _level_energy, allowed_twice_m, energy_levels, ground_set

__all__ = ["POPULATION_FLUSH", "ThermalState", "log_partition_exact", "thermal_state"]

# Occupations below this are flushed to exact zero before use.
POPULATION_FLUSH = 1e-300
_FLUSH_LOG = -math.log(POPULATION_FLUSH)

# Level values one kernel chunk may hold; a block with more rows is
# evaluated in chunks of whole rows, so memory stays bounded.
_BLOCK_ELEMENTS = 1 << 16

# Ladders with fewer levels are always summed whole: a window would
# save less than the numpy call overhead it costs.
_WINDOW_MIN_LEVELS = 256


@dataclass(frozen=True)
class ThermalState:
    """Equilibrium snapshot of one model at one temperature.

    Attributes
    ----------
    spec : ModelSpec
        System the state belongs to.
    temperature : float
        Temperature, >= 0 (math.inf is allowed).
    log_z : float
        Log partition function, including any energy offset.  Reported
        as math.inf for the symbolic zero-temperature state.
    populations : numpy.ndarray or None
        Occupation per level, ordered by ascending 2M.  None for states
        produced by the thermodynamic-limit backend, which never forms
        level-resolved occupations.
    internal_energy : float
        Ensemble average energy, equal to energy_floor plus excess.
    entropy : float
        Gibbs entropy, dimensionless.
    energy_floor : float
        Lowest level energy plus the applied offset.
    excess_energy : float
        Non-negative average energy above the floor.
    """

    spec: ModelSpec
    temperature: float
    log_z: float
    populations: np.ndarray | None
    internal_energy: float
    entropy: float
    energy_floor: float
    excess_energy: float


# Corner results for every (beta, field) pair, indexed [beta][field]:
# arrays for a block of rows, nested lists for a lone row and for
# scalar corner evaluations.  log_z excludes any energy offset;
# populations (whole ladders) are only kept on request.
_Ladder = namedtuple("_Ladder", "floor excess entropy log_z populations", defaults=(None,))


def _window_width(n: int, beta: float) -> int:
    """Levels in each row's window at inverse temperature beta.

    With t0 the ground 2M label (any label with |t0 - n lam| <= 1, or
    the clipped edge n when n lam > n), completing the square gives
    2n (E_t - E_min) >= (|t - t0| - 1)^2 - 1.  The ground weight is 1,
    so the partition sum is >= 1 and every level with
    |t - t0| > 1 + sqrt(2 n ln(1/POPULATION_FLUSH) / beta + 1) has a
    population below POPULATION_FLUSH, which the full-ladder sum
    flushes to zero anyway.  Dropping those levels therefore changes
    nothing but the order of summation.  One extra level on each side
    absorbs the rounding of the float energies.  beta = 0 and short
    ladders keep every level.
    """
    if beta == 0.0 or n + 1 < _WINDOW_MIN_LEVELS:
        return n + 1
    reach = 1.0 + math.sqrt(2.0 * n * _FLUSH_LOG / beta + 1.0)
    return min(n + 1, 2 * int(reach / 2.0) + 3)


def _ladder(n: int, betas, lams, populations: bool = False) -> _Ladder:
    """Thermodynamics of every (beta, field) pair of one system.

    Each row evaluates the level window around its ground level with
    the per-level arithmetic of a full-ladder sum: energies from the
    ladder expression, weights exp(-beta E - top) with top = -beta
    E_min, occupations below POPULATION_FLUSH flushed to zero, and
    S = ln(sum w) + beta * excess.  The window depends on (n, beta)
    alone and every reduction runs along the contiguous level axis of
    its row, so a row's floats do not depend on the rest of the block.
    """
    lams = np.asarray(lams, dtype=np.float64)
    widths = {_window_width(n, beta) for beta in betas}
    if len(widths) > 1:
        parts = [_ladder(n, (beta,), lams, populations) for beta in betas]
        return _Ladder(*(None if c[0] is None else np.concatenate(c) for c in zip(*parts)))
    width = widths.pop()
    lam = lams if len(betas) == 1 else np.concatenate([lams] * len(betas))
    start = None
    if width <= n:
        start = (np.rint((n + n * lam) / 2.0) - width // 2).clip(0, n + 1 - width)
    if lam.size == 1:
        # A lone row runs on 1-D arrays and numpy scalars, which numpy
        # evaluates faster.
        beta = betas[0]
        floor, excess, total, kept = _window(n, beta, lam[0], start, width, populations)
    else:
        beta = np.repeat(np.asarray(betas, dtype=np.float64), lams.size)
        step = max(1, _BLOCK_ELEMENTS // width)
        parts = [
            _window(n, beta[i : i + step], lam[i : i + step],
                    None if start is None else start[i : i + step], width, populations)
            for i in range(0, lam.size, step)
        ]
        floor, excess, total, kept = (
            c[0] if len(c) == 1 or c[0] is None else np.concatenate(c) for c in zip(*parts)
        )
    log_norm = np.log(total)
    fields = (floor, excess, log_norm + beta * excess, -beta * floor + log_norm)
    shape = (len(betas), lams.size)
    if lam.size == 1:
        fields = [[[value]] for value in fields]
    else:
        fields = np.array(fields).reshape((4,) + shape)
    if not populations:
        return _Ladder(*fields)
    kept = kept.reshape(lam.size, width)
    if start is not None:
        full = np.zeros((lam.size, n + 1))
        np.put_along_axis(full, start.astype(np.intp)[:, None] + np.arange(width), kept, axis=1)
        kept = full
    return _Ladder(*fields, populations=kept.reshape(shape + (n + 1,)))


class _Scratch(threading.local):
    """Per-thread arrays reused by every large chunk a thread evaluates.

    A sweep then forms its levels, weights and flush masks without
    allocating and freeing a chunk's worth of memory per call.  The
    arrays grow to the largest chunk evaluated (a row wider than
    _BLOCK_ELEMENTS is one chunk) and keep that size.
    """

    def __init__(self):
        self.steps = np.zeros(0)
        self.arrays = (np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool))


_SCRATCH = _Scratch()

# Chunks with fewer level values use fresh arrays, which cost less
# than finding the reused ones.
_SCRATCH_MIN = 1 << 12


def _window(n: int, beta, lam, start, width: int, keep: bool):
    """Floor, excess, weight sum and populations of a chunk of rows.

    beta, lam and start hold one value per row, or are scalars for a
    lone row.  start is None when the rows span the whole ladder.  The
    populations are an owned array when keep is set, and None otherwise.
    """
    rows = isinstance(lam, np.ndarray)
    column = (lambda v: v[:, None]) if rows else (lambda v: v)
    size = lam.size * width if rows else width
    if size < _SCRATCH_MIN:
        steps, energies, weights, flushed = np.arange(0.0, 2.0 * width, 2.0), None, None, None
    else:
        scratch = _SCRATCH
        if scratch.steps.size < width:
            scratch.steps = np.arange(0.0, 2.0 * width, 2.0)
        if scratch.arrays[0].size < size:
            scratch.arrays = (np.empty(size), np.empty(size), np.empty(size, dtype=bool))
        steps = scratch.steps[:width]
        energies, weights, flushed = (a[:size].reshape(-1, width) if rows else a[:size] for a in scratch.arrays)
    # The 2M labels are whole numbers, so forming them in place gives
    # the same floats as a separate label array.
    labels = np.add(steps, float(-n) if start is None else column(2.0 * start - n), out=energies)
    energies = _level_energy(n, labels, column(lam), out=energies)
    low = energies.min(axis=-1)
    weights = np.multiply(column(-beta), energies, out=weights)
    weights -= column(-beta * low)
    np.exp(weights, out=weights)
    total = weights.sum(axis=-1)
    weights /= column(total)
    weights[np.less(weights, POPULATION_FLUSH, out=flushed)] = 0.0
    energies -= column(low)
    energies *= weights
    if keep and flushed is not None:
        # The next chunk overwrites the reused arrays.
        weights = weights.copy()
    return low, energies.sum(axis=-1), total, weights if keep else None


def _row_state(
    spec: ModelSpec, temperature: float, block: _Ladder, i: int, j: int, energy_offset: float
) -> ThermalState:
    """ThermalState of row [i][j] of a block, with the offset applied."""
    beta = 0.0 if math.isinf(temperature) else 1.0 / temperature
    floor = float(block.floor[i][j]) + energy_offset
    excess = float(block.excess[i][j])
    log_z = float(block.log_z[i][j]) - beta * energy_offset
    populations = None
    if block.populations is not None:
        # An owned copy, so a kept state does not pin the whole block.
        populations = block.populations[i][j].copy()
        populations.setflags(write=False)
    entropy = float(block.entropy[i][j])
    return ThermalState(spec, temperature, log_z, populations, floor + excess, entropy, floor, excess)


def _check_beta(beta: float) -> None:
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"beta must be finite and >= 0, got {beta!r}")


def _check_offset(energy_offset: float) -> None:
    if not math.isfinite(energy_offset):
        raise ValueError(f"energy_offset must be finite, got {energy_offset!r}")


def log_partition_exact(spec: ModelSpec, beta: float, energy_offset: float = 0.0) -> float:
    """Log of the sector partition sum at inverse temperature beta.

    Uses the usual max-shifted exponential sum, so the result stays
    finite for arbitrarily large beta and system size.
    """
    _check_beta(beta)
    _check_offset(energy_offset)
    return float(_ladder(spec.n, (beta,), (spec.lam,)).log_z[0][0]) - beta * energy_offset


def thermal_state(spec: ModelSpec, temperature: float, energy_offset: float = 0.0) -> ThermalState:
    """Gibbs state of the sector at the given temperature.

    Temperature zero is handled symbolically: the population is uniform
    on the set of degenerate ground levels, the entropy is the log of
    its size, and log_z is reported as math.inf.  Infinite temperature
    gives the uniform state over all levels.

    Raises
    ------
    ValueError
        If the temperature is negative or NaN, or the offset is not
        finite.
    """
    if math.isnan(temperature) or temperature < 0.0:
        raise ValueError(f"temperature must be >= 0, got {temperature!r}")
    _check_offset(energy_offset)

    if temperature == 0.0:
        members = ground_set(spec)
        labels = allowed_twice_m(spec.n)
        populations = np.zeros(labels.shape[0])
        populations[np.isin(labels, sorted(members))] = 1.0 / len(members)
        populations.setflags(write=False)
        shifted_floor = float(energy_levels(spec).min()) + energy_offset
        return ThermalState(
            spec=spec,
            temperature=0.0,
            log_z=math.inf,
            populations=populations,
            internal_energy=shifted_floor,
            entropy=math.log(len(members)),
            energy_floor=shifted_floor,
            excess_energy=0.0,
        )

    beta = 0.0 if math.isinf(temperature) else 1.0 / temperature
    block = _ladder(spec.n, (beta,), (spec.lam,), populations=True)
    return _row_state(spec, temperature, block, 0, 0, energy_offset)
