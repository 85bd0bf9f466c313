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

from .core import ModelSpec, _ground_mask, _level_energy, energy_levels

__all__ = ["POPULATION_FLUSH", "ThermalState", "log_partition_exact", "thermal_state"]

# Occupations below this are flushed to exact zero before use.
POPULATION_FLUSH = 1e-300
_FLUSH_LOG = -math.log(POPULATION_FLUSH)
# Logits are raised to this cut before np.exp (see _ladder).
_EXP_CUT = -(_FLUSH_LOG + 1.0)

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


def _window_width(n: int, beta: float, lam: float) -> int:
    """Levels in the window of the row at inverse temperature beta and field lam.

    The ground weight is 1, so the partition sum is >= 1, and a level
    whose weight exp(-beta (E_t - E_min)) is below POPULATION_FLUSH has
    a population below it, which the full-ladder sum flushes to zero
    anyway.  Dropping those levels therefore changes nothing but the
    order of summation.  With s = 2 n ln(1/POPULATION_FLUSH) / beta and
    t0 the ground 2M label, 2n (E_t - E_min) = (t - n lam)^2 -
    (t0 - n lam)^2, and a level can only be kept if that is <= s:

    * Up to the critical field (lam <= 1), t0 is any label with
      |t0 - n lam| <= 1 (or the clipped edge), so 2n (E_t - E_min) >=
      (|t - t0| - 1)^2 - 1, and the window keeps the levels with
      |t - t0| <= 1 + sqrt(s + 1), plus one level on each side.
    * Past it (lam > 1), t0 is the edge label n.  With d = n - t and
      g = n (lam - 1), 2n (E_t - E_min) = 2 g d + d^2, so every level
      with d > D = s / (g + sqrt(g^2 + s)) is flushed.  A level step
      costs about 2 (lam - 1) there, so D is far below the reach of the
      first case, and it hardly depends on n once g^2 >> s.  The window
      keeps the int(D/2) + 1 levels next to the edge plus one more,
      rounded up to a multiple of _WINDOW_MIN_LEVELS, or above 32 such
      multiples to one of 16 widths per octave.  A sweep's rows then
      share a few widths, and so a few kernel calls, each of which costs
      more than the levels the rounding adds.

    The extra level absorbs the rounding of the float energies.  Rows
    whose window would span the ladder keep every level, among them
    beta = 0 and temperatures so high that s overflows.
    """
    if beta == 0.0:
        return n + 1
    spread = 2.0 * n * _FLUSH_LOG / beta
    if lam > 1.0:
        g = n * (lam - 1.0)
        reach = spread / (g + math.sqrt(g * g + spread))
    else:
        reach = 1.0 + math.sqrt(spread + 1.0)
    # A reach of 2n + 2 in 2M units spans the whole ladder either way.
    # NaN, from an overflowed spread, fails the comparison too.
    if not reach < 2 * n + 2:
        return n + 1
    if lam <= 1.0:
        return min(n + 1, 2 * int(reach / 2.0) + 3)
    levels = int(reach / 2.0) + 2
    unit = max(1 << max(levels.bit_length() - 5, 0), _WINDOW_MIN_LEVELS)
    return min(n + 1, -(-levels // unit) * unit)


def _window_start(n: int, lam, width: int):
    """First level index of each row's window; None for whole ladders."""
    if width > n:
        return None
    return (np.rint((n + n * lam) / 2.0) - width // 2).clip(0, n + 1 - width)


def _ladder(n: int, betas, lams, populations: bool = False) -> _Ladder:
    """Thermodynamics of every (beta, field) pair of one system.

    Each row evaluates the level window around its ground level (see
    _window_width) with the per-level arithmetic of a full-ladder sum:
    energies from the ladder expression, weights exp(-beta E - top) with
    top = -beta E_min, occupations below POPULATION_FLUSH flushed to
    zero, and S = ln(sum w) + beta * excess.  Past the critical field,
    in rows whose window is narrower than the ladder, the ground weight,
    the last of the window, is added to sum w after the others (see
    _window); whole-ladder rows sum every weight at once.

    Logits -beta E - top below c = -(ln(1/POPULATION_FLUSH) + 1) are
    raised to c before exponentiation.  The ground weight is exactly 1,
    so the weight sum is >= 1, and a weight e^c < POPULATION_FLUSH / e
    is flushed just as the smaller unraised one was; the raised weights
    add less than (n + 1) e^c < 1e-290 to the sum, far below its last
    bit.  So the cut changes no float, and it keeps np.exp off its slow
    subnormal and underflowing arguments.

    The window depends on the row's own (n, beta, lam), rows sharing a
    window width and ground position are evaluated together in chunks,
    and every reduction runs along the contiguous level axis of its
    row, so a row's floats do not depend on the rest of the block: a
    sweep row equals the lone row of thermal_state or run_cycle bit for
    bit.
    """
    lams = np.asarray(lams, dtype=np.float64)
    short = n + 1 < _WINDOW_MIN_LEVELS
    lam = lams if len(betas) == 1 else np.concatenate([lams] * len(betas))
    if lam.size == 1:
        # A lone row runs on 1-D arrays and numpy scalars, which numpy
        # evaluates faster.
        beta = betas[0]
        width = n + 1 if short else _window_width(n, beta, lam[0])
        start = _window_start(n, lam, width)
        edge = start is not None and lam[0] > 1.0
        floor, excess, total, kept = _window(n, beta, lam[0], start, width, populations, edge)
    else:
        beta = np.repeat(np.asarray(betas, dtype=np.float64), lams.size)
        order = None
        if short:
            runs = [(n + 1, False, 0, lam.size)]
        else:
            widths = np.array([_window_width(n, b, x) for b, x in zip(beta.tolist(), lam.tolist())])
            # Rows sharing a width and a ground position are contiguous
            # once sorted by this key; the odd keys are windowed rows past
            # the critical field.  The widest come first, so the reused
            # arrays grow once instead of once per width.
            keys = 2 * widths + ((lam > 1.0) & (widths <= n))
            order = np.argsort(-keys, kind="stable")
            beta, lam, keys = beta[order], lam[order], keys[order]
            bounds = [0, *(np.flatnonzero(np.diff(keys)) + 1).tolist(), lam.size]
            runs = [(int(keys[a]) // 2, bool(keys[a] % 2), a, b) for a, b in zip(bounds, bounds[1:])]
        parts = []
        for width, edge, first, last in runs:
            step = max(1, _BLOCK_ELEMENTS // width)
            for i in range(first, last, step):
                rows = slice(i, min(i + step, last))
                start = _window_start(n, lam[rows], width)
                parts.append(_window(n, beta[rows], lam[rows], start, width, populations, edge))
        floor, excess, total, kept = (
            c[0] if len(c) == 1 or c[0] is None else np.concatenate(c) for c in zip(*parts)
        )
        if order is not None:
            # Back to the caller's row order.
            inverse = np.argsort(order)
            beta, floor, excess, total = beta[inverse], floor[inverse], excess[inverse], total[inverse]
            kept = None if kept is None else kept[inverse]
    log_norm = np.log(total)
    fields = (floor, excess, log_norm + beta * excess, -beta * floor + log_norm)
    shape = (len(betas), lams.size)
    if lam.size == 1:
        fields = [[[value]] for value in fields]
    else:
        fields = np.array(fields).reshape((4,) + shape)
    if not populations:
        return _Ladder(*fields)
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


def _window(n: int, beta, lam, start, width: int, keep: bool, edge: bool):
    """Floor, excess, weight sum and populations of a chunk of rows.

    beta and lam hold one value per row, or are scalars for a lone row,
    and start holds each row's first level index, or is None when the
    rows span the whole ladder.  The populations cover the whole ladder
    in an owned array when keep is set, and are None otherwise.  edge
    says that each row's ground level, whose weight is 1, is the last
    level of a window narrower than the ladder.  That weight is then
    added after the others are summed, so the sum near 1 is rounded
    once, and does not depend on how the pairwise sum of a wider or
    narrower window groups it.
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
    top = -beta * low
    # top >= 0, so its maximum is finite unless some row overflowed, and
    # the shift below would then form inf - inf.
    if not math.isfinite(top.max() if rows else top):
        raise ValueError(
            f"temperature too low: beta={float(np.max(beta))!r} times the ground "
            f"energy overflows for n={n}"
        )
    weights = np.multiply(column(-beta), energies, out=weights)
    weights -= column(top)
    np.maximum(weights, _EXP_CUT, out=weights)
    np.exp(weights, out=weights)
    total = weights[..., :-1].sum(axis=-1) + weights[..., -1] if edge else weights.sum(axis=-1)
    weights /= column(total)
    weights[np.less(weights, POPULATION_FLUSH, out=flushed)] = 0.0
    energies -= column(low)
    energies *= weights
    populations = None
    if keep and start is None:
        # The next chunk overwrites the reused arrays.
        populations = weights if flushed is None else weights.copy()
    elif keep:
        populations = np.zeros(weights.shape[:-1] + (n + 1,))
        np.put_along_axis(
            populations, column(start.astype(np.intp)) + np.arange(width), weights, axis=-1
        )
    return low, energies.sum(axis=-1), total, populations


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
        energies = energy_levels(spec)
        ground = _ground_mask(energies)
        members = int(np.count_nonzero(ground))
        populations = ground / members
        populations.setflags(write=False)
        shifted_floor = float(energies.min()) + energy_offset
        return ThermalState(
            spec=spec,
            temperature=0.0,
            log_z=math.inf,
            populations=populations,
            internal_energy=shifted_floor,
            entropy=math.log(members),
            energy_floor=shifted_floor,
            excess_energy=0.0,
        )

    beta = 0.0 if math.isinf(temperature) else 1.0 / temperature
    block = _ladder(spec.n, (beta,), (spec.lam,), populations=True)
    return _row_state(spec, temperature, block, 0, 0, energy_offset)
