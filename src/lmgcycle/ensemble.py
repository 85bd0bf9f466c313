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

import contextlib
import math
import sys
import threading
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import ModelSpec, _ground_mask, _level_energy, energy_levels

__all__ = ["POPULATION_FLUSH", "ThermalState", "log_partition_exact", "thermal_state"]

# Occupations below this are flushed to exact zero before use.
POPULATION_FLUSH = 1e-300
_FLUSH_LOG = -math.log(POPULATION_FLUSH)
# Logits are raised to this cut before np.exp (see _ladder).
_EXP_CUT = -(_FLUSH_LOG + 1.0)
# Below this bound on beta |E| no logit or shift can overflow (see _ladder),
# and blocks run in a reusable do-nothing context in place of np.errstate.
_LOGIT_MAX = sys.float_info.max / 2.0
_IN_RANGE = contextlib.nullcontext()
# Sums keep the levels that can change them by 2^-60 of their value.
_RESOLVE_LOG = 60.0 * math.log(2.0)

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
        Occupation per level, ordered by ascending 2M, read-only.
        Formed on first read and kept, so states whose populations are
        never read cost one pass over their levels.  None for states
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
    internal_energy: float
    entropy: float
    energy_floor: float
    excess_energy: float
    # What the populations are formed from: (beta, E_min, weight sum)
    # of a finite-temperature row, the ground mask at T = 0, or None.
    _source: object = field(default=None, repr=False, compare=False, kw_only=True)

    @cached_property
    def populations(self) -> np.ndarray | None:
        source = self._source
        if source is None:
            return None
        if isinstance(source, np.ndarray):
            populations = source / np.count_nonzero(source)
        else:
            populations = _populations(self.spec.n, self.spec.lam, *source)
        populations.setflags(write=False)
        return populations


# Corner results for every (beta, field) pair, indexed [beta][field]:
# arrays for a block of rows, nested lists for a lone row and for
# scalar corner evaluations.  log_z excludes any energy offset; total,
# each row's weight sum, is None for corners formed without levels.
_Ladder = namedtuple("_Ladder", "floor excess entropy log_z total", defaults=(None,))


def _window_width(n: int, beta: float, lam: float, populations: bool = False) -> int:
    """Levels in the window of the row at inverse temperature beta and field lam.

    A window holds every level whose depth beta (E_t - E_min) is at most
    K.  With s = 2 n K / beta and t0 the ground 2M label, 2n (E_t -
    E_min) = (t - n lam)^2 - (t0 - n lam)^2, and a level can only be
    kept if that is <= s:

    * Up to the critical field (lam <= 1), t0 is any label with
      |t0 - n lam| <= 1 (or the clipped edge), so 2n (E_t - E_min) >=
      (|t - t0| - 1)^2 - 1, and the window keeps the levels with
      |t - t0| <= 1 + sqrt(s + 1), plus one level on each side.
    * Past it (lam > 1), t0 is the edge label n.  With d = n - t and
      g = n (lam - 1), 2n (E_t - E_min) = 2 g d + d^2, so every level
      with d > D = s / (g + sqrt(g^2 + s)) is deeper than K.  The window
      keeps the int(D/2) + 1 levels next to the edge plus one more,
      rounded up to a multiple of _WINDOW_MIN_LEVELS, or above 32 such
      multiples to one of 16 widths per octave.  A sweep's rows then
      share a few widths, and so a few kernel calls.

    The extra level absorbs the rounding of the float energies.  Rows
    whose window would span the ladder keep every level, among them
    beta = 0 and temperatures so high that s overflows.

    The populations window, which only _populations forms, has K = L =
    ln(1/POPULATION_FLUSH): the ground weight is 1, so sum w >= 1, and
    every level it drops has a population below POPULATION_FLUSH, which
    a full-ladder sum flushes.  The sum window, the default and the only
    one the kernel (_ladder) forms, has K = u + ln(n (n + 1) L / (2 beta))
    + 60 ln 2, with u = 4 beta / n for lam <= 1 and u = 2 beta (g + 1) / n
    past it; where that is >= L the row is frozen and keeps K = L.  The
    levels it drops change sum w - 1 and the excess sum (E - E_min) w
    by less than 2^-60 of their kept values:

    * A kept level has depth <= u and gap E - E_min >= 2/n, so the kept
      values are >= e^-u and >= (2/n) e^-u.  Past the critical field it
      is the level d = 2, with gap 2 (g + 1) / n and depth u.  Below it,
      with e = t0 - n lam, the neighbours t0 -+ 2 lie (4 -+ 4e) / (2n)
      above the ground, and the further one qualifies.  At the clipped
      edge t0 = n, e >= 0, and levels n - 2 and n - 4 lie p / (2n) and
      (8 + 2p) / (2n) above it, with p = 4 - 4e in [0, 4].  So n - 2 has
      depth <= u / 2, and with x = beta / n the two levels' terms
      2n (E - E_min) w sum to >= 4 e^-4x: n - 4 alone if xp <= ln 2,
      else n - 2 alone, by a factor p 2^(4/p - 1/2) / 4 >= 1.3.  As
      K >= u, the window holds these levels.
    * A dropped level has depth y >= K >= 1, so w <= e^-K and
      beta (E - E_min) w = y e^-y < L e^-K.  The at most n + 1 dropped
      levels add <= (n + 1) e^-K = 2^-60 e^-u / (n L / (2 beta)) and
      <= (n + 1) L e^-K / beta = 2^-60 (2/n) e^-u, and n L / (2 beta)
      >= 1 wherever K < L.
    """
    if beta == 0.0:
        return n + 1
    depth = _FLUSH_LOG
    if not populations:
        u = 4.0 * beta / n if lam <= 1.0 else 2.0 * beta * (n * (lam - 1.0) + 1.0) / n
        # A depth u >= L makes K >= L; the log's argument may then be 0.
        if u < _FLUSH_LOG:
            depth = min(depth, u + math.log(n * (n + 1) * _FLUSH_LOG / (2.0 * beta)) + _RESOLVE_LOG)
    spread = 2.0 * n * depth / beta
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


def _ladder(n: int, betas, lams) -> _Ladder:
    """Sums of every (beta, field) pair of one system.

    Each row sums the sum window around its ground level (see
    _window_width) with the per-level arithmetic of a full-ladder sum:
    energies from the ladder expression, weights exp(-beta E - top) with
    top = -beta E_min, occupations below POPULATION_FLUSH flushed to
    zero, and S = ln(sum w) + beta * excess.  Past the critical field,
    in rows whose window is narrower than the ladder, the ground weight,
    the last of the window, is added to sum w after the others (see
    _window); whole-ladder rows sum every weight at once.  Each row's
    sum w is returned too: _populations forms the populations from it.

    Logits -beta E - top below c = -(ln(1/POPULATION_FLUSH) + 1) are
    raised to c before exponentiation.  The ground weight is exactly 1,
    so the weight sum is >= 1, and a weight e^c < POPULATION_FLUSH / e
    is flushed just as the smaller unraised one was; the raised weights
    add less than (n + 1) e^c < 1e-290 to the sum, far below its last
    bit.  So the cut changes no float, and it keeps np.exp off its slow
    subnormal and underflowing arguments.

    Every level has |E| <= n (1 + lam^2) / 2 + 1, so no product beta E,
    nor the shift of one by another, can overflow while beta times that
    bound stays below _LOGIT_MAX.  Blocks beyond it are evaluated under
    np.errstate(over="ignore"), which costs more than the check, and an
    overflowed ground shift raises ValueError (see _window).

    The windows depend on the row's own (n, beta, lam), rows sharing a
    window width and ground position are evaluated together in chunks,
    and every reduction runs along the contiguous level axis of its
    row, so a row's floats do not depend on the rest of the block: a
    sweep row equals the lone row of thermal_state or run_cycle bit for
    bit.
    """
    lams = np.asarray(lams, dtype=np.float64)
    short = n + 1 < _WINDOW_MIN_LEVELS
    shape = (len(betas), lams.size)
    lam = lams if len(betas) == 1 else np.concatenate([lams] * len(betas))
    if lam.size == 1:
        # A lone row runs on 1-D arrays and scalars, which numpy
        # evaluates faster, and forms its shift in Python floats, which
        # never warn.
        beta, x = float(betas[0]), float(lam[0])
        width = n + 1 if short else _window_width(n, beta, x)
        start = _window_start(n, x, width)
        floor, excess, total = _window(n, beta, x, start, width, start is not None and x > 1.0)
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
        # A product, unlike **, gives inf rather than OverflowError.
        lam_max = float(lams.max())
        scale = max(betas) * (n * (1.0 + lam_max * lam_max) / 2.0 + 1.0)
        parts = []
        with _IN_RANGE if scale < _LOGIT_MAX else np.errstate(over="ignore"):
            for width, edge, first, last in runs:
                step = max(1, _BLOCK_ELEMENTS // width)
                for i in range(first, last, step):
                    rows = slice(i, min(i + step, last))
                    start = _window_start(n, lam[rows], width)
                    parts.append(_window(n, beta[rows], lam[rows], start, width, edge))
        floor, excess, total = (c[0] if len(c) == 1 else np.concatenate(c) for c in zip(*parts))
        if order is not None:
            # Back to the caller's row order.
            inverse = np.argsort(order)
            beta, floor, excess, total = beta[inverse], floor[inverse], excess[inverse], total[inverse]
    log_norm = np.log(total)
    fields = (floor, excess, log_norm + beta * excess, -beta * floor + log_norm, total)
    if lam.size == 1:
        return _Ladder(*([[value]] for value in fields))
    return _Ladder(*(value.reshape(shape) for value in fields))


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


def _window(n: int, beta, lam, start, width: int, edge: bool):
    """Floor, excess and weight sum of a chunk of rows.

    beta and lam hold one value per row, or are scalars for a lone row,
    and start holds each row's first level index, or is None when the
    rows span the whole ladder.  edge says that each row's ground level,
    whose weight is 1, is the last level of a sum window narrower than
    the ladder.  That weight is then added after the others are summed,
    so the sum near 1 is rounded once, and does not depend on how the
    pairwise sum of a wider or narrower window groups it.
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
    # top >= 0, so its maximum is finite unless some row overflowed, and
    # the shift below would then form inf - inf.  The check reports that.
    top = -beta * (low if rows else float(low))
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
    return low, energies.sum(axis=-1), total


def _populations(n: int, lam: float, beta: float, low: float, total: float) -> np.ndarray:
    """Populations of the row whose kernel pass gave E_min = low and sum w = total.

    Repeats _window's per-level operations, on the same operands, over
    the row's populations window, so every population is the float the
    kernel's own pass over that window would give.
    """
    width = n + 1 if n + 1 < _WINDOW_MIN_LEVELS else _window_width(n, beta, lam, populations=True)
    start = _window_start(n, lam, width)
    first = 0 if start is None else int(start)
    weights = -beta * _level_energy(n, np.arange(0.0, 2.0 * width, 2.0) + (2.0 * first - n), lam)
    weights -= -beta * low
    np.maximum(weights, _EXP_CUT, out=weights)
    np.exp(weights, out=weights)
    weights /= total
    weights[weights < POPULATION_FLUSH] = 0.0
    populations = np.zeros(n + 1)
    populations[first : first + width] = weights
    return populations


def _row_state(
    spec: ModelSpec, temperature: float, block: _Ladder, i: int, j: int, energy_offset: float
) -> ThermalState:
    """ThermalState of row [i][j] of a block, with the offset applied."""
    beta = 0.0 if math.isinf(temperature) else 1.0 / temperature
    low = float(block.floor[i][j])
    floor = low + energy_offset
    excess = float(block.excess[i][j])
    log_z = float(block.log_z[i][j]) - beta * energy_offset
    entropy = float(block.entropy[i][j])
    source = None if block.total is None else (beta, low, float(block.total[i][j]))
    return ThermalState(spec, temperature, log_z, floor + excess, entropy, floor, excess, _source=source)


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
        shifted_floor = float(energies.min()) + energy_offset
        return ThermalState(
            spec=spec,
            temperature=0.0,
            log_z=math.inf,
            internal_energy=shifted_floor,
            entropy=math.log(int(np.count_nonzero(ground))),
            energy_floor=shifted_floor,
            excess_energy=0.0,
            _source=ground,
        )

    beta = 0.0 if math.isinf(temperature) else 1.0 / temperature
    block = _ladder(spec.n, (beta,), (spec.lam,))
    return _row_state(spec, temperature, block, 0, 0, energy_offset)
