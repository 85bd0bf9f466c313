"""Canonical states: partition sums, populations, entropy, offsets."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmgcycle import (
    POPULATION_FLUSH,
    CycleSpec,
    ModelSpec,
    SweepSpec,
    allowed_twice_m,
    energy_levels,
    level_crossings,
    log_partition_exact,
    run_cycle,
    spectrum,
    sweep_lambda1,
    thermal_state,
)
from lmgcycle import ensemble
from lmgcycle.core import _level_energy
from lmgcycle.ensemble import _BLOCK_ELEMENTS, _WINDOW_MIN_LEVELS, _ladder, _window_start, _window_width


class TestLogPartition:
    def test_two_spin_value_at_unit_field(self):
        # Z = e^{-beta E} summed over the three levels, checked offline
        # at high precision.
        assert log_partition_exact(ModelSpec(2, 1.0), 1.0) == pytest.approx(
            3.3265626412674705, rel=1e-14
        )

    def test_two_spin_value_at_crossing(self):
        assert log_partition_exact(ModelSpec(2, 0.5), 10.0) == pytest.approx(
            20.693147181590522, rel=1e-14
        )

    def test_larger_system(self):
        assert log_partition_exact(ModelSpec(20, 0.3), 5.0) == pytest.approx(
            60.418938538555244, rel=1e-13
        )

    def test_infinite_temperature_counts_levels(self):
        for n in (1, 2, 9):
            assert log_partition_exact(ModelSpec(n, 0.7), 0.0) == pytest.approx(
                math.log(n + 1), rel=1e-15
            )

    def test_huge_beta_and_size_stay_finite(self):
        with np.errstate(over="raise"):
            value = log_partition_exact(ModelSpec(10_000, 0.3), 1e6)
        assert math.isfinite(value)

    def test_offset_shifts_exactly(self):
        model = ModelSpec(12, 0.4)
        beta = 2.5
        base = log_partition_exact(model, beta)
        for offset in (-3.0, 0.25, 40.0):
            assert log_partition_exact(model, beta, offset) == base - beta * offset

    def test_rejects_bad_beta(self):
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                log_partition_exact(ModelSpec(3, 0.5), bad)

    def test_rejects_bad_offset(self):
        with pytest.raises(ValueError):
            log_partition_exact(ModelSpec(3, 0.5), 1.0, math.inf)

    def test_rejects_beta_whose_ground_weight_overflows(self):
        # beta * E_min overflows float64 here, which used to give NaN.
        with pytest.raises(ValueError, match="temperature too low"):
            log_partition_exact(ModelSpec(3, 0.5), 1e308)
        assert log_partition_exact(ModelSpec(3, 0.5), 1e300) == pytest.approx(
            2.833333333333333e300, rel=1e-15
        )

    def test_subnormal_beta_sums_whole_ladder(self):
        # 2 n ln(1/POPULATION_FLUSH) / beta overflows; the window used to
        # raise OverflowError instead of spanning the whole ladder.
        assert log_partition_exact(ModelSpec(1000, 0.5), 1e-310) == pytest.approx(
            math.log(1001), rel=1e-15
        )


class TestThermalState:
    def test_populations_normalize_and_order(self):
        state = thermal_state(ModelSpec(9, 0.6), 0.8)
        assert state.populations.shape == (10,)
        assert abs(state.populations.sum() - 1.0) <= 1e-12
        assert (state.populations >= 0.0).all()
        # Hottest occupation sits on the ground label.
        labels = allowed_twice_m(9)
        ground = min(spectrum(ModelSpec(9, 0.6)), key=lambda lv: lv.energy)
        assert labels[state.populations.argmax()] == ground.twice_m

    def test_energy_decomposition_is_exact(self):
        state = thermal_state(ModelSpec(30, 1.2), 0.7, energy_offset=5.5)
        assert state.internal_energy == state.energy_floor + state.excess_energy
        assert state.excess_energy >= 0.0

    def test_entropy_from_populations(self):
        state = thermal_state(ModelSpec(6, 0.3), 1.1)
        p = state.populations[state.populations > 0]
        assert state.entropy == pytest.approx(float(-(p * np.log(p)).sum()), rel=1e-15)

    def test_zero_temperature_unique_ground(self):
        state = thermal_state(ModelSpec(4, 0.3), 0.0)
        assert state.log_z == math.inf
        assert state.entropy == 0.0
        assert state.populations.tolist() == [0.0, 0.0, 0.0, 1.0, 0.0]
        assert state.internal_energy == energy_levels(ModelSpec(4, 0.3)).min()

    def test_zero_temperature_at_crossing(self):
        state = thermal_state(ModelSpec(4, 0.25), 0.0)
        assert state.entropy == pytest.approx(math.log(2.0), abs=1e-15)
        assert sorted(state.populations.tolist()) == [0.0, 0.0, 0.0, 0.5, 0.5]

    def test_infinite_temperature_is_uniform(self):
        state = thermal_state(ModelSpec(7, 2.0), math.inf)
        assert state.populations == pytest.approx([1 / 8] * 8, abs=1e-15)
        assert state.entropy == pytest.approx(math.log(8), rel=1e-14)

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError):
            thermal_state(ModelSpec(3, 0.5), -0.1)
        with pytest.raises(ValueError):
            thermal_state(ModelSpec(3, 0.5), math.nan)

    @pytest.mark.parametrize("temperature", [1e-308, 1e-310])
    def test_rejects_temperature_below_float_range(self, temperature):
        # 1/T * E_min overflows (1e-310 even makes 1/T infinite); the
        # state used to come back as NaN.
        with pytest.raises(ValueError, match="temperature too low"):
            thermal_state(ModelSpec(3, 0.5), temperature)

    def test_smallest_representable_temperatures_still_work(self):
        state = thermal_state(ModelSpec(3, 0.5), 1e-300)
        assert state.populations.tolist() == [0.0, 0.0, 1.0, 0.0]
        assert state.internal_energy == energy_levels(ModelSpec(3, 0.5)).min()
        assert state.entropy == 0.0

    def test_huge_finite_temperature_is_uniform(self):
        # Used to raise OverflowError, while T = 1e300 and T = inf worked;
        # past the critical field the window's overflowed reach also warned.
        for lam in (0.5, 2.0):
            state = thermal_state(ModelSpec(1000, lam), 1e306)
            assert state.populations == pytest.approx([1 / 1001] * 1001, rel=1e-14)
            assert state.entropy == pytest.approx(math.log(1001), rel=1e-14)

    def test_entropy_increases_with_temperature(self):
        model = ModelSpec(6, 0.7)
        temps = [0.05, 0.1, 0.3, 0.5, 1.0, 2.0, 5.0]
        entropies = [thermal_state(model, t).entropy for t in temps]
        assert all(b > a for a, b in zip(entropies, entropies[1:]))

    def test_cold_entropy_reaches_pair_value_at_crossings(self):
        # Once beta * gap >= 50 the two degenerate levels carry all the
        # weight, so S sits at log 2 to well below 1e-6.
        for n in (2, 4, 5, 8):
            for lam in level_crossings(n):
                energies = np.sort(energy_levels(ModelSpec(n, lam)))
                gap = float(energies[2] - energies[0])
                state = thermal_state(ModelSpec(n, lam), gap / 50.0)
                assert abs(state.entropy - math.log(2.0)) <= 1e-6

    def test_deep_cold_populations_are_flushed_to_zero(self):
        state = thermal_state(ModelSpec(40, 0.3), 1e-3)
        assert (state.populations == 0.0).sum() > 0
        nonzero = state.populations[state.populations > 0.0]
        assert (nonzero >= 1e-300).all()

    def test_populations_are_read_only(self):
        state = thermal_state(ModelSpec(5, 0.2), 1.0)
        with pytest.raises(ValueError):
            state.populations[0] = 0.5

    def test_offset_never_reaches_populations(self):
        model = ModelSpec(11, 0.9)
        base = thermal_state(model, 0.6)
        shifted = thermal_state(model, 0.6, energy_offset=123.0)
        assert (base.populations == shifted.populations).all()
        assert shifted.entropy == base.entropy
        assert shifted.log_z == base.log_z - (1 / 0.6) * 123.0
        assert shifted.internal_energy == pytest.approx(
            base.internal_energy + 123.0, rel=1e-12
        )

    def test_states_compare_and_hash_by_their_values(self):
        # Populations are derived from the compared fields, so they take
        # no part in equality; a state read before and one never read
        # still compare equal.
        model = ModelSpec(9, 0.6)
        for temperature in (0.0, 0.8, math.inf):
            read, unread = thermal_state(model, temperature), thermal_state(model, temperature)
            assert read.populations is not None
            assert read == unread
            assert hash(read) == hash(unread)
            assert len({read, unread}) == 1
        assert thermal_state(model, 0.8) != thermal_state(model, 0.9)
        assert thermal_state(model, 0.8) != thermal_state(model, 0.8, energy_offset=1.0)

    def test_population_source_is_keyword_only(self):
        # Populations used to be the fourth field, so a positional call
        # written for that layout must fail at once, not shift its values.
        state = thermal_state(ModelSpec(9, 0.6), 0.8)
        values = (state.spec, state.temperature, state.log_z, state.populations)
        with pytest.raises(TypeError):
            ensemble.ThermalState(*values, state.internal_energy, state.entropy, 0.0, 0.0)


@settings(max_examples=120)
@given(
    st.integers(min_value=1, max_value=60),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
)
def test_state_invariants(n, lam, temperature):
    state = thermal_state(ModelSpec(n, lam), temperature)
    assert abs(state.populations.sum() - 1.0) <= 1e-12
    assert 0.0 <= state.entropy <= math.log(n + 1) + 1e-12
    energies = energy_levels(ModelSpec(n, lam))
    assert energies.min() - 1e-9 <= state.internal_energy <= energies.max() + 1e-9


def _full_ladder(spec, temperature):
    """log Z, excess, entropy and populations from the whole ladder at once.

    Uses the per-level arithmetic of thermal_state (weights
    exp(-beta E - top), flushed populations, S = ln(sum w) + beta *
    excess) but sums every level with math.fsum, so only the level
    window and the order of summation differ.
    """
    beta = 0.0 if math.isinf(temperature) else 1.0 / temperature
    energies = energy_levels(spec)
    logits = -beta * energies
    top = float(logits.max())
    weights = np.exp(logits - top)
    norm = math.fsum(weights)
    populations = weights / norm
    populations[populations < POPULATION_FLUSH] = 0.0
    excess = math.fsum(populations * (energies - energies.min()))
    log_norm = math.log(norm)
    return top + log_norm, excess, log_norm + beta * excess, populations


# Fields past the critical one, where the ground level is the edge
# 2M = n and the window is bounded by the gap to it.
_PAST_CRITICAL = {"past-1+1e-6": 1.0 + 1e-6, "past-1.3": 1.3, "past-2": 2.0, "past-4": 4.0}


@pytest.mark.parametrize("n", [1_000, 10_000, 100_000])
@pytest.mark.parametrize("where", ["below", "crossing", "above", *_PAST_CRITICAL])
def test_window_matches_full_ladder(n, where):
    crossings = level_crossings(n)
    lam = {"below": 0.37, "crossing": crossings[len(crossings) // 2], "above": 1.7, **_PAST_CRITICAL}[where]
    spec = ModelSpec(n, lam)
    labels = allowed_twice_m(n)
    # Levels the window may drop carry populations below the flush, so
    # sums over the ladder can only differ by that much in absolute terms.
    dropped = (n + 1) * POPULATION_FLUSH
    temperatures = (1e-3, 1e-2, 0.1, 1.0, 10.0, 40.0, 80.0, 1e3, math.inf)
    if where in _PAST_CRITICAL:
        temperatures += (1e2, 1e4)
    for temperature in temperatures:
        state = thermal_state(spec, temperature)
        log_z, excess, entropy, populations = _full_ladder(spec, temperature)
        assert state.log_z == pytest.approx(log_z, rel=1e-12, abs=dropped)
        assert state.excess_energy == pytest.approx(excess, rel=1e-12, abs=dropped)
        assert state.entropy == pytest.approx(entropy, rel=1e-12, abs=dropped)
        assert abs(state.populations.sum() - 1.0) <= 1e-12
        if math.isinf(temperature):
            continue
        if where in _PAST_CRITICAL:
            # The gap bound D: levels further than this from the edge
            # label 2M = n have populations below POPULATION_FLUSH.
            spread = 2.0 * math.log(1.0 / POPULATION_FLUSH) * temperature
            bound = spread / ((lam - 1.0) + math.sqrt((lam - 1.0) ** 2 + spread / n))
            outside = n - labels > bound
        else:
            # The window's bound: levels further than this from the ground
            # label in 2M have populations below POPULATION_FLUSH.
            ground = labels[int(populations.argmax())]
            reach = 1.0 + math.sqrt(2.0 * n * math.log(1.0 / POPULATION_FLUSH) * temperature + 1.0)
            outside = np.abs(labels - ground) > reach
        assert (state.populations[outside] == 0.0).all()
        assert (populations[outside] == 0.0).all()


def _check_sum_window(n, beta, lam):
    """Check what the row's sum window drops; True if the row is frozen.

    Levels outside the window carry less than 2^-60 of the kept sum
    w - 1 and of the kept excess sum (E - E_min) w, summed exactly over
    the whole ladder.  Frozen rows keep every level whose population
    reaches POPULATION_FLUSH instead.
    """
    width = _window_width(n, beta, lam)
    labels = allowed_twice_m(n).astype(np.float64)
    ground = int(energy_levels(ModelSpec(n, lam)).argmin())
    # Gaps from the gap form, which keeps their digits near the ground.
    gaps = (labels - labels[ground]) * (labels + labels[ground] - 2.0 * n * lam) / (2.0 * n)
    weights = np.exp(-beta * gaps)
    start = _window_start(n, lam, width)
    window = np.zeros(n + 1, dtype=bool)
    window[slice(None) if start is None else slice(int(start), int(start) + width)] = True
    assert window[ground]
    flush = math.log(1.0 / POPULATION_FLUSH)
    u = 4.0 * beta / n if lam <= 1.0 else 2.0 * beta * (n * (lam - 1.0) + 1.0) / n
    if u + math.log(n * (n + 1) * flush / (2.0 * beta)) + 60.0 * math.log(2.0) >= flush:
        assert (weights[~window] / math.fsum(weights) < POPULATION_FLUSH).all()
        assert (thermal_state(ModelSpec(n, lam), 1.0 / beta).populations[~window] == 0.0).all()
        return True
    kept = window.copy()
    kept[ground] = False
    for values in (weights, gaps * weights):
        assert math.fsum(values[~window]) < 2.0**-60 * math.fsum(values[kept])
    return False


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=256, max_value=20_000),
    st.floats(min_value=math.log(1e-3), max_value=math.log(1e4)),
    st.data(),
)
def test_sum_window_drops_what_its_sums_cannot_resolve(n, log_temperature, data):
    lam = data.draw(
        st.one_of(
            st.floats(min_value=0.0, max_value=5.0),
            st.sampled_from([1.0 - 1e-9, 1.0 + 1e-9]),
            st.integers(min_value=0, max_value=(n - 2) // 2).map(lambda k: (2 * k + 1) / n),
        )
    )
    _check_sum_window(n, math.exp(-log_temperature), lam)


@pytest.mark.parametrize(
    "n, lam, temperature",
    [
        (256, 3.0, 1e-3), (300, 1.5, 1e-3), (1_000, 4.0, 5e-3), (20_000, 2.0, 1e-3),
        (300, 0.37, 1e-5), (300, 101 / 300, 1e-5),
    ],
)
def test_frozen_window_drops_only_flushed_levels(n, lam, temperature):
    # Frozen rows, which random draws rarely reach: below the critical
    # field they need T of order 1e-5.
    assert _check_sum_window(n, 1.0 / temperature, lam)


def _unfloored_row(n, beta, lam):
    """Populations, excess and logits below the cut of one row.

    The kernel's per-level arithmetic over the whole ladder, without the
    cut that raises logits far below the flush before np.exp: every
    logit is exponentiated as it is.  The populations are normalised by
    the weight sum over the row's sum window, over which the excess is
    summed too.
    """
    count = n + 1 if n + 1 < _WINDOW_MIN_LEVELS else _window_width(n, beta, lam)
    start = _window_start(n, lam, count)
    sums = slice(0, n + 1) if start is None else slice(int(start), int(start) + count)
    energies = _level_energy(n, np.arange(0.0, 2.0 * (n + 1), 2.0) - n, lam)
    low = energies[sums].min()
    logits = -beta * energies - (-beta * low)
    with np.errstate(under="ignore"):
        weights = np.exp(logits)
    # Past the critical field the ground weight, the last of a sum window
    # narrower than the ladder, is added last.
    kept = weights[sums]
    weights /= kept[:-1].sum() + kept[-1] if count <= n and lam > 1.0 else kept.sum()
    weights[weights < POPULATION_FLUSH] = 0.0
    below_cut = int((logits < -(math.log(1.0 / POPULATION_FLUSH) + 1.0)).sum())
    return weights, ((energies - low) * weights)[sums].sum(), below_cut


@pytest.mark.parametrize(
    "n, lam, temperature",
    [
        (10_000, 4.0, 80.0), (300, 3.0, 0.05), (200, 3.0, 0.05), (100, 0.3, 1e-3), (2_000, 0.2, 0.01),
        (1_000_000, 0.5, 0.3), (1_000_000, 0.5, 80.0), (1_000_000, 4.0, 0.3), (1_000_000, 4.0, 80.0),
    ],
)
def test_exponent_cut_changes_no_float(n, lam, temperature):
    # Rows whose ladders hold logits below the cut, deep-frozen ones and
    # the largest large_n rows among them: the state's populations and
    # excess equal the unfloored ones bit for bit.
    beta = 1.0 / temperature
    populations, excess, below_cut = _unfloored_row(n, beta, lam)
    assert below_cut > 0
    state = thermal_state(ModelSpec(n, lam), temperature)
    assert (state.populations == populations).all()
    assert state.excess_energy == excess


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=256, max_value=20_000),
    st.floats(min_value=-3.0, max_value=4.0),
    st.floats(min_value=0.0, max_value=5.0),
)
def test_populations_match_kernel_arithmetic(n, log_temperature, lam):
    # Populations formed on first read repeat the kernel's arithmetic
    # over the whole ladder, normalised by the sum window's weight sum:
    # they equal the in-test copy of that arithmetic bit for bit.
    temperature = 10.0**log_temperature
    populations, excess, _ = _unfloored_row(n, 1.0 / temperature, lam)
    state = thermal_state(ModelSpec(n, lam), temperature)
    assert (state.populations == populations).all()
    assert state.excess_energy == excess


@pytest.mark.parametrize("n, lam, temperature", [(1_000, 2.0, 1e3), (256, 1.3, 1e3)])
def test_whole_ladder_past_critical_field_sums_weights_at_once(n, lam, temperature):
    # A row past the critical field whose window spans the ladder sums
    # all its weights at once, the ground weight among them, as the
    # whole-ladder sum always did.
    beta = 1.0 / temperature
    assert _window_width(n, beta, lam) == n + 1
    populations, excess, _ = _unfloored_row(n, beta, lam)
    state = thermal_state(ModelSpec(n, lam), temperature)
    assert (state.populations == populations).all()
    assert state.excess_energy == excess


def test_populations_read_where_far_logits_overflow():
    # beta E at the far end of the ladder, shifted by the ground's,
    # overflows at this temperature.  The whole-ladder read cuts that
    # logit like any deep level and warns nothing.
    state = thermal_state(ModelSpec(1_000, 2.0), 1.5e-305)
    expected = np.zeros(1_001)
    expected[-1] = 1.0
    assert (state.populations == expected).all()


def test_populations_are_formed_once_on_first_read(monkeypatch):
    # The kernel returns sums only: cycles, states and sweeps form no
    # populations, a state forms its own on the first read and keeps
    # them, and asymptotic corners have none to form.
    calls = []
    populations = ensemble._populations

    def counted(*args):
        calls.append(args)
        return populations(*args)

    monkeypatch.setattr(ensemble, "_populations", counted)
    for n in (40, 1_000):
        result = run_cycle(CycleSpec(n, 0.6, 0.3, 0.5, 2.0))
        state = thermal_state(ModelSpec(n, 0.6), 0.8)
        sweep_lambda1(SweepSpec(n, 0.6, 0.3, 2.0, tuple(np.linspace(0.0, 1.5, 7))))
        assert calls == []
        first = state.populations
        assert state.populations is first
        assert len(calls) == 1
        assert (result.corners[1].populations == thermal_state(ModelSpec(n, 0.5), 0.6).populations).all()
        assert len(calls) == 3
        calls.clear()
    result = run_cycle(CycleSpec(500, 0.3, 0.2, 0.5, 2.0, backend="asymptotic"))
    assert all(corner.populations is None for corner in result.corners)
    assert calls == []


def test_block_holds_one_chunk_of_populations_at_a_time():
    # The kernel keeps per-level values for one chunk at a time: the
    # block's whole weights would take 40 chunks.
    n = 100
    lams = np.linspace(0.0, 3.0, 40 * (_BLOCK_ELEMENTS // (n + 1)))
    tracemalloc.start()
    try:
        _ladder(n, (0.5,), lams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * _BLOCK_ELEMENTS
