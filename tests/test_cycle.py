"""Four-stroke cycle energetics on both backends."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmgcycle import CycleSpec, carnot_bound, cycle, ensemble, log_partition_exact, run_cycle, thermal_state

# High-precision reference for the two-spin cycle at the crossing,
# T_H = 0.6, T_C = 0.3, lambda2 = 4 (60-digit offline evaluation).
TWO_SPIN_REF = {
    "efficiency": 0.47310333056836525,
    "work": 0.21835604538308525,
    "q_h": 0.46153986090261091,
    "q_ab": 0.46147983731633293,
    "q_bc": -0.033777003009330236,
    "q_cd": -0.20940681251019542,
    "q_da": 6.0023586277974006e-5,
    "s_a": 0.00010861507326956055,
    "s_b": 0.76924167726715778,
    "s_c": 0.69802271015653788,
    "s_d": 1.7892197948252817e-9,
}


class TestCarnotBound:
    def test_value(self):
        assert carnot_bound(0.6, 0.3) == 0.5
        assert carnot_bound(800.0, 500.0) == pytest.approx(0.375, rel=1e-15)

    def test_rejects_bad_pairs(self):
        for th, tc in ((0.3, 0.3), (0.2, 0.3), (0.3, 0.0), (math.inf, 1.0)):
            with pytest.raises(ValueError):
                carnot_bound(th, tc)


class TestCycleSpec:
    def test_rejects_bad_temperatures(self):
        for th, tc in ((0.3, 0.3), (0.2, 0.3), (0.3, -0.1), (0.3, 0.0), (math.nan, 0.1)):
            with pytest.raises(ValueError):
                CycleSpec(4, th, tc, 0.5, 2.0)

    def test_rejects_bad_fields(self):
        for l1, l2 in ((-0.1, 2.0), (2.5, 2.0), (0.5, -1.0), (math.nan, 2.0)):
            with pytest.raises(ValueError):
                CycleSpec(4, 0.3, 0.2, l1, l2)

    def test_rejects_bad_backend(self):
        with pytest.raises(ValueError):
            CycleSpec(4, 0.3, 0.2, 0.5, 2.0, backend="magic")

    def test_equal_fields_are_legal(self):
        CycleSpec(4, 0.3, 0.2, 2.0, 2.0)

    @pytest.mark.parametrize("t_cold", [1e-308, 1e-310])
    def test_cold_bath_below_float_range_raises(self, t_cold):
        # Used to give work NaN and efficiency 0.0.
        with pytest.raises(ValueError, match="temperature too low"):
            run_cycle(CycleSpec(3, 1.0, t_cold, 0.5, 2.0))

    def test_field_whose_energies_overflow_raises(self):
        # Used to end in an OverflowError traceback from lam_max**2, then
        # in inf - inf levels and an error blaming the temperature.
        with pytest.raises(ValueError, match="lam=1e\\+200 makes the level energies overflow for n=3"):
            run_cycle(CycleSpec(3, 1.0, 0.5, 0.5, 1e200))

    def test_huge_finite_baths_sum_whole_ladders(self):
        # Used to raise OverflowError from the level window.
        result = run_cycle(CycleSpec(1000, 1e308, 1e307, 0.5, 2.0))
        for corner in result.corners:
            assert corner.entropy == pytest.approx(math.log(1001), rel=1e-14)
        assert math.isfinite(result.work) and math.isfinite(result.efficiency)


class TestTwoSpinReference:
    def test_energetics(self):
        result = run_cycle(CycleSpec(2, 0.6, 0.3, 0.5, 4.0))
        assert result.efficiency == pytest.approx(TWO_SPIN_REF["efficiency"], rel=1e-12)
        assert result.work == pytest.approx(TWO_SPIN_REF["work"], rel=1e-12)
        assert result.q_h == pytest.approx(TWO_SPIN_REF["q_h"], rel=1e-12)
        assert result.is_engine

    def test_stroke_heats(self):
        result = run_cycle(CycleSpec(2, 0.6, 0.3, 0.5, 4.0))
        assert result.q_ab == pytest.approx(TWO_SPIN_REF["q_ab"], rel=1e-12)
        assert result.q_bc == pytest.approx(TWO_SPIN_REF["q_bc"], rel=1e-11)
        assert result.q_cd == pytest.approx(TWO_SPIN_REF["q_cd"], rel=1e-12)
        assert result.q_da == pytest.approx(TWO_SPIN_REF["q_da"], rel=1e-9)

    def test_corner_entropies(self):
        a, b, c, d = run_cycle(CycleSpec(2, 0.6, 0.3, 0.5, 4.0)).corners
        assert a.entropy == pytest.approx(TWO_SPIN_REF["s_a"], rel=1e-11)
        assert b.entropy == pytest.approx(TWO_SPIN_REF["s_b"], rel=1e-12)
        assert c.entropy == pytest.approx(TWO_SPIN_REF["s_c"], rel=1e-12)
        assert d.entropy == pytest.approx(TWO_SPIN_REF["s_d"], rel=1e-9)


class TestFrozenRegimeCycles:
    def test_supercritical_field_still_runs_an_engine(self):
        result = run_cycle(CycleSpec(20, 0.3, 0.2, 1.5, 4.0))
        assert result.efficiency == pytest.approx(0.19106626140208754, rel=1e-10)
        assert result.work == pytest.approx(0.0068539539955074458, rel=1e-10)
        assert result.is_engine

    def test_deep_supercritical_work_nearly_vanishes(self):
        result = run_cycle(CycleSpec(20, 0.3, 0.2, 2.0, 4.0))
        assert result.work == pytest.approx(0.00026806021361932599, rel=1e-9)
        assert result.work == pytest.approx(0.0, abs=1e-3)
        assert result.efficiency == pytest.approx(0.12247733297290712, rel=1e-9)

    def test_quasi_continuum_cycle(self):
        result = run_cycle(CycleSpec(100, 800.0, 500.0, 0.3, 30.0))
        assert result.efficiency == pytest.approx(0.33266694237310786, rel=1e-11)


class TestDegenerateCycle:
    def test_equal_fields_do_nothing(self):
        result = run_cycle(CycleSpec(6, 0.4, 0.2, 1.3, 1.3))
        assert result.work == 0.0
        assert result.q_ab == 0.0
        assert result.q_cd == 0.0
        assert result.q_bc == -result.q_da
        assert result.efficiency == 0.0
        assert not result.is_engine


class TestFirstLaw:
    @pytest.mark.parametrize(
        "spec",
        [
            CycleSpec(2, 0.6, 0.3, 0.5, 4.0),
            CycleSpec(20, 0.3, 0.2, 1.5, 4.0),
            CycleSpec(30, 0.2, 0.1, 1.0, 2.0),
            CycleSpec(100, 800.0, 500.0, 3.0, 30.0),
            CycleSpec(7, 1.1, 0.7, 0.0, 2.5),
        ],
    )
    def test_heat_sum_matches_free_energy_route(self, spec):
        # Summing T dS and dU around the loop must agree with the
        # isothermal free-energy differences: the internal-energy
        # contributions telescope away.
        result = run_cycle(spec)
        a, b, c, d = result.corners
        alt = spec.t_hot * (b.log_z - a.log_z) + spec.t_cold * (d.log_z - c.log_z)
        assert result.work == pytest.approx(alt, abs=1e-8)

    def test_reversed_traversal_negates_the_work(self):
        result = run_cycle(CycleSpec(12, 0.5, 0.2, 0.7, 3.0))
        reversed_work = -result.q_da - result.q_cd - result.q_bc - result.q_ab
        assert reversed_work == pytest.approx(-result.work, abs=1e-15)


class TestColdStorageStroke:
    def test_fixed_field_heat_vanishes_when_both_baths_freeze(self):
        # With both temperatures far below the gap at lambda2 the D->A
        # stroke moves essentially no heat.
        result = run_cycle(CycleSpec(2, 0.1, 0.05, 1.0, 4.0))
        assert abs(result.q_da) <= 1e-6


class TestEnergyOffset:
    @pytest.mark.parametrize("backend", ["exact", "asymptotic"])
    @pytest.mark.parametrize("offset", [-17.0, 0.125, 3200.0])
    def test_work_and_efficiency_are_offset_exact(self, backend, offset):
        spec = CycleSpec(40, 0.3, 0.2, 0.6, 2.0, backend=backend)
        base = run_cycle(spec)
        shifted = run_cycle(spec, energy_offset=offset)
        assert shifted.work == base.work
        assert shifted.efficiency == base.efficiency
        assert shifted.q_ab == base.q_ab
        assert shifted.q_bc == base.q_bc
        assert shifted.q_cd == base.q_cd
        assert shifted.q_da == base.q_da

    def test_corner_quantities_shift_as_expected(self):
        spec = CycleSpec(10, 0.4, 0.1, 0.3, 1.5)
        base = run_cycle(spec)
        shifted = run_cycle(spec, energy_offset=50.0)
        for corner_base, corner_shifted in zip(base.corners, shifted.corners):
            beta = 1.0 / corner_base.temperature
            assert corner_shifted.internal_energy == pytest.approx(
                corner_base.internal_energy + 50.0, rel=1e-12
            )
            assert corner_shifted.log_z == pytest.approx(
                corner_base.log_z - beta * 50.0, rel=1e-12
            )
            assert corner_shifted.entropy == corner_base.entropy


@pytest.mark.parametrize("n", [256, 1_000, 20_000])
def test_corners_are_one_kernel_block(monkeypatch, n):
    # The kernel returns sums only, so the four corners of a cycle are
    # one block call however long the ladder, with no call per row.
    calls = []
    ladder = ensemble._ladder

    def counted(*args):
        calls.append(args)
        return ladder(*args)

    for module in (cycle, ensemble):
        monkeypatch.setattr(module, "_ladder", counted)
    result = run_cycle(CycleSpec(n, 0.6, 0.3, 0.5, 2.0))
    assert len(calls) == 1
    assert result.corners[2].entropy == thermal_state(result.corners[2].spec, 0.3).entropy


class TestAsymptoticBackend:
    def test_matches_offline_reference(self):
        result = run_cycle(CycleSpec(2000, 0.3, 0.2, 0.5, 4.0, backend="asymptotic"))
        assert result.efficiency == pytest.approx(0.32060442822984509, rel=1e-6)

    def test_corners_have_no_populations(self):
        result = run_cycle(CycleSpec(500, 0.3, 0.2, 0.5, 2.0, backend="asymptotic"))
        assert all(corner.populations is None for corner in result.corners)

    def test_tracks_exact_backend_for_large_systems(self):
        exact = run_cycle(CycleSpec(2000, 0.3, 0.2, 0.5, 4.0))
        asym = run_cycle(CycleSpec(2000, 0.3, 0.2, 0.5, 4.0, backend="asymptotic"))
        assert abs(exact.efficiency - asym.efficiency) <= 1e-2


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=50),
    st.floats(min_value=0.02, max_value=50.0, allow_nan=False),
    st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
)
def test_second_law(n, t_hot, ratio, frac, lambda2):
    t_cold = t_hot * ratio
    lambda1 = lambda2 * frac
    spec = CycleSpec(n, t_hot, t_cold, lambda1, lambda2)
    result = run_cycle(spec)
    if result.is_engine:
        assert result.efficiency <= result.eta_carnot + 1e-6


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(st.integers(min_value=1, max_value=60), st.sampled_from([300, 2001])),
    st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
    st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    st.sampled_from([0.0, -7.5, 31.0]),
)
def test_corners_are_bitwise_thermal_states(n, t_hot, ratio, frac, lambda2, offset):
    # Cycle corners come from two-bath kernel blocks, thermal states from
    # one-row blocks; both must produce the same floats.
    result = run_cycle(CycleSpec(n, t_hot, t_hot * ratio, lambda2 * frac, lambda2), offset)
    for corner in result.corners:
        state = thermal_state(corner.spec, corner.temperature, offset)
        assert corner.log_z == state.log_z
        assert corner.entropy == state.entropy
        assert corner.energy_floor == state.energy_floor
        assert corner.excess_energy == state.excess_energy
        assert (corner.populations == state.populations).all()
        beta = 1.0 / corner.temperature
        assert log_partition_exact(corner.spec, beta, offset) == corner.log_z
