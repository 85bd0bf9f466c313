"""Sweeps, peak census, derivative curves, and the figure catalogue."""

import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmgcycle import (
    CycleSpec,
    SweepRecord,
    SweepSpec,
    derivative_records,
    detect_peaks,
    efficiency_derivative,
    figure_ids,
    figure_preset,
    figure_sweep,
    level_crossings,
    run_cycle,
    run_figure,
    sweep_lambda1,
)
from lmgcycle import ensemble
from lmgcycle.ensemble import _BLOCK_ELEMENTS
from lmgcycle.sweep import _sweep_columns, _SweepColumns


def _flat_record(lambda1, efficiency):
    return SweepRecord(
        lambda1=lambda1,
        efficiency=efficiency,
        eta_carnot=0.5,
        work=0.0,
        q_h=0.0,
        q_ab=0.0,
        q_bc=0.0,
        q_cd=0.0,
        q_da=0.0,
        s_a=0.0,
        s_b=0.0,
        s_c=0.0,
        s_d=0.0,
        is_engine=False,
    )


class TestSweepSpec:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            SweepSpec(2, 0.6, 0.3, 4.0, ())

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            SweepSpec(2, 0.6, 0.3, 4.0, (0.0, 0.5, 0.5))
        with pytest.raises(ValueError):
            SweepSpec(2, 0.6, 0.3, 4.0, (0.5, 0.2))

    def test_rejects_grid_outside_domain(self):
        with pytest.raises(ValueError):
            SweepSpec(2, 0.6, 0.3, 4.0, (0.0, 4.5))
        with pytest.raises(ValueError):
            SweepSpec(2, 0.6, 0.3, 4.0, (-0.5, 1.0))

    def test_rejects_bad_backend(self):
        with pytest.raises(ValueError):
            SweepSpec(2, 0.6, 0.3, 4.0, (0.5,), backend="nope")


    def test_field_whose_energies_overflow_raises(self):
        # Used to end in an OverflowError traceback from lam_max**2, then
        # in inf - inf levels and an error blaming the temperature.
        with pytest.raises(ValueError, match="lam=1e\\+200 makes the level energies overflow for n=3"):
            sweep_lambda1(SweepSpec(3, 1.0, 0.5, 1e200, (0.0, 0.5)))


class TestSweep:
    def test_singleton_grid_matches_single_cycle(self):
        records = sweep_lambda1(SweepSpec(2, 0.6, 0.3, 4.0, (0.5,)))
        single = run_cycle(CycleSpec(2, 0.6, 0.3, 0.5, 4.0))
        assert len(records) == 1
        assert records[0].efficiency == single.efficiency
        assert records[0].work == single.work
        assert records[0].q_h == single.q_h
        assert records[0].s_b == single.corners[1].entropy

    @staticmethod
    def _assert_rows_are_single_cycles(spec):
        # Every sweep row must carry exactly the floats of a standalone
        # cycle at its lambda1, whatever the rest of the grid is.
        records = sweep_lambda1(spec)
        assert [r.lambda1 for r in records] == list(spec.lambda1_grid)
        for record in records:
            single = run_cycle(
                CycleSpec(spec.n, spec.t_hot, spec.t_cold, record.lambda1, spec.lambda2, spec.backend)
            )
            assert record.efficiency == single.efficiency
            assert record.eta_carnot == single.eta_carnot
            assert record.work == single.work
            assert record.q_h == single.q_h
            assert record.q_ab == single.q_ab
            assert record.q_bc == single.q_bc
            assert record.q_cd == single.q_cd
            assert record.q_da == single.q_da
            assert (record.s_a, record.s_b, record.s_c, record.s_d) == tuple(
                corner.entropy for corner in single.corners
            )
            assert record.is_engine == single.is_engine

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=120),
        st.floats(min_value=0.02, max_value=50.0, allow_nan=False),
        st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
        st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
        st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=30),
        st.sampled_from(["exact", "asymptotic"]),
    )
    def test_every_row_matches_single_cycle(self, n, t_hot, ratio, lambda2, fractions, backend):
        grid = tuple(sorted({lambda2 * f for f in fractions}))
        self._assert_rows_are_single_cycles(
            SweepSpec(n, t_hot, t_hot * ratio, lambda2, grid, backend)
        )

    def test_grid_longer_than_one_block_matches_single_cycles(self):
        n = 100
        grid = tuple(float(v) for v in np.linspace(0.0, 30.0, 1501))
        # Hot enough that every row spans the whole ladder, so the grid
        # fills several kernel chunks.
        assert len(grid) > _BLOCK_ELEMENTS // (n + 1)
        self._assert_rows_are_single_cycles(SweepSpec(n, 800.0, 500.0, 30.0, grid))

    def test_windowed_large_system_matches_single_cycles(self):
        grid = tuple(float(v) for v in np.linspace(0.0, 4.0, 9))
        self._assert_rows_are_single_cycles(SweepSpec(20_000, 0.3, 0.2, 4.0, grid))

    def test_hot_rows_of_many_widths_match_single_cycles(self):
        # Rows past the critical field get windows of their own widths,
        # or span the whole ladder, so the block is evaluated in several
        # groups of window width and ground position.
        grid = tuple(float(v) for v in np.linspace(0.0, 4.0, 17))
        self._assert_rows_are_single_cycles(SweepSpec(20_000, 80.0, 40.0, 4.0, grid))

    def test_past_critical_rows_form_few_levels(self, monkeypatch):
        # The large-N benchmark's hot sweeps.  Windows bounded by the
        # 1e-300 population flush form 636 656, 705 554 and 721 132 level
        # values here, most of them too deep to change any sum; the
        # Gaussian reach alone forms 2 270 144 in the first.
        formed = []
        window = ensemble._window

        def counting(n, beta, lam, start, width, *rest):
            formed.append(width * (lam.size if isinstance(lam, np.ndarray) else 1))
            return window(n, beta, lam, start, width, *rest)

        monkeypatch.setattr(ensemble, "_window", counting)
        for n, points, flush_window in ((1_000_000, 3, 636_656), (100_000, 9, 705_554), (10_000, 41, 721_132)):
            formed.clear()
            grid = tuple(float(v) for v in np.linspace(0.0, 4.0, points))
            sweep_lambda1(SweepSpec(n, 80.0, 40.0, 4.0, grid))
            assert sum(formed) <= flush_window / 2
        # The benchmark's cold N = 1e4 sweep: narrower windows must not
        # split it into more kernel chunks than the 5 of flush windows.
        formed.clear()
        sweep_lambda1(SweepSpec(10_000, 0.3, 0.2, 4.0, tuple(float(v) for v in np.linspace(0.0, 4.0, 41))))
        assert len(formed) <= 5

    def test_equal_fields_and_crossings_match_single_cycles(self):
        n = 6
        crossings = level_crossings(n)
        grid = tuple(sorted({0.0, *crossings, 1.5, 2.0}))
        self._assert_rows_are_single_cycles(SweepSpec(n, 0.2, 0.1, 2.0, grid))
        self._assert_rows_are_single_cycles(SweepSpec(n, 0.2, 0.1, crossings[1], (crossings[1],)))

    def test_threads_match_serial_sweeps(self):
        # Large chunks reuse per-thread arrays; sweeps running in several
        # threads at once must still give the serial rows.
        grid = tuple(float(v) for v in np.linspace(0.0, 3.0, 40))
        specs = [SweepSpec(2_000, t, 0.5 * t, 3.0, grid) for t in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
        expected = [sweep_lambda1(spec) for spec in specs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(sweep_lambda1, spec) for spec in specs * 4]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == expected * 4

    def test_repeat_runs_are_bit_identical(self):
        spec = SweepSpec(6, 0.3, 0.2, 2.0, tuple(i * 0.1 for i in range(21)))
        first = sweep_lambda1(spec)
        second = sweep_lambda1(spec)
        assert [r.efficiency for r in first] == [r.efficiency for r in second]
        assert [r.work for r in first] == [r.work for r in second]

    def test_columns_follow_the_record_fields(self):
        assert _SweepColumns._fields == tuple(f.name for f in dataclasses.fields(SweepRecord))

    @pytest.mark.parametrize("backend", ["exact", "asymptotic"])
    def test_columns_hold_the_records(self, backend):
        spec = SweepSpec(6, 0.3, 0.2, 2.0, tuple(i * 0.1 for i in range(21)), backend)
        columns = _sweep_columns(spec)
        records = sweep_lambda1(spec)
        for name, column in zip(_SweepColumns._fields, columns):
            values = [getattr(r, name) for r in records]
            if name in ("eta_carnot", "q_da", "s_a", "s_d"):
                # Shared by every row, so held once.
                assert type(column) is float
                assert values == [column] * len(records)
            else:
                assert values == column
                assert {type(v) for v in column} == {bool if name == "is_engine" else float}

    def test_failure_names_the_grid_index(self):
        spec = SweepSpec(2, 0.6, 0.3, 4.0, (0.0, 1.0))
        object.__setattr__(spec, "lambda1_grid", (0.0, 5.0))
        with pytest.raises(ValueError, match="grid index 1"):
            sweep_lambda1(spec)


class TestDetectPeaks:
    def test_needs_three_records(self):
        records = [_flat_record(0.0, 0.1), _flat_record(1.0, 0.2)]
        with pytest.raises(ValueError):
            detect_peaks(records)

    def test_needs_ascending_grid(self):
        records = [_flat_record(x, 0.1) for x in (0.0, 1.0, 0.5)]
        with pytest.raises(ValueError):
            detect_peaks(records)

    def test_single_triangle(self):
        records = [_flat_record(x, y) for x, y in [(0, 0.0), (1, 0.4), (2, 0.0)]]
        assert detect_peaks(records) == [(1, 0.4)]

    def test_plateau_is_not_a_strict_maximum(self):
        ys = [0.0, 0.4, 0.4, 0.0]
        records = [_flat_record(i, y) for i, y in enumerate(ys)]
        assert detect_peaks(records) == []

    def test_shallow_satellite_bump_is_dropped(self):
        ys = [0.0, 0.5, 0.2, 0.20008, 0.0]
        records = [_flat_record(i, y) for i, y in enumerate(ys)]
        peaks = detect_peaks(records)
        assert peaks == [(1, 0.5)]

    def test_prominence_uses_higher_flanking_minimum(self):
        # Twin micro-bumps separated by a shallow dip: each candidate
        # is measured against that dip, so both fall under the floor.
        ys = [0.0, 0.5, 0.49995, 0.50002, 0.0]
        records = [_flat_record(i, y) for i, y in enumerate(ys)]
        assert detect_peaks(records) == []

    def test_floor_is_configurable(self):
        ys = [0.0, 0.5, 0.2, 0.20008, 0.0]
        records = [_flat_record(i, y) for i, y in enumerate(ys)]
        assert len(detect_peaks(records, prominence=1e-6)) == 2

    def test_boundary_maxima_are_ignored(self):
        ys = [0.9, 0.1, 0.5, 0.1, 0.8]
        records = [_flat_record(i, y) for i, y in enumerate(ys)]
        assert detect_peaks(records) == [(2, 0.5)]


class TestEfficiencyDerivative:
    def test_matches_offline_reference_in_the_valley(self):
        spec = CycleSpec(30, 0.2, 0.1, 1.0, 2.0)
        assert efficiency_derivative(spec, 1.0) == pytest.approx(
            -0.62522934200442083, rel=1e-9
        )
        assert efficiency_derivative(spec, 1.1) == pytest.approx(
            -0.86360563132715649, rel=1e-9
        )

    def test_sign_flip_across_the_two_spin_crossing(self):
        spec = CycleSpec(2, 0.6, 0.3, 0.5, 4.0)
        assert efficiency_derivative(spec, 0.5) > 0.0
        assert efficiency_derivative(spec, 0.56) < 0.0

    def test_stencil_domain_errors(self):
        spec = CycleSpec(2, 0.6, 0.3, 0.5, 4.0)
        with pytest.raises(ValueError):
            efficiency_derivative(spec, 0.0005)
        with pytest.raises(ValueError):
            efficiency_derivative(spec, 3.9995)
        with pytest.raises(ValueError):
            efficiency_derivative(spec, 0.5, h=0.0)

    def test_one_sided_fallback_only_at_boundaries(self):
        spec = SweepSpec(4, 0.3, 0.15, 2.0, (0.0, 1.0, 2.0))
        pairs = derivative_records(spec)
        assert [x for x, _ in pairs] == [0.0, 1.0, 2.0]
        cycle_spec = CycleSpec(4, 0.3, 0.15, 1.0, 2.0)
        assert pairs[1][1] == efficiency_derivative(cycle_spec, 1.0)
        assert all(math.isfinite(d) for _, d in pairs)

        h = 1e-3
        grid = tuple(float(v) for v in np.linspace(0.0, 2.0, 41))
        pairs = derivative_records(SweepSpec(4, 0.3, 0.15, 2.0, grid), h)
        assert [x for x, _ in pairs] == list(grid)

        def eta(lambda1):
            return run_cycle(CycleSpec(4, 0.3, 0.15, lambda1, 2.0)).efficiency

        assert pairs[0][1] == (eta(h) - eta(0.0)) / h
        assert pairs[-1][1] == (eta(2.0) - eta(2.0 - h)) / h
        for lambda1, slope in pairs[1:-1]:
            assert slope == efficiency_derivative(cycle_spec, lambda1, h)

    def test_derivative_records_reject_bad_step(self):
        spec = SweepSpec(4, 0.3, 0.15, 2.0, (0.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            derivative_records(spec, h=-1.0)


class TestFigureCatalogue:
    CANONICAL = [
        "2a", "2b", "3a", "3b", "4a", "4b", "4c", "4d",
        "5a", "5b", "5c", "5d", "6", "7a", "7b", "8",
    ]

    def test_catalogue_covers_all_published_panels(self):
        ids = figure_ids()
        for figure_id in self.CANONICAL:
            assert figure_id in ids

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown figure id"):
            figure_preset("9z")

    def test_presets_pin_the_published_parameters(self):
        p = figure_preset("4b")
        assert (p.n, p.t_hot, p.t_cold, p.lambda2) == (6, 0.2, 0.1, 4.0)
        p = figure_preset("6")
        assert (p.n, p.t_hot, p.t_cold, p.lambda2) == (100, 800.0, 500.0, 30.0)
        p = figure_preset("7a")
        assert (p.n, p.t_hot, p.t_cold, p.lambda2) == (30, 0.5, 0.3, 0.8)
        p = figure_preset("2a")
        assert (p.n, p.t_hot, p.t_cold, p.lambda2) == (20, 0.8, 0.4, 4.0)
        # The hot companion of 2a keeps the Carnot ratio.
        p = figure_preset("2a80")
        assert (p.t_hot, p.t_cold) == (80.0, 40.0)

    def test_sweep_grids_span_zero_to_lambda2(self):
        for figure_id in ("3a", "4c", "7b"):
            spec = figure_sweep(figure_id)
            assert spec.lambda1_grid[0] == 0.0
            assert spec.lambda1_grid[-1] == spec.lambda2
            assert len(spec.lambda1_grid) == figure_preset(figure_id).grid_points

    def test_entropy_panel_shares_the_3a_sweep(self):
        assert figure_sweep("3b") == figure_sweep("3a")


class TestFigureDatasets:
    def test_two_spin_panel_peak(self):
        records = run_figure("3a")
        peaks = detect_peaks(records)
        assert len(peaks) == 1
        location, height = peaks[0]
        assert location == pytest.approx(0.53132832080200501, abs=1e-12)
        assert height == pytest.approx(0.47424679573523216, rel=1e-9)

    def test_four_spin_census(self):
        records = run_figure("4a")
        peaks = detect_peaks(records)
        assert [x for x, _ in peaks] == [0.25, 0.765]
        assert peaks[0][1] == pytest.approx(0.45183460343662515, rel=1e-8)
        assert peaks[1][1] == pytest.approx(0.47414420399930653, rel=1e-8)

    def test_six_spin_census(self):
        records = run_figure("4b")
        peaks = detect_peaks(records)
        assert len(peaks) == 3
        assert peaks[-1][0] == pytest.approx(0.845, abs=1e-12)
        assert peaks[-1][1] == pytest.approx(0.47416686190595318, rel=1e-8)

    def test_sub_critical_null_panel_work_is_negligible(self):
        # Sub-critical fields and a frozen lambda2 corner leave only
        # boundary-effect work of order 1e-12; the offline 60-digit
        # evaluation confirms these tiny positive values are real.
        records = run_figure("7b")
        assert max(abs(r.efficiency) for r in records) <= 1e-9
        assert max(abs(r.work) for r in records) <= 1e-11
        at_tenth = next(r for r in records if r.lambda1 == 0.1)
        assert at_tenth.efficiency == pytest.approx(1.5392287e-10, rel=1e-3)
