"""Level structure: closed-form energies, crossings, dense-spectrum oracle."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmgcycle import (
    BRUTEFORCE_MAX_N,
    ModelSpec,
    allowed_twice_m,
    bruteforce_spectrum,
    eigenenergy,
    energy_levels,
    ground_set,
    level_crossings,
    spectrum,
)


class TestModelSpec:
    def test_rejects_bad_n(self):
        for bad in (0, -3, 1.5, True):
            with pytest.raises(ValueError):
                ModelSpec(bad, 1.0)

    def test_rejects_bad_lam(self):
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                ModelSpec(4, bad)

    def test_accepts_boundary_fields(self):
        ModelSpec(1, 0.0)
        ModelSpec(3, 1.0)

    @pytest.mark.parametrize("n", [1, 3, 1_000_000])
    def test_largest_accepted_field_has_finite_energies(self, n):
        # Bisect the float bit patterns for the largest accepted field:
        # its levels are finite (forming them warns nothing, since
        # warnings fail the suite), and the next float up raises.
        def accepted(bits):
            try:
                ModelSpec(n, float(np.int64(bits).view(np.float64)))
            except ValueError:
                return False
            return True

        low, high = (int(np.float64(x).view(np.int64)) for x in (1.0, np.finfo(np.float64).max))
        assert accepted(low) and not accepted(high)
        while high - low > 1:
            middle = (low + high) // 2
            low, high = (middle, high) if accepted(middle) else (low, middle)
        lam = float(np.int64(low).view(np.float64))
        assert np.isfinite(energy_levels(ModelSpec(n, lam))).all()
        assert np.isfinite(eigenenergy(ModelSpec(n, lam), n))
        above = float(np.nextafter(lam, math.inf))
        message = re.escape(f"lam={above!r} makes the level energies overflow for n={n}")
        with pytest.raises(ValueError, match=message):
            ModelSpec(n, above)


class TestEigenenergy:
    def test_two_spin_levels_at_half_critical(self):
        model = ModelSpec(2, 0.5)
        assert eigenenergy(model, 2) == pytest.approx(-2.0, abs=1e-14)
        assert eigenenergy(model, 0) == pytest.approx(-2.0, abs=1e-14)
        assert eigenenergy(model, -2) == pytest.approx(0.0, abs=1e-14)

    def test_zero_field_ground_is_unmagnetized(self):
        model = ModelSpec(4, 0.0)
        energies = {t: eigenenergy(model, t) for t in (-4, -2, 0, 2, 4)}
        assert min(energies, key=energies.get) == 0

    def test_rejects_wrong_parity(self):
        with pytest.raises(ValueError):
            eigenenergy(ModelSpec(4, 0.3), 1)
        with pytest.raises(ValueError):
            eigenenergy(ModelSpec(5, 0.3), 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            eigenenergy(ModelSpec(4, 0.3), 6)
        with pytest.raises(ValueError):
            eigenenergy(ModelSpec(4, 0.3), -6)

    def test_rejects_non_integer_label(self):
        with pytest.raises(ValueError):
            eigenenergy(ModelSpec(4, 0.3), 2.0)

    @given(st.integers(min_value=1, max_value=200), st.data())
    def test_zero_field_spectrum_is_symmetric(self, n, data):
        t = data.draw(st.sampled_from(range(-n, n + 1, 2)))
        model = ModelSpec(n, 0.0)
        assert eigenenergy(model, t) == eigenenergy(model, -t)

    @given(
        st.integers(min_value=1, max_value=150),
        st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
    )
    def test_vectorized_energies_match_scalar(self, n, lam):
        model = ModelSpec(n, lam)
        vec = energy_levels(model)
        for t, e in zip(allowed_twice_m(n), vec):
            assert eigenenergy(model, int(t)) == e


class TestSpectrum:
    def test_has_one_level_per_label(self):
        levels = spectrum(ModelSpec(7, 0.4))
        assert [lv.twice_m for lv in levels] == list(range(-7, 8, 2))
        assert len(levels) == 8

    def test_m_property_halves_the_label(self):
        levels = spectrum(ModelSpec(3, 0.2))
        assert [lv.m for lv in levels] == [-1.5, -0.5, 0.5, 1.5]


class TestGroundSet:
    def test_zero_field_even_n(self):
        assert ground_set(ModelSpec(4, 0.0)) == {0}

    def test_zero_field_odd_n_is_a_pair(self):
        assert ground_set(ModelSpec(5, 0.0)) == {-1, 1}

    def test_crossing_gives_degenerate_pair(self):
        assert ground_set(ModelSpec(4, 0.25)) == {0, 2}
        assert ground_set(ModelSpec(2, 0.5)) == {0, 2}

    def test_off_crossing_is_unique(self):
        assert ground_set(ModelSpec(4, 0.3)) == {2}

    def test_beyond_critical_is_polarized(self):
        for n in (2, 5, 12):
            assert ground_set(ModelSpec(n, 1.7)) == {n}

    def test_every_crossing_is_detected_as_degenerate(self):
        for n in (2, 3, 4, 7, 10, 25):
            for lam in level_crossings(n):
                assert len(ground_set(ModelSpec(n, lam))) == 2


class TestLevelCrossings:
    def test_two_spins(self):
        assert level_crossings(2) == [0.5]

    def test_four_spins(self):
        assert level_crossings(4) == [0.25, 0.75]

    def test_odd_sizes(self):
        assert level_crossings(7) == pytest.approx([2 / 7, 4 / 7, 6 / 7])
        assert level_crossings(1) == []

    def test_counts(self):
        for n in range(1, 40):
            expect = n // 2 if n % 2 == 0 else (n - 1) // 2
            assert len(level_crossings(n)) == expect

    def test_all_crossings_inside_unit_interval(self):
        for n in (2, 9, 30):
            xs = level_crossings(n)
            assert all(0.0 < x < 1.0 for x in xs)
            assert xs == sorted(xs)

    def test_last_even_crossing_approaches_critical_field(self):
        assert level_crossings(20)[-1] == pytest.approx(1 - 1 / 20, abs=1e-15)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            level_crossings(0)
        with pytest.raises(ValueError):
            level_crossings(2.5)


class TestBruteforce:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0, 2.7])
    def test_sector_levels_appear_in_dense_spectrum(self, n, lam):
        model = ModelSpec(n, lam)
        dense = np.array(bruteforce_spectrum(model))
        for e in energy_levels(model):
            assert np.abs(dense - e).min() <= 1e-9

    def test_dense_spectrum_is_sorted_and_complete(self):
        dense = bruteforce_spectrum(ModelSpec(4, 0.6))
        assert len(dense) == 16
        assert dense == sorted(dense)

    def test_two_spins_dense_values(self):
        # Three triplet levels plus the decoupled singlet at zero.
        dense = bruteforce_spectrum(ModelSpec(2, 0.5))
        assert dense == pytest.approx([-2.0, -2.0, 0.0, 0.0], abs=1e-12)

    def test_single_spin_dense_values(self):
        # One spin: E = -1 -/+ lam exactly.
        dense = bruteforce_spectrum(ModelSpec(1, 0.3))
        assert dense == pytest.approx([-1.3, -0.7], abs=1e-12)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            bruteforce_spectrum(ModelSpec(BRUTEFORCE_MAX_N + 1, 0.5))


@settings(max_examples=30)
@given(
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
)
def test_sector_is_subset_of_dense_spectrum(n, lam):
    model = ModelSpec(n, lam)
    dense = np.array(bruteforce_spectrum(model))
    for e in energy_levels(model):
        assert np.abs(dense - e).min() <= 1e-9
