"""Error-function primitives against quadrature, the math module and mpmath."""

import math

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lmgcycle import erf, erfc, log_erfc

# Dense grid on (0, 6], where erf saturates.
_DENSE = [i / 1000 for i in range(1, 6001)]


def _relative_error(value: float, reference) -> float:
    return abs(value - float(reference)) / abs(float(reference))


def _erf_by_simpson(x: float, panels: int = 2000) -> float:
    # Direct quadrature of the defining integral, independent of any
    # series or continued fraction.
    h = x / panels
    total = math.exp(0.0) + math.exp(-x * x)
    for i in range(1, panels):
        t = i * h
        total += (4.0 if i % 2 else 2.0) * math.exp(-t * t)
    return 2.0 / math.sqrt(math.pi) * total * h / 3.0


class TestErf:
    def test_matches_quadrature_at_one(self):
        assert erf(1.0) == pytest.approx(_erf_by_simpson(1.0), abs=1e-12)
        assert erf(1.0) == pytest.approx(0.84270079294971487, abs=1e-13)

    def test_matches_quadrature_on_grid(self):
        for x in (0.25, 0.8, 1.7, 2.4):
            assert erf(x) == pytest.approx(_erf_by_simpson(x), abs=1e-11)

    def test_matches_stdlib_densely(self):
        xs = [i * 0.01 for i in range(0, 701)]
        xs += [2.999, 3.0, 3.001, 5.999, 6.0, 6.001]
        for x in xs:
            assert abs(erf(x) - math.erf(x)) <= 1e-12
            assert abs(erf(-x) - math.erf(-x)) <= 1e-12

    def test_odd_bitwise(self):
        for x in (0.0, 0.3, 1.7, 2.999, 3.5, 7.0, 50.0):
            assert erf(-x) == -erf(x)

    def test_saturates_exactly(self):
        assert erf(6.0) == 1.0
        assert erf(-6.0) == -1.0
        assert erf(1e308) == 1.0

    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_nan_propagates(self):
        assert math.isnan(erf(math.nan))

    @given(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
    def test_agrees_with_stdlib(self, x):
        assert abs(erf(x) - math.erf(x)) <= 1e-12

    @given(st.floats(min_value=0.0, max_value=7.9, allow_nan=False))
    def test_monotone(self, x):
        assert erf(x + 0.1) >= erf(x)

    def test_within_1e15_of_mpmath(self):
        with mpmath.workdps(40):
            worst = max(_relative_error(erf(x), mpmath.erf(x)) for x in _DENSE)
        assert worst <= 1e-15


class TestErfc:
    def test_complement_relation(self):
        for x in (-4.0, -1.0, 0.0, 0.5, 2.0, 2.999, 3.001, 5.0):
            assert erfc(x) + erfc(-x) == pytest.approx(2.0, abs=1e-14)

    def test_matches_stdlib(self):
        for x in (-6.0, -2.5, 0.0, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 26.0):
            ref = math.erfc(x)
            assert erfc(x) == pytest.approx(ref, rel=1e-11, abs=1e-320)

    def test_tiny_tail_is_positive(self):
        assert 0.0 < erfc(25.0) < 1e-250

    def test_within_1e15_of_mpmath(self):
        # Across x = 3, where 1 - erf(x) used to cost 1e-9 of it.
        with mpmath.workdps(40):
            worst = max(_relative_error(erfc(x), mpmath.erfc(x)) for x in _DENSE)
        assert worst <= 1e-15


class TestLogErfc:
    def test_matches_log_of_stdlib(self):
        for x in (-5.0, -1.0, 0.0, 1.5, 3.0, 8.0, 20.0, 25.0):
            assert log_erfc(x) == pytest.approx(math.log(math.erfc(x)), rel=1e-11)

    def test_finite_past_underflow(self):
        # erfc underflows to 0 near x = 26.6; the log form keeps going.
        assert log_erfc(30.0) == pytest.approx(-903.9741171106439, rel=1e-12)
        assert log_erfc(1000.0) == pytest.approx(-1000007.4801207219, rel=1e-12)

    def test_zero_point(self):
        assert log_erfc(0.0) == 0.0

    def test_negative_limit(self):
        assert log_erfc(-30.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_within_1e15_of_mpmath(self):
        # Steps of 0.01 up to 30, past erfc's underflow, then geometric
        # steps to 1000.  The absolute term covers x near 0, where
        # log erfc goes to 0.
        xs = [i / 100 for i in range(3001)] + [30.0 * (100.0 / 3.0) ** (i / 200) for i in range(1, 201)]
        with mpmath.workdps(40):
            for x in xs:
                reference = float(mpmath.log(mpmath.erfc(x)))
                assert abs(log_erfc(x) - reference) <= 1e-15 * abs(reference) + 2e-16, x
