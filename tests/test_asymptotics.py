"""Saddle-point partition function, regime forms, two-spin closed forms."""

import math

import mpmath
import pytest

from lmgcycle import (
    AsymptoticParams,
    ModelSpec,
    Regime,
    asymptotic_state,
    high_t_efficiency,
    integral_state,
    log_partition_asymptotic,
    log_partition_exact,
    n2_closed_forms,
)


class TestAsymptoticParams:
    def test_from_model(self):
        p = AsymptoticParams.from_model(ModelSpec(50, 0.6), 2.0)
        assert p.a == -0.8
        assert p.k == pytest.approx(1.0 / math.sqrt(200.0), rel=1e-15)

    def test_centre_never_above_minus_half(self):
        assert AsymptoticParams.from_model(ModelSpec(10, 0.0), 1.0).a == -0.5
        with pytest.raises(ValueError):
            AsymptoticParams(-0.4, 1.0)

    def test_width_positive(self):
        with pytest.raises(ValueError):
            AsymptoticParams(-1.0, 0.0)
        with pytest.raises(ValueError):
            AsymptoticParams(-1.0, -2.0)

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            AsymptoticParams.from_model(ModelSpec(10, 0.5), 0.0)


class TestLogPartitionAsymptotic:
    # Reference values from a 60-digit evaluation of the same saddle
    # expression with an independent erf.
    def test_sub_critical_large_system(self):
        value = log_partition_asymptotic(ModelSpec(2000, 0.3), 1.0)
        assert value == pytest.approx(1086.5461223605089, rel=1e-12)

    def test_polarized_deep_cold(self):
        # Both erf arguments are huge here; only the log path survives.
        value = log_partition_asymptotic(ModelSpec(2000, 4.0), 10.0)
        assert value == pytest.approx(79988.425529660393, rel=1e-12)

    def test_moderate_system(self):
        value = log_partition_asymptotic(ModelSpec(30, 0.5), 2.0)
        assert value == pytest.approx(35.799347552135674, rel=1e-12)

    def test_warm_small_argument_path(self):
        value = log_partition_asymptotic(ModelSpec(100, 3.0), 1.0 / 800.0)
        assert value == pytest.approx(0.18556721259184525, rel=1e-11)

    def test_rejects_non_positive_beta(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                log_partition_asymptotic(ModelSpec(100, 0.5), bad)

    def test_offset_from_exact_sum_is_the_measure_constant(self):
        # The integral drops the level-sum measure: the exact log Z
        # exceeds it by beta + log N + log(sqrt(pi)/2) below the
        # critical field, to high accuracy.
        for n, lam, beta in ((2000, 0.3, 1.0), (1000, 0.2, 2.0), (5000, 0.5, 1.0)):
            gap = log_partition_exact(ModelSpec(n, lam), beta) - log_partition_asymptotic(
                ModelSpec(n, lam), beta
            )
            predicted = beta + math.log(n) + math.log(math.sqrt(math.pi) / 2.0)
            assert gap == pytest.approx(predicted, abs=1e-9)


class TestIntegralState:
    def test_moderate_system_triplet(self):
        log_z, u, s = integral_state(ModelSpec(30, 0.5), 0.5)
        assert log_z == pytest.approx(35.799347552135674, rel=1e-12)
        assert u == pytest.approx(-18.500213653708811, abs=1e-6)
        assert s == pytest.approx(-1.2010797552819482, abs=1e-5)

    def test_polarized_triplet(self):
        log_z, u, s = integral_state(ModelSpec(200, 1.5), 0.25)
        assert log_z == pytest.approx(1193.4312315210412, rel=1e-12)
        assert u == pytest.approx(-299.75121985408174, abs=1e-5)
        assert s == pytest.approx(-5.5736478952858037, abs=1e-4)

    def test_thermodynamic_identity(self):
        log_z, u, s = integral_state(ModelSpec(500, 0.7), 0.8)
        assert s == pytest.approx(u / 0.8 + log_z, rel=1e-12)

    def test_rejects_bad_temperature(self):
        for bad in (0.0, -0.5, math.inf):
            with pytest.raises(ValueError):
                integral_state(ModelSpec(100, 0.5), bad)

    @pytest.mark.parametrize(
        "n, lam, temperature",
        [(n, lam, t) for n in (500, 1000, 3000) for lam in (0.9, 1.05, 1.1, 1.2, 1.5)
         for t in (0.3, 0.6, 0.9, 2.0, 5.0)] + [(543, 1.1703, 0.890)],
    )
    def test_energy_matches_mpmath(self, n, lam, temperature):
        # U = -d log Z / d beta of the same integral, at 40 digits, with
        # the bracket as erfc(-u) - erfc(l) so it keeps its digits.
        def log_z(beta):
            root = mpmath.sqrt(2 * n * beta)
            bracket = mpmath.erfc(-(1 - lam) / 2 * root) - mpmath.erfc((1 + lam) / 2 * root)
            return beta * n * (1 + lam**2) / 2 - mpmath.log(root) + mpmath.log(bracket)

        with mpmath.workdps(40):
            beta = 1 / mpmath.mpf(temperature)
            energy = float(-mpmath.diff(log_z, beta))
            scale = abs(energy) + float(abs(log_z(beta)) / beta)
        assert abs(integral_state(ModelSpec(n, lam), temperature)[1] - energy) <= 1e-9 * scale


class TestRegimeForms:
    def test_high_t_values(self):
        log_z, u = asymptotic_state(ModelSpec(100, 3.0), 1.0 / 800.0, Regime.HIGH_T)
        assert log_z == pytest.approx(0.63556806792470009, rel=1e-13)
        assert u == pytest.approx(-51.125, rel=1e-13)

    def test_sub_critical_energy_tracks_exact_shifted_by_one(self):
        # The closed form drops the constant -1 in the level energies,
        # so it reproduces the exact mean energy plus one within 1%.
        log_z, u = asymptotic_state(ModelSpec(30, 0.5), 10.0, Regime.LOW_T_SUB_CRITICAL)
        assert u == -30 * (1 + 0.25) / 2
        exact_u = -19.69999889858946
        assert abs(u - (exact_u + 1.0)) <= 0.01 * abs(exact_u)

    def test_sub_critical_log_z(self):
        log_z, _ = asymptotic_state(ModelSpec(30, 0.5), 10.0, Regime.LOW_T_SUB_CRITICAL)
        expected = math.log(2.0) - 0.5 * math.log(600.0) + 187.5
        assert log_z == pytest.approx(expected, rel=1e-14)

    def test_polarized_values(self):
        log_z, u = asymptotic_state(ModelSpec(20, 4.0), 5.0, Regime.LOW_T_POLARIZED)
        assert log_z == 400.0
        assert u == -80.0

    def test_polarized_requires_supercritical_field(self):
        with pytest.raises(ValueError):
            asymptotic_state(ModelSpec(20, 1.0), 5.0, Regime.LOW_T_POLARIZED)
        with pytest.raises(ValueError):
            asymptotic_state(ModelSpec(20, 0.8), 5.0, Regime.LOW_T_POLARIZED)

    def test_rejects_non_positive_beta(self):
        with pytest.raises(ValueError):
            asymptotic_state(ModelSpec(20, 2.0), 0.0, Regime.HIGH_T)


class TestHighTEfficiency:
    def test_reference_value(self):
        assert high_t_efficiency(0.1, 0.375) == pytest.approx(
            0.27123287671232877, rel=1e-15
        )

    def test_vanishing_field_ratio(self):
        eta_c = 0.375
        assert high_t_efficiency(0.0, eta_c) == pytest.approx(
            eta_c / (1 + eta_c), rel=1e-15
        )

    def test_equal_fields_kill_the_engine(self):
        assert high_t_efficiency(1.0, 0.4) == 0.0

    def test_monotone_decreasing_in_kappa(self):
        values = [high_t_efficiency(k / 10, 0.5) for k in range(11)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            high_t_efficiency(-0.1, 0.5)
        with pytest.raises(ValueError):
            high_t_efficiency(1.1, 0.5)
        with pytest.raises(ValueError):
            high_t_efficiency(0.5, 0.0)
        with pytest.raises(ValueError):
            high_t_efficiency(0.5, 1.0)


class TestTwoSpinClosedForms:
    def test_work_at_the_crossing(self):
        work, dwork, sign = n2_closed_forms(1 / 0.6, 1 / 0.3, 0.5)
        assert work == pytest.approx(0.20794415416798359, rel=1e-14)
        assert dwork == 0.0
        assert sign == 0

    def test_derivative_values_mirror_around_crossing(self):
        _, d_low, s_low = n2_closed_forms(10.0, 20.0, 0.3)
        _, d_high, s_high = n2_closed_forms(10.0, 20.0, 0.7)
        assert d_low == pytest.approx(0.03530171966325016, rel=1e-12)
        assert d_high == pytest.approx(-d_low, rel=1e-12)
        assert (s_low, s_high) == (1, -1)

    def test_derivative_matches_finite_difference(self):
        h = 1e-6
        for lambda1 in (0.1, 0.45, 0.62, 1.3):
            w_plus, _, _ = n2_closed_forms(10.0, 20.0, lambda1 + h)
            w_minus, _, _ = n2_closed_forms(10.0, 20.0, lambda1 - h)
            _, dwork, _ = n2_closed_forms(10.0, 20.0, lambda1)
            assert dwork == pytest.approx((w_plus - w_minus) / (2 * h), abs=1e-7)

    def test_stable_at_extreme_cold(self):
        work, dwork, _ = n2_closed_forms(1e3, 2e3, 0.1)
        assert math.isfinite(work) and math.isfinite(dwork)
        # Deep cold at x > 0: both logistic factors saturate, so the
        # work difference collapses to x(1/bh - 1/bc) ... = 0 limitwise.
        assert dwork == pytest.approx(0.0, abs=1e-12)

    def test_requires_colder_cold_bath(self):
        with pytest.raises(ValueError):
            n2_closed_forms(2.0, 2.0, 0.3)
        with pytest.raises(ValueError):
            n2_closed_forms(3.0, 2.0, 0.3)
        with pytest.raises(ValueError):
            n2_closed_forms(0.0, 2.0, 0.3)

    def test_rejects_bad_field(self):
        with pytest.raises(ValueError):
            n2_closed_forms(1.0, 2.0, -0.2)
        with pytest.raises(ValueError):
            n2_closed_forms(1.0, 2.0, math.nan)
