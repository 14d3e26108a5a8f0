"""Closed-form MSE theory, efficiency predicates, and PRE tables."""

import math

import numpy as np
import pytest

from estlab import (
    FAMILY_FORMS,
    EstimatorForm,
    EstimatorId,
    FinitePopulation,
    MissingPopulationSizeError,
    SampleStats,
    Symbol,
    UndefinedConstantError,
    compute_params,
    efficiency_vs_mean,
    efficiency_vs_ng,
    estimate_general,
    form_ratio_constant,
    k_yp,
    linearization_coefficients,
    mse_from_linearization,
    mse_proposed,
    mse_report,
    params_from_moments,
    pre_table,
    pre_vs_mean,
    rank_pre_rows,
    ratio_constant,
    variance_sample_mean,
)

# Summary moments of the 89-circle villages population (y = villages per
# circle, attribute = circle holds more than five villages).
VILLAGES = params_from_moments(3.36, 0.1236, 0.766, 0.604, 2.19, 6.23181, 89)

FAMILY = [e for e in EstimatorId if e is not EstimatorId.NG]

# PRE values for the villages moments under the squared-constant MSE,
# frozen from an independent evaluation of the closed forms.
FROZEN_PRE = {
    "ng": 11.6389,
    "t1": 7.3747,
    "t2": 239.1107,
    "t3": 221.8451,
    "t4": 149.9191,
    "t5": 76.7277,
    "t6": 229.3445,
    "t7": 76.3633,
    "t8": 229.4522,
    "t9": 26.8953,
    "t10": 240.2759,
}


def random_params(rng):
    return params_from_moments(
        Ybar=float(rng.uniform(0.5, 50.0)),
        P=float(rng.uniform(0.05, 0.95)),
        rho_pb=float(rng.uniform(-0.99, 0.99)),
        C_y=float(rng.uniform(0.1, 3.0)),
        C_p=float(rng.uniform(0.1, 3.0)),
        N=int(rng.integers(10, 500)),
    )


class TestRatioConstants:
    def test_hand_values(self):
        assert ratio_constant(EstimatorId.T1, VILLAGES) == pytest.approx(3.36 / 0.1236, rel=1e-12)
        assert ratio_constant(EstimatorId.T2, VILLAGES) == pytest.approx(
            3.36 / (0.1236 + 6.23181), rel=1e-12
        )
        assert ratio_constant(EstimatorId.T10, VILLAGES) == pytest.approx(
            3.36 * 0.766 / (0.1236 * 0.766 + 6.23181), rel=1e-12
        )

    def test_single_expression_reproduces_every_constant(self):
        # Ybar*m1/(m1*P + m2) with the registry's (m1, m2) covers all ten.
        definitions = {
            EstimatorId.T1: 3.36 / 0.1236,
            EstimatorId.T2: 3.36 / (0.1236 + 6.23181),
            EstimatorId.T3: 3.36 / (0.1236 + 2.19),
            EstimatorId.T4: 3.36 / (0.1236 + 0.766),
            EstimatorId.T5: 3.36 * 6.23181 / (0.1236 * 6.23181 + 2.19),
            EstimatorId.T6: 3.36 * 2.19 / (0.1236 * 2.19 + 6.23181),
            EstimatorId.T7: 3.36 * 2.19 / (0.1236 * 2.19 + 0.766),
            EstimatorId.T8: 3.36 * 0.766 / (0.1236 * 0.766 + 2.19),
            EstimatorId.T9: 3.36 * 6.23181 / (0.1236 * 6.23181 + 0.766),
            EstimatorId.T10: 3.36 * 0.766 / (0.1236 * 0.766 + 6.23181),
        }
        assert set(definitions) == set(FAMILY_FORMS)
        for estimator, expected in definitions.items():
            assert ratio_constant(estimator, VILLAGES) == pytest.approx(expected, rel=1e-12)

    def test_unit_proportion_limit(self):
        # With m1=1, m2=0 the constant is Ybar/P; at P -> 1 it approaches Ybar.
        params = params_from_moments(5.0, 0.999, 0.3, 0.5, 0.1)
        assert form_ratio_constant(params, EstimatorForm(1.0, 0.0)) == pytest.approx(
            5.0 / 0.999, rel=1e-12
        )

    def test_ng_has_no_separate_constant(self):
        with pytest.raises(ValueError):
            ratio_constant(EstimatorId.NG, VILLAGES)


class TestMse:
    def test_ng_formula(self):
        # ((1-f)/n) * (S_y2 + R1^2 S_phi2 - 2 R1 S_yphi), evaluated by hand
        n = 23
        fpc = (1 - n / 89) / n
        r1 = 3.36 / 0.1236
        expected = fpc * (
            VILLAGES.S_y2 + r1 * r1 * VILLAGES.S_phi2 - 2 * r1 * VILLAGES.S_yphi
        )
        assert mse_proposed(VILLAGES, n, EstimatorId.NG) == pytest.approx(expected, rel=1e-14)

    def test_ng_without_attribute_information_reduces_to_variance(self):
        # With a zero ratio constant and zero covariance only S_y2 survives;
        # emulate by comparing the bracket against variance_sample_mean.
        params = params_from_moments(3.0, 0.4, 0.0, 0.7, 0.8, N=50)
        n = 10
        r1 = params.Ybar / params.P
        bracket = mse_proposed(params, n, EstimatorId.NG) / ((1 - n / 50) / n)
        assert bracket == pytest.approx(params.S_y2 + r1**2 * params.S_phi2, rel=1e-12)

    def test_balanced_covariance_cancellation(self):
        # When S_yphi = R1 * S_phi2 the bracket is S_y2 - R1^2 S_phi2.
        ybar, p_attr, cy, cp, n_pop = 4.0, 0.25, 0.9, 0.3, 60
        r1 = ybar / p_attr
        s_y = cy * ybar
        s_phi = cp * p_attr
        rho = r1 * s_phi / s_y  # makes S_yphi equal R1*S_phi2
        assert abs(rho) < 1
        params = params_from_moments(ybar, p_attr, rho, cy, cp, N=n_pop)
        n = 12
        fpc = (1 - n / n_pop) / n
        assert mse_proposed(params, n, EstimatorId.NG) == pytest.approx(
            fpc * (params.S_y2 - r1**2 * params.S_phi2), rel=1e-10
        )

    def test_family_formula(self):
        n = 23
        fpc = (1 - n / 89) / n
        r2 = 3.36 / (0.1236 + 6.23181)
        expected = fpc * (r2 * r2 * VILLAGES.S_phi2 + VILLAGES.S_y2 * (1 - 0.766**2))
        assert mse_proposed(VILLAGES, n, EstimatorId.T2) == pytest.approx(expected, rel=1e-14)

    def test_perfect_correlation_kills_y_term(self):
        params = params_from_moments(2.0, 0.3, 1.0, 0.8, 1.1, N=40)
        n = 8
        fpc = (1 - n / 40) / n
        r = ratio_constant(EstimatorId.T3, params)
        assert mse_proposed(params, n, EstimatorId.T3) == pytest.approx(
            fpc * r * r * params.S_phi2, rel=1e-12
        )

    def test_mse_requires_population_size(self):
        params = params_from_moments(3.36, 0.1236, 0.766, 0.604, 2.19)
        with pytest.raises(MissingPopulationSizeError):
            mse_proposed(params, 10, EstimatorId.T2)

    def test_monotone_in_ratio_constant(self):
        # A larger constant strictly inflates the family MSE.
        n = 20
        values = []
        for m2 in (8.0, 4.0, 2.0, 1.0):
            values.append(mse_from_linearization(VILLAGES, n, EstimatorForm(1.0, m2)))
        constants = [form_ratio_constant(VILLAGES, EstimatorForm(1.0, m2)) for m2 in (8, 4, 2, 1)]
        assert constants == sorted(constants)
        assert values == sorted(values)


class TestLinearizationIdentity:
    def test_t1_identity(self):
        lhs = mse_from_linearization(VILLAGES, 23, EstimatorForm(1.0, 0.0))
        rhs = mse_proposed(VILLAGES, 23, EstimatorId.T1)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_identity_across_family_random_params(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            params = random_params(rng)
            n = int(rng.integers(2, params.N))
            for estimator in FAMILY:
                lhs = mse_from_linearization(params, n, FAMILY_FORMS[estimator])
                rhs = mse_proposed(params, n, estimator)
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_zero_regression_coefficient_reduces_to_ng_shape(self):
        params = params_from_moments(3.0, 0.4, 0.0, 0.7, 0.8, N=50)  # S_yphi = 0
        form = EstimatorForm(1.0, 0.5)
        r = form_ratio_constant(params, form)
        n = 10
        fpc = (1 - n / 50) / n
        assert mse_from_linearization(params, n, form) == pytest.approx(
            fpc * (params.S_y2 + r * r * params.S_phi2), rel=1e-12
        )


class TestLinearizationCoefficients:
    def test_shift_free_form(self):
        coef_p, coef_ybar = linearization_coefficients(VILLAGES, EstimatorForm(1.0, 0.0))
        assert coef_ybar == 1.0
        assert coef_p == pytest.approx(-(VILLAGES.B_phi + 3.36 / 0.1236), rel=1e-14)

    def test_zero_b_phi_is_classical_ratio_slope(self):
        params = params_from_moments(3.0, 0.4, 0.0, 0.7, 0.8, N=50)  # B_phi = 0
        coef_p, _ = linearization_coefficients(params, EstimatorForm(1.0, 0.0))
        assert coef_p == pytest.approx(-params.Ybar / params.P, rel=1e-14)

    @pytest.mark.parametrize(
        "form",
        [EstimatorForm(1.0, 0.0), EstimatorForm(1.0, Symbol.BETA2_PHI), EstimatorForm(Symbol.CP, Symbol.RHO_PB)],
    )
    def test_finite_difference_oracle(self, form):
        # Central differences of the estimator surface, with b_phi frozen at
        # its population value, must reproduce the closed-form slopes.
        params = VILLAGES
        h = 1e-6

        def evaluate(p, ybar):
            stats = SampleStats(ybar=ybar, p=p, b_phi=params.B_phi)
            return estimate_general(stats, params.P, form, params)

        fd_p = (evaluate(params.P + h, params.Ybar) - evaluate(params.P - h, params.Ybar)) / (2 * h)
        fd_ybar = (evaluate(params.P, params.Ybar + h) - evaluate(params.P, params.Ybar - h)) / (2 * h)
        coef_p, coef_ybar = linearization_coefficients(params, form)
        assert fd_p == pytest.approx(coef_p, rel=1e-5)
        assert fd_ybar == pytest.approx(coef_ybar, rel=1e-6)


class TestPre:
    def test_frozen_values(self):
        for estimator in EstimatorId:
            assert pre_vs_mean(VILLAGES, estimator) == pytest.approx(
                FROZEN_PRE[estimator.value], abs=5e-4
            )

    def test_sample_size_cancels(self):
        for n in (2, 44, 88):
            assert pre_vs_mean(VILLAGES, EstimatorId.T2, n) == pre_vs_mean(VILLAGES, EstimatorId.T2)

    def test_works_without_population_size(self):
        params = params_from_moments(3.36, 0.1236, 0.766, 0.604, 2.19, 6.23181)
        assert params.N is None
        assert pre_vs_mean(params, EstimatorId.T10) == pytest.approx(FROZEN_PRE["t10"], abs=5e-4)

    def test_matches_mse_ratio(self):
        n = 23
        v = variance_sample_mean(VILLAGES, n)
        for estimator in FAMILY:
            expected = 100.0 * v / mse_proposed(VILLAGES, n, estimator)
            assert pre_vs_mean(VILLAGES, estimator, n) == pytest.approx(expected, rel=1e-12)


class TestPreTable:
    def test_fixed_row_order(self):
        rows = pre_table(VILLAGES)
        assert [r.estimator for r in rows] == ["mean", "ng"] + [f"t{i}" for i in range(1, 11)]
        assert rows[0].pre == 100.0

    def test_uncorrelated_attribute_never_helps(self):
        # Members keyed by the correlation itself (m1 = rho = 0) have no
        # defined form at exactly zero correlation; the rest cannot beat
        # the sample mean.
        params = params_from_moments(3.0, 0.4, 0.0, 0.7, 0.8, N=50)
        with pytest.raises(UndefinedConstantError):
            pre_table(params)
        for estimator in FAMILY:
            if estimator in (EstimatorId.T8, EstimatorId.T10):
                continue
            assert pre_vs_mean(params, estimator) <= 100.0

    def test_tiny_correlation_full_table_never_helps(self):
        params = params_from_moments(3.0, 0.4, 1e-9, 0.7, 0.8, N=50)
        for row in pre_table(params):
            if row.estimator != "mean":
                assert row.pre <= 100.0

    def test_ranking_sorted_with_index_tiebreak(self):
        rows = pre_table(VILLAGES)
        ranked = rank_pre_rows(rows)
        pres = [r.pre for r in ranked]
        assert pres == sorted(pres, reverse=True)
        assert ranked[0].estimator == "t10"
        # Equal PREs keep display order: build a tie explicitly.
        tie = rank_pre_rows(rows[:1] + rows[:1])
        assert [r.estimator for r in tie] == ["mean", "mean"]


class TestEfficiencyPredicates:
    def test_villages_examples(self):
        assert efficiency_vs_mean(VILLAGES, EstimatorId.T2).beats is True
        assert efficiency_vs_mean(VILLAGES, EstimatorId.T1).beats is False
        assert efficiency_vs_ng(VILLAGES, EstimatorId.T1).beats is False
        for estimator in FAMILY:
            if estimator is not EstimatorId.T1:
                assert efficiency_vs_ng(VILLAGES, estimator).beats is True

    def test_zero_correlation_never_beats_mean(self):
        params = params_from_moments(3.0, 0.4, 0.0, 0.7, 0.8, N=50)
        for estimator in FAMILY:
            if estimator in (EstimatorId.T8, EstimatorId.T10):
                continue  # m1 = rho = 0 leaves no defined form
            result = efficiency_vs_mean(params, estimator)
            assert result.beats is False
            assert result.margin < 0.0

    def test_mean_threshold_form_always_agrees(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            params = random_params(rng)
            for estimator in FAMILY:
                result = efficiency_vs_mean(params, estimator)
                assert result.threshold_agrees
                assert result.beats == (result.margin >= 0.0)

    def test_ng_margin_is_direct_mse_difference(self):
        n = 23
        fpc = (1 - n / 89) / n
        for estimator in FAMILY:
            result = efficiency_vs_ng(VILLAGES, estimator)
            direct = mse_proposed(VILLAGES, n, EstimatorId.NG) - mse_proposed(VILLAGES, n, estimator)
            assert result.margin == pytest.approx(direct / fpc, rel=1e-10)

    def test_ng_threshold_disagreement_is_flagged_not_propagated(self):
        # t1 vs the plain ratio estimator on the villages moments: the
        # threshold form claims a win, the direct difference says loss.
        result = efficiency_vs_ng(VILLAGES, EstimatorId.T1)
        assert result.beats is False
        assert result.threshold_margin > 0.0
        assert result.threshold_agrees is False

    def test_zero_correlation_ng_comparison_reduces_to_constants(self):
        # With rho = 0 (so S_yphi = 0) the direct difference is
        # (R1^2 - R^2) * S_phi2.
        params = params_from_moments(3.0, 0.4, 0.0, 0.7, 0.8, N=50)
        r1 = params.Ybar / params.P
        for estimator in FAMILY:
            if estimator in (EstimatorId.T8, EstimatorId.T10):
                continue  # m1 = rho = 0 leaves no defined form
            r = ratio_constant(estimator, params)
            result = efficiency_vs_ng(params, estimator)
            assert result.margin == pytest.approx((r1 * r1 - r * r) * params.S_phi2, rel=1e-10)

    def test_report_bundles_both_comparisons(self):
        vs_mean = efficiency_vs_mean(VILLAGES, EstimatorId.T2)
        vs_ng = efficiency_vs_ng(VILLAGES, EstimatorId.T2)
        assert vs_mean.beats and vs_ng.beats
        assert vs_mean.margin > 0 and vs_ng.margin > 0
        assert vs_ng.threshold_agrees is True


class TestTaylorResidualOrder:
    @pytest.mark.parametrize("form", [EstimatorForm(1.0, 0.0), EstimatorForm(1.0, Symbol.BETA2_PHI)])
    def test_residual_shrinks_quadratically(self, form):
        params = VILLAGES
        coef_p, coef_ybar = linearization_coefficients(params, form)

        def residual(delta):
            stats = SampleStats(
                ybar=params.Ybar + delta,
                p=params.P + delta,
                b_phi=params.B_phi,
            )
            exact = estimate_general(stats, params.P, form, params)
            linear = params.Ybar + coef_ybar * delta + coef_p * delta
            return abs(exact - linear)

        delta = 0.01 * params.P
        residuals = [residual(delta / 2**k) for k in range(4)]
        for coarse, fine in zip(residuals, residuals[1:]):
            assert 3.0 < coarse / fine < 5.0


def test_mse_report_consistency():
    report = mse_report(VILLAGES, 23, EstimatorId.T2)
    assert report.mse == mse_proposed(VILLAGES, 23, EstimatorId.T2)
    assert report.pre_vs_mean == pytest.approx(
        100.0 * variance_sample_mean(VILLAGES, 23) / report.mse, rel=1e-12
    )
    ng = mse_report(VILLAGES, 23, EstimatorId.NG)
    assert ng.mse == mse_proposed(VILLAGES, 23, EstimatorId.NG)


def test_ng_mse_is_exactly_zero_on_a_proportional_population():
    # prop10: y = phi, three holders in ten.  NG equals Ybar on every
    # sample with both groups, and the classical expansion
    # S_y2 + R1^2 S_phi2 - 2 R1 S_yphi left a negative residue here.
    phi = np.array([1] * 3 + [0] * 7)
    params = compute_params(FinitePopulation(y=phi.astype(float), phi=phi))
    assert mse_proposed(params, 4, EstimatorId.NG) == 0.0
    assert mse_report(params, 4, EstimatorId.NG).pre_vs_mean is None


def test_ng_mse_matches_the_classical_expansion():
    rng = np.random.default_rng(7)
    from_data = []
    for size in rng.integers(10, 300, 25):
        phi = (rng.random(size) < 0.4).astype(int)
        phi[:2] = (0, 1)
        y = 5.0 + 3.0 * phi + rng.normal(0.0, 1.5, size)
        from_data.append(compute_params(FinitePopulation(y=y, phi=phi)))
    for params in [random_params(rng) for _ in range(25)] + from_data:
        n = int(rng.integers(2, params.N))
        r1 = params.Ybar / params.P
        classical = (1 - n / params.N) / n * (
            params.S_y2 + r1 * r1 * params.S_phi2 - 2 * r1 * params.S_yphi
        )
        assert mse_proposed(params, n, EstimatorId.NG) == pytest.approx(classical, rel=1e-12)


def test_family_mse_of_an_affine_population_is_the_ratio_term_alone():
    # y = 4 + 2*phi has no spread within either group (S_e2 = 0), so every
    # family MSE is exactly fpc * R^2 S_phi2.  Here rho_pb rounds to
    # 1.0000000000000002, and the classical S_y2 (1 - rho^2) was -4.7e-16.
    phi = np.array([1] * 5 + [0] * 7)
    params = compute_params(FinitePopulation(y=4.0 + 2.0 * phi, phi=phi))
    assert params.S_e2 == 0.0
    for estimator in FAMILY:
        r = ratio_constant(estimator, params)
        assert mse_proposed(params, 5, estimator) == (1 - 5 / 12) / 5 * (r * r * params.S_phi2)


def test_mse_report_keeps_a_zero_mse_without_pre():
    # y = phi makes y - (Ybar/P)*phi constant, so NG has zero first-order MSE.
    phi = np.array([1, 0] * 10)
    params = compute_params(FinitePopulation(y=phi.astype(float), phi=phi))
    report = mse_report(params, 5, EstimatorId.NG)
    assert report.mse == mse_proposed(params, 5, EstimatorId.NG) == 0.0
    assert report.pre_vs_mean is None


def test_k_yp_definition():
    assert k_yp(VILLAGES) == pytest.approx(0.766 * 0.604 / 2.19, rel=1e-15)
