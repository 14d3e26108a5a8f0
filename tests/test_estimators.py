"""Sample statistics and the estimator family."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from estlab import (
    FAMILY_FORMS,
    DegenerateSampleError,
    EstimatorForm,
    EstimatorId,
    FinitePopulation,
    PopulationParseError,
    SampleData,
    SampleStats,
    SampleTooSmallError,
    Symbol,
    UndefinedConstantError,
    UndefinedEstimateError,
    compute_sample_stats,
    estimate_general,
    estimate_named,
    params_from_moments,
    resolve_form,
)

PARAMS = params_from_moments(3.36, 0.1236, 0.766, 0.604, 2.19, 6.23181, 89)

FAMILY = [e for e in EstimatorId if e is not EstimatorId.NG]


def random_stats(rng, allow_degenerate=False):
    n = int(rng.integers(3, 30))
    a = int(rng.integers(0 if allow_degenerate else 1, n + 1 if allow_degenerate else n))
    phi = np.zeros(n, dtype=int)
    phi[rng.permutation(n)[:a]] = 1
    y = rng.normal(8.0, 3.0, n)
    return compute_sample_stats(SampleData(y=y, phi=phi))


class TestSampleStats:
    def test_two_unit_hand_values(self):
        # b_phi = ybar1 - ybar0 = 3 - 1
        stats = compute_sample_stats(SampleData(y=np.array([1.0, 3.0]), phi=np.array([0, 1])))
        assert stats.ybar == 2.0
        assert stats.p == 0.5
        assert stats.b_phi == 2.0

    def test_constant_attribute_marks_b_phi_undefined(self):
        stats = compute_sample_stats(SampleData(y=np.array([1.0, 2.0, 4.0]), phi=np.array([1, 1, 1])))
        assert stats.b_phi is None

    def test_constant_y_gives_zero_covariance(self):
        stats = compute_sample_stats(SampleData(y=np.array([2.0, 2.0, 2.0]), phi=np.array([0, 1, 1])))
        assert stats.b_phi == 0.0

    def test_columns_are_read_only_copies(self):
        y = np.array([1.0, 2.0, 3.0])
        sample = SampleData(y=y, phi=[0, 1, 1])
        y[0] = np.nan
        assert compute_sample_stats(sample).ybar == 2.0
        assert not sample.y.flags.writeable and not sample.phi.flags.writeable

    def test_single_unit_rejected(self):
        with pytest.raises(SampleTooSmallError):
            SampleData(y=np.array([1.0]), phi=np.array([1]))

    @pytest.mark.parametrize(
        "y, phi",
        [
            ([math.nan, 1.0, 2.0], [0, 1, 1]),
            ([[1.0, 2.0], [3.0, 4.0]], [[0, 1], [1, 0]]),
            ([1.0, 2.0], ["a", "b"]),
            (["a", "b"], [0, 1]),
        ],
        ids=["nan-y", "two-dimensional", "non-numeric-phi", "non-numeric-y"],
    )
    def test_rejects_what_a_population_rejects(self, y, phi):
        for cls in (SampleData, FinitePopulation):
            with pytest.raises(PopulationParseError):
                cls(y=y, phi=phi)


class TestNaikGupta:
    def test_hand_value(self):
        stats = SampleStats(ybar=3.0, p=0.4, b_phi=0.1 / 0.24)
        assert estimate_named(stats, 0.5, EstimatorId.NG, PARAMS) == pytest.approx(3.75, rel=1e-15)

    def test_matched_proportion_returns_sample_mean(self):
        stats = SampleStats(ybar=3.0, p=0.5, b_phi=0.4)
        assert estimate_named(stats, 0.5, EstimatorId.NG, PARAMS) == 3.0

    def test_zero_proportion_undefined(self):
        stats = SampleStats(ybar=3.0, p=0.0, b_phi=None)
        with pytest.raises(UndefinedEstimateError, match="zero sample proportion"):
            estimate_named(stats, 0.5, EstimatorId.NG, PARAMS)


class TestEstimateGeneral:
    def test_shift_free_hand_value(self):
        # (3 + 1.2*(0.5-0.4)) / 0.4 * 0.5
        stats = SampleStats(ybar=3.0, p=0.4, b_phi=1.2)
        value = estimate_general(stats, 0.5, EstimatorForm(1.0, 0.0), PARAMS)
        assert value == pytest.approx(3.9, rel=1e-15)

    def test_zero_slope_matches_plain_ratio_bitwise(self):
        stats = SampleStats(ybar=3.0, p=0.4, b_phi=0.0)
        general = estimate_general(stats, 0.5, EstimatorForm(1.0, 0.0), PARAMS)
        assert general == estimate_named(stats, 0.5, EstimatorId.NG, PARAMS)

    def test_collapse_at_matched_proportion(self):
        stats = SampleStats(ybar=7.25, p=PARAMS.P, b_phi=2.0 / 3.0)
        for form in FAMILY_FORMS.values():
            assert estimate_general(stats, PARAMS.P, form, PARAMS) == 7.25

    def test_undefined_b_phi_with_mismatched_proportion(self):
        stats = SampleStats(ybar=3.0, p=1.0, b_phi=None)
        with pytest.raises(DegenerateSampleError):
            estimate_general(stats, 0.5, EstimatorForm(1.0, 0.0), PARAMS)

    def test_zero_denominator_undefined(self):
        stats = SampleStats(ybar=3.0, p=0.4, b_phi=1.2)
        with pytest.raises(UndefinedEstimateError, match="denominator"):
            estimate_general(stats, 0.5, EstimatorForm(1.0, -0.4), PARAMS)

    def test_zero_m1_rejected(self):
        stats = SampleStats(ybar=3.0, p=0.4, b_phi=1.2)
        with pytest.raises(UndefinedConstantError, match="m1"):
            estimate_general(stats, 0.5, EstimatorForm(0.0, 1.0), PARAMS)

    def test_symbols_resolve_against_params(self):
        stats = SampleStats(ybar=3.0, p=0.3, b_phi=1.2)
        via_symbol = estimate_general(stats, PARAMS.P, EstimatorForm(1.0, Symbol.BETA2_PHI), PARAMS)
        via_literal = estimate_general(stats, PARAMS.P, EstimatorForm(1.0, PARAMS.beta2_phi), PARAMS)
        assert via_symbol == via_literal

    def test_resolve_form_values(self):
        m1, m2 = resolve_form(FAMILY_FORMS[EstimatorId.T10], PARAMS)
        assert (m1, m2) == (PARAMS.rho_pb, PARAMS.beta2_phi)


class TestEstimateNamed:
    def test_registry_matches_family_table(self):
        expected = {
            EstimatorId.T1: (1.0, 0.0),
            EstimatorId.T2: (1.0, PARAMS.beta2_phi),
            EstimatorId.T3: (1.0, PARAMS.C_p),
            EstimatorId.T4: (1.0, PARAMS.rho_pb),
            EstimatorId.T5: (PARAMS.beta2_phi, PARAMS.C_p),
            EstimatorId.T6: (PARAMS.C_p, PARAMS.beta2_phi),
            EstimatorId.T7: (PARAMS.C_p, PARAMS.rho_pb),
            EstimatorId.T8: (PARAMS.rho_pb, PARAMS.C_p),
            EstimatorId.T9: (PARAMS.beta2_phi, PARAMS.rho_pb),
            EstimatorId.T10: (PARAMS.rho_pb, PARAMS.beta2_phi),
        }
        for estimator, pair in expected.items():
            assert resolve_form(FAMILY_FORMS[estimator], PARAMS) == pair

    def test_delegates_bitwise_to_general(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            stats = random_stats(rng)
            for estimator in FAMILY:
                direct = estimate_general(stats, PARAMS.P, FAMILY_FORMS[estimator], PARAMS)
                assert estimate_named(stats, PARAMS.P, estimator, PARAMS) == direct

    def test_ng_delegates(self):
        # NG is t1's form (1, 0) with the slope dropped.
        stats = SampleStats(ybar=3.0, p=0.4, b_phi=1.2)
        zeroed = dataclasses.replace(stats, b_phi=0.0)
        assert estimate_named(stats, 0.5, EstimatorId.NG, PARAMS) == estimate_general(
            zeroed, 0.5, EstimatorForm(1.0, 0.0), PARAMS
        )


class TestFamilyProperties:
    def test_zero_slope_reduction_bitwise(self):
        # Forcing b_phi to zero must reproduce the plain ratio estimate exactly.
        rng = np.random.default_rng(5)
        for _ in range(500):
            stats = random_stats(rng)
            if stats.p == 0.0:
                continue
            zeroed = dataclasses.replace(stats, b_phi=0.0)
            assert estimate_general(
                zeroed, PARAMS.P, FAMILY_FORMS[EstimatorId.T1], PARAMS
            ) == estimate_named(stats, PARAMS.P, EstimatorId.NG, PARAMS)

    @given(st.floats(min_value=0.1, max_value=50.0), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=200)
    def test_scaling_y_scales_every_estimate(self, scale, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 20))
        a = int(rng.integers(1, n))
        phi = np.zeros(n, dtype=int)
        phi[:a] = 1
        y = rng.normal(10.0, 2.0, n)
        base = compute_sample_stats(SampleData(y=y, phi=phi))
        scaled = compute_sample_stats(SampleData(y=scale * y, phi=phi))
        if base.p in (0.0, PARAMS.P):
            return
        for estimator in EstimatorId:
            original = estimate_named(base, PARAMS.P, estimator, PARAMS)
            rescaled = estimate_named(scaled, PARAMS.P, estimator, PARAMS)
            assert rescaled == pytest.approx(scale * original, rel=1e-9)

    def test_matched_proportion_collapse_from_real_sample(self):
        sample = SampleData(y=np.array([4.0, 9.0, 2.0, 6.0]), phi=np.array([0, 1, 0, 1]))
        stats = compute_sample_stats(sample)
        params = params_from_moments(5.0, 0.5, 0.4, 0.5, 0.9)
        for estimator in EstimatorId:
            assert estimate_named(stats, 0.5, estimator, params) == stats.ybar


def test_symbol_values_name_param_fields():
    for symbol in Symbol:
        assert hasattr(PARAMS, symbol.value)


def test_estimator_labels():
    assert [e.value for e in EstimatorId] == ["ng"] + [f"t{i}" for i in range(1, 11)]


def test_b_phi_matches_exact_difference_of_group_means():
    # The exact rational ybar1 - ybar0 of the float data, against the
    # spread of y: the rounding of a large mean must not leak into b_phi.
    rng = np.random.default_rng(17)
    for offset in (0.0, 1e3, 1e6):
        for _ in range(300):
            n = int(rng.integers(3, 30))
            phi = np.zeros(n, dtype=int)
            phi[rng.permutation(n)[: int(rng.integers(1, n))]] = 1
            y = offset + rng.normal(0.0, 3.0, n)
            groups = [[Fraction(v) for v in y[phi == h]] for h in (1, 0)]
            exact = sum(groups[0]) / len(groups[0]) - sum(groups[1]) / len(groups[1])
            b_phi = compute_sample_stats(SampleData(y=y, phi=phi)).b_phi
            assert abs(Fraction(b_phi) - exact) <= 1e-15 * np.abs(y - y.mean()).max(), (offset, y, phi)


def test_p_is_sample_attribute_share():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 25))
        phi = (rng.random(n) < 0.4).astype(int)
        sample = SampleData(y=rng.normal(size=n), phi=phi)
        assert compute_sample_stats(sample).p == phi.sum() / n
