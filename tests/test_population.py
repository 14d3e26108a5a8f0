"""Population parsing, moments, and summary parameters."""

import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from estlab import (
    DegeneratePopulationError,
    FinitePopulation,
    InvalidMomentsError,
    InvalidSampleSizeError,
    MissingPopulationSizeError,
    PopulationParseError,
    bernoulli_kurtosis,
    compute_params,
    load_population,
    params_from_moments,
    variance_sample_mean,
)

FOUR_UNITS = FinitePopulation(y=np.array([1.0, 2.0, 3.0, 4.0]), phi=np.array([0, 0, 1, 1]))


class TestLoadPopulation:
    def test_parses_two_rows(self):
        pop = load_population(io.StringIO("y,phi\n1,0\n2,1"))
        assert pop.N == 2
        assert pop.y.tolist() == [1.0, 2.0]
        assert pop.phi.tolist() == [0, 1]

    def test_crlf_and_trailing_newline(self):
        pop = load_population(io.StringIO("y,phi\r\n1.5,0\r\n2.5,1\r\n"))
        assert pop.y.tolist() == [1.5, 2.5]

    def test_accepts_path(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("y,phi\n1,0\n2,1\n", encoding="utf-8")
        assert load_population(path).N == 2

    def test_row_order_preserved(self):
        pop = load_population(io.StringIO("y,phi\n9,1\n1,0\n5,1"))
        assert pop.y.tolist() == [9.0, 1.0, 5.0]
        assert pop.phi.tolist() == [1, 0, 1]

    def test_non_binary_attribute_names_line(self):
        with pytest.raises(PopulationParseError, match="line 2"):
            load_population(io.StringIO("y,phi\n1,2\n2,1"))

    def test_too_few_units(self):
        for text, count in (("y,phi\n1,0", 1), ("y,phi\n", 0)):
            with pytest.raises(PopulationParseError, match=f"^population needs at least 2 units, got {count}$"):
                load_population(io.StringIO(text))

    def test_bad_header(self):
        with pytest.raises(PopulationParseError, match="header"):
            load_population(io.StringIO("a,b\n1,0\n2,1"))

    def test_wrong_field_count_names_line(self):
        with pytest.raises(PopulationParseError, match="line 3"):
            load_population(io.StringIO("y,phi\n1,0\n2,1,9"))

    def test_non_numeric_study_value(self):
        with pytest.raises(PopulationParseError, match="line 2"):
            load_population(io.StringIO("y,phi\nx,0\n2,1"))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("nan,1", "line 2: study value 'nan' is not finite"),
            ("1,x", "line 2: attribute value 'x' is not a number"),
        ],
    )
    def test_bad_field_names_line_and_value(self, row, message):
        with pytest.raises(PopulationParseError, match=f"^{message}$"):
            load_population(io.StringIO(f"y,phi\n{row}\n2,0"))

    def test_empty_input(self):
        with pytest.raises(PopulationParseError):
            load_population(io.StringIO(""))


class TestFinitePopulation:
    def test_length_mismatch(self):
        with pytest.raises(PopulationParseError, match="mismatch"):
            FinitePopulation(y=np.array([1.0, 2.0]), phi=np.array([0, 1, 1]))

    def test_non_binary(self):
        with pytest.raises(PopulationParseError, match="0 or 1"):
            FinitePopulation(y=np.array([1.0, 2.0]), phi=np.array([0, 2]))

    def test_arrays_read_only(self):
        with pytest.raises(ValueError):
            FOUR_UNITS.y[0] = 99.0

    def test_attribute_count(self):
        assert FOUR_UNITS.attribute_count == 2


class TestComputeParams:
    def test_four_unit_hand_values(self):
        # Divisor-(N-1) formulas evaluated by hand:
        # deviations of y from 2.5 are (-1.5,-0.5,0.5,1.5), squares sum to 5
        # attribute deviations from 0.5 are (+-0.5), cross products sum to 2
        p = compute_params(FOUR_UNITS)
        assert p.Ybar == 2.5
        assert p.P == 0.5
        assert p.S_y2 == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert p.S_phi2 == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert p.S_yphi == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert p.rho_pb == pytest.approx(2.0 / math.sqrt(5.0), rel=1e-15)
        assert p.beta2_phi == pytest.approx(1.0, rel=1e-15)
        # group means 1.5 and 3.5; within-group squares sum to 4 * 0.25
        assert p.Ybar0 == 1.5
        assert p.S_e2 == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert p.N == 4

    def test_constant_y_rejected(self):
        pop = FinitePopulation(y=np.array([3.0, 3.0, 3.0]), phi=np.array([0, 1, 1]))
        with pytest.raises(DegeneratePopulationError, match="constant"):
            compute_params(pop)

    def test_constant_y_with_inexact_mean_rejected(self):
        # The mean of three 0.1s rounds above 0.1, so the deviations do not
        # vanish and S_y2 would be a residue of about 3e-34.
        pop = FinitePopulation(y=np.array([0.1, 0.1, 0.1]), phi=np.array([0, 1, 1]))
        with pytest.raises(DegeneratePopulationError, match="^study variable is constant"):
            compute_params(pop)

    @pytest.mark.parametrize("scale", [1e-160, 1e-170])
    def test_subnormal_study_variance_rejected(self, scale):
        # At 1e-160 S_y2 is a subnormal 2.9e-320 and rho_pb is off by 5e-5;
        # at 1e-170 it underflows to 0, although y is not constant.
        pop = FinitePopulation(y=np.array([1.0, 3.0, 2.0, 5.0]) * scale, phi=np.array([1, 0, 1, 0]))
        with pytest.raises(DegeneratePopulationError, match=r"^S_y2 = \S+ is too near zero: .*; rescale the study values$"):
            compute_params(pop)

    def test_tiny_mean_with_infinite_cy_rejected(self):
        # Ybar = 1e-300 while S_y is about 8e9, so S_y/Ybar overflows.
        pop = load_population(io.StringIO("y,phi\n1e10,1\n-1e10,0\n4e-300,1\n0,0\n"))
        with pytest.raises(DegeneratePopulationError, match="^C_y must be finite, got inf$"):
            compute_params(pop)

    def test_subnormal_mean_rejected(self):
        # Ybar is a subnormal 1e-309 that has lost digits, though S_y/Ybar is finite.
        pop = load_population(io.StringIO("y,phi\n0.1,1\n-0.1,0\n4e-309,1\n0,0\n"))
        with pytest.raises(DegeneratePopulationError, match="^Ybar = 1e-309 is too near zero: below the smallest normal float64"):
            compute_params(pop)

    @settings(deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100).filter(lambda v: v == 0.0 or abs(v) >= 1e-3),
            min_size=1,
            max_size=30,
        ),
        st.lists(st.integers(min_value=0, max_value=1), min_size=30, max_size=30),
        st.integers(min_value=-300, max_value=300),
    )
    def test_exactly_scale_equivariant(self, values, attribute, k):
        # Scaling y by 2**k is exact while every moment stays a normal,
        # finite float, so each parameter scales by its power of 2**k.
        y = np.array([1.0, 2.0] + values)
        phi = np.array([1, 0] + attribute[: len(values)])
        try:
            base = compute_params(FinitePopulation(y=y, phi=phi))
            scaled = compute_params(FinitePopulation(y=np.ldexp(y, k), phi=phi))
        except DegeneratePopulationError:
            assume(False)  # constant y or zero mean
        for field in ("Ybar", "Ybar0", "S_yphi"):
            assert getattr(scaled, field) == np.ldexp(getattr(base, field), k), field
        for field in ("S_y2", "S_e2"):
            assert getattr(scaled, field) == np.ldexp(getattr(base, field), 2 * k), field
        for field in ("P", "Q", "S_phi2", "rho_pb", "C_y", "C_p", "beta2_phi"):
            assert getattr(scaled, field) == getattr(base, field), field

    def test_constant_attribute_rejected(self):
        pop = FinitePopulation(y=np.array([1.0, 2.0, 3.0]), phi=np.array([1, 1, 1]))
        with pytest.raises(DegeneratePopulationError):
            compute_params(pop)

    def test_overflowing_study_moments_rejected(self):
        # Deviations near 1e200 square past the float64 range; the refusal
        # must not leak numpy's overflow warning.
        pop = load_population(io.StringIO("y,phi\n1e200,1\n3e200,0\n2e200,1\n5e200,0\n"))
        with pytest.raises(DegeneratePopulationError, match="^S_y2 must be finite, got inf; rescale the study values$"):
            compute_params(pop)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-100, max_value=100, allow_nan=False),
                st.integers(min_value=0, max_value=1),
            ),
            min_size=3,
            max_size=40,
        )
    )
    def test_permutation_invariant(self, units):
        y = np.array([u[0] for u in units])
        phi = np.array([u[1] for u in units])
        if phi.sum() in (0, len(phi)):
            return
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(y))
        try:
            a = compute_params(FinitePopulation(y=y, phi=phi))
            b = compute_params(FinitePopulation(y=y[perm], phi=phi[perm]))
        except DegeneratePopulationError:
            return  # constant, zero-mean, or variance-underflow draws
        for field in ("Ybar", "P", "S_y2", "S_phi2", "S_yphi", "rho_pb", "C_y", "C_p", "beta2_phi"):
            assert getattr(a, field) == pytest.approx(getattr(b, field), rel=1e-12, abs=1e-12)

    def test_complement_exact_when_nearly_every_unit_holds(self):
        # 1 - P rounds to 0.007462686567164201 here; (N - a)/N is exactly 1/134.
        n = 134
        phi = np.array([1] * (n - 1) + [0])
        p = compute_params(FinitePopulation(y=np.arange(1.0, n + 1.0), phi=phi))
        assert p.Q == 1 / 134
        assert p.S_phi2 == n * p.P * (1 / 134) / (n - 1)

    def test_kurtosis_exact_when_nearly_every_unit_holds(self):
        # With q = 1 - P the kurtosis would read 132.0075187969921.
        n = 134
        phi = np.array([1] * (n - 1) + [0])
        p = compute_params(FinitePopulation(y=np.arange(1.0, n + 1.0), phi=phi))
        pq = Fraction(n - 1, n) * Fraction(1, n)
        assert p.beta2_phi == float((1 - 3 * pq) / pq) == 132.00751879699249

    @given(st.integers(min_value=1, max_value=29), st.integers(min_value=30, max_value=60))
    def test_binary_variance_identity(self, a, n):
        # S_phi2 * (N-1) must equal N*P*(1-P) for any binary vector.
        phi = np.array([1] * a + [0] * (n - a))
        y = np.arange(n, dtype=float)
        p = compute_params(FinitePopulation(y=y, phi=phi))
        assert p.S_phi2 * (n - 1) == pytest.approx(n * p.P * (1 - p.P), rel=1e-14)

    @given(st.integers(min_value=1, max_value=29), st.integers(min_value=30, max_value=60))
    def test_attribute_kurtosis_matches_moment_ratio(self, a, n):
        # mu4/mu2^2 with divisor-N central moments equals (1-3PQ)/(PQ).
        phi = np.array([1] * a + [0] * (n - a), dtype=float)
        p = a / n
        mu2 = np.mean((phi - p) ** 2)
        mu4 = np.mean((phi - p) ** 4)
        assert mu4 / mu2**2 == pytest.approx(bernoulli_kurtosis(p), rel=1e-12)


class TestParamsFromMoments:
    def test_reference_study_moments(self):
        p = params_from_moments(3.36, 0.1236, 0.766, 0.604, 2.19, 6.23181, 89)
        assert p.S_y2 == pytest.approx((0.604 * 3.36) ** 2, rel=1e-15)
        assert p.S_phi2 == pytest.approx((2.19 * 0.1236) ** 2, rel=1e-15)
        assert p.S_yphi == pytest.approx(0.766 * 0.604 * 3.36 * 2.19 * 0.1236, rel=1e-15)
        assert p.beta2_phi == 6.23181
        assert p.N == 89

    def test_beta2_defaults_to_closed_form(self):
        p = params_from_moments(3.36, 0.1236, 0.766, 0.604, 2.19)
        assert p.beta2_phi == pytest.approx((1 - 3 * 0.1236 * 0.8764) / (0.1236 * 0.8764), rel=1e-15)
        assert p.beta2_phi == pytest.approx(6.23181, abs=1e-3)
        assert p.N is None

    def test_zero_correlation_symmetric_attribute(self):
        p = params_from_moments(1.0, 0.5, 0.0, 1.0, 1.0)
        assert p.S_yphi == 0.0
        assert p.beta2_phi == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(Ybar=3.36, P=0.0, rho_pb=0.5, C_y=1.0, C_p=1.0),
            dict(Ybar=3.36, P=1.0, rho_pb=0.5, C_y=1.0, C_p=1.0),
            dict(Ybar=3.36, P=0.5, rho_pb=1.5, C_y=1.0, C_p=1.0),
            dict(Ybar=3.36, P=0.5, rho_pb=0.5, C_y=-1.0, C_p=1.0),
            dict(Ybar=3.36, P=0.5, rho_pb=0.5, C_y=1.0, C_p=0.0),
            dict(Ybar=-1.0, P=0.5, rho_pb=0.5, C_y=1.0, C_p=1.0),
        ],
    )
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(InvalidMomentsError):
            params_from_moments(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(Ybar=3, P=0.5, rho_pb=0.1, C_y=0.7, C_p=1e-200), "^S_phi2 = 0 is too near zero"),
            (dict(Ybar=3, P=0.5, rho_pb=0.1, C_y=1e-200, C_p=1), "^S_y2 = 0 is too near zero"),
            (dict(Ybar=1e300, P=0.5, rho_pb=0.1, C_y=1e10, C_p=1, N=10), "^S_y2 must be finite, got inf; rescale"),
            (dict(Ybar=1, P=0.5, rho_pb=0.5, C_y=1e150, C_p=1e-161), "^S_phi2 = 2.47033e-323 is too near zero"),
            (dict(Ybar=1.5e308, P=0.9, rho_pb=-1, C_y=8.67e-155, C_p=1.667e-154), "^Ybar0 must be finite, got inf"),
            (dict(Ybar=1, P=0.5, rho_pb=0.1, C_y=1e-160, C_p=1, N=10), "^S_y2 = 9.99989e-321 is too near zero.* rescale"),
            (dict(Ybar=1, P=0.5, rho_pb=0.1, C_y=1, C_p=2e-155), "^S_phi2 = 1e-310 is too near zero"),
            (dict(Ybar=1e-310, P=0.5, rho_pb=0.1, C_y=1e300, C_p=1, N=10), "^Ybar = 1e-310 is too near zero"),
        ],
    )
    def test_overflowing_or_underflowing_variances_rejected(self, kwargs, message):
        with pytest.raises(InvalidMomentsError, match=message):
            params_from_moments(**kwargs)

    def test_population_size_below_two_rejected(self):
        with pytest.raises(InvalidMomentsError, match="^N must be at least 2, got 1$"):
            params_from_moments(3.36, 0.1236, 0.766, 0.604, 2.19, N=1)

    def test_bernoulli_kurtosis_needs_interior_proportion(self):
        with pytest.raises(InvalidMomentsError, match=r"^attribute proportion must lie strictly in \(0,1\), got 0.0$"):
            bernoulli_kurtosis(0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("Ybar", math.inf),
            ("C_y", math.inf),
            ("C_p", math.inf),
            ("beta2_phi", math.nan),
            ("beta2_phi", -math.inf),
        ],
    )
    def test_non_finite_rejected_naming_field(self, field, value):
        kwargs = dict(Ybar=3.36, P=0.1236, rho_pb=0.766, C_y=0.604, C_p=2.19, beta2_phi=6.2, N=89)
        kwargs[field] = value
        with pytest.raises(InvalidMomentsError, match=f"^{field} must be finite"):
            params_from_moments(**kwargs)

    @given(
        st.integers(min_value=4, max_value=59),
        st.integers(min_value=1, max_value=4),
        st.sampled_from(["positive", "negative", "affine", "affine-through-zero"]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100)
    def test_roundtrip_through_moments(self, n, a_frac, shape, rnd):
        # The moments of every accepted CSV are accepted back: negative means
        # too, and y affine in the attribute, where |rho_pb| is 1 and rounding
        # can leave the unclamped ratio an ulp above it.
        rng = np.random.default_rng(rnd.randrange(2**32))
        a = max(1, min(n - 1, int(n * a_frac / 5)))
        phi = np.array([1] * a + [0] * (n - a))
        if shape.startswith("affine"):
            intercept = 0.0 if shape == "affine-through-zero" else rng.normal(0.0, 10.0)
            y = intercept + rng.normal(0.0, 10.0) * phi
        else:
            y = rng.normal(10.0 if shape == "positive" else -10.0, 2.0, n)
        if np.all(y == y[0]):
            return
        original = compute_params(FinitePopulation(y=y, phi=phi))
        rebuilt = params_from_moments(
            original.Ybar,
            original.P,
            original.rho_pb,
            original.C_y,
            original.C_p,
            original.beta2_phi,
            original.N,
        )
        fields = ("Ybar", "P", "Q", "S_y2", "S_phi2", "S_yphi", "rho_pb", "C_y", "C_p", "beta2_phi", "Ybar0", "S_e2")
        # For affine y the CSV's S_e2 can be exactly 0, and through zero its
        # Ybar0 is, while the rebuilt ones are rounding residues: compare
        # those two on the scale of the terms they are computed from.
        scale = {"S_e2": original.S_y2, "Ybar0": abs(original.Ybar) + abs(original.B_phi)}
        for field in fields:
            assert getattr(rebuilt, field) == pytest.approx(
                getattr(original, field), rel=1e-12, abs=1e-12 * scale.get(field, 0.0)
            ), field


class TestVarianceSampleMean:
    def test_reference_value(self):
        p = params_from_moments(3.36, 0.1236, 0.766, 0.604, 2.19, 6.23181, 89)
        # ((1 - 23/89)/23) * S_y2 evaluated by hand
        assert variance_sample_mean(p, 23) == pytest.approx((1 - 23 / 89) / 23 * p.S_y2, rel=1e-15)
        assert variance_sample_mean(p, 23) == pytest.approx(0.1327940220310698, rel=1e-12)

    def test_census_is_zero(self):
        p = compute_params(FOUR_UNITS)
        assert variance_sample_mean(p, 4) == 0.0

    def test_oversized_sample_rejected(self):
        p = compute_params(FOUR_UNITS)
        with pytest.raises(InvalidSampleSizeError):
            variance_sample_mean(p, 5)

    def test_unknown_population_size_rejected(self):
        p = params_from_moments(3.36, 0.1236, 0.766, 0.604, 2.19)
        with pytest.raises(MissingPopulationSizeError):
            variance_sample_mean(p, 10)
