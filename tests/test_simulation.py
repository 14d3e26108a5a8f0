"""Verification engine: SRSWOR draws, enumeration, Monte Carlo, synthesis."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from estlab import (
    DegeneratePopulationError,
    DegenerateSampleError,
    EstimatorId,
    EstlabError,
    FinitePopulation,
    InvalidSampleSizeError,
    InvalidSyntheticSpecError,
    SampleData,
    SimConfig,
    SyntheticSpec,
    TooManySamplesError,
    UndefinedConstantError,
    UndefinedEstimateError,
    compute_params,
    compute_sample_stats,
    draw_srswor,
    enumerate_all_samples,
    estimate_named,
    monte_carlo,
    mse_proposed,
    synthesize_population,
    variance_sample_mean,
)
from estlab import simulation
from estlab.estimators import FAMILY_FORMS, resolve_form

DEFAULT_BATCH_ELEMENTS = simulation._BATCH_ELEMENTS

FOUR_UNITS = FinitePopulation(y=np.array([1.0, 2.0, 3.0, 4.0]), phi=np.array([0, 0, 1, 1]))

# rho_pb = -0.25 and P = 0.4, so t4's denominator p + rho_pb is zero at
# p = 1/4; no 4-subset has a constant attribute.
ZERO_T4_AT_A1 = FinitePopulation(y=np.array([3.0, 0.0, 2.0, 2.0, 2.0]), phi=np.array([1, 1, 0, 0, 0]))

# rho_pb is exactly -1/3 and P = 1/4: at n = 3, t4 is undefined on the three
# subsets holding one attribute unit, subset 0 among them.
ZERO_T4_FIRST = FinitePopulation(y=np.array([1.0, 1.0, 1.0, 2.0]), phi=np.array([1, 0, 0, 0]))

# rho_pb is exactly 0, so t8 and t10 (m1 = rho_pb) have no defined form.
UNCORRELATED = FinitePopulation(y=np.array([1.0, 2.0, 2.0, 1.0, 3.0, 3.0]), phi=np.array([1, 1, 0, 0, 0, 1]))


def brute_force_rows(pop, samples, estimators):
    """Independent scalar oracle: evaluate the sample mean and each
    estimator with the scalar API on every sample in ``samples`` (arrays of
    unit indices).

    A sample with a constant attribute, or one the scalar estimator rejects
    with a zero denominator, is counted as skipped by the estimator rows.
    """
    params = compute_params(pop)
    true_mean = float(pop.y.mean())
    stats = [compute_sample_stats(SampleData(y=pop.y[idx], phi=pop.phi[idx])) for idx in samples]
    values = {"mean": [s.ybar for s in stats]}
    for estimator in estimators:
        values[estimator.value] = []
        for s in stats:
            if s.p in (0.0, 1.0):
                continue
            try:
                values[estimator.value].append(estimate_named(s, params.P, estimator, params))
            except UndefinedEstimateError:
                pass
    out = {}
    for label, v in values.items():
        deviations = np.array(v) - true_mean
        out[label] = {
            "mean": float(np.mean(v)),
            "bias": float(np.mean(deviations)),
            "mse": float(np.mean(deviations**2)),
            "skipped": len(stats) - len(v),
            "kept": len(v),
        }
    return out


def replicate_units(N, n, seed, i):
    """The units of Monte Carlo replicate i drawn alone: the n smallest of
    the N deviates in its slice of the keyed Philox stream."""
    bits = np.random.Philox(key=seed)
    bits.advance(i * -(-N // 4))
    return np.argsort(np.random.Generator(bits).random(N))[:n]


def exact_rows(pop, n):
    """Exact rational oracle: bias, MSE and skip count of every row over all
    n-subsets, each estimate evaluated in Fractions from the float data.

    The constants (m1, m2) are the float ones the library resolves, and a
    row is skipped where the scalar estimators refuse it: a constant sample
    attribute, or a zero float denominator ``m1*p + m2``.
    """
    params = compute_params(pop)
    ys = [Fraction(float(v)) for v in pop.y]
    Ybar = sum(ys) / pop.N
    P = Fraction(pop.attribute_count, pop.N)
    # NG is t1's form (1, 0) without the slope.
    forms = {e: resolve_form(FAMILY_FORMS[e if e is not EstimatorId.NG else EstimatorId.T1], params)
             for e in EstimatorId}
    deviations = {"mean": [], **{e.value: [] for e in EstimatorId}}
    skipped = dict.fromkeys(deviations, 0)
    for subset in combinations(range(pop.N), n):
        held = [ys[i] for i in subset if pop.phi[i]]
        rest = [ys[i] for i in subset if not pop.phi[i]]
        ybar = (sum(held) + sum(rest)) / n
        deviations["mean"].append(ybar - Ybar)
        a = len(held)
        for e, (m1, m2) in forms.items():
            if a in (0, n) or m1 * (a / n) + m2 == 0.0:
                skipped[e.value] += 1
                continue
            p = Fraction(a, n)
            b = 0 if e is EstimatorId.NG else sum(held) / a - sum(rest) / (n - a)
            k1, k2 = Fraction(m1), Fraction(m2)
            t = ybar if p == P else (ybar + b * (P - p)) / (k1 * p + k2) * (k1 * P + k2)
            deviations[e.value].append(t - Ybar)
    out = {}
    for label, d in deviations.items():
        kept = len(d)
        out[label] = {
            "bias": float(sum(d) / kept) if kept else math.nan,
            "mse": float(sum(v * v for v in d) / kept) if kept else math.nan,
            "skipped": skipped[label],
        }
    return out, float(Ybar)


def first_undefined_subset(pop, n, estimators):
    """Brute-force oracle for the error policy: the message and position of
    the first subset, in itertools.combinations order, on which some
    requested row is undefined, or None.  Raises UndefinedConstantError for
    a requested form with no defined constants, as the engine does."""
    params = compute_params(pop)
    forms = [
        (e.value, resolve_form(FAMILY_FORMS[e if e is not EstimatorId.NG else EstimatorId.T1], params))
        for e in EstimatorId
        if e in estimators
    ]
    for index, subset in enumerate(combinations(range(pop.N), n)):
        a = int(pop.phi[list(subset)].sum())
        if a in (0, n):
            return f"sample attribute is constant (p is 0 or 1) (replicate {index})", index
        for label, (m1, m2) in forms:
            if m1 * (a / n) + m2 == 0.0:
                return f"zero denominator for {label} (replicate {index})", index
    return None


class TestDrawSrswor:
    def test_census_returns_whole_population(self):
        rng = np.random.default_rng(0)
        sample = draw_srswor(FOUR_UNITS, 4, rng)
        assert sorted(sample.y.tolist()) == [1.0, 2.0, 3.0, 4.0]

    def test_replay_is_deterministic(self):
        a = draw_srswor(FOUR_UNITS, 2, np.random.Generator(np.random.Philox(key=99)))
        b = draw_srswor(FOUR_UNITS, 2, np.random.Generator(np.random.Philox(key=99)))
        assert a.y.tolist() == b.y.tolist()
        assert a.phi.tolist() == b.phi.tolist()

    def test_out_of_range_sizes(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidSampleSizeError):
            draw_srswor(FOUR_UNITS, 1, rng)
        with pytest.raises(InvalidSampleSizeError):
            draw_srswor(FOUR_UNITS, 5, rng)

    def test_inclusion_probabilities_uniform(self):
        # N=10, n=3: every unit's inclusion frequency over 100k draws should
        # sit within 3 binomial standard errors of 0.3.  The y values double
        # as unit identifiers.
        pop = FinitePopulation(y=np.arange(10, dtype=float), phi=np.array([0, 1] * 5))
        draws = 100_000
        rng = np.random.Generator(np.random.Philox(key=1234))
        counts = np.zeros(pop.N, dtype=np.int64)
        for _ in range(draws):
            sample = draw_srswor(pop, 3, rng)
            counts[sample.y.astype(np.intp)] += 1
        se = math.sqrt(0.3 * 0.7 / draws)
        for unit in range(pop.N):
            assert abs(counts[unit] / draws - 0.3) < 3 * se


class TestEnumerateFourUnits:
    """The 6 subsets of the 4-unit population, listed by hand.

    (1,2): p=0, degenerate.     (1,3): ybar=2.0, p=1/2
    (1,4): ybar=2.5, p=1/2      (2,3): ybar=2.5, p=1/2
    (2,4): ybar=3.0, p=1/2      (3,4): p=1, degenerate.
    Every kept sample has p = P = 1/2, so the plain ratio estimate and every
    family estimate collapse to ybar, giving mean 2.5, bias 0, and
    mse = ((-.5)^2 + 0 + 0 + .5^2)/4 = 0.125.
    """

    def test_ng_row_hand_values(self):
        result = enumerate_all_samples(FOUR_UNITS, 2, [EstimatorId.NG])
        row = result.row("ng")
        assert row.empirical_mean == 2.5
        assert row.empirical_bias == 0.0
        assert row.empirical_mse == 0.125
        assert row.degenerate_count == 2
        assert row.effective_replicates == 4
        assert result.samples == 6

    def test_family_rows_match_ng_here(self):
        result = enumerate_all_samples(FOUR_UNITS, 2, [EstimatorId.T1, EstimatorId.T5])
        for label in ("t1", "t5"):
            row = result.row(label)
            assert row.empirical_mse == 0.125
            assert row.degenerate_count == 2

    def test_mean_row_exact_over_all_subsets(self):
        # ybar over the 6 subsets: 1.5, 2, 2.5, 2.5, 3, 3.5; mean 2.5 and
        # mse (1 + .25 + 0 + 0 + .25 + 1)/6 = 5/12.
        result = enumerate_all_samples(FOUR_UNITS, 2, [])
        row = result.row("mean")
        assert row.empirical_mean == 2.5
        assert row.empirical_bias == 0.0
        assert row.empirical_mse == pytest.approx(5.0 / 12.0, rel=1e-15)
        assert row.degenerate_count == 0
        assert row.effective_replicates == 6

    def test_mean_mse_is_design_variance_identity(self):
        params = compute_params(FOUR_UNITS)
        result = enumerate_all_samples(FOUR_UNITS, 2, [])
        assert result.row("mean").empirical_mse == pytest.approx(
            variance_sample_mean(params, 2), rel=1e-14
        )

    def test_unknown_row_label_raises_key_error(self):
        result = enumerate_all_samples(FOUR_UNITS, 2, [EstimatorId.NG])
        with pytest.raises(KeyError, match="no row for estimator 'nope'"):
            result.row("nope")


class TestEnumerateGeneral:
    def test_matches_scalar_brute_force(self):
        # The second population has P = 0.4, so its 5-subsets holding two
        # attribute units hit the p == P collapse.  Then two edge shapes of
        # the per-group tables: n = N - 1, where each count a pairs one
        # holder subset size with one non-holder size, and n = 2 at N = 40.
        # The last one has zero-denominator samples for t4 (2 of 5 subsets).
        rng = np.random.default_rng(77)
        cases = [
            (FinitePopulation(y=rng.normal(12.0, 4.0, 9), phi=np.array([1] * 4 + [0] * 5)), 3),
            (FinitePopulation(y=rng.normal(12.0, 4.0, 10), phi=np.array([1] * 4 + [0] * 6)), 5),
            (FinitePopulation(y=rng.normal(12.0, 4.0, 9), phi=np.array([0, 1] * 4 + [1])), 8),
            (FinitePopulation(y=rng.normal(12.0, 4.0, 40), phi=np.array([1] * 13 + [0] * 27)), 2),
            (ZERO_T4_AT_A1, 4),
        ]
        wanted = list(EstimatorId)
        for pop, n in cases:
            oracle = brute_force_rows(pop, [np.array(c) for c in combinations(range(pop.N), n)], wanted)
            result = enumerate_all_samples(pop, n, wanted)
            for estimator in wanted:
                row = result.row(estimator)
                expected = oracle[estimator.value]
                assert row.empirical_mean == pytest.approx(expected["mean"], rel=1e-12)
                assert row.empirical_mse == pytest.approx(expected["mse"], rel=1e-12)
                assert row.degenerate_count == expected["skipped"]
                assert row.effective_replicates == expected["kept"]

    def test_matches_exact_rational_evaluation(self):
        # Four holders among ten units; at n = 5 the samples holding two
        # hit the p == P collapse.  The 1e6 offset makes every ratio row's
        # deviation mostly (K(a) - 1) * Ybar.  ZERO_T4_FIRST has samples on
        # which t4's denominator is zero.  Then the edge shapes of the
        # per-group moment tables: one holder; one non-holder; n above both
        # group sizes, so the counts a = 0, 5, 6 and 7 have no subsets;
        # n = N - 1; and one holder under a 1e6 offset.
        rng = np.random.default_rng(2024)
        phi = np.array([1] * 4 + [0] * 6)
        noise = rng.normal(0.0, 1.0, 10)
        cases = [
            (FinitePopulation(y=offset + 2.0 * phi + noise, phi=phi), n)
            for offset in (50.0, 1e6)
            for n in (4, 5)
        ]
        cases.append((ZERO_T4_FIRST, 3))

        def population(phi, offset=20.0):
            phi = np.array(phi)
            return FinitePopulation(y=offset + 3.0 * phi + rng.normal(0.0, 1.0, phi.size), phi=phi)

        cases += [
            (population([1] + [0] * 8), 4),
            (population([1] * 8 + [0]), 4),
            (population([0, 1] * 2 + [1, 1] + [0] * 4), 7),
            (population([1] * 4 + [0] * 5), 8),
            (population([0] * 5 + [1] + [0] * 4, offset=1e6), 3),
        ]
        for pop, n in cases:
            oracle, Ybar = exact_rows(pop, n)
            result = enumerate_all_samples(pop, n, list(EstimatorId))
            assert len(result.rows) == 12
            assert type(result.samples) is int and result.samples == math.comb(pop.N, n)
            for row in result.rows:
                expected = oracle[row.estimator]
                assert type(row.degenerate_count) is int and type(row.effective_replicates) is int
                assert row.degenerate_count == expected["skipped"]
                assert row.effective_replicates + row.degenerate_count == result.samples
                if not row.effective_replicates:
                    continue
                assert row.empirical_mse == pytest.approx(expected["mse"], rel=1e-12, abs=0.0)
                assert abs(row.empirical_bias - expected["bias"]) <= 1e-12 * abs(Ybar)

    def test_skip_accounting_hypergeometric(self):
        # Degenerate subsets are exactly those drawn entirely inside or
        # entirely outside the attribute class: C(N-A, n) + C(A, n).
        pop = FinitePopulation(y=np.arange(11, dtype=float), phi=np.array([1] * 4 + [0] * 7))
        n = 3
        expected = math.comb(7, 3) + math.comb(4, 3)
        result = enumerate_all_samples(pop, n, [EstimatorId.NG, EstimatorId.T2])
        for label in ("ng", "t2"):
            assert result.row(label).degenerate_count == expected
            assert result.row(label).effective_replicates == math.comb(11, 3) - expected

    def test_unbiasedness_of_sample_mean_exact(self):
        rng = np.random.default_rng(5)
        pop = FinitePopulation(y=rng.normal(50.0, 9.0, 12), phi=np.array([0, 1] * 6))
        result = enumerate_all_samples(pop, 5, [])
        row = result.row("mean")
        assert abs(row.empirical_bias) < 1e-12 * abs(result.true_mean)
        assert row.degenerate_count == 0

    def test_guard_rejects_large_enumerations(self):
        pop = FinitePopulation(y=np.arange(30, dtype=float), phi=np.array([0, 1] * 15))
        with pytest.raises(TooManySamplesError, match=str(math.comb(30, 15))):
            enumerate_all_samples(pop, 15, [EstimatorId.NG])

    def test_error_policy_raises_with_index(self):
        with pytest.raises(DegenerateSampleError) as excinfo:
            enumerate_all_samples(FOUR_UNITS, 2, [EstimatorId.NG], degenerate_policy="error")
        assert excinfo.value.replicate == 0  # subset (1,2) comes first

    def test_error_policy_index_follows_lexicographic_order(self):
        # The first constant-attribute pair, (0, 2), is subset 1 in
        # itertools.combinations order, after (0, 1).
        pop = FinitePopulation(y=np.arange(6, dtype=float), phi=np.array([1, 0, 1, 0, 0, 0]))
        subsets = list(combinations(range(pop.N), 2))
        first = next(i for i, s in enumerate(subsets) if len({int(pop.phi[j]) for j in s}) == 1)
        assert first == 1
        with pytest.raises(DegenerateSampleError) as excinfo:
            enumerate_all_samples(pop, 2, [EstimatorId.NG], degenerate_policy="error")
        assert excinfo.value.replicate == first

    def test_error_policy_stops_at_first_undefined_sample(self):
        # Subset 0 has one holder, where t4 divides by zero; the first
        # constant-attribute subset comes later.
        with pytest.raises(DegenerateSampleError, match="zero denominator for t4") as excinfo:
            enumerate_all_samples(ZERO_T4_FIRST, 3, [EstimatorId.T4], degenerate_policy="error")
        assert excinfo.value.replicate == 0

    def test_error_policy_index_matches_brute_force(self):
        # Small integer study values make exact zero denominators likely;
        # each population asks for a random set of rows.
        rng = np.random.default_rng(11)
        cases = [(ZERO_T4_FIRST, 3, list(EstimatorId)), (ZERO_T4_AT_A1, 4, list(EstimatorId))]
        while len(cases) < 202:
            N = int(rng.integers(4, 12))
            holders = int(rng.integers(1, N))
            phi = rng.permutation(np.array([1] * holders + [0] * (N - holders)))
            y = rng.integers(0, 4, N).astype(float)
            if np.ptp(y) == 0.0:
                continue
            wanted = [e for e in EstimatorId if rng.random() < 0.5] or [EstimatorId.T4]
            cases.append((FinitePopulation(y=y, phi=phi), int(rng.integers(2, N)), wanted))
        for pop, n, wanted in cases:
            try:
                expected = first_undefined_subset(pop, n, wanted)
            except UndefinedConstantError:
                with pytest.raises(UndefinedConstantError):
                    enumerate_all_samples(pop, n, wanted, degenerate_policy="error")
                continue
            if expected is None:
                result = enumerate_all_samples(pop, n, wanted, degenerate_policy="error")
                assert all(row.degenerate_count == 0 for row in result.rows)
                continue
            with pytest.raises(DegenerateSampleError) as excinfo:
                enumerate_all_samples(pop, n, wanted, degenerate_policy="error")
            assert (str(excinfo.value), excinfo.value.replicate) == expected

    def test_subset_sum_moments_match_every_subset(self):
        # Powers of two give every subset a distinct sum; k = G + 1 has none.
        for G in (1, 2, 7):
            values = 2.0 ** np.arange(G)
            k = np.arange(G + 2)
            count, mean, m2 = simulation._subset_sum_moments(values, k)
            for j in k.tolist():
                sums = np.array([sum(values[list(c)]) for c in combinations(range(G), j)])
                assert count[j] == sums.size == math.comb(G, j)
                if not sums.size:
                    assert m2[j] == 0.0
                    continue
                assert mean[j] == pytest.approx(sums.mean(), rel=1e-15, abs=1e-15)
                assert m2[j] == pytest.approx(np.square(sums - sums.mean()).sum(), rel=1e-13, abs=1e-13)

    def test_undefined_form_row_skips_every_sample(self):
        result = enumerate_all_samples(UNCORRELATED, 3)
        for label in ("t8", "t10"):
            row = result.row(label)
            assert (row.effective_replicates, row.degenerate_count) == (0, result.samples)
            assert math.isnan(row.empirical_mse) and row.empirical_pre is None
        others = [e for e in EstimatorId if e.value not in ("t8", "t10")]
        assert enumerate_all_samples(UNCORRELATED, 3, others).rows == tuple(
            r for r in result.rows if r.estimator not in ("t8", "t10")
        )
        with pytest.raises(UndefinedConstantError):
            enumerate_all_samples(UNCORRELATED, 3, degenerate_policy="error")

    def test_scalar_path_rejects_undefined_form_where_p_equals_P(self):
        # P = 1/2 and the first four units hold two holders, so p == P.  The
        # scalar t8 must be undefined there too, not collapse to ybar.
        params = compute_params(UNCORRELATED)
        stats = compute_sample_stats(SampleData(y=UNCORRELATED.y[:4], phi=UNCORRELATED.phi[:4]))
        assert stats.p == params.P
        with pytest.raises(UndefinedConstantError):
            estimate_named(stats, params.P, EstimatorId.T8, params)
        assert enumerate_all_samples(UNCORRELATED, 4, [EstimatorId.T8]).row("t8").effective_replicates == 0

    def test_error_policy_ignores_mean_only_runs(self):
        result = enumerate_all_samples(FOUR_UNITS, 2, [], degenerate_policy="error")
        assert result.row("mean").effective_replicates == 6

    def test_unknown_policy_rejected(self):
        pop = FinitePopulation(y=np.arange(8, dtype=float), phi=np.array([1, 0, 0, 0, 0, 0, 0, 1]))
        with pytest.raises(ValueError, match="policy must be 'skip' or 'error', got 'eror'"):
            enumerate_all_samples(pop, 3, degenerate_policy="eror")

    def test_mse_dominates_squared_bias(self):
        rng = np.random.default_rng(21)
        pop = FinitePopulation(y=rng.normal(30.0, 5.0, 10), phi=np.array([1] * 3 + [0] * 7))
        result = enumerate_all_samples(pop, 4, list(EstimatorId))
        for row in result.rows:
            if row.effective_replicates:
                assert row.empirical_mse >= row.empirical_bias**2 - 1e-12


class TestMonteCarlo:
    def test_bit_identical_rerun(self):
        pop = synthesize_population(SyntheticSpec(N=20, P_target=0.4, intercept=6, attribute_effect=2), seed=3)
        config = SimConfig(n=5, replicates=4000, seed=11, estimators=(EstimatorId.NG, EstimatorId.T2))
        assert monte_carlo(pop, config) == monte_carlo(pop, config)

    def test_batch_partition_is_immaterial(self, monkeypatch):
        # ~6% of the samples have a constant attribute and are skipped.
        pop = synthesize_population(SyntheticSpec(N=12, P_target=0.5, attribute_effect=2.0), seed=1)
        config = SimConfig(n=4, replicates=5000, seed=11)
        large = monte_carlo(pop, config)  # one chunk
        # The chunk is _BATCH_ELEMENTS // (4 * N) rows: 7 here.
        monkeypatch.setattr(simulation, "_BATCH_ELEMENTS", 4 * pop.N * 7)
        small = monte_carlo(pop, config)
        assert len(small.rows) == 12
        assert 0 < large.row("t2").degenerate_count < large.samples
        for a, b in zip(small.rows, large.rows):
            assert a.estimator == b.estimator
            assert a.effective_replicates == b.effective_replicates
            assert a.degenerate_count == b.degenerate_count
            assert a.empirical_mse == pytest.approx(b.empirical_mse, rel=1e-12)
            assert a.empirical_bias == pytest.approx(b.empirical_bias, rel=1e-9, abs=1e-12)

    def test_first_replicate_matches_single_draw(self):
        # Replicate i is a pure function of (seed, i); replicate 0 must agree,
        # row by row, with the scalar estimators on a fresh single draw from
        # the same keyed generator, and be skipped exactly where the sample
        # attribute is constant or the scalar estimator fails.
        pop = synthesize_population(SyntheticSpec(N=12, P_target=0.5, attribute_effect=2.0), seed=1)
        params = compute_params(pop)
        constant = 0
        for seed in range(200):
            stats = compute_sample_stats(draw_srswor(pop, 4, np.random.Generator(np.random.Philox(key=seed))))
            result = monte_carlo(pop, SimConfig(n=4, replicates=1, seed=seed))
            constant += stats.p in (0.0, 1.0)
            for e in EstimatorId:
                row = result.row(e)
                try:
                    expected = estimate_named(stats, params.P, e, params)
                except EstlabError:
                    expected = None
                if stats.p in (0.0, 1.0) or expected is None:
                    assert (row.effective_replicates, row.degenerate_count) == (0, 1), (seed, e)
                else:
                    assert row.effective_replicates == 1, (seed, e)
                    assert row.empirical_mean == pytest.approx(expected, rel=1e-12, abs=0.0), (seed, e)
        assert 0 < constant < 200

    def test_every_replicate_matches_scalar_estimators(self, monkeypatch):
        # Each replicate rebuilt alone from its slice of the Philox stream;
        # every row, the sample mean included, must match the scalar
        # estimators over those samples, across 7-row chunks.
        pop = synthesize_population(SyntheticSpec(N=13, P_target=0.4, intercept=6.0, attribute_effect=2.0), seed=2)
        n, replicates = 4, 200
        monkeypatch.setattr(simulation, "_BATCH_ELEMENTS", 4 * pop.N * 7)
        for seed in (1, 2, 3):
            samples = [replicate_units(pop.N, n, seed, i) for i in range(replicates)]
            oracle = brute_force_rows(pop, samples, list(EstimatorId))
            result = monte_carlo(pop, SimConfig(n=n, replicates=replicates, seed=seed))
            assert len(result.rows) == 12
            assert 0 < result.row("t2").degenerate_count < replicates
            for row in result.rows:
                expected = oracle[row.estimator]
                assert row.effective_replicates == expected["kept"], (seed, row.estimator)
                assert row.empirical_mse == pytest.approx(expected["mse"], rel=1e-12), (seed, row.estimator)
                assert row.empirical_bias == pytest.approx(
                    expected["bias"], rel=1e-9, abs=1e-12 * abs(result.true_mean)
                ), (seed, row.estimator)

    def test_mean_only_runs_need_no_population_parameters(self):
        # The population mean is zero, so compute_params refuses it; the
        # sample-mean row alone must not ask for it, in either engine.
        pop = FinitePopulation(y=[-1.0, 1.0, -2.0, 2.0, 0.0], phi=[1, 0, 1, 0, 1])
        with pytest.raises(DegeneratePopulationError):
            compute_params(pop)
        sampled = monte_carlo(pop, SimConfig(n=2, replicates=100, estimators=()))
        exact = enumerate_all_samples(pop, 2, ())
        assert [r.estimator for r in sampled.rows] == [r.estimator for r in exact.rows] == ["mean"]
        assert sampled.row("mean").effective_replicates == 100
        assert exact.row("mean").effective_replicates == 10

    def test_seed_changes_results(self):
        pop = synthesize_population(SyntheticSpec(N=20, P_target=0.4, intercept=6, attribute_effect=2), seed=3)
        a = monte_carlo(pop, SimConfig(n=5, replicates=2000, seed=1, estimators=(EstimatorId.T2,)))
        b = monte_carlo(pop, SimConfig(n=5, replicates=2000, seed=2, estimators=(EstimatorId.T2,)))
        assert a.row("t2").empirical_mse != b.row("t2").empirical_mse

    def test_sample_mean_mse_matches_design_variance(self):
        # 10^5 replicates put the empirical MSE of ybar within 5% of the
        # closed-form design variance.
        pop = synthesize_population(
            SyntheticSpec(N=60, P_target=0.35, intercept=8.0, attribute_effect=3.0, noise_sd=2.0),
            seed=17,
        )
        params = compute_params(pop)
        config = SimConfig(n=12, replicates=100_000, seed=5, estimators=())
        row = monte_carlo(pop, config).row("mean")
        assert row.empirical_mse == pytest.approx(variance_sample_mean(params, 12), rel=0.05)

    def test_agrees_with_enumeration_small_population(self):
        pop = synthesize_population(
            SyntheticSpec(N=8, P_target=0.5, intercept=5.0, attribute_effect=2.0, noise_sd=1.0),
            seed=2,
        )
        wanted = (EstimatorId.NG, EstimatorId.T2)
        exact = enumerate_all_samples(pop, 7, wanted)
        config = SimConfig(n=7, replicates=200_000, seed=8, estimators=wanted)
        sampled = monte_carlo(pop, config)
        for label in ("mean", "ng", "t2"):
            assert sampled.row(label).empirical_mse == pytest.approx(
                exact.row(label).empirical_mse, rel=0.05
            )

    def test_error_policy_reports_replicate_index(self):
        pop = FinitePopulation(y=np.arange(10, dtype=float), phi=np.array([1] + [0] * 9))
        config = SimConfig(n=3, replicates=5000, seed=0, estimators=(EstimatorId.T1,), degenerate_policy="error")
        with pytest.raises(DegenerateSampleError) as excinfo:
            monte_carlo(pop, config)
        assert excinfo.value.replicate is not None
        # The run is deterministic, so the failing replicate is stable too.
        with pytest.raises(DegenerateSampleError) as again:
            monte_carlo(pop, config)
        assert again.value.replicate == excinfo.value.replicate

    def test_error_policy_replicate_does_not_depend_on_chunk(self, monkeypatch):
        config = SimConfig(n=3, replicates=200, seed=0, estimators=(EstimatorId.T4,), degenerate_policy="error")
        found = []
        for elements in (DEFAULT_BATCH_ELEMENTS, 4 * ZERO_T4_FIRST.N):  # default, then one-row chunks
            monkeypatch.setattr(simulation, "_BATCH_ELEMENTS", elements)
            with pytest.raises(DegenerateSampleError) as excinfo:
                monte_carlo(ZERO_T4_FIRST, config)
            found.append((str(excinfo.value), excinfo.value.replicate))
        assert found == [("zero denominator for t4 (replicate 0)", 0)] * 2

    def test_rejects_census_and_undersized(self):
        pop = FOUR_UNITS
        with pytest.raises(InvalidSampleSizeError):
            monte_carlo(pop, SimConfig(n=4, replicates=10, seed=0))
        with pytest.raises(ValueError):
            SimConfig(n=2, replicates=0, seed=0)

    def test_theory_convergence_with_growing_n(self):
        # With n/N fixed at 0.1, the first-order family MSE gets relatively
        # closer to the empirical MSE as n grows.
        errors = {}
        for n_pop, n in ((100, 10), (400, 40)):
            pop = synthesize_population(
                SyntheticSpec(N=n_pop, P_target=0.5, intercept=10.0, attribute_effect=5.0, noise_sd=1.0),
                seed=4,
            )
            params = compute_params(pop)
            config = SimConfig(n=n, replicates=200_000, seed=12, estimators=(EstimatorId.T2,))
            empirical = monte_carlo(pop, config).row("t2").empirical_mse
            theoretical = mse_proposed(params, n, EstimatorId.T2)
            errors[n] = abs(empirical - theoretical) / theoretical
        assert errors[40] < errors[10]


class TestThreadedSampling:
    """Chunks are drawn on ``simulation._WORKERS`` threads; patching it runs
    the threaded path on any host."""

    # N=2000 makes the default chunk 500 rows, so 1300 replicates span
    # three chunks; the narrow population has ~6% degenerate samples.
    WIDE = synthesize_population(SyntheticSpec(N=2000, P_target=0.3, attribute_effect=2.0), seed=1)
    NARROW = synthesize_population(SyntheticSpec(N=12, P_target=0.5, attribute_effect=2.0), seed=1)
    # Under the error policy the first degenerate replicate is 429, in the
    # fourth chunk of 137 rows.
    SPLIT = FinitePopulation(y=np.arange(20, dtype=float), phi=np.array([1] * 10 + [0] * 10))
    SPLIT_ERROR = SimConfig(n=7, replicates=3000, seed=4, estimators=(EstimatorId.T1,), degenerate_policy="error")

    def run_with_workers(self, monkeypatch, workers, pop, config, chunk_rows=None):
        """Run on ``workers`` threads, in chunks of ``chunk_rows`` rows (default: N's chunk)."""
        monkeypatch.setattr(simulation, "_WORKERS", workers)
        elements = DEFAULT_BATCH_ELEMENTS if chunk_rows is None else 4 * pop.N * chunk_rows
        monkeypatch.setattr(simulation, "_BATCH_ELEMENTS", elements)
        return monte_carlo(pop, config)

    def test_worker_count_never_changes_results(self, monkeypatch):
        cases = [
            (self.WIDE, SimConfig(n=100, replicates=1300, seed=5), None),
            (self.WIDE, SimConfig(n=100, replicates=1300, seed=5), 137),
            (self.NARROW, SimConfig(n=4, replicates=3000, seed=6), 137),
        ]
        for pop, config, rows in cases:
            results = [
                self.run_with_workers(monkeypatch, w, pop, config, chunk_rows=rows) for w in (1, 2, 3)
            ]
            assert results[0] == results[1] == results[2]

    def test_many_workers_under_frequent_switches(self, monkeypatch):
        # More threads than cores and a short switch interval: a chunk claimed
        # twice or lost would change the result or hang the run.
        config = SimConfig(n=4, replicates=3000, seed=6)
        expected = self.run_with_workers(monkeypatch, 1, self.NARROW, config, chunk_rows=7)
        found = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(
                target=lambda: found.append(
                    self.run_with_workers(monkeypatch, 8, self.NARROW, config, chunk_rows=7)
                ),
                daemon=True,
            )
            caller.start()
            caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive(), "threaded run did not finish"
        assert found == [expected]

    def test_worker_count_never_changes_first_degenerate_index(self, monkeypatch):
        found = []
        for workers in (1, 2, 3):
            with pytest.raises(DegenerateSampleError) as excinfo:
                self.run_with_workers(monkeypatch, workers, self.SPLIT, self.SPLIT_ERROR, chunk_rows=137)
            found.append(excinfo.value.replicate)
        assert found == [429, 429, 429]

    def test_at_most_workers_chunks_run_ahead(self, monkeypatch):
        # The run stops in chunk 3 of 22, so four chunks are consumed; a pool
        # that drew every chunk up front would record all 22.
        real = simulation._sample_chunk
        calls = []

        def recording(cols, n, seed, start, count):
            calls.append(start)
            return real(cols, n, seed, start, count)

        monkeypatch.setattr(simulation, "_sample_chunk", recording)
        for workers in (2, 3, 4):
            calls.clear()
            with pytest.raises(DegenerateSampleError) as excinfo:
                self.run_with_workers(monkeypatch, workers, self.SPLIT, self.SPLIT_ERROR, chunk_rows=137)
            assert excinfo.value.replicate == 429
            assert len(calls) <= 4 + workers

    def test_no_thread_outlives_an_aborted_run(self, monkeypatch):
        before = threading.active_count()
        with pytest.raises(DegenerateSampleError) as excinfo:
            self.run_with_workers(monkeypatch, 3, self.SPLIT, self.SPLIT_ERROR, chunk_rows=137)
        # Checked while the traceback, and with it the run's frames, is alive.
        assert threading.active_count() == before
        assert excinfo.value.replicate == 429

    def test_failing_chunk_reaches_the_caller(self, monkeypatch):
        real = simulation._sample_chunk

        def fail_on_chunk_2(cols, n, seed, start, count):
            if start == 2 * 137:
                raise RuntimeError("chunk 2 failed")
            return real(cols, n, seed, start, count)

        monkeypatch.setattr(simulation, "_sample_chunk", fail_on_chunk_2)
        before = threading.active_count()
        outcome = []

        def call():
            try:
                self.run_with_workers(monkeypatch, 2, self.NARROW, SimConfig(n=4, replicates=3000), chunk_rows=137)
            except RuntimeError as exc:
                outcome.append(str(exc))

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive(), "monte_carlo hung after a worker failed"
        assert outcome == ["chunk 2 failed"]
        assert threading.active_count() == before

    def test_runs_load_no_numpy_ma(self):
        # np.unique imports numpy.ma, which costs ~1.2 MB of peak RSS; a
        # fresh interpreter shows what a multi-chunk run and an enumeration
        # import.
        script = """
import sys
from estlab import SimConfig, SyntheticSpec, enumerate_all_samples, monte_carlo, synthesize_population
pop = synthesize_population(SyntheticSpec(N=200, P_target=0.3), seed=1)
assert len(monte_carlo(pop, SimConfig(n=40, replicates=12_000)).rows) == 12  # three chunks
assert len(enumerate_all_samples(pop, 2).rows) == 12
print("numpy.ma" in sys.modules)
"""
        src = os.path.dirname(os.path.dirname(os.path.abspath(simulation.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestChunkSampling:
    """``_sample_chunk`` draws a chunk in passes of about
    ``simulation._PASS_DEVIATES`` deviates; neither the pass nor the chunk
    may change which units a replicate selects or what its sums are."""

    @staticmethod
    def exact_columns(N):
        # Integer-valued columns: every sum is exact in any order, so ``==``
        # checks the selected units and not the summation order.
        units = np.arange(N, dtype=float)
        return np.stack([units % 2, units, units * units])

    @staticmethod
    def replicate_sums(cols, n, seed, i):
        """The sums of replicate i drawn alone."""
        return cols[:, replicate_units(cols.shape[1], n, seed, i)].sum(axis=1)

    @pytest.mark.parametrize("N, n", [(5, 2), (13, 4), (2001, 100)])
    def test_chunk_sums_match_single_draws(self, N, n):
        cols, seed = self.exact_columns(N), 7
        stride = 4 * -(-N // 4)  # N = 5, 13 and 2001 are padded
        rows = DEFAULT_BATCH_ELEMENTS // (4 * N)  # the chunk
        pass_rows = max(1, simulation._PASS_DEVIATES // stride)
        # Chunk 0, then chunk 1 through its first pass boundary.
        chunks = [(0, rows), (rows, pass_rows + 1)]
        checked = {pass_rows - 1, pass_rows, rows - 1, rows, rows + pass_rows - 1, rows + pass_rows}
        for start, count in chunks:
            sums = simulation._sample_chunk(cols, n, seed, start, count)
            assert sums.shape == (3, count)
            for i in sorted(j for j in checked if start <= j < start + count):
                expected = self.replicate_sums(cols, n, seed, i)
                assert [s[i - start] for s in sums] == expected.tolist(), f"replicate {i}"

    # One deviate (one row a pass), N + 1 for the 12-unit NARROW, and one
    # pass a chunk.
    @pytest.mark.parametrize("deviates", [1, 13, 1 << 40])
    def test_pass_size_is_immaterial(self, monkeypatch, deviates):
        # ~6% of the NARROW samples have a constant attribute and are skipped.
        narrow, split = TestThreadedSampling.NARROW, TestThreadedSampling.SPLIT
        config = SimConfig(n=4, replicates=5000, seed=11)
        expected = monte_carlo(narrow, config)
        with pytest.raises(DegenerateSampleError) as first:
            monte_carlo(split, TestThreadedSampling.SPLIT_ERROR)
        monkeypatch.setattr(simulation, "_PASS_DEVIATES", deviates)
        assert monte_carlo(narrow, config) == expected
        assert 0 < expected.row("t2").degenerate_count < expected.samples
        with pytest.raises(DegenerateSampleError) as again:
            monte_carlo(split, TestThreadedSampling.SPLIT_ERROR)
        assert again.value.replicate == first.value.replicate == 429

    @pytest.mark.parametrize("N, n, count", [(2000, 100, 500), (12, 4, 83_333)])
    def test_one_chunk_holds_one_pass(self, N, n, count):
        # Only the (3, count) sums scale with the chunk; the deviates and
        # indices are one pass, well under a MB.
        cols = self.exact_columns(N)
        simulation._sample_chunk(cols, n, 3, 0, 2)  # warm numpy's caches
        tracemalloc.start()
        try:
            simulation._sample_chunk(cols, n, 3, 0, count)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * count + 2**20


class TestSynthesize:
    def test_exact_attribute_count(self):
        pop = synthesize_population(SyntheticSpec(N=100, P_target=0.5), seed=0)
        assert pop.attribute_count == 50

    def test_rounding_half_up(self):
        assert SyntheticSpec(N=5, P_target=0.5).attribute_count == 3
        assert SyntheticSpec(N=5, P_target=0.29).attribute_count == 1

    def test_noiseless_effect_gives_perfect_correlation(self):
        pop = synthesize_population(
            SyntheticSpec(N=30, P_target=0.3, intercept=4.0, attribute_effect=2.0, noise_sd=0.0),
            seed=1,
        )
        params = compute_params(pop)
        assert params.rho_pb == pytest.approx(1.0, rel=1e-12)

    def test_noiseless_no_effect_is_degenerate_downstream(self):
        pop = synthesize_population(
            SyntheticSpec(N=10, P_target=0.5, intercept=4.0, attribute_effect=0.0, noise_sd=0.0),
            seed=1,
        )
        with pytest.raises(EstlabError):
            compute_params(pop)

    def test_deterministic_in_seed(self):
        spec = SyntheticSpec(N=25, P_target=0.4, intercept=1.0, attribute_effect=2.0, noise_sd=1.5)
        a = synthesize_population(spec, seed=42)
        b = synthesize_population(spec, seed=42)
        c = synthesize_population(spec, seed=43)
        assert np.array_equal(a.y, b.y)
        assert not np.array_equal(a.y, c.y)

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvalidSyntheticSpecError):
            SyntheticSpec(N=10, P_target=0.01)  # rounds to zero holders
        with pytest.raises(InvalidSyntheticSpecError):
            SyntheticSpec(N=10, P_target=0.5, noise_sd=-1.0)
        with pytest.raises(InvalidSyntheticSpecError):
            SyntheticSpec(N=1, P_target=0.5)
        with pytest.raises(InvalidSyntheticSpecError, match=r"^P_target must lie in \(0,1\), got 1.5$"):
            SyntheticSpec(N=10, P_target=1.5)
        with pytest.raises(InvalidSyntheticSpecError, match="^intercept and attribute_effect must be finite$"):
            SyntheticSpec(N=10, P_target=0.5, intercept=math.inf)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidSyntheticSpecError, match="^seed must fit in an unsigned 64-bit integer, got -1$"):
            synthesize_population(SyntheticSpec(N=10, P_target=0.5), seed=-1)


class TestSimConfig:
    def test_estimator_strings_coerced(self):
        config = SimConfig(n=4, replicates=10, seed=0, estimators=("t2", "ng"))
        assert EstimatorId.T2 in config.estimators
        assert EstimatorId.NG in config.estimators

    def test_seed_range_enforced(self):
        with pytest.raises(ValueError):
            SimConfig(n=4, replicates=10, seed=-1)
        with pytest.raises(ValueError):
            SimConfig(n=4, replicates=10, seed=2**64)

    def test_policy_validated(self):
        with pytest.raises(ValueError):
            SimConfig(n=4, replicates=10, seed=0, degenerate_policy="ignore")
