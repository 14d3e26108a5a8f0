"""Acceptance suite: one test per exit criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
inline.  Every tolerance is pinned here; nothing is calibrated elsewhere.
"""

import dataclasses
import math
import time
from itertools import combinations

import numpy as np
import pytest

from estlab import (
    FAMILY_FORMS,
    EstimatorForm,
    EstimatorId,
    FinitePopulation,
    SampleData,
    SimConfig,
    Symbol,
    SyntheticSpec,
    compute_params,
    compute_sample_stats,
    efficiency_vs_mean,
    efficiency_vs_ng,
    enumerate_all_samples,
    estimate_general,
    estimate_named,
    linearization_coefficients,
    monte_carlo,
    mse_from_linearization,
    mse_proposed,
    params_from_moments,
    pre_table,
    rank_pre_rows,
    synthesize_population,
    variance_sample_mean,
)
from estlab.estimators import SampleStats

# Summary moments of the 89-circle villages population.
VILLAGES = params_from_moments(3.36, 0.1236, 0.766, 0.604, 2.19, 6.23181, 89)

FAMILY = [e for e in EstimatorId if e is not EstimatorId.NG]

# Reference PRE targets for the villages moments.  The t4, t5, t7 and t9
# targets trace to a first-power evaluation of the ratio constant; under the
# squared-constant MSE implemented here they sit 28 to 82 percent away, so
# their value checks (and the "every member beats the sample mean" ranking
# check) are expected to fail.  The failures are reported, not masked.
REFERENCE_PRE = {
    "ng": 11.61,
    "t1": 7.36,
    "t2": 236.55,
    "t3": 227.69,
    "t4": 208.09,
    "t5": 185.42,
    "t6": 230.72,
    "t7": 185.27,
    "t8": 230.77,
    "t9": 152.37,
    "t10": 237.81,
}
VALUE_TOLERANCE = {"ng": 0.005, "t1": 0.005}  # everything else: 3%


def _verdict(name, failures):
    print(f"\nACCEPTANCE {name}: {'PASS' if not failures else 'FAIL'}")
    if failures:
        pytest.fail(f"{name}:\n" + "\n".join(failures), pytrace=False)


def random_params(rng):
    return params_from_moments(
        Ybar=float(rng.uniform(0.5, 50.0)),
        P=float(rng.uniform(0.05, 0.95)),
        rho_pb=float(rng.uniform(-0.99, 0.99)),
        C_y=float(rng.uniform(0.1, 3.0)),
        C_p=float(rng.uniform(0.1, 3.0)),
        N=int(rng.integers(10, 500)),
    )


def test_closed_form_efficiency_table_reproduction():
    failures = []
    rows = {r.estimator: r.pre for r in pre_table(VILLAGES)}
    for label, target in REFERENCE_PRE.items():
        tolerance = VALUE_TOLERANCE.get(label, 0.03)
        rel = abs(rows[label] - target) / target
        marker = "ok" if rel <= tolerance else "MISS"
        print(f"  {label:>4}: computed {rows[label]:8.2f} target {target:7.2f} "
              f"rel {rel:7.2%} (tol {tolerance:.1%}) {marker}")
        if rel > tolerance:
            failures.append(
                f"{label}: computed {rows[label]:.2f} vs target {target:.2f} "
                f"({rel:.1%} > {tolerance:.1%})"
            )
    beaten_mean = [f"t{i}" for i in range(2, 11) if not rows[f"t{i}"] > 100.0]
    if beaten_mean:
        failures.append(f"members not beating the sample mean: {', '.join(beaten_mean)}")
    beaten_ng = [f"t{i}" for i in range(2, 11) if not rows[f"t{i}"] > rows["ng"]]
    if beaten_ng:
        failures.append(f"members not beating the plain ratio estimator: {', '.join(beaten_ng)}")
    ranked_first = rank_pre_rows(pre_table(VILLAGES))[0].estimator
    if ranked_first != "t10":
        failures.append(f"t10 not ranked first (got {ranked_first})")
    _verdict("closed-form efficiency table", failures)


def test_attribute_kurtosis_closed_form():
    failures = []
    params = params_from_moments(3.36, 0.1236, 0.766, 0.604, 2.19)
    if abs(params.beta2_phi - 6.23181) > 0.001:
        failures.append(f"beta2 from closed form: {params.beta2_phi} vs 6.23181 +- 0.001")
    _verdict("attribute kurtosis closed form", failures)


def test_mse_identity_suite():
    # Both algebraic routes to the family MSE agree to 1e-12 relative over
    # 1000 random parameter sets x 10 estimators.
    failures = []
    rng = np.random.default_rng(20240816)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        params = random_params(rng)
        n = int(rng.integers(2, params.N))
        for estimator in FAMILY:
            expanded = mse_from_linearization(params, n, FAMILY_FORMS[estimator])
            collapsed = mse_proposed(params, n, estimator)
            rel = abs(expanded - collapsed) / collapsed
            worst = max(worst, rel)
            if rel > 1e-12:
                failures.append(f"{estimator.value}: relative gap {rel:.2e} at params {params}")
    elapsed = time.perf_counter() - started
    print(f"  worst relative gap {worst:.2e} over 10000 comparisons in {elapsed:.2f}s")
    if elapsed >= 1.0:
        failures.append(f"suite took {elapsed:.2f}s, budget is 1s")
    _verdict("mse identity suite", failures)


def test_zero_slope_reduction_suite():
    # Forcing b_phi to zero in the shift-free family member must reproduce
    # the plain ratio estimate bit for bit, on 1000 random samples.
    failures = []
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 1000:
        n_pop = int(rng.integers(4, 40))
        a = int(rng.integers(1, n_pop))
        phi = np.zeros(n_pop, dtype=int)
        phi[rng.permutation(n_pop)[:a]] = 1
        y = rng.normal(10.0, 3.0, n_pop)
        pop_params = compute_params(FinitePopulation(y=y, phi=phi))
        n = int(rng.integers(2, n_pop + 1))
        idx = rng.permutation(n_pop)[:n]
        stats = compute_sample_stats(SampleData(y=y[idx], phi=phi[idx]))
        if stats.p == 0.0:
            continue
        zeroed = dataclasses.replace(stats, b_phi=0.0)
        family_value = estimate_general(zeroed, pop_params.P, FAMILY_FORMS[EstimatorId.T1], pop_params)
        plain_value = estimate_named(stats, pop_params.P, EstimatorId.NG, pop_params)
        if family_value != plain_value:
            failures.append(f"mismatch: {family_value!r} != {plain_value!r} at p={stats.p}")
        checked += 1
    _verdict("zero-slope reduction suite", failures)


def test_enumeration_vs_monte_carlo_oracles():
    failures = []
    spec = SyntheticSpec(N=12, P_target=0.5, intercept=5.0, attribute_effect=3.0, noise_sd=1.0)
    pop = synthesize_population(spec, seed=101)
    params = compute_params(pop)
    n = 4
    assert math.comb(12, 4) == 495
    exact = enumerate_all_samples(pop, n, list(EstimatorId))

    # Exact spread of squared deviations per estimator, from an independent
    # scalar walk over the 495 subsets, gives the Monte Carlo standard error.
    true_mean = float(pop.y.mean())
    d2_var = {}
    for est in ["mean"] + [e.value for e in EstimatorId]:
        d2 = []
        for subset in combinations(range(pop.N), n):
            idx = np.array(subset)
            stats = compute_sample_stats(SampleData(y=pop.y[idx], phi=pop.phi[idx]))
            if est != "mean" and stats.p in (0.0, 1.0):
                continue
            value = stats.ybar if est == "mean" else estimate_named(
                stats, params.P, EstimatorId(est), params
            )
            d2.append((value - true_mean) ** 2)
        d2_var[est] = float(np.var(np.array(d2)))

    sampled = monte_carlo(pop, SimConfig(n=n, replicates=1_000_000, seed=202,
                                         estimators=tuple(EstimatorId)))
    for row in sampled.rows:
        se = math.sqrt(d2_var[row.estimator] / row.effective_replicates)
        gap = abs(row.empirical_mse - exact.row(row.estimator).empirical_mse)
        z = gap / se if se > 0 else 0.0
        print(f"  {row.estimator:>4}: |mc - exact| = {gap:.3e}, {z:.2f} standard errors")
        if gap > 3 * se:
            failures.append(f"{row.estimator}: {z:.2f} standard errors from the exact MSE")

    mean_row = exact.row("mean")
    if abs(mean_row.empirical_bias) > 1e-12 * abs(true_mean):
        failures.append(f"sample-mean bias {mean_row.empirical_bias} not exactly zero")
    design_variance = variance_sample_mean(params, n)
    if abs(mean_row.empirical_mse - design_variance) > 1e-10 * design_variance:
        failures.append(
            f"sample-mean enumeration variance {mean_row.empirical_mse} vs "
            f"closed form {design_variance}"
        )
    _verdict("enumeration vs monte carlo oracles", failures)


def test_first_order_theory_vs_simulation():
    failures = []
    spec = SyntheticSpec(N=400, P_target=0.85, intercept=10.0, attribute_effect=5.0, noise_sd=0.8)
    pop = synthesize_population(spec, seed=7)
    params = compute_params(pop)
    if not params.rho_pb >= 0.85:
        failures.append(f"synthetic correlation {params.rho_pb:.4f} below 0.85")
    n = 40
    sampled = monte_carlo(pop, SimConfig(n=n, replicates=100_000, seed=307,
                                         estimators=(EstimatorId.NG, EstimatorId.T2, EstimatorId.T10)))
    targets = {
        "ng": mse_proposed(params, n, EstimatorId.NG),
        "t2": mse_proposed(params, n, EstimatorId.T2),
        "t10": mse_proposed(params, n, EstimatorId.T10),
    }
    for label, theoretical in targets.items():
        empirical = sampled.row(label).empirical_mse
        rel = abs(empirical - theoretical) / theoretical
        print(f"  {label:>4}: empirical {empirical:.5f} first-order {theoretical:.5f} rel {rel:.2%}")
        if rel > 0.10:
            failures.append(f"{label}: empirical vs first-order MSE off by {rel:.1%} (tol 10%)")
    _verdict("first-order theory vs simulation", failures)


def test_efficiency_predicate_consistency():
    failures = []
    rng = np.random.default_rng(4711)
    ng_flag_disagreements = 0
    for _ in range(1000):
        params = random_params(rng)
        for estimator in FAMILY:
            vs_mean = efficiency_vs_mean(params, estimator)
            direct_sign = params.S_y2 - (
                mse_proposed(params, 2, estimator) / ((1 - 2 / params.N) / 2)
            ) >= 0
            if vs_mean.beats != direct_sign:
                failures.append(f"{estimator.value}: predicate disagrees with direct difference")
            if not vs_mean.threshold_agrees:
                failures.append(f"{estimator.value}: mean-threshold form flipped sign")
            vs_ng = efficiency_vs_ng(params, estimator)
            if vs_ng.beats != (vs_ng.margin >= 0.0):
                failures.append(f"{estimator.value}: NG predicate not the direct difference")
            if not vs_ng.threshold_agrees:
                ng_flag_disagreements += 1
    print(f"  NG threshold-form sign disagreements flagged: {ng_flag_disagreements}")
    _verdict("efficiency predicate consistency", failures)


def test_taylor_residual_order():
    failures = []
    for form in (EstimatorForm(1.0, 0.0), EstimatorForm(1.0, Symbol.BETA2_PHI)):
        coef_p, coef_ybar = linearization_coefficients(VILLAGES, form)

        def residual(delta):
            stats = SampleStats(
                ybar=VILLAGES.Ybar + delta,
                p=VILLAGES.P + delta,
                b_phi=VILLAGES.B_phi,
            )
            exact = estimate_general(stats, VILLAGES.P, form, VILLAGES)
            return abs(exact - (VILLAGES.Ybar + (coef_ybar + coef_p) * delta))

        delta = 0.01 * VILLAGES.P
        residuals = [residual(delta / 2**k) for k in range(4)]
        ratios = [coarse / fine for coarse, fine in zip(residuals, residuals[1:])]
        print(f"  form ({form.m1}, {form.m2}): halving ratios " +
              ", ".join(f"{r:.3f}" for r in ratios))
        for ratio in ratios:
            if not 3.0 < ratio < 5.0:
                failures.append(f"form ({form.m1}, {form.m2}): halving ratio {ratio:.3f} outside [3, 5]")
    _verdict("taylor residual order", failures)
