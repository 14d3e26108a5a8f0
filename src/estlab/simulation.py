"""Empirical verification engine: SRSWOR draws, exhaustive enumeration,
seeded Monte Carlo, and synthetic population generation.

Both verification modes evaluate the same vectorised kernel over batches of
samples and report, per estimator, the empirical mean, bias and mean squared
error measured against the true population mean, plus an empirical percent
relative efficiency against the sample mean.  Enumeration visits every
n-subset exactly once, so its numbers are exact design expectations (over
the non-degenerate samples); Monte Carlo replicates independent draws.

The kernel reduces each sample to three sums: the attribute count ``a``,
``sum y`` and ``sum y*phi``, with y centred at the population mean.  On a
0/1 attribute the sample regression slope is the difference of group means,
``b_phi = ybar1 - ybar0``, so these sums determine every estimator.  The
estimates themselves come from :func:`~estlab.estimators.ratio_estimate`
and :func:`~estlab.estimators.family_estimate`, the same functions the
scalar estimators use.

Degenerate samples and the skip policy
--------------------------------------
A drawn sample whose attribute is constant (p = 0 or p = 1) leaves the
ratio correction or b_phi undefined.  Under the default ``skip`` policy such
samples are excluded from the plain ratio estimator and every family row
alike, so all ratio-type rows condition on the same sample set, and the
exclusions are counted per row.  The built-in sample-mean benchmark is
defined on every sample and is never skipped.  Under the ``error`` policy
the first degenerate sample aborts the run.

Reproducibility
---------------
Monte Carlo randomness comes from the counter-based Philox bit generator
keyed by the configured seed.  Replicate i consumes a dedicated, block
aligned slice of the keyed stream (one uniform deviate per population unit,
padded to the four-draw block size), so every replicate is a pure function
of (seed, replicate index): results do not depend on batch layout, thread
count, or evaluation order.  Samples are aggregated in replicate-index
order with exact summation over batch subtotals.  Synthetic-population
noise uses the same keyed generator from a disjoint counter block, so a
shared seed never reuses a stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations, islice
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

from .errors import (
    DegenerateSampleError,
    InvalidSampleSizeError,
    InvalidSyntheticSpecError,
    TooManySamplesError,
)
from .estimators import (
    FAMILY_FORMS,
    EstimatorId,
    SampleData,
    family_estimate,
    ratio_estimate,
    resolve_form,
)
from .population import FinitePopulation, PopulationParams, compute_params

__all__ = [
    "ENUMERATION_GUARD",
    "DegeneratePolicy",
    "EstimatorSummary",
    "SimConfig",
    "SimResult",
    "SyntheticSpec",
    "draw_srswor",
    "enumerate_all_samples",
    "monte_carlo",
    "synthesize_population",
]

DegeneratePolicy = Literal["skip", "error"]

#: Refuse to enumerate more than this many subsets.
ENUMERATION_GUARD = 2_000_000

#: Counter block reserved for synthetic-population noise, far beyond any
#: position the replicate streams can reach.
_SYNTH_COUNTER_BLOCK = 1 << 128

_MAX_SEED = 2**64 - 1

#: Target element count of one batch of uniform deviates (about 32 MB).
_BATCH_ELEMENTS = 4_000_000


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run configuration.

    ``estimators`` lists the ratio-type estimators to evaluate; the
    sample-mean benchmark is always included.  ``seed`` must fit in an
    unsigned 64-bit integer.
    """

    n: int
    replicates: int
    seed: int = 0
    estimators: tuple[EstimatorId, ...] = tuple(EstimatorId)
    degenerate_policy: DegeneratePolicy = "skip"

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError(f"replicates must be at least 1, got {self.replicates}")
        if not 0 <= self.seed <= _MAX_SEED:
            raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {self.seed}")
        if self.degenerate_policy not in ("skip", "error"):
            raise ValueError(f"policy must be 'skip' or 'error', got {self.degenerate_policy!r}")
        object.__setattr__(self, "estimators", tuple(EstimatorId(e) for e in self.estimators))


@dataclass(frozen=True)
class EstimatorSummary:
    """Accuracy summary of one estimator over the evaluated samples.

    ``empirical_pre`` is 100 * (sample-mean MSE) / (estimator MSE), or None
    when the denominator vanishes.  ``degenerate_count`` counts samples on
    which this row was not evaluated; effective plus degenerate equals the
    total sample count.
    """

    estimator: str
    empirical_mean: float
    empirical_bias: float
    empirical_mse: float
    empirical_pre: float | None
    degenerate_count: int
    effective_replicates: int


@dataclass(frozen=True)
class SimResult:
    """Per-estimator accuracy rows from enumeration or Monte Carlo."""

    rows: tuple[EstimatorSummary, ...]
    n: int
    samples: int
    true_mean: float
    mode: str

    def row(self, estimator: str | EstimatorId) -> EstimatorSummary:
        label = estimator.value if isinstance(estimator, EstimatorId) else estimator
        for r in self.rows:
            if r.estimator == label:
                return r
        raise KeyError(f"no row for estimator {label!r}")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic population with tunable attribute correlation.

    y = intercept + attribute_effect * phi + Gaussian noise(0, noise_sd),
    with exactly round(N * P_target) units possessing the attribute.
    Zero noise with a nonzero effect makes y an exact affine function of the
    attribute, driving the point-biserial correlation to 1.
    """

    N: int
    P_target: float
    intercept: float = 0.0
    attribute_effect: float = 1.0
    noise_sd: float = 1.0

    def __post_init__(self) -> None:
        if self.N < 2:
            raise InvalidSyntheticSpecError(f"N must be at least 2, got {self.N}")
        if not 0.0 < self.P_target < 1.0:
            raise InvalidSyntheticSpecError(f"P_target must lie in (0,1), got {self.P_target}")
        if not (math.isfinite(self.intercept) and math.isfinite(self.attribute_effect)):
            raise InvalidSyntheticSpecError("intercept and attribute_effect must be finite")
        if not (math.isfinite(self.noise_sd) and self.noise_sd >= 0.0):
            raise InvalidSyntheticSpecError(f"noise_sd must be nonnegative, got {self.noise_sd}")
        if not 1 <= self.attribute_count <= self.N - 1:
            raise InvalidSyntheticSpecError(
                f"round(N * P_target) = {self.attribute_count} leaves a constant attribute"
            )

    @property
    def attribute_count(self) -> int:
        """Number of attribute holders: N * P_target rounded half up."""
        return int(math.floor(self.N * self.P_target + 0.5))


def synthesize_population(spec: SyntheticSpec, seed: int = 0) -> FinitePopulation:
    """Generate the population described by ``spec``, deterministically in seed."""
    if not 0 <= seed <= _MAX_SEED:
        raise InvalidSyntheticSpecError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    a = spec.attribute_count
    phi = np.zeros(spec.N, dtype=np.int64)
    phi[:a] = 1
    rng = np.random.Generator(np.random.Philox(key=seed, counter=_SYNTH_COUNTER_BLOCK))
    noise = rng.normal(0.0, spec.noise_sd, spec.N) if spec.noise_sd > 0.0 else np.zeros(spec.N)
    y = spec.intercept + spec.attribute_effect * phi + noise
    return FinitePopulation(y=y, phi=phi)


def draw_srswor(pop: FinitePopulation, n: int, rng: np.random.Generator) -> SampleData:
    """Draw one simple random sample of n units without replacement.

    One uniform deviate is drawn per population unit and the n smallest
    mark the sample, so every n-subset is equally likely.  Deterministic
    given the generator state.
    """
    if not 2 <= n <= pop.N:
        raise InvalidSampleSizeError(f"sample size must satisfy 2 <= n <= {pop.N}, got {n}")
    u = rng.random(pop.N)
    idx = np.sort(np.argpartition(u, n - 1)[:n])
    return SampleData(y=pop.y[idx], phi=pop.phi[idx])


def _normalize_estimators(estimators: Iterable[EstimatorId] | None) -> tuple[EstimatorId, ...]:
    """Deduplicate the requested ratio-type estimators, in declaration order."""
    chosen = set(EstimatorId(e) for e in estimators) if estimators is not None else set(EstimatorId)
    return tuple(e for e in EstimatorId if e in chosen)


class _Accumulator:
    """Streaming sums for one estimator row, in sample order."""

    __slots__ = ("sum_d", "sum_d2", "count", "degenerate")

    def __init__(self) -> None:
        self.sum_d: list[float] = []
        self.sum_d2: list[float] = []
        self.count = 0
        self.degenerate = 0

    def add(self, deviations: np.ndarray, skipped: int) -> None:
        self.sum_d.append(float(deviations.sum()))
        self.sum_d2.append(float((deviations * deviations).sum()))
        self.count += int(deviations.size)
        self.degenerate += skipped

    def summarize(self, label: str, true_mean: float, mean_mse: float | None) -> EstimatorSummary:
        if self.count == 0:
            return EstimatorSummary(label, math.nan, math.nan, math.nan, None, self.degenerate, 0)
        bias = math.fsum(self.sum_d) / self.count
        mse = math.fsum(self.sum_d2) / self.count
        pre = 100.0 * mean_mse / mse if mean_mse is not None and mse > 0.0 else None
        return EstimatorSummary(
            estimator=label,
            empirical_mean=true_mean + bias,
            empirical_bias=bias,
            empirical_mse=mse,
            empirical_pre=pre,
            degenerate_count=self.degenerate,
            effective_replicates=self.count,
        )


def _run_batches(
    pop: FinitePopulation,
    n: int,
    estimators: tuple[EstimatorId, ...],
    policy: DegeneratePolicy,
    batches: Iterator[tuple[int, np.ndarray]],
    total: int,
    mode: str,
) -> SimResult:
    """Evaluate the sample-mean benchmark plus the requested estimators.

    ``batches`` yields (start_index, index_matrix) pairs in sample order;
    each matrix row is one n-subset of unit indices.
    """
    true_mean = float(pop.y.mean())
    params: PopulationParams | None = compute_params(pop) if estimators else None
    resolved = {
        e: resolve_form(FAMILY_FORMS[e], params)
        for e in estimators
        if e is not EstimatorId.NG and params is not None
    }

    acc: dict[str, _Accumulator] = {"mean": _Accumulator()}
    for e in estimators:
        acc[e.value] = _Accumulator()

    yc = pop.y - true_mean  # centred for stable sums
    ycphi = yc * pop.phi

    for start, idx in batches:
        rows = idx.shape[0]
        a = pop.phi[idx].sum(axis=1)
        sum_yc = yc[idx].sum(axis=1)
        degenerate = (a == 0) | (a == n)

        if policy == "error" and estimators and degenerate.any():
            first = start + int(np.argmax(degenerate))
            raise DegenerateSampleError(
                "sample attribute is constant (p is 0 or 1)", replicate=first
            )
        valid = ~degenerate

        ybar_c = sum_yc / n
        acc["mean"].add(ybar_c, 0)

        if not estimators:
            continue
        assert params is not None
        P = params.P
        p = a / n
        ybar = true_mean + ybar_c
        sum_ycphi = ycphi[idx].sum(axis=1)

        # Degenerate rows divide by zero in b_phi and in ratio_estimate, and
        # zero-denominator rows in family_estimate; the masks below drop
        # both before accumulation.
        with np.errstate(divide="ignore", invalid="ignore"):
            b_phi = sum_ycphi / a - (sum_yc - sum_ycphi) / (n - a)
            for e in estimators:
                if e is EstimatorId.NG:
                    vals = ratio_estimate(ybar, p, P)
                    mask = valid
                else:
                    m1, m2 = resolved[e]
                    den_ok = m1 * p + m2 != 0.0
                    if policy == "error" and not bool(den_ok[valid].all()):
                        first = start + int(np.argmax(valid & ~den_ok))
                        raise DegenerateSampleError(
                            f"zero denominator for {e.value}", replicate=first
                        )
                    mask = valid & den_ok
                    vals = family_estimate(ybar, p, P, b_phi, m1, m2)
                acc[e.value].add(vals[mask] - true_mean, rows - int(mask.sum()))

    mean_row = acc["mean"].summarize("mean", true_mean, None)
    mean_mse = mean_row.empirical_mse if mean_row.effective_replicates else None
    if mean_mse is not None and mean_mse > 0.0:
        mean_row = replace(mean_row, empirical_pre=100.0)
    rows_out = [mean_row]
    rows_out.extend(acc[e.value].summarize(e.value, true_mean, mean_mse) for e in estimators)
    return SimResult(rows=tuple(rows_out), n=n, samples=total, true_mean=true_mean, mode=mode)


def _combination_batches(N: int, n: int, batch_rows: int) -> Iterator[tuple[int, np.ndarray]]:
    it = combinations(range(N), n)
    start = 0
    while True:
        chunk = list(islice(it, batch_rows))
        if not chunk:
            return
        yield start, np.array(chunk, dtype=np.intp)
        start += len(chunk)


def enumerate_all_samples(
    pop: FinitePopulation,
    n: int,
    estimators: Sequence[EstimatorId] | None = None,
    degenerate_policy: DegeneratePolicy = "skip",
) -> SimResult:
    """Evaluate every n-subset of the population exactly once.

    The reported means, biases and MSEs are exact design expectations over
    the evaluated samples.  Refuses to run when C(N, n) exceeds
    ``ENUMERATION_GUARD``.
    """
    if not 2 <= n < pop.N:
        raise InvalidSampleSizeError(f"enumeration needs 2 <= n < {pop.N}, got {n}")
    total = math.comb(pop.N, n)
    if total > ENUMERATION_GUARD:
        raise TooManySamplesError(
            f"C({pop.N},{n}) = {total} subsets exceeds the guard of {ENUMERATION_GUARD}"
        )
    chosen = _normalize_estimators(estimators)
    batch_rows = max(1, _BATCH_ELEMENTS // max(n, 1))
    return _run_batches(
        pop,
        n,
        chosen,
        degenerate_policy,
        _combination_batches(pop.N, n, batch_rows),
        total,
        "enumerate",
    )


def _replicate_batches(
    N: int, n: int, seed: int, replicates: int, batch_rows: int
) -> Iterator[tuple[int, np.ndarray]]:
    blocks_per_rep = -(-N // 4)  # Philox advances in blocks of four 64-bit draws
    stride = 4 * blocks_per_rep
    start = 0
    while start < replicates:
        count = min(batch_rows, replicates - start)
        bits = np.random.Philox(key=seed)
        bits.advance(start * blocks_per_rep)
        u = np.random.Generator(bits).random((count, stride))[:, :N]
        yield start, np.argpartition(u, n - 1, axis=1)[:, :n]
        start += count


def monte_carlo(
    pop: FinitePopulation, config: SimConfig, batch_rows: int | None = None
) -> SimResult:
    """Replicate independent SRSWOR draws and summarise estimator accuracy.

    Bit-identical output for a given (population, config); see the module
    notes on the replicate stream layout.  ``batch_rows`` only tunes memory
    use; it changes results by at most summation rounding.
    """
    if not 2 <= config.n < pop.N:
        raise InvalidSampleSizeError(
            f"Monte Carlo needs 2 <= n < {pop.N}, got {config.n}"
        )
    if batch_rows is None:
        batch_rows = max(1, _BATCH_ELEMENTS // pop.N)
    return _run_batches(
        pop,
        config.n,
        _normalize_estimators(config.estimators),
        config.degenerate_policy,
        _replicate_batches(pop.N, config.n, config.seed, config.replicates, batch_rows),
        config.replicates,
        "monte_carlo",
    )
