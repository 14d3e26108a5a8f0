"""Empirical verification engine: SRSWOR draws, exhaustive enumeration,
seeded Monte Carlo, and synthetic population generation.

Both verification modes report, per estimator, the empirical mean, bias
and mean squared error measured against the true population mean, plus an
empirical percent relative efficiency against the sample mean.
Enumeration covers every n-subset exactly once, so its numbers are exact
design expectations (over the non-degenerate samples); Monte Carlo
replicates independent draws.

Every estimator reads a sample only through three sums: the attribute
count ``a`` and the group sums ``S1`` and ``S0`` of y over the sample's
holders and non-holders, with y centred at the population mean.  On a 0/1
attribute the sample regression slope is the difference of group means,
``b_phi = ybar1 - ybar0``, so these sums determine every estimator.  Each
ratio-type row is resolved once to its (m1, m2) and whether it uses the
slope; the plain ratio estimator (NG) is t1's (1, 0) without it.  At a
fixed ``a`` every row is a factor ``K(a)`` times ``Ybar + v``, where the
centred numerator v is x, the slope-adjusted sample mean minus ``Ybar``,
for the family members, and u, the plain one, for NG.  The sample mean is
row 0: factor 1 on u, defined at every a.  At a fixed a both numerators
are linear in the group sums, ``coef[j, 0, a]*S1 + coef[j, 1, a]*S0``.
One function, ``_row_plan``, builds that coefficient table and the rows'
factor tables, these from :func:`~estlab.estimators.family_estimate` at
a = 0..n, as the scalar estimators' values are.  So both modes reduce the
samples to the count, mean and sum of squared deviations of the two
numerators at each ``a``, and one function evaluates all rows at once on
``(rows, n+1)`` tables; the per-sample work does not depend on the number
of rows.  The two modes differ only in how they build those per-``a``
tables, and both hand them to one summary function, which turns them into
rows.  Monte Carlo gathers the sums of each drawn sample from its unit
indices and takes one set of tables per chunk of samples.  Enumeration
does no work per n-subset: the subsets holding ``a`` holders are the pairs
of an a-subset of the holders and an (n-a)-subset of the non-holders, so
its one set of tables follows exactly from each group's closed-form
moments: over its k-subsets, the count C(G, k) and the mean and spread of
their sums.

Degenerate samples and the skip policy
--------------------------------------
Whether a row is defined on a sample depends only on ``a``, so each row
carries a table ``defined[a]`` over a = 0..n.  No ratio-type row is
defined where the attribute is constant (a = 0 or n), nor a family member
where its denominator ``m1*(a/n) + m2`` is zero, nor anywhere a form whose
m1 resolves to zero.  Under the default ``skip`` policy a row leaves out
and counts the samples it is not defined on; every ratio-type row skips
the constant-attribute ones.  The built-in sample-mean benchmark is never
skipped.  Under the ``error`` policy the first sample that some requested
row cannot evaluate aborts the run, and an undefined form aborts it before
any sample.  The error names that sample's index: its replicate index in
Monte Carlo, whatever the chunk size, and its position in
:func:`itertools.combinations` order in enumeration.

Reproducibility
---------------
Monte Carlo randomness comes from the counter-based Philox bit generator
keyed by the configured seed.  Replicate i consumes a dedicated, block
aligned slice of the keyed stream (one uniform deviate per population unit,
padded to the four-draw block size), so every replicate is a pure function
of (seed, replicate index): which samples are drawn does not depend on
batch layout, thread count, or evaluation order.  Chunks of
``4_000_000 // (4 * N)`` replicates are drawn on up to four threads (the
CPUs this process may use, at most 4), at most one chunk per thread ahead
of the estimators.  A chunk holds 24 bytes per replicate, its three
column sums; a thread draws it in passes of about 32K deviates, so each
thread holds one pass of deviates at a time.  A replicate's sample is the
units of its n smallest deviates.  Up to N = 2048 units, each unit number
is packed into the 11 low bits of its raw word, below the 53 bits of its
deviate, and the packed words are partitioned in place, so an exact tie
goes to the lower unit; above that, a pass also holds an index matrix
for ``argpartition``.  The calling thread turns each chunk into its
per-count tables and reduces them to per-row subtotals, in replicate-index
order, and the chunk size depends only on N, so the output is
bit-identical whatever the thread count.  The chunk, not the pass, fixes
the output.  Within a chunk, the sums by ``a``
are taken over blocks of 128 samples, and the block subtotals pairwise;
chunk subtotals are added with exact summation.  Synthetic-population
noise uses the same keyed generator from a disjoint counter block, so a
shared seed never reuses a stream.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from typing import Generator, Iterable, Literal, Sequence

import numpy as np

from .errors import (
    DegenerateSampleError,
    InvalidSampleSizeError,
    InvalidSyntheticSpecError,
    TooManySamplesError,
    UndefinedConstantError,
)
from .estimators import EstimatorId, SampleData, _row_form, family_estimate
from .population import FinitePopulation, compute_params

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

#: A Monte Carlo chunk is ``_BATCH_ELEMENTS // (4 * N)`` replicates: the
#: unit of threading and of the kernel's rounding, so it fixes the output.
#: It holds 24 bytes per replicate, its three column sums.
_BATCH_ELEMENTS = 4_000_000

#: Deviates a chunk draws per pass: 256 KB of raw bits, partitioned in
#: place up to ``_PACKED_UNITS`` units (plus as much again of indices
#: above it), so one pass per thread fits in L2.
_PASS_DEVIATES = 1 << 15

#: Up to this many units, selection writes the unit number into a raw
#: Philox word's 11 low bits (``_UNIT_BITS``), below the 53 that make its
#: deviate.
_PACKED_UNITS = 1 << 11
_UNIT_BITS = np.uint64(_PACKED_UNITS - 1)


def _worker_count() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, 4)


#: Threads that draw Monte Carlo chunks: the usable CPUs, at most 4.
_WORKERS = _worker_count()


def _check_policy(policy: str) -> None:
    if policy not in ("skip", "error"):
        raise ValueError(f"policy must be 'skip' or 'error', got {policy!r}")


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
        _check_policy(self.degenerate_policy)
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


def _unit_columns(pop: FinitePopulation) -> tuple[float, np.ndarray]:
    """The population mean and the (3, N) unit columns ``phi``,
    ``(y - Ybar)*phi`` and ``(y - Ybar)*(1 - phi)``, whose sums over a
    sample are its attribute count a and its group sums S1 and S0."""
    true_mean = float(pop.y.mean())
    yc = pop.y - true_mean  # centred for stable sums
    return true_mean, np.stack([pop.phi, yc * pop.phi, yc * (1 - pop.phi)])


def _row_plan(
    pop: FinitePopulation, n: int, estimators: Iterable[EstimatorId] | None, policy: DegeneratePolicy
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Resolve the rows once to (labels, numerator, defined, factor, coef).

    Row 0 is the sample mean: factor 1 on u, defined at every a.  Then one
    row per requested estimator (all when ``estimators`` is None), in
    declaration order.  Each row's form comes from ``_row_form``, as the
    scalar estimators' does; NG is t1's (1, 0) on u, every other row reads
    the slope-adjusted numerator x (``numerator`` 0 or 1).
    ``defined[r, a]`` tells whether row r can be evaluated on a sample
    holding a = 0..n attribute units: the attribute is not constant and
    ``m1*(a/n) + m2`` is nonzero.  ``factor[r, a]`` is the row's estimate
    over its numerator there, ``family_estimate(1, a/n, P, 0, m1, m2)``,
    and 0 where the row is not defined.  Numerator j (0: u, 1: x) of a
    sample is ``coef[j, 0, a]*S1 + coef[j, 1, a]*S0`` in its group sums: u
    is ``(S1 + S0)/n``, and x adds ``(P - a/n)*(S1/a - S0/(n - a))``, the
    slope term, except where a is 0 or n, so x's coefficients equal u's
    there and where ``a/n == P``.  A form whose m1 resolves to zero raises
    UndefinedConstantError under ``error``; under ``skip`` it becomes
    (0, 0), which is defined nowhere.  The population parameters are
    computed only when some ratio-type row is requested.
    """
    chosen = set(EstimatorId) if estimators is None else {EstimatorId(e) for e in estimators}
    rows = [e for e in EstimatorId if e in chosen]
    counts = np.arange(n + 1)
    p = counts / n  # the kernel's a / n, so the denominators round alike
    interior = (counts > 0) & (counts < n)
    labels, numerator, defined, factor = ["mean"], [0], [np.ones(n + 1, dtype=bool)], [np.ones(n + 1)]
    coef = np.full((2, 2, n + 1), 1.0 / n)
    if rows:
        params = compute_params(pop)
        with np.errstate(divide="ignore", invalid="ignore"):
            coef[1] += np.where(interior, (params.P - p) / np.stack([counts, counts - n]), 0.0)
    for e in rows:
        try:
            m1, m2, slope = _row_form(e, params)
        except UndefinedConstantError:  # only a family member's m1 can resolve to zero
            if policy == "error":
                raise
            m1, m2, slope = 0.0, 0.0, True
        ok = interior & (m1 * p + m2 != 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            k = family_estimate(1.0, p, params.P, 0.0, m1, m2)
        labels.append(e.value)
        numerator.append(int(slope))
        defined.append(ok)
        factor.append(np.where(ok, k, 0.0))
    return labels, np.array(numerator), np.array(defined), np.array(factor), coef


def _undefined_reason(labels: list[str], defined: np.ndarray, n: int, a: int) -> str:
    """Why a sample holding ``a`` attribute units fails some requested row."""
    if a in (0, n):
        return "sample attribute is constant (p is 0 or 1)"
    return "zero denominator for " + next(label for label, ok in zip(labels, defined[:, a]) if not ok)


#: Samples per block when summing by attribute count (see _ByCount).
_SUM_BLOCK = 128


class _ByCount:
    """The samples of one chunk grouped by attribute count a = 0..n.

    ``np.bincount`` adds each group in sample order, so its rounding error
    would grow with the chunk.  Each group is summed instead over blocks of
    ``_SUM_BLOCK`` consecutive samples, and the block subtotals pairwise,
    as numpy's own pairwise summation does at its leaves of 128 terms.
    """

    def __init__(self, a: np.ndarray, n: int) -> None:
        blocks = -(-a.size // _SUM_BLOCK)
        self.a = a
        self.count = np.bincount(a, minlength=n + 1)
        self.keys = a * blocks + np.arange(a.size) // _SUM_BLOCK
        self.cells = (n + 1) * blocks

    def sums(self, values: np.ndarray) -> np.ndarray:
        cells = np.bincount(self.keys, weights=values, minlength=self.cells)
        return cells.reshape(self.count.size, -1).sum(axis=1)

    def moments(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per count, the mean of ``v`` and the sum of squared deviations
        from it, in two passes (0 and 0 where no sample holds that count)."""
        mean = np.divide(self.sums(v), self.count, out=np.zeros(self.count.size), where=self.count > 0)
        r = v - mean[self.a]
        return mean, self.sums(r * r)


def _summarize(
    plan: tuple, true_mean: float, tables: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]], total: int, mode: str
) -> SimResult:
    """One row per row of ``plan`` (:func:`_row_plan`), the sample mean
    first, with PREs against it, from per-count tables.

    Each of ``tables`` holds, for some of the samples, the ``count`` at
    each a = 0..n, and in row j of its (2, n+1) ``mean`` and ``m2`` the
    mean and the sum of squared deviations of numerator j (0: u, 1: x)
    there; each row reads the numerator its plan names.  At a fixed a a
    row's deviation from ``true_mean`` is ``(K - 1)*true_mean + K*v``, so
    every term of its sum of squares is nonnegative.  Each table is
    reduced to per-row sums as it arrives, and those subtotals are added
    with exact summation.
    """
    labels, numerator, defined, factor, _ = plan
    parts = []
    for count, mean, m2 in tables:
        kept = count * defined
        g = (factor - 1.0) * true_mean + factor * mean[numerator]
        sum_d2 = (factor * factor * m2[numerator] + kept * g * g).sum(axis=1)
        parts.append(((kept * g).sum(axis=1), sum_d2, kept.sum(axis=1)))
    sum_d, sum_d2, kept = (np.array(x) for x in zip(*parts))  # each (tables, rows)
    rows: list[EstimatorSummary] = []
    for label, s, s2, c in zip(labels, sum_d.T, sum_d2.T, kept.T):
        count = int(c.sum())
        bias = math.fsum(s) / count if count else math.nan
        mse = math.fsum(s2) / count if count else math.nan
        if not rows:
            mean_mse = mse
            pre = 100.0 if mse > 0.0 else None
        else:
            pre = 100.0 * mean_mse / mse if mse > 0.0 else None
        rows.append(EstimatorSummary(label, true_mean + bias, bias, mse, pre, total - count, count))
    return SimResult(rows=tuple(rows), n=defined.shape[1] - 1, samples=total, true_mean=true_mean, mode=mode)


def _chunk_tables(
    plan: tuple, policy: DegeneratePolicy, start: int, sums: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-count tables of one Monte Carlo chunk, as :func:`_summarize`
    reads them, from its (3, count) column sums: per sample, the attribute
    count a and the group sums S1 and S0.

    Each numerator some row of ``plan`` reads is formed per sample from the
    plan's coefficients at its a.  Under ``error`` a sample that some row
    cannot evaluate raises, naming its replicate index ``start + i``.
    """
    labels, numerator, defined, _, coef = plan
    n = defined.shape[1] - 1
    a, s1, s0 = sums[0].astype(np.intp), sums[1], sums[2]
    groups = _ByCount(a, n)
    evaluable = defined.all(axis=0)
    if policy == "error" and groups.count[~evaluable].any():
        first = int(np.argmin(evaluable[a]))
        raise DegenerateSampleError(_undefined_reason(labels, defined, n, int(a[first])), replicate=start + first)
    mean, m2 = np.zeros((2, n + 1)), np.zeros((2, n + 1))
    for j in set(numerator.tolist()):  # np.unique would load numpy.ma, ~1.5 MB
        mean[j], m2[j] = groups.moments(coef[j, 0, a] * s1 + coef[j, 1, a] * s0)
    return groups.count, mean, m2


def _subset_sum_moments(values: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each size in ``k``, the number C(G, k) of k-subsets of the G
    ``values``, the mean of their sums and the sum of squared deviations of
    the sums from it.

    A k-subset's sum is k times the mean of an SRSWOR sample of k of the
    values, so over all the subsets it has mean ``k*mu`` and variance
    ``k*(G-k)/(G*(G-1)) * sum((v - mu)**2)`` (Cochran, *Sampling
    Techniques*, 1977, ch. 2).  The count is 0 for k > G, and the spread 0
    when G is 1.
    """
    G = values.size
    mu = values.mean() if G else 0.0
    count = np.array([math.comb(G, j) for j in k.tolist()], dtype=np.int64)
    spread = np.square(values - mu).sum() / (G * (G - 1)) if G > 1 else 0.0
    return count, k * mu, count * (k * (G - k) * spread)


def _subset_rank(N: int, units: list[int]) -> int:
    """Position of the n-subset ``units`` (sorted) among all n-subsets of
    N units in :func:`itertools.combinations` order.

    A subset comes before it when it shares its first i units and then
    takes a unit v with prev < v < c, where c is its unit i and prev the
    one before.  There are C(N-1-v, n-1-i) such subsets for each v, and
    C(N-1-prev, n-i) - C(N-c, n-i) over all of them.
    """
    n = len(units)
    rank, prev = 0, -1
    for i, c in enumerate(units):
        rank += math.comb(N - 1 - prev, n - i) - math.comb(N - c, n - i)
        prev = c
    return rank


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

    No subset is listed.  The n-subsets holding a attribute units are the
    pairs of an a-subset of the N1 holders and an (n-a)-subset of the N0
    non-holders, and both numerators are ``alpha*S1 + beta*S0`` in the two
    group sums, with alpha and beta the plan's coefficients.  So at each a
    a numerator's mean is
    ``alpha*mean1 + beta*mean0`` and its sum of squared deviations
    ``C0*alpha**2*M2_1 + C1*beta**2*M2_0``, with C1 = C(N1, a) and
    C0 = C(N0, n-a): the cross term of a sum over a product set is zero.
    Each group's count, mean and M2 over its k-subsets have closed forms
    (:func:`_subset_sum_moments`), so the work goes with n, not with any
    number of subsets.  Under the ``error`` policy the reported index is
    that of the first undefined subset in :func:`itertools.combinations`
    order.
    """
    _check_policy(degenerate_policy)
    if not 2 <= n < pop.N:
        raise InvalidSampleSizeError(f"enumeration needs 2 <= n < {pop.N}, got {n}")
    total = math.comb(pop.N, n)
    if total > ENUMERATION_GUARD:
        raise TooManySamplesError(
            f"C({pop.N},{n}) = {total} subsets exceeds the guard of {ENUMERATION_GUARD}"
        )
    plan = _row_plan(pop, n, estimators, degenerate_policy)
    labels, _, defined, _, coef = plan
    true_mean, cols = _unit_columns(pop)
    holds = pop.phi == 1
    N1 = int(holds.sum())
    N0 = pop.N - N1
    counts = np.arange(n + 1)
    # A count a that no n-subset holds asks each group for one unit more
    # than it has, where C(G, k) is 0, so no group count exceeds C(N, n).
    held = (counts <= N1) & (n - counts <= N0)
    c1, mean1, m2_1 = _subset_sum_moments(cols[1, holds], np.where(held, counts, N1 + 1))
    c0, mean0, m2_0 = _subset_sum_moments(cols[2, ~holds], np.where(held, n - counts, N0 + 1))
    count = c1 * c0  # exact: at most the guard
    bad = [a for a in range(n + 1) if count[a] and not defined[:, a].all()]
    if degenerate_policy == "error" and bad:
        # The first subset holding a holders takes the first a of them
        # and the first n - a non-holders.
        holders, others = np.flatnonzero(holds).tolist(), np.flatnonzero(~holds).tolist()
        rank, a = min((_subset_rank(pop.N, sorted(holders[:a] + others[: n - a])), a) for a in bad)
        raise DegenerateSampleError(_undefined_reason(labels, defined, n, a), replicate=rank)

    alpha, beta = coef[:, 0], coef[:, 1]
    mean = alpha * mean1 + beta * mean0
    m2 = c0 * alpha * alpha * m2_1 + c1 * beta * beta * m2_0
    return _summarize(plan, true_mean, [(count, mean, m2)], total, "enumerate")


def _smallest_units(raw: np.ndarray, N: int, n: int) -> np.ndarray:
    """The units of the n smallest deviates in each row of the raw Philox
    words ``raw[:, :N]``, in no particular order, as a (rows, n) array.

    A deviate is a word's top 53 bits, which ``Generator.random`` scales to
    a double.  Up to ``_PACKED_UNITS`` units, the unit number is written
    into the 11 low bits below them and the packed keys are partitioned in
    place, so an exact tie goes to the lower unit.  Above it, the deviates
    are argpartitioned.  Overwrites ``raw``.
    """
    if N <= _PACKED_UNITS:
        keys = raw[:, :N]
        keys &= ~_UNIT_BITS
        keys |= np.arange(N, dtype=np.uint64)
        keys.partition(n - 1, axis=1)
        return (keys[:, :n] & _UNIT_BITS).view(np.intp)
    raw >>= 11
    return np.ascontiguousarray(np.argpartition(raw[:, :N], n - 1, axis=1)[:, :n])


def _sample_chunk(cols: np.ndarray, n: int, seed: int, start: int, count: int) -> np.ndarray:
    """Draw replicates start .. start + count - 1 and return their (3, count)
    column sums.

    The chunk is drawn in passes of about ``_PASS_DEVIATES`` deviates, so
    the (rows, N) raw words of one pass stay in cache; only the sums scale
    with the chunk.  A deviate is kept as the 53 raw bits that
    ``Generator.random`` would scale to a double, so the order and the
    selected units are those of the uniform deviates.  Up to N = 2048 the
    words are selected in place as packed (deviate, unit) keys, and an
    exact tie goes to the lower unit (:func:`_smallest_units`).
    """
    N = cols.shape[1]
    stride = 4 * -(-N // 4)  # Philox advances in blocks of four 64-bit draws
    bits = np.random.Philox(key=seed)
    bits.advance(start * (stride // 4))
    pass_rows = max(1, _PASS_DEVIATES // stride)
    sums = np.empty((3, count))
    for lo in range(0, count, pass_rows):
        rows = min(pass_rows, count - lo)
        units = _smallest_units(bits.random_raw(rows * stride).reshape(rows, stride), N, n)
        np.take(cols, units, axis=1).sum(axis=2, out=sums[:, lo : lo + rows])
    return sums


def _replicate_batches(
    cols: np.ndarray, n: int, seed: int, replicates: int
) -> Generator[tuple[int, np.ndarray], None, None]:
    """(start, column sums) of every chunk, in replicate-index order.

    Closing the generator cancels the chunks not yet started and waits for
    the running ones.
    """
    rows = max(1, _BATCH_ELEMENTS // (4 * cols.shape[1]))
    starts = range(0, replicates, rows)

    def chunk(start: int) -> tuple[int, np.ndarray]:
        return start, _sample_chunk(cols, n, seed, start, min(rows, replicates - start))

    workers = min(_WORKERS, len(starts))
    if workers == 1:
        yield from map(chunk, starts)
        return
    # Imported here: it loads logging, which one-chunk runs need not pay.
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers)
    try:
        ahead = deque(pool.submit(chunk, start) for start in starts[:workers])
        for start in starts[workers:]:
            done = ahead.popleft().result()
            ahead.append(pool.submit(chunk, start))
            yield done
        while ahead:
            yield ahead.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def monte_carlo(pop: FinitePopulation, config: SimConfig) -> SimResult:
    """Replicate independent SRSWOR draws and summarise estimator accuracy.

    The output is a pure function of (population, config), bit-identical
    whatever the CPU count (see the module notes).  A run that fits in one
    chunk starts no thread, and no thread outlives the call, also when it
    raises.
    """
    if not 2 <= config.n < pop.N:
        raise InvalidSampleSizeError(
            f"Monte Carlo needs 2 <= n < {pop.N}, got {config.n}"
        )
    plan = _row_plan(pop, config.n, config.estimators, config.degenerate_policy)
    true_mean, cols = _unit_columns(pop)
    batches = _replicate_batches(cols, config.n, config.seed, config.replicates)
    try:
        tables = (_chunk_tables(plan, config.degenerate_policy, start, sums) for start, sums in batches)
        return _summarize(plan, true_mean, tables, config.replicates, "monte_carlo")
    finally:
        batches.close()  # stops the sampling threads if the kernel raised
