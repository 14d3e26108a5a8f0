"""Empirical verification engine: SRSWOR draws, exhaustive enumeration,
seeded Monte Carlo, and synthetic population generation.

Both verification modes evaluate the same vectorised kernel over batches of
samples and report, per estimator, the empirical mean, bias and mean squared
error measured against the true population mean, plus an empirical percent
relative efficiency against the sample mean.  Enumeration visits every
n-subset exactly once, so its numbers are exact design expectations (over
the non-degenerate samples); Monte Carlo replicates independent draws.

The kernel reads each sample only through three sums: the attribute count
``a``, ``sum y`` and ``sum y*phi``, with y centred at the population mean.
On a 0/1 attribute the sample regression slope is the difference of group
means, ``b_phi = ybar1 - ybar0``, so these sums determine every estimator.
The estimates themselves come from
:func:`~estlab.estimators.ratio_estimate` and
:func:`~estlab.estimators.family_estimate`, the same functions the scalar
estimators use.  Monte Carlo gathers the sums of each drawn sample from its
unit indices.  Enumeration lists no subset's units: it builds the sums of
all k-subsets from those of the (k-1)-subsets, level by level up to n, in
the lexicographic order of :func:`itertools.combinations`.

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
of (seed, replicate index): which samples are drawn does not depend on
batch layout, thread count, or evaluation order.  Chunks of replicates
are drawn on up to four threads (the CPUs this process may use, at most
4), but the estimators run on the calling thread over the chunks in
replicate-index order, and the default chunk size depends only on N, so
the output is bit-identical whatever the thread count.  Samples are
aggregated with exact summation over chunk subtotals.  Synthetic-population
noise uses the same keyed generator from a disjoint counter block, so a
shared seed never reuses a stream.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace
from typing import Any, Callable, Generator, Iterable, Iterator, Literal, Sequence, TypeVar

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

#: Target element count of the uniform deviates held at once (about 32 MB).
_BATCH_ELEMENTS = 4_000_000


def _worker_count() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, 4)


#: Threads that draw Monte Carlo chunks: the usable CPUs, at most 4.
_WORKERS = _worker_count()

_T = TypeVar("_T")


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


def _unit_columns(pop: FinitePopulation) -> tuple[float, np.ndarray]:
    """The population mean and the (3, N) unit columns ``phi``, ``y - Ybar``
    and ``(y - Ybar)*phi``, whose per-sample sums feed the kernel."""
    true_mean = float(pop.y.mean())
    yc = pop.y - true_mean  # centred for stable sums
    return true_mean, np.stack([pop.phi, yc, yc * pop.phi])


def _run_batches(
    pop: FinitePopulation,
    n: int,
    estimators: tuple[EstimatorId, ...],
    policy: DegeneratePolicy,
    true_mean: float,
    batches: Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]],
    total: int,
    mode: str,
) -> SimResult:
    """Evaluate the sample-mean benchmark plus the requested estimators.

    ``batches`` yields (start_index, a, sum_yc, sum_ycphi) in sample order:
    per sample, the attribute count and the sums of ``y - true_mean`` and
    ``(y - true_mean)*phi``.
    """
    params: PopulationParams | None = compute_params(pop) if estimators else None
    resolved = {
        e: resolve_form(FAMILY_FORMS[e], params)
        for e in estimators
        if e is not EstimatorId.NG and params is not None
    }

    acc: dict[str, _Accumulator] = {"mean": _Accumulator()}
    for e in estimators:
        acc[e.value] = _Accumulator()

    for start, a, sum_yc, sum_ycphi in batches:
        rows = a.shape[0]
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


def _combination_batches(
    cols: np.ndarray, n: int, batch_rows: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Column sums of every n-subset of the units, in lexicographic order.

    Level k holds the sums of every k-subset of the last N - n + k units.
    Its subsets starting at unit j are unit j joined to the (k-1)-subsets of
    the units after j, which are the last C(N-1-j, k-1) rows of level k - 1.
    """
    N = cols.shape[1]
    level = np.zeros((3, 1))
    for k in range(1, n + 1):
        out = np.empty((3, math.comb(N - n + k, k)))
        pos = 0
        for j in range(n - k, N - k + 1):
            tail = math.comb(N - 1 - j, k - 1)
            np.add(level[:, -tail:], cols[:, j : j + 1], out=out[:, pos : pos + tail])
            pos += tail
        level = out
    for start in range(0, level.shape[1], batch_rows):
        yield start, *level[:, start : start + batch_rows]


def enumerate_all_samples(
    pop: FinitePopulation,
    n: int,
    estimators: Sequence[EstimatorId] | None = None,
    degenerate_policy: DegeneratePolicy = "skip",
) -> SimResult:
    """Evaluate every n-subset of the population exactly once.

    The reported means, biases and MSEs are exact design expectations over
    the evaluated samples.  Refuses to run when C(N, n) exceeds
    ``ENUMERATION_GUARD``.  The per-subset sums are held in memory: 24
    bytes per subset, plus 24 bytes per (n-1)-subset of the last N - 1
    units while they are built, which is n/N as many again.
    """
    _check_policy(degenerate_policy)
    if not 2 <= n < pop.N:
        raise InvalidSampleSizeError(f"enumeration needs 2 <= n < {pop.N}, got {n}")
    total = math.comb(pop.N, n)
    if total > ENUMERATION_GUARD:
        raise TooManySamplesError(
            f"C({pop.N},{n}) = {total} subsets exceeds the guard of {ENUMERATION_GUARD}"
        )
    chosen = _normalize_estimators(estimators)
    batch_rows = max(1, _BATCH_ELEMENTS // max(n, 1))
    true_mean, cols = _unit_columns(pop)
    return _run_batches(
        pop,
        n,
        chosen,
        degenerate_policy,
        true_mean,
        _combination_batches(cols, n, batch_rows),
        total,
        "enumerate",
    )


def _sample_chunk(
    cols: np.ndarray, n: int, seed: int, start: int, count: int
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Draw replicates start .. start + count - 1 and return their column sums."""
    N = cols.shape[1]
    blocks_per_rep = -(-N // 4)  # Philox advances in blocks of four 64-bit draws
    bits = np.random.Philox(key=seed)
    bits.advance(start * blocks_per_rep)
    u = np.random.Generator(bits).random((count, 4 * blocks_per_rep))[:, :N]
    idx = np.argpartition(u, n - 1, axis=1)[:, :n]
    phi, yc, ycphi = cols
    return start, phi[idx].sum(axis=1), yc[idx].sum(axis=1), ycphi[idx].sum(axis=1)


def _threaded_map(
    fn: Callable[[int], _T], args: Sequence[int], workers: int
) -> Generator[_T, None, None]:
    """Yield ``fn(arg)`` for every arg, in order, computed on ``workers`` threads.

    An argument is claimed only while fewer than ``workers`` results are
    ahead of the consumer, so at most ``workers`` calls run or wait at once.
    A failed call re-raises its exception here, in order.  Closing the
    generator stops the threads and waits for them.
    """
    cond = threading.Condition()
    results: dict[int, tuple[bool, Any]] = {}
    claimed = consumed = 0
    stop = False

    def work() -> None:
        nonlocal claimed
        while True:
            with cond:
                while not stop and claimed < len(args) and claimed >= consumed + workers:
                    cond.wait()
                if stop or claimed >= len(args):
                    return
                k = claimed
                claimed += 1
            try:
                out: tuple[bool, Any] = (True, fn(args[k]))
            except BaseException as exc:  # handed to the consumer, never lost
                out = (False, exc)
            with cond:
                results[k] = out
                cond.notify_all()

    threads = [threading.Thread(target=work, daemon=True) for _ in range(workers)]
    for t in threads:
        t.start()
    try:
        for k in range(len(args)):
            with cond:
                while k not in results:
                    cond.wait()
                ok, value = results.pop(k)
                consumed = k + 1
                cond.notify_all()
            if not ok:
                raise value
            yield value
    finally:
        with cond:
            stop = True
            cond.notify_all()
        for t in threads:
            t.join()


def _replicate_batches(
    cols: np.ndarray, n: int, seed: int, replicates: int, batch_rows: int
) -> Generator[tuple[int, np.ndarray, np.ndarray, np.ndarray], None, None]:
    """Column sums of every replicate, in chunks of ``batch_rows``, in index order."""
    starts = range(0, replicates, batch_rows)

    def chunk(start: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        return _sample_chunk(cols, n, seed, start, min(batch_rows, replicates - start))

    workers = min(_WORKERS, len(starts))
    if workers == 1:
        yield from map(chunk, starts)
    else:
        yield from _threaded_map(chunk, starts, workers)


def monte_carlo(
    pop: FinitePopulation, config: SimConfig, batch_rows: int | None = None
) -> SimResult:
    """Replicate independent SRSWOR draws and summarise estimator accuracy.

    Bit-identical output for a given (population, config), whatever the
    CPU count; see the module notes on the replicate stream layout.
    Replicates are drawn in chunks of ``batch_rows`` rows on up to four
    threads (the CPUs this process may use, at most 4), and the estimators
    run on the calling thread, chunk by chunk in replicate order.  Each
    thread holds one chunk of ``batch_rows * N`` uniform deviates.  The
    default chunk, ``4_000_000 // (4 * N)`` rows, depends only on N and
    keeps at most 4M deviates (32 MB) in flight; an explicit ``batch_rows``
    puts threads * ``batch_rows`` * N in flight and changes results by at
    most summation rounding.  No thread outlives the call, also when it
    raises.
    """
    if not 2 <= config.n < pop.N:
        raise InvalidSampleSizeError(
            f"Monte Carlo needs 2 <= n < {pop.N}, got {config.n}"
        )
    if batch_rows is None:
        batch_rows = max(1, _BATCH_ELEMENTS // (4 * pop.N))
    elif batch_rows < 1:
        raise ValueError(f"batch_rows must be at least 1, got {batch_rows}")
    true_mean, cols = _unit_columns(pop)
    batches = _replicate_batches(cols, config.n, config.seed, config.replicates, batch_rows)
    try:
        return _run_batches(
            pop,
            config.n,
            _normalize_estimators(config.estimators),
            config.degenerate_policy,
            true_mean,
            batches,
            config.replicates,
            "monte_carlo",
        )
    finally:
        batches.close()  # stops the sampling threads if the kernel raised
