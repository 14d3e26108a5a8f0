"""Runs one estlab benchmark workload in a fresh interpreter.

``run.py`` starts this file with the source tree on PYTHONPATH and one JSON
argument: ``mode`` ("setup" or "run"), ``workload``, ``seed``, ``seconds``,
``trace``, ``csv`` (the run's population CSV), ``ref_csv`` (the CSV of the
reference seed) and ``trace_out`` (where spans are written).

Both modes build the inputs and make one warm-up call, then note the time.
``setup`` mode stops there.  ``run`` mode times the workload's operation for
``seconds``, checks every result, and prints the end-to-end figures; when
traced, it records spans around every call into estlab and runs one probe
per layer instead.  The last line printed is one JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from estlab import cli
from estlab.estimators import FAMILY_FORMS, EstimatorId, compute_sample_stats, estimate_named
from estlab.population import compute_params, load_population, params_from_moments
from estlab.simulation import (
    SimConfig,
    SyntheticSpec,
    draw_srswor,
    enumerate_all_samples,
    monte_carlo,
    synthesize_population,
)
from estlab.theory import mse_from_linearization, mse_proposed, mse_report, pre_table

import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "references.json"
LAYERS = ("population", "estimators", "theory", "simulation", "cli")
ROW_LABELS = ["mean", "ng"] + [f"t{i}" for i in range(1, 11)]

#: Tolerances against the recorded references: loose enough for summation
#: in another order, far too tight for another sample stream, which moves
#: a bias or MSE by about its Monte Carlo standard error.
REF_RTOL = 1e-9
REF_ATOL = 1e-12

perf = time.perf_counter


class Tracer:
    """Spans kept in memory: id, parent, trace (the root span's id), name, start, end.

    Disabled, it still times calls but records nothing.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self._stack: list[tuple[int, int]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans) + len(self._stack) + 1
        parent, trace = self._stack[-1] if self._stack else (None, sid)
        self._stack.append((sid, trace))
        start = perf()
        try:
            yield
        finally:
            end = perf()
            self._stack.pop()
            self.spans.append((sid, parent, trace, name, start, end))

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span; return its result and its seconds."""
        with self.span(name):
            t0 = perf()
            result = fn(*args)
            return result, perf() - t0

    def self_times(self) -> dict[str, float]:
        """Seconds per layer (the span name's first component) not covered by child spans."""
        covered: dict[int, float] = {}
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        out: dict[str, float] = {}
        for sid, _, _, name, start, end in self.spans:
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - covered.get(sid, 0.0)
        return out

    def dump(self, path: Path) -> None:
        keys = ("id", "parent", "trace", "name", "start", "end")
        path.write_text(json.dumps({"spans": [dict(zip(keys, s)) for s in self.spans]}))


class Inputs:
    """Everything set-up builds: populations, parameters and the warm-up result."""

    def __init__(self, spec: dict) -> None:
        self.workload = w = wl.WORKLOADS[spec["workload"]]
        self.seed = spec["seed"]
        self.csv = Path(spec["csv"])
        self.ref_csv = Path(spec["ref_csv"])
        self.csv_pop = load_population(self.csv)
        self.mc_pop = synthesize(w, self.seed) if w.synth else self.csv_pop
        self.pop = self.mc_pop if w.kind == "mc" else self.csv_pop
        self.params = compute_params(self.pop)
        self.villages = params_from_moments(**wl.VILLAGES)
        if w.kind == "mc":
            monte_carlo(self.mc_pop, SimConfig(n=w.mc_n, replicates=256, seed=self.op_seed(0)))
        elif w.kind == "enumerate":
            enumerate_all_samples(self.csv_pop, 2)
        else:
            run_cli_inprocess(["params", "--moments", wl.VILLAGES_MOMENTS])

    def op_seed(self, index: int) -> int:
        return wl.op_seed(self.seed, index)


def synthesize(w: wl.Workload, seed: int):
    s = w.synth
    spec = SyntheticSpec(N=s.N, P_target=s.P, attribute_effect=s.effect, noise_sd=s.noise)
    return synthesize_population(spec, seed)


def run_process(argv: list[str]) -> subprocess.CompletedProcess:
    """Run a child process to completion, capturing its output."""
    return subprocess.run(argv, capture_output=True, text=True, timeout=120)


def run_cli_inprocess(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# Output checks: each returns a list of problems, empty when the output is right
# ---------------------------------------------------------------------------


def summarize(result) -> dict:
    """The fields of a SimResult that the references pin."""
    return {
        "samples": result.samples,
        "true_mean": result.true_mean,
        "rows": [
            [r.estimator, r.empirical_mean, r.empirical_bias, r.empirical_mse,
             r.degenerate_count, r.effective_replicates]
            for r in result.rows
        ],
    }


def compare(expected, actual, where: str = "") -> list[str]:
    """Differences between two JSON-like values; floats within the reference tolerance."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [p for k in expected for p in compare(expected[k], actual[k], f"{where}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        return [p for i, (e, a) in enumerate(zip(expected, actual)) for p in compare(e, a, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, float):
        if abs(expected - actual) <= REF_RTOL * max(abs(expected), abs(actual)) + REF_ATOL:
            return []
    elif expected == actual and type(expected) is type(actual):
        return []
    return [f"{where}: {actual!r} != reference {expected!r}"]


def check_sim(result, samples: int) -> list[str]:
    """Shape and bookkeeping of one enumeration or Monte Carlo result."""
    problems = []
    if result.samples != samples:
        problems.append(f"samples {result.samples} != {samples}")
    labels = [r.estimator for r in result.rows]
    if labels != ROW_LABELS:
        problems.append(f"rows {labels}")
    for r in result.rows:
        if r.effective_replicates + r.degenerate_count != result.samples:
            problems.append(f"{r.estimator}: effective + degenerate != samples")
        if r.effective_replicates and not (math.isfinite(r.empirical_mse) and r.empirical_mse >= 0.0):
            problems.append(f"{r.estimator}: mse {r.empirical_mse}")
    if result.rows and result.rows[0].degenerate_count:
        problems.append("the sample mean skipped samples")
    return problems


def check_enumeration(result, pop, n: int) -> list[str]:
    """Enumeration extras: the mean is unbiased and the skipped subsets are counted exactly."""
    problems = check_sim(result, math.comb(pop.N, n))
    bias = result.rows[0].empirical_bias
    if abs(bias) > 1e-12 * max(1.0, abs(result.true_mean)):
        problems.append(f"sample mean is biased by {bias!r} over all subsets")
    holders = pop.attribute_count
    constant = math.comb(holders, n) + math.comb(pop.N - holders, n)
    if result.rows[1].degenerate_count != constant:
        problems.append(f"ng skipped {result.rows[1].degenerate_count} subsets, expected {constant}")
    return problems


def check_replicate_zero(inp: Inputs, tracer: Tracer) -> list[str]:
    """Replicate 0 of a run is the sample draw_srswor takes from the same seed,
    and the vectorised kernel agrees with the scalar estimators on it."""
    w, seed = inp.workload, inp.op_seed(0)
    result, _ = tracer.call(
        "simulation.monte_carlo", monte_carlo, inp.mc_pop, SimConfig(n=w.mc_n, replicates=1, seed=seed)
    )
    rng = np.random.Generator(np.random.Philox(key=seed))
    sample, _ = tracer.call("simulation.draw_srswor", draw_srswor, inp.mc_pop, w.mc_n, rng)
    stats, _ = tracer.call("estimators.compute_sample_stats", compute_sample_stats, sample)
    problems = []
    if not math.isclose(result.rows[0].empirical_mean, stats.ybar, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"replicate 0 mean {result.rows[0].empirical_mean!r} != draw_srswor {stats.ybar!r}")
    degenerate = stats.p in (0.0, 1.0)
    for row, e in zip(result.rows[1:], EstimatorId):
        if degenerate:
            if row.effective_replicates:
                problems.append(f"{e.value}: evaluated a constant-attribute sample")
            continue
        value, _ = tracer.call("estimators.estimate_named", estimate_named, stats, inp.params.P, e, inp.params)
        if not math.isclose(row.empirical_mean, value, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"{e.value}: replicate 0 gives {row.empirical_mean!r}, scalar path {value!r}")
    return problems


def check_theory(inp: Inputs, tracer: Tracer) -> list[str]:
    """mse_proposed and mse_from_linearization agree to 1e-12 for every family member."""
    w = inp.workload
    problems = []
    for params, n in ((inp.params, w.mc_n if w.kind == "mc" else w.enum_n), (inp.villages, wl.VILLAGES_N)):
        for e in EstimatorId:
            if e is EstimatorId.NG:
                continue
            direct, _ = tracer.call("theory.mse_proposed", mse_proposed, params, n, e)
            taylor, _ = tracer.call("theory.mse_from_linearization", mse_from_linearization, params, n, FAMILY_FORMS[e])
            if not math.isclose(direct, taylor, rel_tol=1e-12):
                problems.append(f"{e.value}: mse_proposed {direct!r} != linearization {taylor!r}")
    return problems


def reference_summary(w: wl.Workload, ref_csv: Path, tracer: Tracer | None = None) -> dict:
    """Operation 0 of a run with REFERENCE_SEED (for cli-mix: the villages pre table)."""
    tracer = tracer or Tracer(False)
    if w.kind == "mc":
        pop = synthesize(w, wl.REFERENCE_SEED)
        cfg = SimConfig(n=w.mc_n, replicates=w.mc_replicates, seed=wl.op_seed(wl.REFERENCE_SEED, 0))
        return summarize(tracer.call("simulation.monte_carlo", monte_carlo, pop, cfg)[0])
    if w.kind == "enumerate":
        pop = load_population(ref_csv)
        return summarize(tracer.call("simulation.enumerate_all_samples", enumerate_all_samples, pop, w.enum_n)[0])
    argv = ["pre", "--moments", wl.VILLAGES_MOMENTS, "--n", str(wl.VILLAGES_N)]
    _, text = tracer.call("cli.main", run_cli_inprocess, argv)[0]
    return json.loads(text)["results"]


def check_reference(inp: Inputs, tracer: Tracer) -> list[str]:
    expected = json.loads(REFERENCES.read_text())[inp.workload.name]
    return compare(expected, reference_summary(inp.workload, inp.ref_csv, tracer), "reference")


# ---------------------------------------------------------------------------
# The timed operation of each kind: returns (seconds, items done, problems)
# ---------------------------------------------------------------------------


def mc_op(inp: Inputs, tracer: Tracer, index: int):
    w = inp.workload
    cfg = SimConfig(n=w.mc_n, replicates=w.mc_replicates, seed=inp.op_seed(index))
    result, secs = tracer.call("simulation.monte_carlo", monte_carlo, inp.mc_pop, cfg)
    return secs, w.mc_replicates, check_sim(result, w.mc_replicates)


def enumerate_op(inp: Inputs, tracer: Tracer, index: int):
    n = inp.workload.enum_n
    result, secs = tracer.call("simulation.enumerate_all_samples", enumerate_all_samples, inp.csv_pop, n)
    return secs, result.samples, check_enumeration(result, inp.csv_pop, n)


def cli_op(inp: Inputs, tracer: Tracer, index: int):
    commands = wl.cli_commands(inp.csv, inp.seed, index // 5)
    argv = commands[index % 5]
    proc, secs = tracer.call("cli.process", run_process, [sys.executable, "-m", "estlab.cli", *argv])
    return secs, 1, check_cli_output(proc, argv, tracer)


def check_cli_output(proc, argv: list[str], tracer: Tracer) -> list[str]:
    """Exit 0, exactly the four-key envelope, and the same text as cli.main in-process."""
    if proc.returncode != 0:
        return [f"{argv[0]}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    try:
        envelope = json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        return [f"{argv[0]}: output is not JSON: {exc}"]
    problems = []
    if not isinstance(envelope, dict) or set(envelope) != {"command", "inputs", "results", "warnings"}:
        problems.append(f"{argv[0]}: envelope keys {sorted(envelope) if isinstance(envelope, dict) else envelope!r}")
    elif envelope["command"] != argv[0]:
        problems.append(f"{argv[0]}: envelope names command {envelope['command']!r}")
    (code, text), _ = tracer.call("cli.main", run_cli_inprocess, argv)
    if code != 0 or text != proc.stdout:
        problems.append(f"{argv[0]}: cold process output differs from cli.main in-process")
    return problems


OPS = {"mc": mc_op, "enumerate": enumerate_op, "cli": cli_op}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class Tally:
    """Operations attempted and the problems of those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.problems)

    def attempt(self, label: str, fn, *args):
        """Run one operation and return its result, or None if it raised.

        ``fn`` returns a list of problems, or a tuple whose last item is one;
        an exception or a reported problem marks the operation failed.
        """
        self.attempted += 1
        try:
            result = fn(*args)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.problems.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        problems = result if isinstance(result, list) else result[-1]
        if problems:
            self.problems.append(f"{label}: " + "; ".join(problems[:3]))
        return result


def timed_loop(inp: Inputs, tracer: Tracer, tally: Tally, seconds: float):
    """Run the workload's operation, in whole cycles, until ``seconds`` have passed.

    Traced, every other cycle records spans, so that the two halves measure
    the tracing overhead.  Returns per-operation (seconds, traced) pairs,
    items done, and the loop's elapsed seconds.
    """
    op = OPS[inp.workload.kind]
    cycle = 5 if inp.workload.kind == "cli" else 1
    enabled = tracer.enabled
    walls, items, index = [], 0, 0
    start = perf()
    try:
        while index == 0 or index % cycle or perf() - start < seconds:
            tracer.enabled = enabled and (index // cycle) % 2 == 1
            with tracer.span("bench.op"):
                result = tally.attempt(f"op {index}", op, inp, tracer, index)
            if result is not None:
                walls.append((result[0], tracer.enabled))
                items += result[1]
            index += 1
    finally:
        tracer.enabled = enabled
    return walls, items, perf() - start


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples).  With fewer than forty samples
    that percentile would lie below the upper quartile, and a run one
    operation longer or shorter could report another part of the
    distribution; the upper quartile is reported instead.
    """
    ordered = sorted(values)
    k = len(ordered)
    if k == 1:
        return ordered[0], 100.0, k
    if k < 40:
        return statistics.quantiles(ordered, n=4)[2], 75.0, k
    return ordered[k - 11], 100.0 * (k - 10) / k, k


def end_to_end(inp: Inputs, tally: Tally, seconds: float) -> tuple[dict, dict]:
    tracer = Tracer(False)
    walls, items, elapsed = timed_loop(inp, tracer, tally, seconds)
    checks = [("reference", check_reference), ("theory", check_theory)]
    if inp.workload.kind == "mc":
        checks.append(("replicate 0", check_replicate_zero))
    for label, check in checks:
        tally.attempt(label, check, inp, tracer)
    rss_kb = max(resource.getrusage(r).ru_maxrss for r in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    if not walls:
        return {}, {}
    times = [s for s, _ in walls]
    tail_value, tail_pct, count = tail(times)
    metrics = {
        "wall_tail_s": (tail_value, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    details = {"operations": count, "tail_percentile": tail_pct, "items": items, "elapsed_s": elapsed,
               "throughput_per_s": items / sum(times), "operation_s": times}
    return metrics, details


def repeat(fn, budget: float, min_calls: int = 3, max_calls: int = 2000) -> list:
    """Call ``fn`` at least ``min_calls`` times and until ``budget`` seconds have passed."""
    out = []
    end = perf() + budget
    while len(out) < min_calls or (len(out) < max_calls and perf() < end):
        out.append(fn())
    return out


def p50(values) -> float:
    return statistics.median(values)


def probe_simulation(inp: Inputs, tracer: Tracer, budget: float) -> dict:
    """All-rows versus no-estimator calls split sampling from the kernel."""
    w = inp.workload
    pop, n = inp.mc_pop, w.mc_n

    def pair(name, fn, *args):
        """(all-rows seconds, no-estimator seconds, all-rows result); the last argument is the estimators."""
        full, full_s = tracer.call(name, fn, *args)
        return full_s, tracer.call(name, fn, *args[:-1], ())[1], full

    cfg = {"n": n, "replicates": w.mc_replicates, "seed": inp.op_seed(0)}
    mc = repeat(lambda: pair("simulation.monte_carlo", run_mc, pop, cfg, tuple(EstimatorId)), budget)
    enum = repeat(lambda: pair("simulation.enumerate_all_samples", enumerate_all_samples, inp.csv_pop, w.enum_n, None), budget)
    first_mc, first_enum = mc[0][2], enum[0][2]
    sampling = p50(bare for _, bare, _ in mc)
    generation = p50(bare for _, bare, _ in enum)
    rows = first_mc.rows[1:] + first_enum.rows[1:]
    rng = np.random.Generator(np.random.Philox(key=inp.op_seed(0)))
    return {
        "simulation.sampling_s": (sampling, "s"),
        "simulation.kernel_s": (p50(full for full, _, _ in mc) - sampling, "s"),
        "simulation.enum_generation_s": (generation, "s"),
        "simulation.enum_kernel_s": (p50(full for full, _, _ in enum) - generation, "s"),
        "simulation.samples": (first_mc.samples + first_enum.samples, "count"),
        "simulation.degenerate_samples": (first_mc.rows[1].degenerate_count + first_enum.rows[1].degenerate_count, "count"),
        "simulation.useful_ratio": (
            sum(r.effective_replicates for r in rows) / sum(r.effective_replicates + r.degenerate_count for r in rows),
            "ratio",
        ),
        "simulation.draw_srswor_us": (timing(tracer, budget, 1e6, "simulation.draw_srswor", draw_srswor, pop, n, rng), "us"),
    }


def run_mc(pop, cfg: dict, estimators):
    return monte_carlo(pop, SimConfig(**cfg, estimators=estimators))


def timing(tracer: Tracer, budget: float, scale: float, name: str, fn, *args) -> float:
    """Median seconds of repeated ``fn(*args)`` calls, times ``scale``."""
    return scale * p50(repeat(lambda: tracer.call(name, fn, *args)[1], budget))


def probe_scalar_layers(inp: Inputs, tracer: Tracer, budget: float) -> dict:
    """The estimators, theory and population functions the CLI calls once per request."""
    pop, n = inp.mc_pop, inp.workload.mc_n
    params = compute_params(pop)
    rng = np.random.Generator(np.random.Philox(key=inp.op_seed(1)))
    sample = draw_srswor(pop, n, rng)
    while not 0 < int(sample.phi.sum()) < n:
        sample = draw_srswor(pop, n, rng)

    def estimate_all():
        stats = compute_sample_stats(sample)
        return [estimate_named(stats, params.P, e, params) for e in EstimatorId]

    def report_all():
        return [mse_report(inp.villages, wl.VILLAGES_N, e) for e in EstimatorId]

    def villages():
        return params_from_moments(**wl.VILLAGES)

    return {
        "estimators.scalar_estimate_us": (timing(tracer, budget, 1e6, "estimators.estimate", estimate_all), "us"),
        "theory.pre_table_us": (timing(tracer, budget, 1e6, "theory.pre_table", pre_table, inp.villages), "us"),
        "theory.mse_report_us": (timing(tracer, budget, 1e6 / len(EstimatorId), "theory.mse_report", report_all), "us"),
        "population.params_from_moments_us": (timing(tracer, budget, 1e6, "population.params_from_moments", villages), "us"),
        "population.compute_params_ms": (timing(tracer, budget, 1e3, "population.compute_params", compute_params, inp.pop), "ms"),
        "population.load_population_ms": (timing(tracer, budget, 1e3, "population.load_population", load_population, inp.csv), "ms"),
    }


IMPORT_TIMER = "import time; t = time.perf_counter(); import estlab; print(time.perf_counter() - t)"


def probe_cli(inp: Inputs, tracer: Tracer, budget: float) -> dict:
    def cold(code: str) -> tuple[float, str]:
        proc, secs = tracer.call("cli.process", run_process, [sys.executable, "-c", code])
        if proc.returncode != 0:
            raise RuntimeError(f"python -c {code!r} exited {proc.returncode}")
        return secs, proc.stdout

    metrics = {
        "cli.interpreter_s": (p50(repeat(lambda: cold("pass")[0], budget, min_calls=5)), "s"),
        "cli.import_s": (p50(repeat(lambda: float(cold(IMPORT_TIMER)[1]), budget, min_calls=5)), "s"),
    }
    for argv in wl.cli_commands(inp.csv, inp.seed, 0):
        metrics[f"cli.main_warm_us.{argv[0]}"] = (timing(tracer, budget, 1e6, "cli.main", run_cli_inprocess, argv), "us")
    return metrics


def per_layer(inp: Inputs, tally: Tally, seconds: float, trace_out: Path) -> tuple[dict, dict]:
    tracer = Tracer(True)
    walls, _, _ = timed_loop(inp, tracer, tally, seconds)
    budget = seconds / 30.0
    metrics: dict = {}
    with tracer.span("bench.probes"):
        for label, probe in (("simulation", probe_simulation), ("scalar layers", probe_scalar_layers), ("cli", probe_cli)):
            with tracer.span(f"bench.probe.{label}"):
                found = tally.attempt(f"probe {label}", lambda: (probe(inp, tracer, budget), []))
            if found is not None:
                metrics.update(found[0])
    layers = tracer.self_times()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layers.get(layer, 0.0), "s")
    traced = [s for s, on in walls if on]
    plain = [s for s, on in walls if not on]
    details = {"spans": len(tracer.spans), "self_s": layers}
    if traced and plain:
        metrics["trace.overhead_pct"] = (100.0 * (p50(traced) / p50(plain) - 1.0), "%")
        details["overhead_operations"] = {"traced": len(traced), "untraced": len(plain)}
    tracer.dump(trace_out)
    return metrics, details


def main() -> int:
    spec = json.loads(sys.argv[1])
    inp = Inputs(spec)
    setup_done = time.monotonic()
    if spec["mode"] == "setup":
        print(json.dumps({"setup_done": setup_done}))
        return 0
    tally = Tally()
    if spec["trace"]:
        metrics, details = per_layer(inp, tally, spec["seconds"], Path(spec["trace_out"]))
    else:
        metrics, details = end_to_end(inp, tally, spec["seconds"])
    print(json.dumps({
        "setup_done": setup_done,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
        "numpy": np.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
