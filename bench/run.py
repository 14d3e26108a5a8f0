"""estlab benchmark: one workload per invocation, run from a source checkout.

Usage, from the root of the checkout:

    python3 bench/run.py --workload mc-wide --seed 1 --seconds 20 --trace 0

It generates the run's inputs from ``--seed``, starts fresh worker
processes (``worker.py``) on the source tree, and prints:

* one ``# provenance`` line: code version, machine, versions, seeds;
* one line per metric: name, value, unit;
* as the last line, one JSON object with ``correct``, ``attempted``,
  ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a traced run and writes its spans to
``.bench_out/``.  ``setup_s`` is measured in every run: the median over
several fresh processes of the time from process start to inputs built and
one warm-up call done.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
#: Fresh processes timed for set-up, besides the measuring process itself.
#: Half start before the measuring process and half after it, so that the
#: median samples the machine at both ends of the run.
SETUP_PROCESSES = 6
#: Pin numeric libraries to one thread so runs on a shared machine are steady.
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
#: Every worker must have ended this many seconds after run.py started.
DEADLINE_S = 170


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        p.error("--seed must lie in [0, 2**32)")
    if not 0 < args.seconds <= 120:
        p.error("--seconds must lie in (0, 120]")
    return args


def read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def provenance(root: Path, args: argparse.Namespace) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        sha = "unavailable"
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "estlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = next(
        (line.split(":", 1)[1].strip() for line in read_text("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = read_text(str(index / "level")).strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = read_text(str(index / "size")).strip()
    role = {wl.TUNING_SEED: "tuning", wl.HELD_OUT_SEED: "held-out"}.get(args.seed, "other")
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "cache": caches,
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seed_role": role,
        "tuning_seed": wl.TUNING_SEED,
        "held_out_seed": wl.HELD_OUT_SEED,
        "reference_seed": wl.REFERENCE_SEED,
        "operation_seeds": "(seed << 20) + operation index",
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "threads_env": THREAD_ENV,
    }


def spawn(spec: dict, env: dict, root: Path, deadline: float) -> tuple[float, dict | None, str]:
    """Run one worker; return its start time, its last-line JSON (None on failure) and an error.

    The worker runs in its own process group, so that on timeout the CLI
    processes it started are killed with it.
    """
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return start, None, f"{spec['mode']} worker timed out"
    except BaseException:  # interrupted or terminated: take the worker's group down too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return start, None, f"{spec['mode']} worker exited {proc.returncode}: {stderr.strip()[-800:]}"
    return start, json.loads(lines[-1]), ""


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    if not (root / "src" / "estlab" / "__init__.py").is_file():
        print(f"error: no estlab source tree under {root}/src; run from the checkout root", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = root / ".bench_out"
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    try:
        return measure(args, root, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args: argparse.Namespace, root: Path, work: Path, out_dir: Path) -> int:
    csv, ref_csv = work / "population.csv", work / "reference.csv"
    wl.write_population_csv(csv, args.seed)
    wl.write_population_csv(ref_csv, wl.REFERENCE_SEED)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spec = {
        "mode": "setup", "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "csv": str(csv), "ref_csv": str(ref_csv),
        "trace_out": str(out_dir / f"{stem}-spans.json"),
    }
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(root / "src")}
    deadline = time.monotonic() + DEADLINE_S
    attempted, problems, setups = SETUP_PROCESSES, [], []

    def time_setups(count: int) -> None:
        for _ in range(count):
            began, ready, error = spawn(spec, env, root, deadline)
            if ready is None:
                problems.append(error)
            else:
                setups.append(ready["setup_done"] - began)

    time_setups(SETUP_PROCESSES // 2)
    start, result, error = spawn({**spec, "mode": "run"}, env, root, deadline)
    time_setups(SETUP_PROCESSES - SETUP_PROCESSES // 2)
    metrics: dict = {}
    details: dict = {}
    numpy = "unknown"
    if result is None:
        attempted += 1
        problems.append(error)
    else:
        setups.append(result["setup_done"] - start)
        attempted += result["attempted"]
        problems.extend(result["problems"])
        metrics = result["metrics"]
        details = result["details"]
        numpy = result["numpy"]
    if not args.trace and setups:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    prov = {**provenance(root, args), "numpy": numpy}
    failed = len(problems)
    summary = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report = {**summary, "error_rate": failed / attempted, "problems": problems,
              "setup_samples_s": setups, "details": details, "provenance": prov}
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=2))

    print("# provenance " + json.dumps(prov))
    for problem in problems:
        print(f"# FAILED {problem}")
    print(f"# error_rate {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    if "tail_percentile" in details:
        print(f"# wall_tail_s is p{details['tail_percentile']:.1f} of {details['operations']} operations")
        print(f"# throughput_per_s {details['throughput_per_s']!r} 1/s (informational, not a BENCHMARK.json metric)")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(summary))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
