"""Run-to-run spread of the end-to-end metrics, one workload at a time.

Runs ``run.py`` once per seed and prints, per metric, the median and the
distance between the first and third quartiles as a share of the median,
next to the metric's bound in BENCHMARK.json.  The last line is a JSON
summary with every value, which is how ``BENCH_0.json`` was made.  From the
checkout root:

    python3 bench/spread.py --workload mc-wide --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    summary: dict = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workload:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            summary.setdefault("provenance", json.loads(lines[0].removeprefix("# provenance ")))
            result = json.loads(lines[-1])
            ok &= result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        stats = summary["workloads"][workload] = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            ok &= spread <= bounds[name] / 3
            stats[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"{workload} {name}: median {median:.6g} spread {spread:.4f} bound {bounds[name]}"
                  f"{'' if spread <= bounds[name] / 3 else '  (above a third of the bound)'}")
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
