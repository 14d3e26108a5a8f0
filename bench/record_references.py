"""Record references.json: operation 0 of each workload at the reference seed.

The benchmark compares every run against these results.  Run once, from
the checkout root, on the commit whose outputs are the reference:

    PYTHONPATH=src python3 bench/record_references.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import worker
import workloads as wl


def main() -> None:
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        ref_csv = Path(tmp) / "reference.csv"
        wl.write_population_csv(ref_csv, wl.REFERENCE_SEED)
        refs = {name: worker.reference_summary(w, ref_csv) for name, w in wl.WORKLOADS.items()}
    worker.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
