"""Workload definitions and input generation for the estlab benchmark.

Standard library only: ``run.py`` imports this module before
any numpy or estlab code is loaded, so that set-up time is measured in
fresh worker processes alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

#: Seed a performance change may be tuned on.
TUNING_SEED = 1
#: Seed kept back from tuning, to check a claimed gain on fresh inputs.
HELD_OUT_SEED = 2
#: ``references.json`` holds the results of operation 0 of a run with this
#: seed, recorded before any change to the library.
REFERENCE_SEED = TUNING_SEED

#: Published summary moments of the villages data set used in the paper, as
#: ``params_from_moments`` keywords and as the CLI's ``--moments`` list.
VILLAGES = {"Ybar": 3.36, "P": 0.1236, "rho_pb": 0.766, "C_y": 0.604, "C_p": 2.19, "N": 89}
_CLI_KEYS = {"rho_pb": "rho", "C_y": "Cy", "C_p": "Cp"}
VILLAGES_MOMENTS = ",".join(f"{_CLI_KEYS.get(k, k)}={v}" for k, v in VILLAGES.items())
VILLAGES_N = 23

#: The population CSV every workload writes: N units, round(N * P) holders.
CSV_N = 26
CSV_HOLDERS = 10


@dataclass(frozen=True)
class Synth:
    """A synthetic population, as ``estlab simulate --synth`` describes it."""

    N: int
    P: float
    effect: float = 2.0
    noise: float = 1.0

    def cli_arg(self) -> str:
        return f"N={self.N},P={self.P},effect={self.effect},noise={self.noise}"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` selects the timed operation: one ``monte_carlo`` call (``mc``),
    one ``enumerate_all_samples`` call (``enumerate``) or one cold CLI
    process (``cli``).  The Monte Carlo and enumeration shapes are used by
    every workload's traced probes, and are the timed operation when
    ``kind`` names them.  ``synth`` is None when Monte Carlo runs on the
    CSV population.
    """

    name: str
    kind: str
    synth: Synth | None
    mc_n: int
    mc_replicates: int
    enum_n: int


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Sampling-bound: the Philox fill and argpartition over 2000 columns
        # take ~90% of the time and no sample is degenerate.
        Workload("mc-wide", "mc", Synth(2000, 0.3), mc_n=100, mc_replicates=5_000, enum_n=4),
        # Kernel-heavy: the per-sample estimator kernel takes ~45% of the
        # time and ~6% of the samples are degenerate and skipped.
        Workload("mc-narrow", "mc", Synth(12, 0.5), mc_n=4, mc_replicates=200_000, enum_n=4),
        # Same kernel over a deterministic sample source: all C(26,8) =
        # 1,562,275 subsets, ~80% of the time in combination generation.
        Workload("enumerate", "enumerate", None, mc_n=8, mc_replicates=20_000, enum_n=8),
        # Interactive use: cold processes dominated by interpreter start and
        # import; the only workload where theory and cli time shows end to end.
        Workload("cli-mix", "cli", Synth(200, 0.3), mc_n=40, mc_replicates=2_000, enum_n=4),
    )
}


def op_seed(seed: int, index: int) -> int:
    """Seed of the index-th timed operation of a run with workload seed ``seed``."""
    return (seed << 20) + index


def write_population_csv(path: Path, seed: int) -> None:
    """Write the CSV population of a run: y = 10 + 2*phi + N(0, 1), shuffled."""
    rng = random.Random(seed)
    phi = [1] * CSV_HOLDERS + [0] * (CSV_N - CSV_HOLDERS)
    rng.shuffle(phi)
    lines = ["y,phi"] + [f"{10.0 + 2.0 * f + rng.gauss(0.0, 1.0)!r},{f}" for f in phi]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cli_commands(csv: Path, seed: int, cycle: int) -> list[list[str]]:
    """The five ``estlab`` invocations of one cli-mix cycle."""
    s = str(op_seed(seed, cycle))
    workload = WORKLOADS["cli-mix"]
    return [
        ["params", "--moments", VILLAGES_MOMENTS],
        ["pre", "--moments", VILLAGES_MOMENTS, "--n", str(VILLAGES_N)],
        ["estimate", "--input", str(csv), "--n", "5", "--seed", s],
        [
            "simulate", "--synth", workload.synth.cli_arg(), "--n", str(workload.mc_n),
            "--replicates", str(workload.mc_replicates), "--seed", s,
        ],
        ["enumerate", "--input", str(csv), "--n", str(workload.enum_n)],
    ]
