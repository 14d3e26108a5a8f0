"""Command-line front end.

Subcommands:

* ``params``     population parameters from a CSV file or summary moments
* ``pre``        percent-relative-efficiency table (fixed order plus ranking)
* ``estimate``   point estimates on one explicit or seeded sample
* ``simulate``   seeded Monte Carlo accuracy report
* ``enumerate``  exact all-subsets accuracy report

Every command emits the envelope {command, inputs, results, warnings} as
JSON (default) or, with ``--format csv``, its row table: the parameters,
``results.table`` (PRE to two decimals), ``results.estimates`` or
``results.rows``, headed by the rows' keys, with null as an empty field.
Exit codes: 0 success, 2 validation or usage error (an out-of-range size
carries the library's message), 3 degenerate sample under the error
policy, 4 resource guard exceeded.  ``ESTLAB_SEED`` provides the default
seed when ``--seed`` is absent; with neither, the seed is 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Any, Sequence

import numpy as np

from . import theory
from .errors import (
    DegenerateSampleError,
    EstlabError,
    TooManySamplesError,
)
from .estimators import (
    EstimatorId,
    SampleData,
    compute_sample_stats,
    estimate_named,
)
from .population import (
    FinitePopulation,
    PopulationParams,
    bernoulli_kurtosis,
    compute_params,
    load_population,
    params_from_moments,
)
from .simulation import (
    SimConfig,
    SimResult,
    SyntheticSpec,
    draw_srswor,
    enumerate_all_samples,
    monte_carlo,
    synthesize_population,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_GUARD = 4

class CliError(Exception):
    """Validation failure that should exit with a usage error code."""


def _parse_kv_list(text: str, allowed: dict[str, Any], what: str) -> dict[str, float]:
    """Parse 'k=v,k=v' where allowed maps key -> converter."""
    out: dict[str, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise CliError(f"{what}: expected key=value, got {item!r}")
        key = key.strip()
        if key not in allowed:
            raise CliError(f"{what}: unknown key {key!r} (allowed: {', '.join(allowed)})")
        if key in out:
            raise CliError(f"{what}: duplicate key {key!r}")
        try:
            out[key] = allowed[key](value.strip())
        except ValueError:
            raise CliError(f"{what}: bad value for {key!r}: {value.strip()!r}") from None
    return out


def _parse_estimators(text: str | None) -> tuple[bool, tuple[EstimatorId, ...]]:
    """Split an estimator list into (include sample mean, ratio-type ids)."""
    if text is None:
        return True, tuple(EstimatorId)
    include_mean = False
    ids: list[EstimatorId] = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token == "mean":
            include_mean = True
        elif token in EstimatorId._value2member_map_:
            member = EstimatorId(token)
            if member not in ids:
                ids.append(member)
        else:
            raise CliError(
                f"unknown estimator {token!r} (allowed: {', '.join(theory.DISPLAY_ORDER)})"
            )
    if not include_mean and not ids:
        raise CliError("estimator list is empty")
    return include_mean, tuple(ids)


def _default_seed(value: int | None) -> int:
    if value is not None:
        if not 0 <= value < 2**64:
            raise CliError(f"--seed must fit in an unsigned 64-bit integer, got {value}")
        return value
    env = os.environ.get("ESTLAB_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise CliError(f"ESTLAB_SEED must be an integer, got {env!r}") from None
        if not 0 <= seed < 2**64:
            raise CliError(f"ESTLAB_SEED must fit in an unsigned 64-bit integer, got {seed}")
        return seed
    return 0


def _jsonable(value: Any) -> Any:
    """Replace non-finite floats with null, recursively."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


_MOMENT_KEYS = {
    "Ybar": float,
    "P": float,
    "rho": float,
    "Cy": float,
    "Cp": float,
    "beta2": float,
    "N": int,
}

_SYNTH_KEYS = {
    "N": int,
    "P": float,
    "intercept": float,
    "effect": float,
    "noise": float,
}


def _load_params_source(args: argparse.Namespace) -> tuple[PopulationParams, dict[str, Any], str]:
    """Resolve --input vs --moments into parameters plus an input echo."""
    if args.input is not None and args.moments is not None:
        raise CliError("give exactly one of --input or --moments")
    if args.input is not None:
        pop = load_population(args.input)
        params = compute_params(pop)
        return params, {"input": args.input, "N": pop.N}, "closed-form"
    if args.moments is not None:
        kv = _parse_kv_list(args.moments, _MOMENT_KEYS, "--moments")
        for required in ("Ybar", "P", "rho", "Cy", "Cp"):
            if required not in kv:
                raise CliError(f"--moments: missing required key {required!r}")
        params = params_from_moments(
            Ybar=kv["Ybar"],
            P=kv["P"],
            rho_pb=kv["rho"],
            C_y=kv["Cy"],
            C_p=kv["Cp"],
            beta2_phi=kv.get("beta2"),
            N=int(kv["N"]) if "N" in kv else None,
        )
        return params, {"moments": kv}, "given" if "beta2" in kv else "closed-form"
    raise CliError("one of --input or --moments is required")


def _moment_warnings(params: PopulationParams, beta2_source: str) -> list[str]:
    """Warn when a given kurtosis, or C_p or N*P at a known N, cannot come from a 0/1 attribute."""
    warnings: list[str] = []
    if beta2_source == "given":
        beta2 = params.beta2_phi
        binary = bernoulli_kurtosis(params.P)
        if beta2 < 1.0:
            warnings.append(f"beta2 = {beta2:g} is below 1, which no distribution has")
        elif abs(beta2 - binary) > 0.01 * binary:
            warnings.append(
                f"beta2 = {beta2:g} differs by more than 1% from {binary:g}, the kurtosis "
                f"(1-3PQ)/(PQ) of a 0/1 attribute with P = {params.P:g}"
            )
    if params.N is not None:
        holders = params.N * params.P
        if abs(holders - round(holders)) > 0.01 * holders:
            warnings.append(
                f"N*P = {holders:g} is more than 1% away from {round(holders)}, the nearest "
                f"whole number of attribute holders"
            )
        binary = math.sqrt(params.N * params.Q / ((params.N - 1) * params.P))
        if abs(params.C_p - binary) > 0.01 * binary:
            warnings.append(
                f"C_p = {params.C_p:g} is more than 1% away from {binary:g}, the value "
                f"sqrt(N*Q/((N-1)*P)) of a 0/1 attribute with P = {params.P:g} and N = {params.N}"
            )
    return warnings


def _load_population_source(args: argparse.Namespace, seed: int) -> tuple[FinitePopulation, dict[str, Any]]:
    if args.input is not None and args.synth is not None:
        raise CliError("give exactly one of --input or --synth")
    if args.input is not None:
        pop = load_population(args.input)
        return pop, {"input": args.input, "N": pop.N}
    if args.synth is not None:
        kv = _parse_kv_list(args.synth, _SYNTH_KEYS, "--synth")
        for required in ("N", "P"):
            if required not in kv:
                raise CliError(f"--synth: missing required key {required!r}")
        spec = SyntheticSpec(
            N=int(kv["N"]),
            P_target=kv["P"],
            intercept=kv.get("intercept", 0.0),
            attribute_effect=kv.get("effect", 1.0),
            noise_sd=kv.get("noise", 1.0),
        )
        return synthesize_population(spec, seed), {"synth": kv, "seed": seed}
    raise CliError("one of --input or --synth is required")


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _emit(
    args: argparse.Namespace,
    command: str,
    inputs: dict[str, Any],
    results: dict[str, Any],
    warnings: list[str],
    table: list[dict[str, Any]],
) -> None:
    """Write the envelope as JSON, or the flat rows of ``table`` as CSV."""
    if args.format == "json":
        envelope = {"command": command, "inputs": inputs, "results": results, "warnings": warnings}
        text = json.dumps(_jsonable(envelope), indent=2, allow_nan=False) + "\n"
    else:
        lines = [",".join(table[0])]
        for row in _jsonable(table):
            lines.append(",".join("" if v is None else str(v) for v in row.values()))
        text = "\n".join(lines) + "\n"
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_params(args: argparse.Namespace) -> int:
    params, echo, beta2_source = _load_params_source(args)
    results = {"params": dataclasses.asdict(params), "beta2_source": beta2_source}
    table = [{**results["params"], "beta2_source": beta2_source}]
    _emit(args, "params", echo, results, _moment_warnings(params, beta2_source), table)
    return EXIT_OK


def _cmd_pre(args: argparse.Namespace) -> int:
    params, echo, beta2_source = _load_params_source(args)
    warnings = _moment_warnings(params, beta2_source)
    n = args.n
    if n is not None and n < 1:
        raise CliError(f"--n must be at least 1, got {n}")
    with_mse = n is not None and params.N is not None
    if not with_mse:
        warnings.append("mean squared errors unavailable: requires both --n and a known N")
    mean_mse = theory.variance_sample_mean(params, n) if with_mse else None
    rows = {"mean": {"estimator": "mean", "pre": 100.0, "rank": None, "mse": mean_mse}}
    undefined: list[str] = []
    disagreements: list[str] = []
    family_pres: list[float] = []
    for e in EstimatorId:
        try:
            pre = theory.pre_vs_mean(params, e, n)
        except EstlabError as exc:
            pre = None
            undefined.append(f"{e.value}: {exc}")
        try:  # a zero MSE has no PRE, but the MSE itself is defined
            mse = theory.mse_report(params, n, e).mse if with_mse else None
        except EstlabError:  # undefined form; already listed in warnings
            mse = None
        rows[e.value] = {"estimator": e.value, "pre": pre, "rank": None, "mse": mse}
        if pre is not None and e is not EstimatorId.NG:
            family_pres.append(pre)
            if not theory.efficiency_vs_ng(params, e).threshold_agrees:
                disagreements.append(e.value)

    warnings.extend(undefined)
    if disagreements:
        warnings.append(
            "correlation-threshold rule disagrees with the direct MSE comparison "
            f"against the plain ratio estimator for: {', '.join(disagreements)}"
        )
    if family_pres and all(v <= 100.0 for v in family_pres):
        warnings.append("no family estimator improves on the sample mean for these parameters")

    ranked = theory.rank_pre_rows(
        tuple(theory.PreRow(label, r["pre"]) for label, r in rows.items() if r["pre"] is not None)
    )
    for rank, r in enumerate(ranked, 1):
        rows[r.estimator]["rank"] = rank
    table = list(rows.values())
    results = {
        "table": table,
        "ranking": [{"estimator": r.estimator, "pre": r.pre} for r in ranked],
    }
    csv_table = [{**r, "pre": None if r["pre"] is None else f"{r['pre']:.2f}"} for r in table]
    _emit(args, "pre", echo, results, warnings, csv_table)
    return EXIT_OK


def _select_sample(args: argparse.Namespace, pop: FinitePopulation, seed: int) -> tuple[SampleData, dict[str, Any]]:
    if args.sample is not None and args.n is not None:
        raise CliError("give exactly one of --sample or --n")
    if args.sample is not None:
        try:
            indices = [int(tok) for tok in args.sample.split(",") if tok.strip()]
        except ValueError:
            raise CliError(f"--sample: expected comma-separated integers, got {args.sample!r}") from None
        if len(set(indices)) != len(indices):
            raise CliError("--sample: indices must be distinct")
        if any(not 1 <= i <= pop.N for i in indices):
            raise CliError(f"--sample: indices must lie in 1..{pop.N} (units are 1-based)")
        if len(indices) < 2:
            raise CliError("--sample: need at least 2 units")
        idx = np.array(indices, dtype=np.intp) - 1
        return SampleData(y=pop.y[idx], phi=pop.phi[idx]), {"sample": indices}
    if args.n is not None:
        rng = np.random.Generator(np.random.Philox(key=seed))
        sample = draw_srswor(pop, args.n, rng)
        return sample, {"n": args.n, "seed": seed}
    raise CliError("one of --sample or --n is required")


def _cmd_estimate(args: argparse.Namespace) -> int:
    pop = load_population(args.input)
    params = compute_params(pop)
    seed = _default_seed(args.seed)
    sample, echo = _select_sample(args, pop, seed)
    echo = {"input": args.input, "N": pop.N, **echo}
    include_mean, ids = _parse_estimators(args.estimators)
    stats = compute_sample_stats(sample)

    rows: list[dict[str, Any]] = []
    if include_mean:
        rows.append({"estimator": "mean", "estimate": stats.ybar, "reason": None})
    for e in ids:
        try:
            value = estimate_named(stats, params.P, e, params)
            rows.append({"estimator": e.value, "estimate": value, "reason": None})
        except EstlabError as exc:
            rows.append({"estimator": e.value, "estimate": None, "reason": str(exc)})

    warnings = [f"{r['estimator']}: {r['reason']}" for r in rows if r["reason"]]
    results = {"sample_stats": dataclasses.asdict(stats), "estimates": rows}
    _emit(args, "estimate", echo, results, warnings, rows)
    return EXIT_OK


_SIM_COLUMNS = [
    "estimator",
    "empirical_mean",
    "empirical_bias",
    "empirical_mse",
    "empirical_pre",
    "theoretical_mse",
    "relative_error",
    "degenerate_count",
    "effective_replicates",
]


def _sim_results(
    result: SimResult, params: PopulationParams, include_mean: bool
) -> tuple[dict[str, Any], list[str]]:
    """Attach closed-form MSEs and relative errors to a simulation report."""
    rows: list[dict[str, Any]] = []
    warnings: list[str] = []
    for row in result.rows:
        if row.estimator == "mean" and not include_mean:
            continue
        theoretical: float | None
        if row.estimator == "mean":
            theoretical = theory.variance_sample_mean(params, result.n)
        else:
            try:
                theoretical = theory.mse_report(params, result.n, EstimatorId(row.estimator)).mse
            except EstlabError as exc:  # undefined form: the row was skipped throughout
                theoretical = None
                warnings.append(f"{row.estimator}: {exc}")
        rel_err = (
            (row.empirical_mse - theoretical) / theoretical
            if theoretical is not None and theoretical > 0.0 and math.isfinite(row.empirical_mse)
            else None
        )
        if row.degenerate_count:
            warnings.append(
                f"{row.estimator}: skipped {row.degenerate_count} degenerate sample(s)"
            )
        values = {
            **dataclasses.asdict(row),
            "theoretical_mse": theoretical,
            "relative_error": rel_err,
        }
        rows.append({k: values[k] for k in _SIM_COLUMNS})
    results = {
        "mode": result.mode,
        "n": result.n,
        "samples": result.samples,
        "true_mean": result.true_mean,
        "rows": rows,
    }
    return results, warnings


def _cmd_simulate(args: argparse.Namespace) -> int:
    seed = _default_seed(args.seed)
    pop, echo = _load_population_source(args, seed)
    params = compute_params(pop)
    include_mean, ids = _parse_estimators(args.estimators)
    config = SimConfig(
        n=args.n,
        replicates=args.replicates,
        seed=seed,
        estimators=ids,
        degenerate_policy=args.policy,
    )
    result = monte_carlo(pop, config)
    echo = {**echo, "n": args.n, "replicates": args.replicates, "seed": seed, "policy": args.policy}
    results, warnings = _sim_results(result, params, include_mean)
    _emit(args, "simulate", echo, results, warnings, results["rows"])
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    pop = load_population(args.input)
    params = compute_params(pop)
    include_mean, ids = _parse_estimators(args.estimators)
    result = enumerate_all_samples(pop, args.n, ids, args.policy)
    echo = {"input": args.input, "N": pop.N, "n": args.n, "policy": args.policy}
    results, warnings = _sim_results(result, params, include_mean)
    _emit(args, "enumerate", echo, results, warnings, results["rows"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    p.add_argument("--output", metavar="PATH", help="write output to PATH instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="estlab",
        description=(
            "Attribute-assisted ratio estimators of a finite-population mean: "
            "parameters, efficiency tables, point estimates, and empirical verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="population parameters from a CSV file or summary moments")
    p.add_argument("--input", metavar="CSV", help="population CSV with header y,phi")
    p.add_argument("--moments", metavar="LIST", help="Ybar=..,P=..,rho=..,Cy=..,Cp=..[,beta2=..][,N=..]")
    _add_common(p)
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("pre", help="percent-relative-efficiency table")
    p.add_argument("--input", metavar="CSV")
    p.add_argument("--moments", metavar="LIST")
    p.add_argument("--n", type=int, help="sample size (PRE is n-free; enables MSE columns)")
    _add_common(p)
    p.set_defaults(func=_cmd_pre)

    p = sub.add_parser("estimate", help="point estimates on one sample")
    p.add_argument("--input", metavar="CSV", required=True)
    p.add_argument("--sample", metavar="IDX", help="comma-separated 1-based unit indices")
    p.add_argument("--n", type=int, help="draw a seeded sample of this size instead")
    p.add_argument("--seed", type=int, help="seed for --n (default: ESTLAB_SEED or 0)")
    p.add_argument("--estimators", metavar="LIST", help="comma-separated subset of " + ",".join(theory.DISPLAY_ORDER))
    _add_common(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", help="seeded Monte Carlo accuracy report")
    p.add_argument("--input", metavar="CSV")
    p.add_argument("--synth", metavar="LIST", help="N=..,P=..[,intercept=..][,effect=..][,noise=..]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--replicates", type=int, required=True)
    p.add_argument("--seed", type=int, help="default: ESTLAB_SEED or 0")
    p.add_argument("--estimators", metavar="LIST")
    p.add_argument("--policy", choices=("skip", "error"), default="skip")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("enumerate", help="exact all-subsets accuracy report")
    p.add_argument("--input", metavar="CSV", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--estimators", metavar="LIST")
    p.add_argument("--policy", choices=("skip", "error"), default="skip")
    _add_common(p)
    p.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TooManySamplesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except DegenerateSampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (CliError, EstlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
