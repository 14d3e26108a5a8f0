"""Command-line interface: envelopes, formats, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import estlab
from estlab.cli import main

VILLAGE_MOMENTS = "Ybar=3.36,P=0.1236,rho=0.766,Cy=0.604,Cp=2.19,N=89"


@pytest.fixture()
def pop4(tmp_path):
    path = tmp_path / "pop4.csv"
    path.write_text("y,phi\n1,0\n2,0\n3,1\n4,1\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def prop10(tmp_path):
    """y = phi: three holders and seven non-holders."""
    path = tmp_path / "prop10.csv"
    path.write_text("y,phi\n" + "1,1\n" * 3 + "0,0\n" * 7, encoding="utf-8")
    return str(path)


@pytest.fixture()
def uncorrelated(tmp_path):
    """rho_pb is exactly 0, so t8 and t10 (m1 = rho_pb) have no defined form."""
    path = tmp_path / "uncorrelated.csv"
    path.write_text("y,phi\n1,1\n2,1\n2,0\n1,0\n3,0\n3,1\n", encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestEnvelope:
    def test_fixed_shape_on_every_command(self, capsys, pop4):
        invocations = [
            ("params", "--moments", VILLAGE_MOMENTS),
            ("pre", "--moments", VILLAGE_MOMENTS),
            ("estimate", "--input", pop4, "--sample", "1,3"),
            ("simulate", "--input", pop4, "--n", "2", "--replicates", "50"),
            ("enumerate", "--input", pop4, "--n", "2"),
        ]
        for argv in invocations:
            envelope = run_json(capsys, *argv)
            assert list(envelope) == ["command", "inputs", "results", "warnings"]
            assert envelope["command"] == argv[0]
            assert isinstance(envelope["warnings"], list)

    @pytest.mark.parametrize(
        "argv, table",
        [
            pytest.param(
                ("params", "--moments", VILLAGE_MOMENTS),
                lambda r: [{**r["params"], "beta2_source": r["beta2_source"]}],
                id="params",
            ),
            pytest.param(("pre", "--moments", VILLAGE_MOMENTS, "--n", "23"), lambda r: r["table"], id="pre"),
            pytest.param(
                ("estimate", "--input", "pop4", "--sample", "1,2", "--estimators", "ng,t1"),
                lambda r: r["estimates"],
                id="estimate",
            ),
            pytest.param(
                ("simulate", "--input", "uncorrelated", "--n", "3", "--replicates", "100"),
                lambda r: r["rows"],
                id="simulate",
            ),
            pytest.param(("enumerate", "--input", "pop4", "--n", "2"), lambda r: r["rows"], id="enumerate"),
        ],
    )
    def test_csv_is_the_json_table(self, capsys, request, argv, table):
        # The CSV header is the JSON rows' keys; a null is an empty field and
        # PRE is printed to two decimals.
        argv = [request.getfixturevalue(a) if a in ("pop4", "uncorrelated") else a for a in argv]
        rows = table(run_json(capsys, *argv)["results"])
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        header, *lines = out.splitlines()
        assert header.split(",") == list(rows[0])
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            expected = [
                "" if v is None else f"{v:.2f}" if k == "pre" else str(v) for k, v in row.items()
            ]
            assert line.split(",") == expected


class TestParams:
    def test_moments_with_closed_form_beta2(self, capsys):
        envelope = run_json(capsys, "params", "--moments", VILLAGE_MOMENTS)
        params = envelope["results"]["params"]
        assert params["beta2_phi"] == pytest.approx(6.23181, abs=1e-3)
        assert envelope["results"]["beta2_source"] == "closed-form"
        assert params["N"] == 89

    def test_moments_with_given_beta2(self, capsys):
        envelope = run_json(capsys, "params", "--moments", VILLAGE_MOMENTS + ",beta2=6.23181")
        assert envelope["results"]["beta2_source"] == "given"
        assert envelope["results"]["params"]["beta2_phi"] == 6.23181

    def test_given_beta2_checked_against_binary_kurtosis(self, capsys):
        # A 0/1 attribute has beta2 = (1-3PQ)/(PQ); no distribution has beta2 < 1.
        P = 0.1236
        closed_form = (1 - 3 * P * (1 - P)) / (P * (1 - P))
        for command, extra in (("params", ()), ("pre", ("--n", "23"))):
            bad = run_json(capsys, command, "--moments", VILLAGE_MOMENTS + ",beta2=-3", *extra)
            assert list(bad) == ["command", "inputs", "results", "warnings"]
            assert any("beta2 = -3 is below 1" in w for w in bad["warnings"])
            far = run_json(capsys, command, "--moments", VILLAGE_MOMENTS + ",beta2=9", *extra)
            assert any("differs by more than 1%" in w for w in far["warnings"])
            good = run_json(capsys, command, "--moments", VILLAGE_MOMENTS + f",beta2={closed_form!r}", *extra)
            assert not any("beta2" in w for w in good["warnings"])

    def test_given_cp_checked_against_binary_value(self, capsys, pop4):
        # A 0/1 attribute has C_p = sqrt(N*Q/((N-1)*P)): 2.678 at P = 0.1236, N = 89.
        without_n = VILLAGE_MOMENTS.replace(",N=89", "")
        for command, villages_n, pop4_n in (("params", (), ()), ("pre", ("--n", "23"), ("--n", "2"))):
            villages = run_json(capsys, command, "--moments", VILLAGE_MOMENTS, *villages_n)
            assert any(w.startswith("C_p = 2.19 is more than 1% away from 2.67791") for w in villages["warnings"])
            from_csv = run_json(capsys, command, "--input", pop4, *pop4_n)
            assert not any("C_p" in w for w in from_csv["warnings"])
            no_size = run_json(capsys, command, "--moments", without_n)
            assert not any("C_p" in w for w in no_size["warnings"])

    def test_holder_count_checked_against_whole_number(self, capsys, pop4):
        # N*P counts the attribute holders: P = 0.5 and N = 7 describe 3.5 of
        # them.  The villages give N*P = 11.0004, within 1% of 11.
        first = run_json(capsys, "params", "--input", pop4)["results"]["params"]
        round_trip = (
            f"Ybar={first['Ybar']!r},P={first['P']!r},rho={first['rho_pb']!r},"
            f"Cy={first['C_y']!r},Cp={first['C_p']!r},N={first['N']}"
        )
        for command, extra in (("params", ()), ("pre", ("--n", "3"))):
            half = run_json(capsys, command, "--moments", "Ybar=3,P=0.5,rho=0.5,Cy=0.5,Cp=1.08,N=7", *extra)
            assert "N*P = 3.5 is more than 1% away from 4, the nearest whole number of attribute holders" in (
                half["warnings"]
            )
            for moments in (VILLAGE_MOMENTS, round_trip):
                assert not any("N*P" in w for w in run_json(capsys, command, "--moments", moments, *extra)["warnings"])

    def test_input_path_hand_values(self, capsys, pop4):
        envelope = run_json(capsys, "params", "--input", pop4)
        params = envelope["results"]["params"]
        assert params["Ybar"] == 2.5
        assert params["P"] == 0.5
        assert params["S_y2"] == pytest.approx(5 / 3, rel=1e-12)
        assert params["S_phi2"] == pytest.approx(1 / 3, rel=1e-12)
        assert params["beta2_phi"] == pytest.approx(1.0, rel=1e-12)

    def test_both_sources_rejected(self, capsys, pop4):
        code, _, err = run(capsys, "params", "--input", pop4, "--moments", VILLAGE_MOMENTS)
        assert code == 2
        assert "exactly one" in err

    def test_neither_source_rejected(self, capsys):
        code, out, err = run(capsys, "params")
        assert code == 2
        assert out == ""
        assert err == "error: one of --input or --moments is required\n"

    def test_unknown_moment_key_rejected(self, capsys):
        code, _, err = run(capsys, "params", "--moments", "Ybar=1,P=0.5,rho=0,Cy=1,Cp=1,bogus=3")
        assert code == 2
        assert "bogus" in err

    def test_bad_moment_value_names_field(self, capsys):
        code, _, err = run(capsys, "params", "--moments", "Ybar=1,P=oops,rho=0,Cy=1,Cp=1")
        assert code == 2
        assert "P" in err

    def test_out_of_range_moment_names_field(self, capsys):
        code, _, err = run(capsys, "params", "--moments", "Ybar=1,P=1.5,rho=0,Cy=1,Cp=1")
        assert code == 2
        assert "P" in err

    def test_roundtrip_through_moments(self, capsys, pop4):
        first = run_json(capsys, "params", "--input", pop4)["results"]["params"]
        moments = (
            f"Ybar={first['Ybar']!r},P={first['P']!r},rho={first['rho_pb']!r},"
            f"Cy={first['C_y']!r},Cp={first['C_p']!r},beta2={first['beta2_phi']!r},N={first['N']}"
        )
        second = run_json(capsys, "params", "--moments", moments)["results"]["params"]
        for key in first:
            if first[key] is None:
                assert second[key] is None
            else:
                assert second[key] == pytest.approx(first[key], rel=1e-12)

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "params", "--moments", VILLAGE_MOMENTS, "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.startswith("Ybar,P,Q,")
        assert header.endswith("beta2_source")
        assert row.endswith("closed-form")


class TestPre:
    def test_village_table_ranks_t10_first(self, capsys):
        envelope = run_json(capsys, "pre", "--moments", VILLAGE_MOMENTS)
        ranking = envelope["results"]["ranking"]
        assert ranking[0]["estimator"] == "t10"
        table = {row["estimator"]: row for row in envelope["results"]["table"]}
        assert table["mean"]["pre"] == 100.0
        assert table["t10"]["rank"] == 1
        assert table["t10"]["pre"] == pytest.approx(240.2759, abs=5e-4)

    def test_csv_prints_two_decimals(self, capsys):
        code, out, _ = run(capsys, "pre", "--moments", VILLAGE_MOMENTS, "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "estimator,pre,rank,mse"
        ng_line = next(line for line in lines if line.startswith("ng,"))
        assert ng_line.split(",")[1] == "11.64"

    def test_n_omitted_warns_about_mse(self, capsys):
        envelope = run_json(capsys, "pre", "--moments", VILLAGE_MOMENTS)
        assert any("mean squared errors unavailable" in w for w in envelope["warnings"])
        assert all(row["mse"] is None for row in envelope["results"]["table"])

    def test_n_given_fills_mse(self, capsys):
        envelope = run_json(capsys, "pre", "--moments", VILLAGE_MOMENTS, "--n", "23")
        table = {row["estimator"]: row for row in envelope["results"]["table"]}
        assert table["mean"]["mse"] == pytest.approx(0.1327940220310698, rel=1e-12)
        assert table["t2"]["mse"] > 0
        assert not any("unavailable" in w for w in envelope["warnings"])

    def test_proportional_population_has_no_ng_pre(self, capsys, prop10):
        envelope = run_json(capsys, "pre", "--input", prop10, "--n", "4")
        table = {row["estimator"]: row for row in envelope["results"]["table"]}
        assert table["ng"]["pre"] is None
        assert table["ng"]["mse"] == 0.0
        assert table["ng"]["rank"] is None
        assert "ng" not in [row["estimator"] for row in envelope["results"]["ranking"]]
        assert all(row["mse"] is None or row["mse"] >= 0.0 for row in table.values())

    def test_uncorrelated_attribute_warns(self, capsys):
        envelope = run_json(capsys, "pre", "--moments", "Ybar=3,P=0.4,rho=0,Cy=0.7,Cp=0.8,N=50")
        assert any("no family estimator improves" in w for w in envelope["warnings"])
        assert envelope["warnings"][1:] == [
            "mean squared errors unavailable: requires both --n and a known N",
            "t8: m1 resolved to zero; the family requires m1 != 0",
            "t10: m1 resolved to zero; the family requires m1 != 0",
            "no family estimator improves on the sample mean for these parameters",
        ]
        table = {row["estimator"]: row for row in envelope["results"]["table"]}
        assert table["t8"]["pre"] is None  # m1 = rho = 0 has no defined form
        defined = [row["pre"] for row in envelope["results"]["table"] if row["pre"] is not None]
        assert all(p <= 100.0 for p in defined)

    def test_invalid_n_rejected(self, capsys):
        code, out, err = run(capsys, "pre", "--moments", VILLAGE_MOMENTS, "--n", "90")
        assert code == 2
        assert out == ""
        assert err == "error: sample size must satisfy 1 <= n <= 89, got 90\n"

    def test_nonpositive_n_rejected_without_population_size(self, capsys):
        code, _, err = run(capsys, "pre", "--moments", "Ybar=3.36,P=0.1236,rho=0.766,Cy=0.604,Cp=2.19", "--n", "-5")
        assert code == 2
        assert "--n must be at least 1" in err

    def test_non_finite_moment_names_field(self, capsys):
        code, out, err = run(capsys, "pre", "--moments", VILLAGE_MOMENTS + ",beta2=nan", "--n", "23")
        assert code == 2
        assert out == ""
        assert "beta2_phi must be finite" in err


    def test_zero_denominator_form_has_neither_pre_nor_mse(self, capsys):
        # rho = -P gives t4 (m1 = 1, m2 = rho) the form denominator m1*P + m2 = 0.
        moments = "Ybar=3,P=0.25,rho=-0.25,Cy=0.7,Cp=1.7,N=40"
        envelope = run_json(capsys, "pre", "--moments", moments, "--n", "5")
        table = {row["estimator"]: row for row in envelope["results"]["table"]}
        assert (table["t4"]["pre"], table["t4"]["mse"], table["t4"]["rank"]) == (None, None, None)
        assert envelope["warnings"][1:] == ["t4: zero denominator: m1*P + m2 = 0 for form (1.0, -0.25)"]
        assert all(row["mse"] > 0 for label, row in table.items() if label != "t4")


class TestEstimate:
    def test_zero_proportion_sample_reports_reason(self, capsys, pop4):
        envelope = run_json(capsys, "estimate", "--input", pop4, "--sample", "1,2", "--estimators", "ng,t1")
        rows = {r["estimator"]: r for r in envelope["results"]["estimates"]}
        assert rows["ng"]["estimate"] is None
        assert "zero sample proportion" in rows["ng"]["reason"]
        assert rows["t1"]["estimate"] is None

    def test_matched_proportion_collapses_to_sample_mean(self, capsys, pop4):
        envelope = run_json(capsys, "estimate", "--input", pop4, "--sample", "2,3")
        rows = {r["estimator"]: r for r in envelope["results"]["estimates"]}
        for row in rows.values():
            assert row["estimate"] == 2.5

    def test_saturated_sample_keeps_plain_ratio_only(self, capsys, pop4):
        # Units 3,4 hold the attribute: p=1, so b_phi is undefined for the
        # family but ybar*P/p = 3.5*0.5 stays computable.
        envelope = run_json(capsys, "estimate", "--input", pop4, "--sample", "3,4", "--estimators", "ng,t2")
        rows = {r["estimator"]: r for r in envelope["results"]["estimates"]}
        assert rows["ng"]["estimate"] == pytest.approx(1.75, rel=1e-12)
        assert rows["t2"]["estimate"] is None

    def test_seeded_sample_is_reproducible(self, capsys, pop4):
        first = run_json(capsys, "estimate", "--input", pop4, "--n", "2", "--seed", "5")
        second = run_json(capsys, "estimate", "--input", pop4, "--n", "2", "--seed", "5")
        assert first == second

    def test_env_seed_default(self, capsys, pop4, monkeypatch):
        monkeypatch.setenv("ESTLAB_SEED", "5")
        via_env = run_json(capsys, "estimate", "--input", pop4, "--n", "2")
        monkeypatch.delenv("ESTLAB_SEED")
        explicit = run_json(capsys, "estimate", "--input", pop4, "--n", "2", "--seed", "5")
        assert via_env["results"] == explicit["results"]

    def test_duplicate_indices_rejected(self, capsys, pop4):
        code, _, err = run(capsys, "estimate", "--input", pop4, "--sample", "2,2")
        assert code == 2
        assert "distinct" in err

    def test_zero_n_reports_size_error(self, capsys, pop4):
        code, _, err = run(capsys, "estimate", "--input", pop4, "--n", "0")
        assert code == 2
        assert "sample size must satisfy 2 <= n <= 4, got 0" in err

    def test_out_of_range_index_rejected(self, capsys, pop4):
        code, _, err = run(capsys, "estimate", "--input", pop4, "--sample", "0,3")
        assert code == 2

    def test_unknown_estimator_rejected(self, capsys, pop4):
        code, _, err = run(capsys, "estimate", "--input", pop4, "--sample", "1,3", "--estimators", "t99")
        assert code == 2


class TestSimulate:
    def test_deterministic_given_seed(self, capsys, pop4):
        argv = (
            "simulate", "--synth", "N=200,P=0.3,effect=2,noise=1",
            "--n", "40", "--replicates", "5000", "--seed", "7",
        )
        assert run_json(capsys, *argv) == run_json(capsys, *argv)

    def test_zero_replicates_rejected(self, capsys, pop4):
        code, out, err = run(capsys, "simulate", "--input", pop4, "--n", "2", "--replicates", "0")
        assert code == 2
        assert out == ""
        assert err == "error: replicates must be at least 1, got 0\n"

    def test_out_of_range_n_rejected(self, capsys, pop4):
        code, out, err = run(capsys, "simulate", "--input", pop4, "--n", "9", "--replicates", "10")
        assert code == 2
        assert out == ""
        assert err == "error: Monte Carlo needs 2 <= n < 4, got 9\n"

    def test_error_policy_exit_code(self, capsys, pop4):
        code, _, err = run(
            capsys,
            "simulate", "--input", pop4, "--n", "2", "--replicates", "500",
            "--seed", "1", "--policy", "error",
        )
        assert code == 3
        assert "replicate" in err

    def test_proportional_population_theory_is_nonnegative(self, capsys, prop10):
        envelope = run_json(
            capsys, "simulate", "--input", prop10, "--n", "4", "--replicates", "500", "--seed", "3"
        )
        rows = {r["estimator"]: r for r in envelope["results"]["rows"]}
        assert rows["ng"]["theoretical_mse"] == 0.0
        assert all(r["theoretical_mse"] >= 0.0 for r in rows.values())

    def test_report_includes_theory_columns(self, capsys):
        envelope = run_json(
            capsys,
            "simulate", "--synth", "N=50,P=0.4,effect=3,noise=1", "--n", "10",
            "--replicates", "2000", "--seed", "3", "--estimators", "mean,ng,t2",
        )
        rows = {r["estimator"]: r for r in envelope["results"]["rows"]}
        assert set(rows) == {"mean", "ng", "t2"}
        for row in rows.values():
            assert row["theoretical_mse"] > 0
            assert row["relative_error"] is not None
            assert row["effective_replicates"] + row["degenerate_count"] == 2000

    def test_one_chunk_run_loads_no_thread_pool(self):
        # concurrent.futures loads logging; only a multi-chunk Monte Carlo
        # run needs it.  A fresh interpreter shows what the commands import.
        script = f"""
import contextlib, io, sys
import estlab
from estlab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["pre", "--moments", {VILLAGE_MOMENTS!r}, "--n", "23"]) == 0
    assert main(["simulate", "--synth", "N=200,P=0.3", "--n", "40", "--replicates", "2000"]) == 0
print(sorted({{"concurrent.futures", "logging"}} & set(sys.modules)))
"""
        src = str(Path(estlab.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_both_population_sources_rejected(self, capsys, pop4):
        code, _, err = run(
            capsys,
            "simulate", "--input", pop4, "--synth", "N=10,P=0.5",
            "--n", "2", "--replicates", "10",
        )
        assert code == 2
        assert err == "error: give exactly one of --input or --synth\n"


class TestEnumerate:
    def test_four_unit_report(self, capsys, pop4):
        envelope = run_json(capsys, "enumerate", "--input", pop4, "--n", "2", "--estimators", "mean,ng,t1")
        assert envelope["results"]["samples"] == 6
        rows = {r["estimator"]: r for r in envelope["results"]["rows"]}
        assert rows["mean"]["empirical_bias"] == 0.0
        assert rows["mean"]["relative_error"] == pytest.approx(0.0, abs=1e-13)
        assert rows["ng"]["empirical_mse"] == 0.125
        assert rows["ng"]["degenerate_count"] == 2
        assert any("degenerate" in w for w in envelope["warnings"])

    def test_census_n_rejected(self, capsys, pop4):
        code, out, err = run(capsys, "enumerate", "--input", pop4, "--n", "4")
        assert code == 2
        assert out == ""
        assert err == "error: enumeration needs 2 <= n < 4, got 4\n"

    def test_guard_exit_code_and_count(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        rows = "\n".join(f"{i},{i % 2}" for i in range(30))
        path.write_text(f"y,phi\n{rows}\n", encoding="utf-8")
        code, _, err = run(capsys, "enumerate", "--input", str(path), "--n", "15")
        assert code == 4
        assert str(math.comb(30, 15)) in err

    def test_error_policy_reports_first_undefined_subset(self, capsys, tmp_path):
        # t4's denominator is zero on samples with one holder; the first of
        # them is subset 3 in itertools.combinations order.
        path = tmp_path / "zero_t4.csv"
        path.write_text("y,phi\n3,1\n0,1\n2,0\n2,0\n2,0\n", encoding="utf-8")
        code, out, err = run(
            capsys, "enumerate", "--input", str(path), "--n", "4", "--estimators", "t4", "--policy", "error"
        )
        assert code == 3
        assert out == ""
        assert err == "error: zero denominator for t4 (replicate 3)\n"

    def test_csv_output_to_file(self, capsys, pop4, tmp_path):
        out_path = tmp_path / "report.csv"
        code, out, _ = run(
            capsys,
            "enumerate", "--input", pop4, "--n", "2",
            "--format", "csv", "--output", str(out_path),
        )
        assert code == 0
        assert out == ""
        content = out_path.read_text(encoding="utf-8")
        assert content.splitlines()[0].startswith("estimator,empirical_mean")
        assert "\r" not in content


class TestUndefinedForms:
    @pytest.mark.parametrize(
        "argv",
        [("simulate", "--n", "3", "--replicates", "100"), ("enumerate", "--n", "3")],
    )
    def test_undefined_form_rows_are_reported_not_fatal(self, capsys, uncorrelated, argv):
        command = (argv[0], "--input", uncorrelated, *argv[1:])
        envelope = run_json(capsys, *command)
        rows = {r["estimator"]: r for r in envelope["results"]["rows"]}
        samples = envelope["results"]["samples"]
        for label in ("t8", "t10"):
            assert rows[label]["theoretical_mse"] is None
            assert rows[label]["relative_error"] is None
            assert rows[label]["empirical_mse"] is None
            assert (rows[label]["effective_replicates"], rows[label]["degenerate_count"]) == (0, samples)
            assert f"{label}: m1 resolved to zero; the family requires m1 != 0" in envelope["warnings"]
        others = "mean,ng,t1,t2,t3,t4,t5,t6,t7,t9"
        without = run_json(capsys, *command, "--estimators", others)
        kept = [r for r in envelope["results"]["rows"] if r["estimator"] in others.split(",")]
        assert without["results"]["rows"] == kept

        code, _, err = run(capsys, *command, "--policy", "error")
        assert code == 2
        assert "m1 resolved to zero" in err


class TestInputChecks:
    """Every CLI input check exits 2 with its message alone on stderr."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("params", "--moments", "Ybar"), "--moments: expected key=value, got 'Ybar'"),
            (("params", "--moments", "Ybar=1,Ybar=2"), "--moments: duplicate key 'Ybar'"),
            (("params", "--moments", "Ybar=1,P=0.5"), "--moments: missing required key 'rho'"),
            (("pre",), "one of --input or --moments is required"),
            (("pre", "--input", "pop4", "--moments", VILLAGE_MOMENTS), "give exactly one of --input or --moments"),
            (("simulate", "--synth", "N=10", "--n", "2", "--replicates", "5"), "--synth: missing required key 'P'"),
            (("simulate", "--n", "2", "--replicates", "5"), "one of --input or --synth is required"),
            (("estimate", "--input", "pop4", "--sample", "1,2", "--n", "2"), "give exactly one of --sample or --n"),
            (("estimate", "--input", "pop4"), "one of --sample or --n is required"),
            (
                ("estimate", "--input", "pop4", "--sample", "1,x"),
                "--sample: expected comma-separated integers, got '1,x'",
            ),
            (("estimate", "--input", "pop4", "--sample", "1"), "--sample: need at least 2 units"),
            (("estimate", "--input", "pop4", "--sample", "1,3", "--estimators", ",,"), "estimator list is empty"),
            (
                ("estimate", "--input", "pop4", "--n", "2", "--seed", str(2**64)),
                f"--seed must fit in an unsigned 64-bit integer, got {2**64}",
            ),
            (
                ("estimate", "--input", "pop4", "--n", "2", "--seed", "-1"),
                "--seed must fit in an unsigned 64-bit integer, got -1",
            ),
            (
                ("simulate", "--synth", "N=10,P=0.5", "--n", "2", "--replicates", "5", "--seed", "-1"),
                "--seed must fit in an unsigned 64-bit integer, got -1",
            ),
        ],
    )
    def test_rejected_with_message(self, capsys, request, monkeypatch, argv, message):
        monkeypatch.delenv("ESTLAB_SEED", raising=False)
        argv = [request.getfixturevalue(a) if a == "pop4" else a for a in argv]
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "env, message",
        [
            ("abc", "ESTLAB_SEED must be an integer, got 'abc'"),
            (str(2**64), f"ESTLAB_SEED must fit in an unsigned 64-bit integer, got {2**64}"),
            ("-1", "ESTLAB_SEED must fit in an unsigned 64-bit integer, got -1"),
        ],
    )
    def test_bad_env_seed_rejected(self, capsys, monkeypatch, pop4, env, message):
        monkeypatch.setenv("ESTLAB_SEED", env)
        assert run(capsys, "estimate", "--input", pop4, "--n", "2") == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", [("params",), ("pre", "--n", "3")])
    @pytest.mark.parametrize(
        "moments",
        [
            "Ybar=3,P=0.5,rho=0.1,Cy=0.7,Cp=1e-200",
            "Ybar=3,P=0.5,rho=0.1,Cy=1e-200,Cp=1",
            "Ybar=1e300,P=0.5,rho=0.1,Cy=1e10,Cp=1,N=10",
            "Ybar=1,P=0.5,rho=0.1,Cy=1e-160,Cp=1,N=10",
        ],
    )
    def test_overflowing_moments_refused(self, capsys, command, moments):
        code, out, err = run(capsys, command[0], "--moments", moments, *command[1:])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be finite and positive" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("params",),
            ("pre", "--n", "2"),
            ("estimate", "--n", "2"),
            ("simulate", "--n", "2", "--replicates", "10"),
            ("enumerate", "--n", "2"),
        ],
    )
    def test_overflowing_population_refused(self, capsys, tmp_path, argv):
        path = tmp_path / "huge.csv"
        path.write_text("y,phi\n1e200,1\n3e200,0\n2e200,1\n5e200,0\n", encoding="utf-8")
        code, out, err = run(capsys, argv[0], "--input", str(path), *argv[1:])
        assert (code, out) == (2, "")
        assert err == "error: the moments of y overflow float64; rescale the study values\n"

    @pytest.mark.parametrize("command", [("params",), ("pre", "--n", "3")])
    def test_subnormal_moments_mean_refused(self, capsys, command):
        moments = "Ybar=1e-310,P=0.5,rho=0.1,Cy=1e300,Cp=1,N=10"
        code, out, err = run(capsys, command[0], "--moments", moments, *command[1:])
        assert (code, out) == (2, "")
        assert err.startswith("error: Ybar must be positive, and not below") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [("params",), ("pre", "--n", "2"), ("simulate", "--n", "2", "--replicates", "10")])
    @pytest.mark.parametrize(
        "rows, message",
        [
            ("1e10,1\n-1e10,0\n4e-300,1\n0,0", "population mean is zero or too near zero (Ybar = 1e-300)"),
            ("0.1,1\n-0.1,0\n4e-309,1\n0,0", "population mean is zero or too near zero (Ybar = 1e-309)"),
            ("1e-160,1\n3e-160,0\n2e-160,1\n5e-160,0", "the variance of y, S_y2 = 2.91696e-320, is below"),
            ("1e-170,1\n3e-170,0\n2e-170,1\n5e-170,0", "the variance of y, S_y2 = 0, is below"),
            ("0.1,1\n0.1,0\n0.1,1", "study variable is constant"),
        ],
        ids=["tiny-mean", "subnormal-mean", "subnormal-variance", "underflowing-variance", "constant"],
    )
    def test_unusable_population_refused(self, capsys, tmp_path, command, rows, message):
        path = tmp_path / "pop.csv"
        path.write_text(f"y,phi\n{rows}\n", encoding="utf-8")
        code, out, err = run(capsys, command[0], "--input", str(path), *command[1:])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_empty_items_are_skipped(self, capsys, pop4):
        spaced = VILLAGE_MOMENTS.replace(",P=", ",,P=")
        assert run_json(capsys, "params", "--moments", spaced)["results"] == run_json(
            capsys, "params", "--moments", VILLAGE_MOMENTS
        )["results"]
        argv = ("estimate", "--input", pop4, "--sample", "1,3")
        assert run_json(capsys, *argv, "--estimators", "mean,,ng")["results"] == run_json(
            capsys, *argv, "--estimators", "mean,ng"
        )["results"]


class TestParsing:
    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unreadable_input_path(self, capsys):
        code, _, err = run(capsys, "params", "--input", "/nonexistent/file.csv")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("params",),
            ("pre",),
            ("estimate", "--sample", "1,2"),
            ("simulate", "--n", "2", "--replicates", "5"),
            ("enumerate", "--n", "2"),
        ],
        ids=lambda v: v[0],
    )
    def test_empty_input_path_rejected(self, capsys, argv):
        # An empty --input is a path that cannot be opened, not a missing one.
        code, out, err = run(capsys, argv[0], "--input", "", *argv[1:])
        assert code == 2
        assert out == ""
        assert "No such file or directory" in err

    def test_malformed_csv_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,phi\n1,0\n2,7\n", encoding="utf-8")
        code, _, err = run(capsys, "params", "--input", str(path))
        assert code == 2
        assert "line 3" in err
