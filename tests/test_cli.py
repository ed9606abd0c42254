"""End-to-end CLI checks: outputs, formats, determinism, exit codes."""
import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

from click.testing import CliRunner

import crl_atlas.crl
import crl_atlas.reference_tables as reference_tables
from crl_atlas.apolarity import apply_operator
from crl_atlas.cli import main
from crl_atlas.poly_core import BinaryForm, parse_rational


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env)


class TestTables:
    def test_table1_small(self):
        res = run("tables", "1", "--max-r", "3")
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert [row["lam"] for row in doc["rows"]] == ["3", "3", "2,1", "2,1"]
        assert doc["rows"][0] == {
            "lam": "3",
            "j": 0,
            "d": 4,
            "r": 3,
            "terms": [{"mult": 1, "mu": "4"}],
        }
        assert "conjectural" in doc["status"]

    def test_table1_full_matches_fixture(self):
        res = run("tables", "1", "--max-r", "7")
        assert res.exit_code == 0
        got = {
            (row["lam"], row["j"]): (
                row["d"],
                row["r"],
                tuple((t["mult"], t["mu"]) for t in row["terms"]),
            )
            for row in json.loads(res.output)["rows"]
        }
        want = {
            (",".join(str(p) for p in lam), j): (
                d,
                r,
                tuple((m, ",".join(str(p) for p in mu)) for m, mu in terms),
            )
            for lam, j, d, r, terms in reference_tables.DECOMPOSITIONS
        }
        assert got == want
        assert len(json.loads(res.output)["rows"]) == 91

    def test_count_tables_match_fixtures(self):
        for which, fixture in (
            ("2", reference_tables.COUNTS_ODD),
            ("3", reference_tables.COUNTS_EVEN),
        ):
            res = run("tables", which, "--max-k", str(max(fixture)))
            assert res.exit_code == 0
            for row in json.loads(res.output)["rows"]:
                d_fix, counts_fix = fixture[row["k"]]
                assert row["d"] == d_fix
                assert tuple(row["counts"]) == counts_fix

    def test_csv_format_parses(self):
        res = run("--format", "csv", "tables", "2", "--max-k", "5")
        assert res.exit_code == 0
        rows = list(csv.reader(io.StringIO(res.output)))
        config_rows = [r for r in rows if r[0].startswith("config.")]
        assert ["config.seed", "0"] in config_rows
        body = rows[len(config_rows):]
        assert body[0] == ["k", "d", "counts"]
        assert body[1] == ["3", "5", "1 1"]


class TestScalarCommands:
    def test_degree(self):
        res = run("degree", "-p", "5")
        assert res.exit_code == 0
        assert json.loads(res.output)["degree"] == 5

    def test_dual_degree_worked_value(self):
        res = run("dual-degree", "-p", "5,4,3,2")
        assert json.loads(res.output)["dual_degree"] == 2880

    def test_dual_degree_rejects_part_one(self):
        res = run("dual-degree", "-p", "3,1")
        assert res.exit_code == 1
        assert "error:" in res.output

    def test_polar_degree_with_status(self):
        res = run("polar-degree", "-p", "4,3,2,2", "--j", "1")
        doc = json.loads(res.output)
        assert doc["polar_degree"] == 1740
        assert "conjectural" in doc["status"]

    def test_pullback_decomposition(self):
        res = run("pullback", "-p", "3,2", "--j", "1")
        dec = json.loads(res.output)["decomposition"]
        assert dec["d"] == 6 and dec["r"] == 5
        assert dec["terms"] == [
            {"mult": 1, "mu": [4, 2]},
            {"mult": 2, "mu": [3, 3]},
        ]


class TestRank:
    COEFFS = "2,2,4,8,16,33"  # sum of three real fifth powers

    def test_real_rank_with_verifiable_witness(self):
        res = run("rank", "--degree", "5", "--coeffs", self.COEFFS)
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["value"] == 3
        assert doc["field"] == "real"
        assert doc["lower_bound_kind"] == "exact"
        f = BinaryForm.from_coeffs([parse_rational(c) for c in self.COEFFS.split(",")])
        q = BinaryForm.from_coeffs([parse_rational(c) for c in doc["witness"]["coeffs"]])
        assert q.degree == doc["value"]
        assert apply_operator(q, f).is_zero

    def test_identical_invocations_identical_bytes(self):
        first = run("rank", "--degree", "5", "--coeffs", self.COEFFS)
        second = run("rank", "--degree", "5", "--coeffs", self.COEFFS)
        assert first.output == second.output

    def test_complex_field(self):
        res = run("rank", "--degree", "5", "--coeffs", self.COEFFS,
                  "--field", "complex")
        assert json.loads(res.output)["value"] == 3
        res = run("rank", "--degree", "4", "--coeffs", "0,1,0,0,0",
                  "--field", "complex")
        assert json.loads(res.output)["value"] == 4

    def test_zero_form_fails_cleanly(self):
        res = run("rank", "--degree", "3", "--coeffs", "0,0,0,0")
        assert res.exit_code == 1
        assert "error:" in res.output


class TestHistogram:
    def test_deterministic_and_thread_invariant(self):
        base = run("histogram", "--d", "3", "--samples", "24")
        assert base.exit_code == 0
        counts = json.loads(base.output)["counts"]
        assert set(counts) <= {"2", "3"}
        assert sum(counts.values()) == 24
        again = run("histogram", "--d", "3", "--samples", "24")
        threaded = run("histogram", "--d", "3", "--samples", "24",
                       env={"CRL_ATLAS_THREADS": "2"})
        assert json.loads(again.output)["counts"] == counts
        assert json.loads(threaded.output)["counts"] == counts

    def test_bad_arguments(self):
        res = run("histogram", "--d", "0", "--samples", "4")
        assert res.exit_code == 1
        assert "error:" in res.output
        assert run("histogram", "--d", "3", "--samples", "-1").exit_code == 1


class TestBoundaryCommands:
    def test_candidates(self):
        res = run("boundary", "candidates", "--d", "7", "--r", "5",
                  "--mode", "theorem")
        doc = json.loads(res.output)
        assert doc["candidates"] == [
            {"mu": "5,2", "provenance": "theorem-superset"},
            {"mu": "4,3", "provenance": "theorem-superset"},
            {"mu": "3,2,2", "provenance": "theorem-superset"},
        ]

    def test_candidates_rejects_atypical_rank(self):
        res = run("boundary", "candidates", "--d", "5", "--r", "2")
        assert res.exit_code == 1
        assert "not a typical rank" in res.output

    def test_membership_on(self):
        res = run("--format", "text", "boundary", "membership",
                  "--mu", "3,2", "--coeffs", "1,0,0,0,1,0")
        assert res.exit_code == 0
        assert res.output.splitlines()[0].startswith("config: ")
        assert "mu=(3,2): on" in res.output

    def test_membership_inconclusive_exit_code(self):
        res = run("--tol-on", "1e-30", "--tol-off", "0.5", "boundary",
                  "membership", "--mu", "3,2", "--coeffs", "1,0,0,0,1,0")
        assert res.exit_code == 3
        assert json.loads(res.output)["verdict"] == "inconclusive"

    def test_cross_scan(self):
        res = run("boundary", "cross", "--d", "4", "--from", "2,4,6,4,2",
                  "--to", "1,-10,35,-50,24", "--steps", "24")
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert len(doc["events"]) == 1
        event = doc["events"][0]
        assert (event["r_left"], event["r_right"]) == (3, 4)
        assert event["anomaly"] is False
        assert event["memberships"][0]["mu"] == "4"
        assert event["memberships"][0]["verdict"] == "on"
        assert F(event["eps_lo"]) < F(event["eps_hi"])


class TestOutputEnvelope:
    def test_json_echoes_config(self):
        res = run("--seed", "9", "--format", "json", "degree", "-p", "3")
        doc = json.loads(res.output)
        assert list(doc)[0] == "config"
        assert doc["config"]["seed"] == 9
        assert doc["config"]["output_format"] == "json"
        res = run("--seed", "7", "--rank-samples", "300", "rank",
                  "--degree", "5", "--coeffs", TestRank.COEFFS)
        assert res.exit_code == 0
        config = json.loads(res.output)["config"]
        assert (config["seed"], config["rank_samples"]) == (7, 300)
        # options belong before the subcommand, and only there
        res = run("rank", "--degree", "5", "--coeffs", TestRank.COEFFS,
                  "--seed", "3")
        assert res.exit_code == 2

    def test_text_leads_with_config(self):
        res = run("--format", "text", "degree", "-p", "3")
        lines = res.output.splitlines()
        assert lines[0].startswith("config: seed=0")
        assert lines[1] == "partition: 3"


class TestExitCodes:
    def test_usage_errors_exit_two(self):
        assert run("--tol-on", "0.5", "--tol-off", "1e-3",
                   "degree", "-p", "3").exit_code == 2
        assert run("rank", "--degree", "4").exit_code == 2
        assert run("--rank-samples", "-5", "degree", "-p", "3").exit_code == 2
        assert run("histogram", "--d", "3", "--samples", "4",
                   env={"CRL_ATLAS_THREADS": "abc"}).exit_code == 2
        assert run("histogram", "--d", "3", "--samples", "4",
                   env={"CRL_ATLAS_THREADS": "0"}).exit_code == 2

    def test_coefficient_count_mismatch_is_usage_error(self):
        res = run("rank", "--degree", "4", "--coeffs", "1,2,3")
        assert res.exit_code == 2


class TestSelfcheck:
    def test_clean_build_passes(self):
        res = run("selfcheck", "--max-r", "6")
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["ok"] is True
        assert [s["name"] for s in doc["suites"]] == [
            "table1-fixture",
            "tables23-fixture",
            "worked-example",
            "degree-sum-identity",
            "rank-witnesses",
            "json-round-trips",
        ]
        assert all(s["failed"] == 0 for s in doc["suites"])

    def test_corrupted_fixture_is_caught(self, monkeypatch):
        fixture = reference_tables.DECOMPOSITIONS
        monkeypatch.setattr(
            reference_tables, "DECOMPOSITIONS", fixture[:1] + fixture[2:]
        )
        res = run("selfcheck", "--max-r", "4")
        assert res.exit_code == 1
        doc = json.loads(res.output)
        bad = {s["name"] for s in doc["suites"] if s["failed"]}
        assert "table1-fixture" in bad

    def test_poisoned_multiplicity_surfaces_inconsistency(self, monkeypatch):
        monkeypatch.setattr(crl_atlas.crl, "multiplicity", lambda child, lam: 1)
        res = run("selfcheck", "--max-r", "5")
        assert res.exit_code == 1
        doc = json.loads(res.output)
        messages = [m for s in doc["suites"] for m in s["failures"]]
        assert any("conjecture inconsistency" in m for m in messages)

    def test_text_report_shape(self):
        res = run("--format", "text", "selfcheck", "--max-r", "4")
        lines = res.output.splitlines()
        assert lines[0].startswith("config: ")
        assert lines[-1] == "selfcheck: all suites passed"
        assert all(line.startswith("[PASS]") for line in lines[1:-1])


def loaded_after(imports: str, packages: tuple[str, ...]) -> str:
    """Top-level packages among ``packages`` loaded by a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        f"import sys, {imports}; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))"
    )
    return subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    ).stdout.strip()


class TestLazyImports:
    def test_package_and_cli_import_without_scipy(self):
        # scipy.optimize loads only when membership or the rank search runs
        assert loaded_after("crl_atlas, crl_atlas.cli", ("scipy",)) == "[]"

    def test_package_imports_without_numpy(self):
        # numpy loads only when a float layer runs: membership, the rank search
        assert loaded_after("crl_atlas", ("numpy", "scipy")) == "[]"
