import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

import dqw.cli
from dqw.cli import fan_out_plan, main, resolve_algebra
from dqw.graphs import parse_graph
from dqw.liealg import solvable2
from dqw.poly import parse_polynomial
from dqw.star import (
    cbh_product,
    check_associativity,
    check_equivalence,
    random_polynomials,
    uea_product,
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestBernoulli:
    def test_modified_json(self):
        code, out, _ = run(["bernoulli", "--max", "8", "--modified", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        values = [r["value"] for r in doc["rows"]]
        assert values == ["1", "1/2", "1/6", "0", "-1/30", "0", "1/42", "0", "-1/30"]

    def test_standard_differs_at_one(self):
        code, out, _ = run(["bernoulli", "--max", "1", "--format", "json"])
        assert json.loads(out)["rows"][1]["value"] == "-1/2"

    def test_poly_column(self):
        code, out, _ = run(["bernoulli", "--max", "2", "--poly", "--format", "json"])
        doc = json.loads(out)
        assert doc["rows"][2]["poly"] == "x1^2 - x1 + 1/6"


class TestHausdorff:
    def test_degree_three_rows(self):
        code, out, _ = run(["hausdorff", "--degree", "3", "--format", "json"])
        assert code == 0
        rows = {r["word"]: r["value"] for r in json.loads(out)["rows"]}
        assert rows == {"X": "1", "Y": "1", "XY": "1/2", "XXY": "1/12", "XYY": "1/12"}

    def test_bracket_column_parses(self):
        from dqw.freelie import parse_bracket

        _, out, _ = run(["hausdorff", "--degree", "4", "--format", "json"])
        for row in json.loads(out)["rows"]:
            if row["degree"] > 1:
                parse_bracket(row["bracket"])

    def test_linear_in_y(self):
        code, out, _ = run(
            ["hausdorff", "--degree", "10", "--linear-in-y", "--format", "json"]
        )
        rows = json.loads(out)["rows"]
        assert [r["value"] for r in rows[:5]] == ["1", "1/2", "1/12", "0", "-1/720"]
        from fractions import Fraction
        from math import factorial

        assert rows[10]["value"] == str(Fraction(5, 66) / factorial(10))


class TestAlgebraValidate:
    def test_builtin_ok(self):
        code, out, _ = run(["algebra", "validate", "heisenberg", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] and doc["dim"] == 3 and doc["triangular_nilpotent"]

    def test_file_ok(self, tmp_path):
        path = tmp_path / "alg.json"
        path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "dim": 3,
                    "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1"}}],
                }
            )
        )
        assert run(["algebra", "validate", str(path)])[0] == 0

    def test_jacobi_failure_exits_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "dim": 3,
                    "brackets": [
                        {"i": 1, "j": 2, "coeffs": {"3": "1"}},
                        {"i": 1, "j": 3, "coeffs": {"1": "1"}},
                    ],
                }
            )
        )
        code, out, _ = run(["algebra", "validate", str(path), "--format", "json"])
        assert code == 1
        assert json.loads(out)["jacobi"] is False

    def test_malformed_file_exits_two(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert run(["algebra", "validate", str(path)])[0] == 2

    def test_constant_file(self, tmp_path):
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps({"dim": 2, "alpha": [[0, "1/2"], ["-1/2", 0]]}))
        kind, matrix = resolve_algebra(str(path))
        assert kind == "constant"
        from fractions import Fraction

        assert matrix[0][1] == Fraction(1, 2)

    def test_builtin_name_not_shadowed_by_a_file(self, tmp_path, monkeypatch):
        # a file named like a builtin in the working directory is not read
        monkeypatch.chdir(tmp_path)
        (tmp_path / "heisenberg").write_text(
            json.dumps({"dim": 2, "alpha": [[0, 1], [-1, 0]]})
        )
        code, out, _ = run(["algebra", "validate", "heisenberg", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "lie" and doc["dim"] == 3
        kind, _ = resolve_algebra(os.path.join(".", "heisenberg"))
        assert kind == "constant"


class TestStar:
    def test_uea_series(self):
        code, out, _ = run(
            [
                "star", "--method", "uea", "--algebra", "heisenberg",
                "--f", "x1", "--g", "x2", "--order", "2", "--format", "json",
            ]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["series"][0]["value"] == "x1*x2"
        assert doc["series"][1]["value"] == "1/2*x3"
        assert doc["series"][2]["value"] == "0"

    def test_moyal_on_symplectic(self):
        code, out, _ = run(
            [
                "star", "--method", "moyal", "--algebra", "symplectic(2)",
                "--f", "x1", "--g", "x2", "--order", "1", "--format", "json",
            ]
        )
        assert json.loads(out)["series"][1]["value"] == "1/2"

    def test_emitted_polynomials_reparse(self):
        _, out, _ = run(
            [
                "star", "--method", "cbh", "--algebra", "strictly_upper(3)",
                "--f", "x1*x2", "--g", "x2^2", "--order", "3", "--format", "json",
            ]
        )
        doc = json.loads(out)
        for row in doc["series"]:
            parse_polynomial(row["value"], dim=3)

    def test_moyal_rejects_lie_algebra(self):
        code, _, err = run(
            [
                "star", "--method", "moyal", "--algebra", "heisenberg",
                "--f", "x1", "--g", "x2", "--order", "2",
            ]
        )
        assert code == 2 and "error:" in err

    def test_bad_polynomial_exits_two(self):
        code, _, err = run(
            [
                "star", "--method", "uea", "--algebra", "heisenberg",
                "--f", "x1 +* 2", "--g", "x2", "--order", "2",
            ]
        )
        assert code == 2 and "error:" in err


class TestXny:
    def test_routes_agree(self):
        docs = []
        for method in ("cbh", "uea", "assembled"):
            code, out, _ = run(
                [
                    "xny", "--n", "3", "--method", method,
                    "--algebra", "strictly_upper(3)", "--order", "3",
                    "--format", "json",
                ]
            )
            assert code == 0
            docs.append(json.loads(out)["series"])
        assert docs[0] == docs[1] == docs[2]

    def test_default_order_is_n(self):
        _, out, _ = run(
            ["xny", "--n", "2", "--method", "cbh", "--algebra", "heisenberg",
             "--format", "json"]
        )
        assert json.loads(out)["order"] == 2


class TestGraphs:
    def test_enumerate_counts(self):
        code, out, _ = run(["graphs", "enumerate", "--n", "1", "--classify", "--format", "json"])
        doc = json.loads(out)
        assert code == 0 and doc["count"] == 2

    def test_rows_reparse(self):
        _, out, _ = run(["graphs", "enumerate", "--n", "2", "--format", "json"])
        for row in json.loads(out)["rows"]:
            parse_graph(row["graph"])

    def test_classification_flags(self):
        _, out, _ = run(["graphs", "enumerate", "--n", "2", "--classify", "--format", "json"])
        rows = json.loads(out)["rows"]
        assert sum(r["loop"] for r in rows) == 16
        assert sum(r["sym_admissible"] for r in rows) == 20

    def test_dot_format(self):
        code, out, _ = run(["graphs", "enumerate", "--n", "1", "--format", "dot"])
        assert code == 0 and out.count("digraph") == 2

    def test_jobs_fanout_byte_identical(self):
        _, a, _ = run(["graphs", "enumerate", "--n", "2", "--classify", "--format", "json"])
        _, b, _ = run(
            ["graphs", "enumerate", "--n", "2", "--classify", "--format", "json",
             "--jobs", "4"]
        )
        assert a == b


class TestWeight:
    def test_single_wedge(self):
        code, out, _ = run(["weight", "--graph", "1:(X,Y)", "--format", "json"])
        doc = json.loads(out)
        assert code == 0 and doc["w_I"] == "1/2" and doc["w_K"] == "1/2"

    def test_two_chain(self):
        _, out, _ = run(["weight", "--graph", "1:(X,Y);2:(X,1)", "--format", "json"])
        doc = json.loads(out)
        assert doc["w_I"] == "1/12" and doc["w_K"] == "1/24"

    def test_normalized_route(self):
        _, out, _ = run(["weight", "--graph", "1:(X,Y);2:(1,Y)", "--format", "json"])
        doc = json.loads(out)
        assert doc["route"] == "normalized" and doc["w_K"] is not None

    def test_loop_reports_no_route(self):
        code, out, _ = run(["weight", "--graph", "1:(X,2);2:(Y,1)", "--format", "json"])
        doc = json.loads(out)
        assert code == 0 and doc["w_I"] is None and doc["loop"] is True

    def test_malformed_graph_exits_two(self):
        assert run(["weight", "--graph", "1:(X,"])[0] == 2


class TestVerify:
    def test_equiv_uea_kontsevich_spec_example(self):
        code, out, _ = run(
            [
                "verify", "equiv", "--a", "uea", "--b", "kontsevich",
                "--algebra", "heisenberg", "--degree", "5", "--order", "5",
            ]
        )
        assert code == 0 and "EQUAL" in out

    def test_equiv_detects_difference(self):
        code, out, _ = run(
            [
                "verify", "equiv", "--a", "moyal", "--b", "moyal",
                "--algebra", "symplectic(2)", "--degree", "2", "--order", "2",
            ]
        )
        assert code == 0  # same product, trivially equal
        code, out, _ = run(
            [
                "verify", "equiv", "--a", "uea", "--b", "cbh",
                "--algebra", "heisenberg", "--degree", "3", "--order", "3",
                "--format", "json",
            ]
        )
        doc = json.loads(out)
        assert code == 0 and doc["ok"] and doc["pairs"] > 0

    def test_equiv_jobs_byte_identical(self):
        args = [
            "verify", "equiv", "--a", "uea", "--b", "cbh",
            "--algebra", "heisenberg", "--degree", "3", "--order", "3",
            "--format", "json",
        ]
        _, a, _ = run(args)
        _, b, _ = run(args + ["--jobs", "3"])
        assert a == b

    def test_assoc_ok(self):
        code, out, _ = run(
            [
                "verify", "assoc", "--method", "moyal", "--algebra", "symplectic(4)",
                "--order", "4", "--trials", "5", "--format", "json",
            ]
        )
        doc = json.loads(out)
        assert code == 0 and doc["ok"] and doc["trials"] == 5

    def test_assoc_seeded_and_deterministic(self):
        args = [
            "verify", "assoc", "--method", "uea", "--algebra", "heisenberg",
            "--order", "3", "--trials", "4", "--degree", "2", "--seed", "7",
            "--format", "json",
        ]
        _, a, _ = run(args)
        _, b, _ = run(args)
        assert a == b

    def test_identities(self):
        code, out, _ = run(["verify", "identities", "--format", "json"])
        doc = json.loads(out)
        assert code == 0 and doc["ok"]
        kinds = {r["identity"] for r in doc["rows"]}
        assert kinds == {"convolution", "alternating", "linear-in-y", "bookkeeping"}

    def test_loops_vanish_exit_zero(self):
        code, out, _ = run(
            ["verify", "loops", "--algebra", "strictly_upper(4)", "--max-n", "2"]
        )
        assert code == 0 and "VANISH" in out

    def test_loops_survivor_exit_one(self):
        code, out, _ = run(["verify", "loops", "--algebra", "solvable2", "--max-n", "2"])
        assert code == 1 and "NONZERO" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["equiv", "--a", "uea", "--b", "cbh", "--algebra", "heisenberg",
             "--degree", "-1", "--order", "2"],
            ["equiv", "--a", "uea", "--b", "cbh", "--algebra", "heisenberg",
             "--degree", "2", "--order", "2", "--mode", "random", "--trials", "0"],
            ["assoc", "--method", "cbh", "--algebra", "heisenberg", "--trials", "0"],
            ["loops", "--algebra", "heisenberg", "--max-n", "-2"],
            ["loops", "--algebra", "heisenberg", "--max-n", "1"],
        ],
        ids=["equiv-degree", "equiv-trials", "assoc-trials", "loops-negative", "loops-one"],
    )
    def test_empty_batch_is_bad_input(self, argv):
        code, out, err = run(["verify", *argv])
        assert code == 2 and out == ""
        assert "must be >=" in err

    def test_env_var_jobs(self):
        old = os.environ.get("DQW_JOBS")
        os.environ["DQW_JOBS"] = "2"
        try:
            args = [
                "verify", "equiv", "--a", "uea", "--b", "cbh",
                "--algebra", "heisenberg", "--degree", "2", "--order", "2",
                "--format", "json",
            ]
            _, a, _ = run(args)
        finally:
            if old is None:
                del os.environ["DQW_JOBS"]
            else:
                os.environ["DQW_JOBS"] = old
        _, b, _ = run(args)
        assert a == b


class TestFailurePath:
    """Negative control: a perturbed CBH product seeded into the CLI's cache.

    The pool forks, so `--jobs 2` workers inherit the seeded product too.
    """

    @pytest.fixture
    def bad(self, monkeypatch):
        star = cbh_product(solvable2(), 4, override={("X", "X", "Y"): Fraction(1, 10)})
        monkeypatch.setitem(dqw.cli._STAR_CACHE, ("cbh", "solvable2", 4), star)
        monkeypatch.delenv("DQW_JOBS", raising=False)
        return star

    def test_equiv_report_equals_library(self, bad):
        args = [
            "verify", "equiv", "--a", "uea", "--b", "cbh", "--algebra", "solvable2",
            "--degree", "6", "--order", "4", "--format", "json",
        ]
        code, serial, _ = run(args + ["--jobs", "1"])
        assert code == 1
        code, fanned, _ = run(args + ["--jobs", "2"])
        assert code == 1 and fanned == serial
        library = check_equivalence(uea_product(solvable2(), 4), bad, 6)
        assert json.loads(serial) == library.to_json()

    def test_assoc_report_equals_library(self, bad):
        args = [
            "verify", "assoc", "--method", "cbh", "--algebra", "solvable2",
            "--order", "4", "--format", "json",
        ]
        code, serial, _ = run(args + ["--jobs", "1"])
        assert code == 1
        code, fanned, _ = run(args + ["--jobs", "2"])
        assert code == 1 and fanned == serial
        polys = [random_polynomials(2, 10, 3, seed) for seed in range(3)]
        library = check_associativity(bad, zip(*polys))
        assert json.loads(serial) == library.to_json()


class TestFanOutPlan:
    def test_split_matches_jobs(self):
        assert fan_out_plan(10, 3, 8) == (3, 4)
        assert fan_out_plan(462, 2, 2) == (2, 231)

    def test_serial_cases(self):
        assert fan_out_plan(100, 1, 8)[0] == 1
        assert fan_out_plan(1, 4, 8)[0] == 1
        assert fan_out_plan(0, 4, 8)[0] == 0
        assert fan_out_plan(100, 4, None)[0] == 1

    def test_large_jobs_bounded_by_cpus_and_chunks(self):
        assert fan_out_plan(100, 10**6, 4) == (4, 1)
        assert fan_out_plan(3, 10**6, 64) == (3, 1)
        assert fan_out_plan(10**5, 10**9, 2) == (2, 1)


class TestPlumbing:
    def test_no_arguments_is_usage_error(self):
        assert run([])[0] == 2

    def test_unknown_subcommand(self):
        assert run(["frobnicate"])[0] == 2

    def test_help_exits_zero(self):
        assert run(["--help"])[0] == 0

    def test_repeated_invocations_byte_identical(self):
        args = ["hausdorff", "--degree", "4", "--format", "json"]
        assert run(args) == run(args)

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dqw.cli", "bernoulli", "--max", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0 and "B_2 = 1/6" in proc.stdout
