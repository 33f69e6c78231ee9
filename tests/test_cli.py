import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

import dqw.cli
import dqw.kontsevich
import dqw.star
from dqw.cli import (
    MAX_ASSEMBLY_ORDER,
    MAX_BATCH_ITEMS,
    MAX_BERNOULLI_INDEX,
    MAX_ENUMERATE_N,
    MAX_HAUSDORFF_DEGREE,
    MAX_LINEAR_IN_Y_DEGREE,
    MAX_RANDOM_DEGREE,
    MAX_WEIGHT_N,
    fan_out_plan,
    main,
    resolve_algebra,
)
from dqw.graphs import parse_graph
from dqw.liealg import LieAlgebraError, solvable2
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

    def test_non_ascii_digit_exits_two(self):
        # str.isdigit accepts a superscript digit that int() refuses
        code, out, err = run(
            [
                "star", "--method", "uea", "--algebra", "heisenberg",
                "--f", "x\u00b2", "--g", "x2", "--order", "1",
            ]
        )
        assert (code, out) == (2, "") and err.startswith("error: ")


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

    def test_streamed_graphs_fan_out_in_chunks(self):
        # 1728 graphs streamed into the pool; --jobs 2 splits them in two chunks
        args = ["graphs", "enumerate", "--n", "3", "--classify", "--format", "json"]
        code, serial, _ = run(args + ["--jobs", "1"])
        assert code == 0 and json.loads(serial)["count"] == 1728
        assert run(args + ["--jobs", "2"]) == (0, serial, "")


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

    def test_non_ascii_digit_exits_two(self):
        code, out, err = run(["weight", "--graph", "1:(X,\u00b2)"])
        assert (code, out) == (2, "") and err.startswith("error: ")


class TestAssemble:
    def test_rows_agree_where_covered(self):
        argv = ["assemble", "--algebra", "heisenberg", "--order", "4", "--format", "json"]
        code, out, _ = run(argv)
        doc = json.loads(out)
        assert code == 0 and doc["ok"] and doc["differ"] == []
        assert len(doc["rows"]) == 10 and len(doc["uncovered"]) == 5
        for row in doc["rows"]:
            assert row["integral"] == (None if row["graph"] in doc["uncovered"] else row["omega"])

    def test_uncovered_type_listed(self):
        code, out, _ = run(["assemble", "--algebra", "heisenberg", "--order", "4"])
        assert code == 0
        assert "uncovered: 1:(X,Y);2:(X,3);3:(Y,1)" in out.splitlines()
        assert out.splitlines()[-1] == "AGREE covered=5 types=10"

    def test_perturbed_integral_omega_differs(self, monkeypatch):
        # negative control: one wrong engine value must fail its row
        real = dqw.cli.integral_omega

        def perturbed(graph):
            value = real(graph)
            return value + 1 if graph == parse_graph("1:(X,Y);2:(X,1)") else value

        monkeypatch.setattr(dqw.cli, "integral_omega", perturbed)
        code, out, _ = run(["assemble", "--algebra", "heisenberg", "--order", "3"])
        lines = out.splitlines()
        assert code == 1
        assert lines[-1].startswith("DIFFER ")
        assert "differ: 1:(X,Y);2:(X,1)" in lines

    def test_order_above_limit_exits_two(self):
        order = MAX_ASSEMBLY_ORDER + 1
        code, out, err = run(["assemble", "--algebra", "heisenberg", "--order", str(order)])
        assert (code, out) == (2, "")
        assert f"assemble --order {order} exceeds the limit {MAX_ASSEMBLY_ORDER}" in err

    def test_non_nilpotent_algebra_exits_two(self):
        code, out, err = run(["assemble", "--algebra", "solvable2", "--order", "2"])
        assert (code, out) == (2, "") and "strictly increasing" in err

    def test_negative_order_exits_two(self):
        code, out, err = run(["assemble", "--algebra", "heisenberg", "--order", "-1"])
        assert (code, out) == (2, "") and "must be >= 0, got -1" in err


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

    def test_identities_bookkeeping_mismatch_exits_one(self, monkeypatch):
        # negative control: a wrong chain weight must fail its bookkeeping rows
        real = dqw.cli.weight_w_computable

        def doubled(graph):
            w = real(graph)
            return replace(w, weight=2 * w.weight)

        monkeypatch.setattr(dqw.cli, "weight_w_computable", doubled)
        code, out, _ = run(["verify", "identities", "--max", "4"])
        lines = out.splitlines()
        assert code == 1 and lines[0].startswith("FAILED ")
        failed = [line for line in lines[1:] if line.startswith("FAIL bookkeeping ")]
        assert failed and len(failed) == len(lines) - 1

    def test_loops_vanish_exit_zero(self):
        code, out, _ = run(
            ["verify", "loops", "--algebra", "strictly_upper(4)", "--max-n", "2"]
        )
        assert code == 0 and "VANISH" in out

    def test_loops_survivor_exit_one(self):
        code, out, _ = run(["verify", "loops", "--algebra", "solvable2", "--max-n", "2"])
        assert code == 1 and "NONZERO" in out

    @pytest.mark.parametrize(
        "algebra, fmt, code, size, digest",
        [
            ("strictly_upper(4)", "text", 0, 22,
             "489a4d068372e1905aeaad487932d4481ed824e83a7a52510dc6c5b9b32a90fc"),
            ("strictly_upper(4)", "json", 0, 112,
             "b05b369d1f1c6d638803dc83f723f8a3387a02550e7d50a60a82b384c0fbd002"),
            ("solvable2", "text", 1, 173591,
             "5975e185f05cf2910c0526159a7da48cc0ec982f339c74d5a572d85b78930fba"),
            ("solvable2", "json", 1, 212099,
             "52be3ee339c52bea58823a214bad1fd1d49b939fc1942d85f28b12117b2fb42d"),
        ],
        ids=["nilpotent-text", "nilpotent-json", "solvable-text", "solvable-json"],
    )
    def test_loops_output_pinned_at_four_vertices(self, algebra, fmt, code, size, digest):
        # the output of the labelled walk over all 160,000 graphs with four
        # vertices, which the pass over graph types must reproduce byte for byte
        got, out, _ = run(
            ["verify", "loops", "--algebra", algebra, "--max-n", "4", "--format", fmt]
        )
        data = out.encode()
        assert (got, len(data)) == (code, size)
        assert hashlib.sha256(data).hexdigest() == digest

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


class TestFailurePath:
    """Negative control: a perturbed CBH product seeded into the CLI's cache.

    The pool forks, so `--jobs 2` workers inherit the seeded product too.
    """

    @pytest.fixture
    def bad(self, monkeypatch):
        star = cbh_product(solvable2(), 4, override={("X", "X", "Y"): Fraction(1, 10)})
        monkeypatch.setitem(dqw.cli._STAR_CACHE, ("cbh", "solvable2", 4), star)
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

    def test_crash_is_not_a_failed_check(self, monkeypatch):
        def crash(args):
            raise RuntimeError("internal fault")

        monkeypatch.setattr(dqw.cli, "cmd_bernoulli", crash)
        code, out, err = run(["bernoulli", "--max", "2"])
        assert code == 3 and out == ""
        assert "Traceback" in err and "RuntimeError: internal fault" in err

    def test_domain_error_is_still_bad_input(self, monkeypatch):
        def refuse(args):
            raise LieAlgebraError("not a Lie algebra")

        monkeypatch.setattr(dqw.cli, "cmd_bernoulli", refuse)
        assert run(["bernoulli", "--max", "2"]) == (2, "", "error: not a Lie algebra\n")

    def test_bare_value_error_is_a_crash(self, monkeypatch):
        # negative control: every domain error subclasses ValueError, but a
        # bare one comes from a bug, not from the input
        def crash(args):
            raise ValueError("internal fault")

        monkeypatch.setattr(dqw.cli, "cmd_bernoulli", crash)
        code, out, err = run(["bernoulli", "--max", "2"])
        assert code == 3 and out == ""
        assert "Traceback" in err and "ValueError: internal fault" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["algebra", "validate", "strictly_upper(x)"],
            ["algebra", "validate", "symplectic(x)"],
            ["star", "--method", "uea", "--algebra", "heisenberg",
             "--f", "x1 +", "--g", "x2", "--order", "2"],
            ["star", "--method", "uea", "--algebra", "heisenberg",
             "--f", "x1", "--g", "x2", "--order", "-1"],
            ["xny", "--n", "-1", "--method", "uea", "--algebra", "heisenberg"],
            # deg f + deg g above pbw.MAX_STAR_DEGREE; n = 2000 overflowed
            # the stack in sigma's recursion (exit 3)
            ["xny", "--n", "40", "--method", "uea", "--algebra", "heisenberg"],
            ["xny", "--n", "2000", "--method", "uea", "--algebra", "heisenberg",
             "--order", "2"],
            ["star", "--method", "uea", "--algebra", "strictly_upper(4)",
             "--f", "(x1+x2+x3+x4)^20", "--g", "x1", "--order", "1"],
            # degree 12, within pbw.MAX_STAR_DEGREE, but 658 * 658 lifted
            # term pairs, above pbw.MAX_STAR_PAIRS; it ran for over 60 s
            ["star", "--method", "uea", "--algebra", "strictly_upper(4)",
             "--f", "(x1+x2+x3+x4+x5+x6)^6", "--g", "(x1+x2+x3+x4+x5+x6)^6",
             "--order", "1"],
        ],
        ids=["algebra-size", "symplectic-size", "parse", "series-order", "poly-power",
             "uea-xny-degree", "uea-xny-deep", "uea-dense-degree", "uea-wide-pairs"],
    )
    def test_input_errors_exit_two(self, argv):
        code, out, err = run(argv)
        assert (code, out) == (2, "") and err.startswith("error: ")

    def test_wide_exp_exits_two(self, tmp_path):
        # the order-2 Moyal exp of a generic 64 x 64 matrix multiplies 4032 by
        # 4032 generator terms at G^2, above bidiff.MAX_EXP_PAIRS; it ran for
        # 70 s and 2.4 GB before the limit
        d = 64
        alpha = [[f"{j - i}/{i + j}" for j in range(1, d + 1)] for i in range(1, d + 1)]
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps({"dim": d, "alpha": alpha}))
        start = time.perf_counter()
        code, out, err = run(["star", "--method", "moyal", "--algebra", str(path),
                              "--f", "x1", "--g", "x2", "--order", "2"])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == "error: exp power 2 of 4032 by 4032 terms exceeds the limit of 10000000 pairs\n"

    def test_bernoulli_index_limit(self):
        # B_0..B_N is one pass of the recurrence, so the limit itself runs
        code, out, _ = run(["bernoulli", "--max", str(MAX_BERNOULLI_INDEX)])
        assert code == 0 and out.count("\n") == MAX_BERNOULLI_INDEX + 1
        for argv in (["bernoulli"], ["verify", "identities"]):
            code, out, err = run(argv + ["--max", str(MAX_BERNOULLI_INDEX + 1)])
            assert (code, out) == (2, "")
            assert err == (
                f"error: {' '.join(argv)} --max {MAX_BERNOULLI_INDEX + 1} exceeds the limit "
                f"{MAX_BERNOULLI_INDEX}\n"
            )

    @pytest.mark.parametrize("argv", [["bernoulli"], ["verify", "identities"]])
    def test_negative_bernoulli_index_exits_two(self, argv):
        # an empty table is bad input, not an empty answer
        code, out, err = run(argv + ["--max", "-1"])
        assert (code, out) == (2, "") and "must be >= 0" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"dim": 2, ',
            '{"alpha": [[0, 1], [-1, 0]]}',
            '{"dim": 2, "alpha": [[0, "1/x"], [-1, 0]]}',
            '{"dim": 2, "alpha": [[0, "1/0"], [-1, 0]]}',
            '{"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": {"2": "1/0"}}]}',
            '{"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": ["2", "1"]}]}',
            '{"dim": true, "brackets": []}',
            '{"dim": 65, "brackets": []}',
            '{"dim": Infinity, "alpha": []}',
            '{"dim": true, "alpha": [[0]]}',
            json.dumps({"dim": 65, "alpha": [[0] * 65] * 65}),
            '{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1e99999999"}}]}',
            '{"dim": 2, "alpha": [[0, "1e999999"], [-1, 0]]}',
            json.dumps({"dim": 2, "alpha": [[0, "1" * 3000 + "/" + "7" * 3000], [-1, 0]]}),
            "5",
            b"\xff\xfe",
            '{"dim": 3.7, "brackets": []}',
            '{"dim": 3, "brackets": [{"i": 1.9, "j": 2, "coeffs": {"3": "1"}}]}',
            '{"dim": 2.0, "alpha": [[0, 1], [-1, 0]]}',
        ],
        ids=["truncated", "no-dim", "bad-rational", "alpha-zero-denominator",
             "bracket-zero-denominator", "coeffs-list", "bool-dim", "huge-dim",
             "infinite-alpha-dim", "bool-alpha-dim", "huge-alpha-dim",
             "exponent-coefficient", "exponent-alpha", "long-alpha", "not-an-object",
             "not-utf8", "float-dim", "float-index", "float-alpha-dim"],
    )
    def test_malformed_json_exits_two(self, tmp_path, text):
        path = tmp_path / "doc.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        code, out, err = run(["algebra", "validate", str(path)])
        assert (code, out) == (2, "") and err.startswith("error: ")

    @pytest.mark.parametrize("text", ["(x1+x2+x3+1)^30", "((x1+x2+1)^10)^10"])
    def test_large_power_exits_two(self, text):
        code, out, err = run(
            [
                "star", "--method", "moyal", "--algebra", "symplectic(4)",
                "--f", text, "--g", "x2", "--order", "2",
            ]
        )
        assert (code, out) == (2, "") and "terms (at position" in err

    def test_star_on_malformed_algebra_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": ["2", "1"]}]}')
        code, out, err = run(
            [
                "star", "--method", "uea", "--algebra", str(path),
                "--f", "x1", "--g", "x2", "--order", "2",
            ]
        )
        assert (code, out) == (2, "") and "malformed structure document" in err

    def test_deep_nesting_exits_two(self):
        deep = "(" * 2000 + "x1" + ")" * 2000
        code, out, err = run(
            [
                "star", "--method", "cbh", "--algebra", "heisenberg",
                "--f", deep, "--g", "x2", "--order", "2",
            ]
        )
        assert (code, out) == (2, "") and "nesting deeper" in err

    @pytest.mark.parametrize(
        "extra, degree",
        [([], MAX_HAUSDORFF_DEGREE + 1), (["--linear-in-y"], MAX_LINEAR_IN_Y_DEGREE + 1)],
        ids=["full", "linear-in-y"],
    )
    def test_hausdorff_degree_above_limit_exits_two(self, extra, degree):
        code, out, err = run(["hausdorff", "--degree", str(degree)] + extra)
        assert (code, out) == (2, "") and f"exceeds the limit {degree - 1}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["star", "--method", "uea", "--algebra", "heisenberg",
             "--f", "1" * 5000, "--g", "x2", "--order", "1"],
            ["star", "--method", "uea", "--algebra", "heisenberg",
             "--f", "x" + "1" * 5000, "--g", "x2", "--order", "1"],
            ["weight", "--graph", "1" * 5000 + ":(X,Y)"],
            ["weight", "--graph", "1:(X," + "1" * 5000 + ")"],
        ],
        ids=["constant", "variable-index", "vertex-label", "edge-target"],
    )
    def test_long_digit_run_exits_two(self, argv):
        # int() refuses text of more than 4300 digits with a bare ValueError
        code, out, err = run(argv)
        assert (code, out) == (2, "") and "longer than 4300 digits" in err

    @pytest.mark.parametrize("n", [MAX_ENUMERATE_N + 1, 50])
    def test_graphs_enumerate_above_limit_exits_two(self, n):
        code, out, err = run(["graphs", "enumerate", "--n", str(n), "--classify"])
        assert (code, out) == (2, "")
        assert f"exceeds the limit {MAX_ENUMERATE_N}" in err

    def test_verify_loops_above_limit_exits_two(self, monkeypatch):
        # refused before a single graph is enumerated
        def unreachable(n):
            raise AssertionError("enumerated")

        monkeypatch.setattr(dqw.kontsevich, "enumerate_graphs", unreachable)
        monkeypatch.setattr(dqw.kontsevich, "graph_types", unreachable)
        code, out, err = run(
            ["verify", "loops", "--algebra", "heisenberg", "--max-n", str(MAX_ENUMERATE_N + 1)]
        )
        assert (code, out) == (2, "")
        assert f"verify loops --max-n {MAX_ENUMERATE_N + 1} exceeds the limit" in err

    @pytest.mark.parametrize(
        "text",
        [
            "1:(X,Y);" + ";".join(f"{k}:(X,1)" for k in range(2, MAX_WEIGHT_N + 2)),
            "1:(X,Y);" + ";".join(f"{k}:(X,{k - 1})" for k in range(2, MAX_WEIGHT_N + 2)),
        ],
        ids=["star", "chain"],
    )
    def test_weight_above_limit_exits_two(self, monkeypatch, text):
        # refused before the weight engine or the labelling search runs
        def unreachable(g):
            raise AssertionError("weighed")

        for name in ("classify", "symmetry_count", "weight_w_computable", "product_weight"):
            monkeypatch.setattr(dqw.cli, name, unreachable)
        code, out, err = run(["weight", "--graph", text])
        assert (code, out) == (2, "")
        assert f"{MAX_WEIGHT_N + 1} vertices exceeds the limit {MAX_WEIGHT_N}" in err

    def test_weight_at_limit_still_runs(self):
        text = "1:(X,Y);" + ";".join(f"{k}:(X,{k - 1})" for k in range(2, MAX_WEIGHT_N + 1))
        code, out, _ = run(["weight", "--graph", text, "--format", "json"])
        assert code == 0 and json.loads(out)["route"] == "direct"

    @pytest.mark.parametrize(
        "argv",
        [
            ["star", "--method", "kontsevich", "--algebra", "heisenberg",
             "--f", "x1", "--g", "x2"],
            ["verify", "assoc", "--method", "kontsevich", "--algebra", "heisenberg"],
            ["verify", "equiv", "--a", "uea", "--b", "kontsevich",
             "--algebra", "heisenberg", "--degree", "2"],
            ["verify", "equiv", "--a", "kontsevich", "--b", "cbh",
             "--algebra", "heisenberg", "--degree", "2"],
        ],
        ids=["star", "assoc", "equiv-b", "equiv-a"],
    )
    def test_assembly_order_above_limit_exits_two(self, argv):
        order = MAX_ASSEMBLY_ORDER + 1
        code, out, err = run(argv + ["--order", str(order)])
        assert (code, out) == (2, "")
        assert f"kontsevich --order {order} exceeds the limit {MAX_ASSEMBLY_ORDER}" in err

    @pytest.mark.parametrize(
        "argv,items,enumerator",
        [
            (["verify", "assoc", "--method", "cbh", "--algebra", "heisenberg",
              "--trials", str(MAX_BATCH_ITEMS + 1)],
             MAX_BATCH_ITEMS + 1, "random_polynomials"),
            (["verify", "equiv", "--a", "uea", "--b", "cbh", "--algebra", "heisenberg",
              "--order", "2", "--degree", "2", "--mode", "random",
              "--trials", str(MAX_BATCH_ITEMS + 1)],
             MAX_BATCH_ITEMS + 1, "equivalence_pairs"),
            (["verify", "equiv", "--a", "uea", "--b", "cbh", "--algebra", "heisenberg",
              "--order", "2", "--degree", "40"],
             comb(40 + 6, 6), "equivalence_pairs"),
        ],
        ids=["assoc", "equiv-random", "equiv-monomials"],
    )
    def test_batch_above_limit_exits_two(self, monkeypatch, argv, items, enumerator):
        # refused before a single item is built
        def unreachable(*args):
            raise AssertionError("built")

        monkeypatch.setattr(dqw.cli, enumerator, unreachable)
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert f"batch of {items} items exceeds the limit {MAX_BATCH_ITEMS}" in err

    @pytest.mark.parametrize("kind", ["assoc", "random", "monomials"])
    def test_batch_at_limit_is_built(self, monkeypatch, kind):
        # the largest accepted batch reaches its enumerator (one more is refused above)
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        if kind == "assoc":
            monkeypatch.setattr(dqw.cli, "random_polynomials", reached)
            argv = ["verify", "assoc", "--method", "cbh", "--algebra", "heisenberg",
                    "--trials", str(MAX_BATCH_ITEMS)]
        else:
            monkeypatch.setattr(dqw.cli, "equivalence_pairs", reached)
            degree = max(d for d in range(100) if comb(d + 6, 6) <= MAX_BATCH_ITEMS)
            argv = ["verify", "equiv", "--a", "uea", "--b", "cbh", "--algebra",
                    "heisenberg", "--order", "2", "--mode", kind,
                    "--degree", str(degree), "--trials", str(MAX_BATCH_ITEMS)]
        code, out, err = run(argv)
        assert (code, out) == (3, "") and "Reached" in err

    RANDOM_DEGREE_ARGV = [
        pytest.param(
            ["verify", "assoc", "--method", "cbh", "--algebra", "heisenberg"],
            "verify assoc", "ASSOCIATIVE", id="assoc",
        ),
        pytest.param(
            ["verify", "equiv", "--a", "cbh", "--b", "kontsevich", "--algebra", "heisenberg",
             "--mode", "random"],
            "verify equiv --mode random", "EQUAL", id="equiv-random",
        ),
    ]

    @pytest.mark.parametrize("argv,command,verdict", RANDOM_DEGREE_ARGV)
    def test_random_degree_above_limit_exits_two(self, monkeypatch, argv, command, verdict):
        # refused before a single polynomial is built
        def unreachable(*args):
            raise AssertionError("built")

        for module, name in ((dqw.cli, "random_polynomials"), (dqw.cli, "equivalence_pairs"),
                             (dqw.star, "random_polynomials")):
            monkeypatch.setattr(module, name, unreachable)
        degree = MAX_RANDOM_DEGREE + 1
        code, out, err = run(argv + ["--order", "2", "--degree", str(degree)])
        assert (code, out) == (2, "")
        assert f"{command} --degree {degree} exceeds the limit {MAX_RANDOM_DEGREE}" in err

    @pytest.mark.parametrize("argv,command,verdict", RANDOM_DEGREE_ARGV)
    def test_random_degree_at_limit_runs(self, argv, command, verdict):
        code, out, _ = run(
            argv + ["--order", "2", "--degree", str(MAX_RANDOM_DEGREE), "--trials", "1"]
        )
        assert code == 0 and out.startswith(verdict)

    def test_assembly_order_limit_below_hausdorff_limit(self):
        # the order-k assembly reads the degree-(k + 1) Hausdorff series
        assert MAX_ASSEMBLY_ORDER <= MAX_HAUSDORFF_DEGREE - 1

    def test_jobs_environment_variable_is_not_read(self, monkeypatch):
        # `--jobs` is the one way to set the fan-out
        argv = ["graphs", "enumerate", "--n", "1", "--classify"]
        serial = run(argv)
        monkeypatch.setenv("DQW_JOBS", "two")
        assert run(argv) == serial and serial[0] == 0

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dqw.cli", "bernoulli", "--max", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0 and "B_2 = 1/6" in proc.stdout
