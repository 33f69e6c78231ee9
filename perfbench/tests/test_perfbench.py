"""Tests of the benchmark itself: seed discipline, the correctness gate and
its negative controls, the cold-start check, and the tracer's bookkeeping.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import dqw.freelie as dfreelie  # noqa: E402
import dqw.kontsevich as dkon  # noqa: E402
import dqw.pbw as dpbw  # noqa: E402
import dqw.star as dstar  # noqa: E402
from dqw.poly import Polynomial  # noqa: E402


def _clear_caches():
    for fn in (dpbw.enveloping_algebra, dfreelie.hausdorff_series,
               dfreelie.free_lie, dkon.prime_type_table):
        fn.cache_clear()


def _small_equiv(seed=0, count=30):
    """Pairs where the eps^2 word XXY can act: deg f >= 2, deg g >= 1."""
    inputs = gen.generate("equiv-monomial", seed)
    inputs["pairs"] = [p for p in inputs["pairs"] if sum(p[0]) >= 2 and sum(p[1]) >= 1][:count]
    return inputs


# -- seed discipline -------------------------------------------------------------------


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_bytes(workload):
    assert gen.encode(gen.generate(workload, 7)) == gen.encode(gen.generate(workload, 7))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_other_seed_gives_other_inputs_with_same_item_count(workload):
    a, b = gen.generate(workload, 7), gen.generate(workload, 8)
    assert gen.encode(a) != gen.encode(b)
    count = len(workloads.items(workload, a, {}))
    assert count == len(workloads.items(workload, b, {})) >= 100


def test_equiv_sample_covers_every_degree_stratum():
    pairs = gen.generate("equiv-monomial", 0)["pairs"]
    strata = {(sum(f), sum(g)) for f, g in pairs}
    assert strata == {(a, b) for a in range(6) for b in range(6 - a)}
    assert len({json.dumps(p) for p in pairs}) == len(pairs)


# -- correctness gate and its negative controls ---------------------------------------


def _fail_frac(rep: dict) -> float:
    return rep["failed"] / rep["checks"]


def test_perturbed_product_fails_equiv_gate(monkeypatch):
    original = dstar.cbh_product

    def perturbed(c, order, override=None):
        return original(c, order, override=workloads.BROKEN_OVERRIDE)

    monkeypatch.setattr(dstar, "cbh_product", perturbed)
    _clear_caches()
    rep = worker.run_rep("equiv-monomial", _small_equiv(), 0.0, False, None, False)
    assert rep["failed_items"] and _fail_frac(rep) > 0


def test_perturbed_product_fails_assoc_gate():
    inputs = gen.generate("assoc-dense", 0)
    inputs["moyal"]["order"] = 2
    inputs["moyal"]["triples"] = inputs["moyal"]["triples"][:1]
    inputs["lie"]["triples"] = inputs["lie"]["triples"][:2]
    _clear_caches()
    state = workloads.setup("assoc-dense", inputs)
    state["cbh"] = dstar.cbh_product(
        workloads.dliealg.strictly_upper(4), 5, override=workloads.BROKEN_OVERRIDE
    )
    outcomes = worker.verify(workloads.items("assoc-dense", inputs, state))
    failed = [label for label, ok, _, _ in outcomes if not ok]
    assert failed and all(label.startswith("cbh/") for label in failed)


def test_changed_digest_fails_gate_in_a_cold_process():
    payload = gen.encode(_small_equiv(count=10))
    good = run.spawn("equiv-monomial", payload)
    assert good["failed"] == 0 and all(v == 0 for v in good["cold_caches"].values())
    same = run.spawn("equiv-monomial", payload, expect=good["digest"])
    assert same["failed"] == 0 and same["checks"] == good["checks"] + 1
    changed = good["digest"][:-1] + ("0" if good["digest"][-1] != "0" else "1")
    bad = run.spawn("equiv-monomial", payload, expect=changed)
    assert bad["failed"] == 1 and not bad["failed_items"] and _fail_frac(bad) > 0


def test_recorded_digests_name_default_and_held_out_seed():
    table = json.loads((HERE / "digests.json").read_text())
    assert set(table) == set(gen.WORKLOADS)
    for seeds in table.values():
        assert set(seeds) == {"0", "1"} and len(set(seeds.values())) == 2


# -- cold start ---------------------------------------------------------------------------


def test_cold_start_check_sees_a_warm_cache():
    _clear_caches()
    assert not any(worker.cold_cache_sizes().values())
    dfreelie.free_lie(("X", "Y"))
    assert worker.cold_cache_sizes()["dqw.freelie.free_lie"] == 1


# -- the command ----------------------------------------------------------------------------


def test_refuses_to_run_without_dqw_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in bench["end_to_end"]] == list(run.END_TO_END.values())
    traced = set(layertrace.Tracer().metrics()) | {
        "trace.unaccounted_frac", "trace.total_s", "trace.overhead_frac"}
    assert set(run.per_layer_units()) == traced
    assert {w["name"] for w in bench["workloads"]} <= set(gen.WORKLOADS)


def test_item_metrics_drop_a_burst_in_a_minority_of_repetitions():
    quiet = [float(ms) for ms in range(1, 101)]
    slow_start = [2 * ms if i < 50 else ms for i, ms in enumerate(quiet)]
    slow_end = [2 * ms if i >= 50 else ms for i, ms in enumerate(quiet)]
    expected = {"items_per_s": 1000 * 100 / sum(quiet), "item_p50_ms": 50.0, "item_p90_ms": 90.0}
    assert run.item_metrics([quiet, quiet, quiet]) == expected
    assert run.item_metrics([slow_start, quiet, slow_end]) == expected


def test_different_machine_is_flagged():
    record = {"workload": "census", "metrics": {"total_s": 1.0},
              "env": {"machine": {"cpu_model": "some other cpu"}}}
    notes = run.baseline_note(record)
    assert notes and notes[0].startswith("FLAG")


# -- tracer ---------------------------------------------------------------------------------


def test_tracer_restores_every_attribute():
    before = (Polynomial.__mul__, dstar.StarProduct.__call__, dkon.graph_to_operator,
              dstar.check_associativity)
    tracer = layertrace.Tracer()
    tracer.install()
    assert Polynomial.__mul__ is not before[0]
    tracer.uninstall()
    after = (Polynomial.__mul__, dstar.StarProduct.__call__, dkon.graph_to_operator,
             dstar.check_associativity)
    assert after == before


def test_traced_repetition_accounts_for_its_time():
    rep = run.spawn("equiv-monomial", gen.encode(_small_equiv(count=10)), trace=True)
    layers = rep["layers"]
    assert rep["failed"] == 0
    assert layers["bidiff.apply.calls"] == 2 * 10
    assert 0 < layers["bidiff.apply.live_frac"] < 1
    self_sum = sum(layers[f"{layer}.self_s"] for layer in layertrace.LAYERS)
    assert 0.5 * rep["total_s"] < self_sum < rep["total_s"]
    assert layers["trace.unaccounted_frac"] == pytest.approx(1 - self_sum / rep["total_s"])
    names = {span["name"] for span in rep["spans"]}
    assert {"star.build.cbh", "kontsevich.assemble_linear_star", "bidiff.exp"} <= names

