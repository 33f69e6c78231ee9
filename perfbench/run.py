"""The dqw benchmark: run one workload at one seed, check it, print metrics.

    python3 perfbench/run.py --workload equiv-monomial --seed 0 --seconds 60 --trace 0

Run from anywhere; the repository root is this file's parent directory, and
dqw is imported from its `src/`.  Every repetition is a fresh interpreter
(`worker.py`), so dqw's caches start cold, as they do for a `dqw` command
or a pytest session.  Repetitions run one at a time, with no process pool,
until `--seconds` is used up (at least three).  `setup_s`, `total_s` and
`peak_rss_mb` are medians over repetitions.  The item metrics come from each
item's median latency over the repetitions, so a burst of host load that
slows a minority of the repetitions, in any part of them, drops out.  Set-up
is repeated alone in extra cold processes until there are at least five
set-up samples.

With `--trace 1` the run alternates untraced and traced repetitions, and
prints the per-layer metrics of the traced ones plus the tracing overhead.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The full record, including the machine record and the spans of
the traced run, goes to `.perfbench/` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from worker import percentile  # noqa: E402

MIN_REPS = 3
MIN_SETUPS = 5
REP_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in the order BENCHMARK.json lists them."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer"]}


# -- environment record -----------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def machine_record() -> dict:
    cpu = _read("/proc/cpuinfo") or ""
    models = [line.split(":", 1)[1].strip() for line in cpu.splitlines()
              if line.startswith("model name")]
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else platform.processor(),
        "system": platform.system(),
    }


def git_commit() -> str | None:
    """HEAD's commit, or None when the repository root is not a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dqw").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def loadavg() -> str | None:
    text = _read("/proc/loadavg")
    return text.strip() if text else None


def cpu_times() -> str | None:
    """The aggregate `cpu` line of /proc/stat; its 8th field is steal time."""
    text = _read("/proc/stat")
    return text.splitlines()[0] if text else None


# -- repetitions ----------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("DQW_JOBS", None)  # the load is one process: no pool fan-out
    return env


class RepError(RuntimeError):
    pass


def spawn(workload: str, payload: bytes, trace: bool = False,
          expect: str | None = None, setup_only: bool = False) -> dict:
    extra = (["--expect", expect] if expect else []) + (["--setup-only"] if setup_only else [])
    spawned_at = time.perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--spawned-at", repr(spawned_at), "--trace", str(int(trace))] + extra
    proc = subprocess.run(cmd, input=payload, capture_output=True, env=_child_env(),
                          cwd=ROOT, timeout=REP_TIMEOUT_S)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepError(f"worker exited {proc.returncode}:\n{proc.stderr.decode()[-4000:]}")
    return json.loads(lines[-1])


def warm_up() -> None:
    """Compile bytecode once, untimed, so every timed repetition reads it."""
    subprocess.run([sys.executable, "-c", "import dqw.cli, workloads, layertrace"],
                   env=dict(_child_env(), PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{HERE}"),
                   cwd=ROOT, check=True, capture_output=True, timeout=REP_TIMEOUT_S)


def item_metrics(latencies: list[list[float]]) -> dict[str, float]:
    """items_per_s, item_p50_ms and item_p90_ms from each repetition's item
    latencies in ms, all in one item order.  Each item counts with its median
    over the repetitions."""
    item_ms = [statistics.median(times) for times in zip(*latencies)]
    return {
        "items_per_s": 1000 * len(item_ms) / sum(item_ms),
        "item_p50_ms": percentile(item_ms, 50),
        "item_p90_ms": percentile(item_ms, 90),
    }


def expected_digest(workload: str, seed: int) -> str | None:
    table = json.loads((HERE / "digests.json").read_text())
    return table.get(workload, {}).get(str(seed))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    payload = gen.encode(gen.generate(workload, seed))
    expect = expected_digest(workload, seed)
    env = {"machine": machine_record(), "git_commit": git_commit(),
           "source_sha256": source_digest(), "loadavg_before": loadavg(),
           "cpu_times_before": cpu_times()}
    warm_up()
    plain, traced = [], []
    start = time.perf_counter()
    cycles = 0
    while True:
        plain.append(spawn(workload, payload, expect=expect))
        if trace:
            traced.append(spawn(workload, payload, trace=True, expect=expect))
        cycles += 1
        elapsed = time.perf_counter() - start
        if cycles >= (1 if trace else MIN_REPS) and elapsed * (cycles + 1) / cycles > seconds:
            break
    setup_only = []
    while not trace and len(plain) + len(setup_only) < MIN_SETUPS:
        setup_only.append(spawn(workload, payload, setup_only=True))
    env["loadavg_after"] = loadavg()
    env["cpu_times_after"] = cpu_times()

    full = plain + traced
    digests = {r["digest"] for r in full}
    attempted = sum(r["checks"] for r in full) + len(setup_only) + len(full) - 1
    failed = (sum(r["failed"] for r in full)
              + sum(bool(any(r["cold_caches"].values())) for r in setup_only)
              + len(full) - 1 - sum(r["digest"] == full[0]["digest"] for r in full[1:]))
    med = statistics.median
    latencies = [r.pop("latencies_ms") for r in full][:len(plain)]
    metrics = {
        "setup_s": med([r["setup_s"] for r in plain + setup_only]),
        "total_s": med([r["total_s"] for r in plain]),
        **item_metrics(latencies),
        "peak_rss_mb": med([r["peak_rss_mb"] for r in plain]),
        "pass_frac": 1 - failed / attempted,
    }
    layers = {}
    if trace:
        layers = {name: med([r["layers"][name] for r in traced])
                  for name in traced[0]["layers"]}
        traced_total = med([r["total_s"] for r in traced])
        layers["trace.total_s"] = traced_total
        layers["trace.overhead_frac"] = traced_total / metrics["total_s"] - 1
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": env, "digest": sorted(digests), "digest_expected": expect,
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "correct": failed == 0,
        "metrics": metrics, "layers": layers,
        "reps": [{k: v for k, v in r.items() if k not in ("spans", "layers")}
                 for r in plain + traced + setup_only],
        "spans": traced[0]["spans"] if traced else [],
    }


# -- reporting ------------------------------------------------------------------------


def baseline_note(record: dict) -> list[str]:
    """Compare with the committed baseline; flag a different machine."""
    path = HERE / "baseline.json"
    if not path.exists():
        return []
    base = json.loads(path.read_text())
    entry = base.get("workloads", {}).get(record["workload"])
    if not entry:
        return []
    lines = []
    if base.get("machine") != record["env"]["machine"]:
        lines.append("FLAG: baseline was recorded on a different machine; "
                     "ratios below compare across machines")
    for name, value in record["metrics"].items():
        ref = entry.get(name)
        if ref:
            lines.append(f"  vs baseline {name}: {ref:.6g} -> {value:.6g} (x{value / ref:.3f})")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="dqw benchmark (see perfbench/README.md)")
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "dqw" / "__init__.py").is_file():
        print(f"error: no dqw sources under {ROOT / 'src'}; run from a dqw checkout",
              file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RepError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))

    env = record["env"]
    reps = record["reps"]
    full = [r for r in reps if "items" in r]
    print(f"dqw benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: {json.dumps(env['machine'], sort_keys=True)}")
    print(f"commit: {env['git_commit']}  source sha256: {env['source_sha256'][:16]}")
    print(f"loadavg: before {env['loadavg_before']} | after {env['loadavg_after']}")
    print(f"repetitions: {len(full)} full, {len(reps) - len(full)} set-up only; "
          f"items per repetition: {full[0]['items']}")
    print(f"digest: {', '.join(record['digest'])} "
          f"(expected: {record['digest_expected'] or 'none recorded for this seed'})")
    print(f"fail_frac: {record['fail_frac']:.6g} "
          f"({record['failed']} failed of {record['attempted']} checks)")
    for r in full:
        if r["failed_items"]:
            print(f"failed items: {', '.join(r['failed_items'])}")
    if args.trace:
        units = per_layer_units()
        shown = {name: {"value": record["layers"][name], "unit": unit}
                 for name, unit in units.items()}
    else:
        shown = {name: {"value": record["metrics"][name], "unit": unit}
                 for name, unit in END_TO_END.items()}
        for line in baseline_note(record):
            print(line)
    for name, m in shown.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(f"record: {out}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
