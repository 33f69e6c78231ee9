"""One repetition of a dqw benchmark workload, in a fresh interpreter.

Reads the generated inputs as JSON on stdin, checks that dqw's caches start
cold, builds the workload's products (set-up), runs and times every item
(verify), digests all results, and prints one JSON object as its last line.
Times are `time.perf_counter` readings, which share one clock with the
parent process on Linux, so the parent can measure from before the spawn.

    python3 perfbench/worker.py --workload census --spawned-at T [--trace 1]
        [--expect DIGEST] [--setup-only] < inputs.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Public lru_cache wrappers that must be empty when a repetition starts.
COLD_CACHES = (
    ("dqw.pbw", "enveloping_algebra"),
    ("dqw.freelie", "hausdorff_series"),
    ("dqw.freelie", "free_lie"),
    ("dqw.kontsevich", "prime_type_table"),
)


def cold_cache_sizes() -> dict[str, int]:
    out = {}
    for module, name in COLD_CACHES:
        fn = getattr(sys.modules[module], name)
        out[f"{module}.{name}"] = fn.cache_info().currsize
    return out


def _plain(value):
    from dqw.series import EpsSeries

    return value.to_pairs() if isinstance(value, EpsSeries) else str(value)


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, default=_plain)


def verify(item_list) -> list[tuple]:
    """Run every item once: (label, ok, seconds, value).  An exception is a
    failed item whose value names the exception."""
    perf = time.perf_counter
    out = []
    for label, thunk in item_list:
        t0 = perf()
        try:
            ok, value = thunk()
        except Exception as exc:  # a crash is a failed check, never a pass
            ok, value = False, f"exception {type(exc).__name__}: {exc}"
        out.append((label, bool(ok), perf() - t0, value))
    return out


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for label, _, _, value in outcomes:
        h.update(f"{label}\t{canonical(value)}\n".encode())
    return h.hexdigest()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_rep(workload: str, inputs: dict, spawned_at: float, trace: bool,
            expect: str | None, setup_only: bool) -> dict:
    import dqw

    src = ROOT / "src" / "dqw"
    if Path(dqw.__file__).resolve().parent != src:
        raise SystemExit(f"dqw imported from {dqw.__file__}, not from {src}")
    import workloads

    cold = cold_cache_sizes()
    tracer = None
    if trace:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    state = workloads.setup(workload, inputs)
    t_setup = time.perf_counter()
    result = {
        "setup_s": t_setup - spawned_at,
        "cold_caches": cold,
    }
    if setup_only:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return result
    outcomes = verify(workloads.items(workload, inputs, state))
    t_verify = time.perf_counter()
    got = digest(outcomes)
    failed_items = [label for label, ok, _, _ in outcomes if not ok]
    checks = len(outcomes) + 1 + (expect is not None)
    failed = len(failed_items) + (any(cold.values())) + (expect is not None and got != expect)
    t_verdict = time.perf_counter()
    latencies = [dt for _, _, dt, _ in outcomes]
    verify_s = t_verify - t_setup
    result.update({
        "total_s": t_verdict - spawned_at,
        "verify_s": verify_s,
        "items": len(outcomes),
        "items_per_s": len(outcomes) / verify_s,
        "item_p50_ms": percentile(latencies, 50) * 1000,
        "item_p90_ms": percentile(latencies, 90) * 1000,
        "latencies_ms": [dt * 1000 for dt in latencies],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks": checks,
        "failed": failed,
        "failed_items": failed_items[:20],
        "digest": got,
        "digest_expected": expect,
    })
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
        accounted = sum(tracer.layer_self_s().values())
        layers["trace.unaccounted_frac"] = 1 - accounted / result["total_s"]
        result["layers"] = layers
        result["spans"] = tracer.spans()
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--expect", default=None, help="digest the results must have")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    inputs = json.loads(sys.stdin.buffer.read())
    result = run_rep(
        args.workload, inputs, args.spawned_at, bool(args.trace), args.expect, args.setup_only
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
