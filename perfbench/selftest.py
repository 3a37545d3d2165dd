"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks, exiting non-zero on the first failure:

1. Wrapping is complete.  A fixed ``minimal_exponent`` call is traced twice
   while ``sys.setprofile`` counts every call of the original functions'
   code objects.  The per-function span counts must be identical in both
   calls and equal to the profiler's counts, so no call slipped past a
   re-bound copy (``from .numkernel import op_norm`` and the like).
2. For every workload, a short traced run (``--trace 1``) is correct, its
   untraced and traced phases give identical output digests, it reports
   exactly the ``per_layer`` metrics of BENCHMARK.json, the layers the
   workload must bypass read zero, and the per-layer self times in the
   spans file sum to the traced op time.
3. For every workload, a short untraced run is correct and reports exactly
   the ``end_to_end`` metrics of BENCHMARK.json, each of them positive.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

import run

# layers each workload must leave untouched, from the workload definitions
BYPASSED = {
    "geodesic-small": ("blockmodel", "serialize", "cli"),
    "quotient-small": ("serialize", "cli"),
    "geodesic-large": ("blockmodel", "suites"),
}


class SelfTestFailure(Exception):
    pass


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SelfTestFailure(message)


def _span_counts(tracer) -> dict[str, int]:
    from tracer import SpanStats

    stats = SpanStats.of(tracer)
    return {name: stats.calls(name) for name in stats.names if stats.calls(name)}


def check_wrapping() -> None:
    from tracer import LAPACK_PREFIX, Tracer

    from projgeo import geodesics, projections

    p, q = projections.pair_with_dims(1, 1, 1, 1, 4, [0.4, 0.9], seed=7)
    tracer = Tracer()
    tracer.install()
    try:
        by_code = {inspect.unwrap(fn).__code__: name for name, fn in tracer.originals.items()}
        counts = []
        for _ in range(2):
            seen: dict[str, int] = {}

            def profile(frame, event, arg):
                if event == "call" and frame.f_code in by_code:
                    name = by_code[frame.f_code]
                    seen[name] = seen.get(name, 0) + 1

            tracer.clear()
            tracer.recording = True
            sys.setprofile(profile)
            try:
                geodesics.minimal_exponent(p, q)
            finally:
                sys.setprofile(None)
                tracer.recording = False
            spans = _span_counts(tracer)
            check(spans == seen, f"span counts {spans} differ from profiler counts {seen}")
            counts.append(spans)
    finally:
        tracer.uninstall()
    check(counts[0] == counts[1], "call counts of a fixed minimal_exponent call are not fixed")
    for name in ("geodesics.minimal_exponent", "projections.halmos_decompose",
                 "projections.make_projection", "numkernel.nullspace", "numkernel.op_norm"):
        check(counts[0].get(name, 0) > 0, f"{name} recorded no span under minimal_exponent")
    check(any(n.startswith(LAPACK_PREFIX) for n in counts[0]), "no LAPACK span recorded")
    print(f"ok wrapping: {sum(counts[0].values())} spans over {len(counts[0])} functions "
          "match the profiler's call counts:")
    print("   " + ", ".join(f"{name}={n}" for name, n in sorted(counts[0].items())))


def _measure(workload: str, trace: int):
    args = argparse.Namespace(workload=workload, seed=12345, seconds=1.0, trace=trace,
                              setup_only=None)
    return run.measure(args)


def check_traced(workload: str, spec: dict) -> None:
    from tracer import LAYERS, SpanStats

    metrics, info = _measure(workload, 1)
    check(info["failed"] == 0 and info["warmup_failed"] == 0, f"{workload}: {info['errors']}")
    check(info["untraced_sha256"] == info["traced_sha256"],
          f"{workload}: traced and untraced outputs differ")
    names = [m["name"] for m in spec["per_layer"]]
    check(sorted(metrics) == sorted(names),
          f"{workload}: per-layer metrics {sorted(set(metrics) ^ set(names))} mismatch")
    for layer in BYPASSED[workload]:
        check(metrics[f"{layer}.calls"][0] == 0, f"{workload}: {layer} was called")
    stats = SpanStats.load(run.OUT / f"spans-{workload}.npz")
    layer_sum = sum(stats.layer_self_s(layer) for layer in LAYERS)
    root = stats.root_time_s()
    check(abs(layer_sum - root) <= 1e-9 * root,
          f"{workload}: layer self times {layer_sum} != traced op time {root}")
    total_ms = sum(metrics[f"{layer}.self_ms"][0] for layer in LAYERS)
    gap_ms = metrics["tracing.unattributed_ms"][0]
    check(0 <= gap_ms <= 0.05 * total_ms,
          f"{workload}: {gap_ms} ms/op of {total_ms} lies outside every span")
    print(f"ok traced {workload}: {info['traced_ops']} ops, {stats.dur.size} spans, "
          f"digests equal, layer self times sum to the op time")


def check_untraced(workload: str, spec: dict) -> None:
    metrics, info = _measure(workload, 0)
    check(info["failed"] == 0 and info["warmup_failed"] == 0, f"{workload}: {info['errors']}")
    names = [m["name"] for m in spec["end_to_end"]]
    check(sorted(metrics) == sorted(names), f"{workload}: end-to-end metrics mismatch")
    check(all(v > 0 for v, _ in metrics.values()), f"{workload}: non-positive metric {metrics}")
    print(f"ok untraced {workload}: {info['op_samples']} ops x {info['passes']} passes")


def main() -> int:
    run.prepare_environment()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    import workloads  # noqa: F401  (imports projgeo from the checkout)

    try:
        check_wrapping()
        for workload in run.WORKLOAD_NAMES:
            check_traced(workload, spec)
            check_untraced(workload, spec)
    except SelfTestFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
