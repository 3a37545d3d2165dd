"""projgeo benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload geodesic-small --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``projgeo`` from its
``src/`` directory only.  Each op is one unit of user work in a closed loop
with one client; BLAS is pinned to one thread.  Every op's output is checked;
a failed or raising op is counted, never dropped.

``--trace 0`` prints the end-to-end metrics.  The timed ops run in PASSES
passes over the same inputs; each op's figure is the median of its passes.
All times are scaled to reference machine speed by a calibration kernel timed beside them (see
``calibrate.py``); the raw figures are in the info line.  ``--trace 1`` runs
the loop untraced for half the time, then replays those ops with every
projgeo function wrapped (see ``tracer.py``) and prints the per-layer
metrics, per op, and the tracing overhead between the two phases; both
phases must produce identical outputs.  Spans are written to
``perfbench/out/``.

The last line of stdout is the result object; the line before it carries
the run environment, raw times, the sample count, the failure fraction and
the sha256 of the canonical outputs of the first ``DIGEST_OPS`` timed ops.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("geodesic-small", "quotient-small", "geodesic-large")
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up is measured this many times, once here and the rest in child processes
SETUP_REPEATS = 5
# the output digest covers this many timed ops, which every run completes
DIGEST_OPS = 8
WARMUP_OPS = 3
# a calibration sample is taken before the first op due after this interval
CAL_PERIOD_S = 0.25
# the traced phase replays at most this many of the untraced phase's ops,
# which bounds the span arrays held in memory
MAX_TRACED_OPS = 300
# Untraced runs time every op PASSES times, in passes over the op sequence
# seconds/PASSES apart, and keep the median: the calibration follows most but
# not all of a shared host's speed swings, and a swing rarely covers one op
# in every pass.
PASSES = 3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="WORKDIR", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def prepare_environment() -> None:
    """Pin BLAS to one thread and put the checkout's ``src`` first on the
    path; must run before numpy is imported."""
    for var in BLAS_THREAD_ENV:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "projgeo" / "__init__.py").is_file():
        raise SystemExit(f"error: no projgeo sources under {src}")
    sys.path.insert(0, str(src))


def timed_setup(name: str, seed: int, workdir: Path):
    """Import projgeo and build the workload's inputs, then time the
    calibration kernel; returns (seconds, kernel ms, workload)."""
    t0 = perf_counter()
    import projgeo  # noqa: F401  (import time is part of set-up)
    import workloads

    wl = workloads.WORKLOADS[name]()
    wl.setup(seed, workdir)
    seconds = perf_counter() - t0
    from calibrate import Calibrator

    return seconds, Calibrator(wl.calibration).sample(), wl


def setup_samples(args, workdir: Path) -> tuple[list[tuple[float, float]], object]:
    """SETUP_REPEATS (seconds, kernel ms) samples: this process, then children."""
    first_s, first_ms, wl = timed_setup(args.workload, args.seed, workdir)
    samples = [(first_s, first_ms)]
    for k in range(1, SETUP_REPEATS):
        child_dir = OUT / f"setup-{args.workload}-{k}"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only", str(child_dir)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        shutil.rmtree(child_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        seconds, kernel_ms = proc.stdout.split()[-2:]
        samples.append((float(seconds), float(kernel_ms)))
    return samples, wl


class Loop:
    """Closed-loop runner with one client: runs ops, times each op on its
    own and checks its output.  A failing op is counted, never dropped."""

    def __init__(self, wl, calibrator, tracer=None):
        self.wl = wl
        self.cal = calibrator
        self.tracer = tracer
        self.runs: list[list[float]] = []  # per timed op, its raw seconds in each pass
        self.outputs: list[bytes | None] = []
        # per run, in order: (op, raw seconds, last kernel sample before it)
        self._order: list[tuple[int, float, int]] = []
        self._next_cal = 0.0
        self.failed = 0
        self.warmup_failed = 0
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self._order)

    def _call(self, i: int, warmup: bool):
        tr = self.tracer
        if tr is None:
            return self.wl.warmup(i) if warmup else self.wl.op(i)
        tr.op_id, tr.recording = (-1 if warmup else i), True
        try:
            return self.wl.warmup(i) if warmup else self.wl.op(i)
        finally:
            tr.recording = False

    def _run(self, i: int, warmup: bool) -> tuple[float, bytes | None]:
        t0 = perf_counter()
        try:
            result = self._call(i, warmup)
            elapsed = perf_counter() - t0
            return elapsed, self.wl.check(result)
        except Exception as exc:  # any failure of the op or its check counts
            elapsed = perf_counter() - t0
            kind = "warm-up op" if warmup else "op"
            self.errors.append(f"{kind} {i}: {type(exc).__name__}: {exc}"[:500])
            return elapsed, None

    def warmup(self, count: int) -> None:
        for j in range(count):
            self.warmup_failed += self._run(j, True)[1] is None

    def op(self, i: int | None = None) -> float:
        """Run timed op ``i``, by default the next new one; a repeat must
        reproduce the op's first output.  Returns the raw seconds."""
        if i is None:
            i = len(self.runs)
        if perf_counter() >= self._next_cal:
            self.cal.sample()
            self._next_cal = perf_counter() + CAL_PERIOD_S
        elapsed, out = self._run(i, False)
        self._order.append((i, elapsed, len(self.cal.samples_ms) - 1))
        if i == len(self.runs):
            self.runs.append([elapsed])
            self.outputs.append(out)
        else:
            self.runs[i].append(elapsed)
            if out is not None and out != self.outputs[i]:
                self.errors.append(f"op {i}: output differs between passes")
                out = None
        self.failed += out is None
        return elapsed

    def until(self, seconds: float, passes: int = 1) -> None:
        """New ops until ``seconds / passes`` of op time (and at least
        DIGEST_OPS ops), then ``passes - 1`` repeats of the same ops."""
        busy = 0.0
        while busy < seconds / passes or len(self.runs) < DIGEST_OPS:
            busy += self.op()
        for _ in range(passes - 1):
            for i in range(len(self.runs)):
                self.op(i)

    def scaled(self) -> list[list[float]]:
        """Per op, each pass's time at reference speed: scaled by the mean of
        the kernel samples taken just before and just after it."""
        samples = self.cal.samples_ms
        if self._order and self._order[-1][2] == len(samples) - 1:
            self.cal.sample()
        out: list[list[float]] = [[] for _ in self.runs]
        for i, raw, k in self._order:
            out[i].append(raw * self.cal.scale((samples[k] + samples[k + 1]) / 2))
        return out

    def digest(self, count: int | None = None) -> str:
        h = hashlib.sha256()
        for out in self.outputs[:count]:
            out = b"FAILED" if out is None else out
            h.update(len(out).to_bytes(8, "little"))
            h.update(out)
        return h.hexdigest()


def timing_metrics(op_s: list[float], setup_s: list[float]) -> dict:
    """Timing figures from per-op seconds and set-up seconds."""
    import numpy as np

    ms = np.asarray(op_s) * 1e3
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (1e3 / float(ms.mean()), "1/s"),
        "op_ms_p50": (float(np.quantile(ms, 0.5)), "ms"),
        "op_ms_p90": (float(np.quantile(ms, 0.9)), "ms"),
    }


def per_layer_metrics(stats, n_ops: int, untraced: float, traced: float, traced_raw: float) -> dict:
    """Per-op layer figures from the traced phase.  ``untraced`` and ``traced``
    are the scaled op seconds of the two phases over the same ops,
    ``traced_raw`` the traced phase's raw op seconds."""
    from tracer import LAYERS

    def per_op(x):
        return x / n_ops

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (per_op(stats.layer_calls(layer)), "calls/op")
        m[f"{layer}.self_ms"] = (per_op(stats.layer_self_s(layer)) * 1e3, "ms/op")
    lapack_calls, lapack_n3 = stats.lapack()
    m["numkernel.lapack_calls"] = (per_op(lapack_calls), "calls/op")
    # computed, not measured: sum of m*n*min(m, n) over the factorizations
    m["numkernel.lapack_n3"] = (per_op(lapack_n3), "mnk/op")

    def calls(name):
        return (per_op(stats.calls(name)), "calls/op")

    def self_ms(name):
        return (per_op(stats.self_s(name)) * 1e3, "ms/op")

    for fn in ("op_norm", "nullspace", "herm_eig"):
        m[f"numkernel.{fn}.calls"] = calls(f"numkernel.{fn}")
    m["projections.make_projection.calls"] = calls("projections.make_projection")
    m["projections.halmos_decompose.self_ms"] = self_ms("projections.halmos_decompose")
    m["projections.index_pair.calls"] = calls("projections.index_pair")
    solves = stats.calls("geodesics.minimal_exponent")
    validations = stats.calls("projections.make_projection")
    m["projections.validations_per_solve"] = (validations / solves if solves else 0.0, "ratio")
    m["geodesics.minimal_exponent.self_ms"] = self_ms("geodesics.minimal_exponent")
    m["geodesics.evaluate.calls"] = calls("geodesics.evaluate")
    m["geodesics.curve_length.self_ms"] = self_ms("geodesics.curve_length")
    draws = stats.calls_under("projections.random_projection", "geodesics.minimality_competitors")
    accepted = stats.calls("geodesics._joinable_midpoint")
    m["geodesics.midpoint_accept_ratio"] = (accepted / draws if draws else 0.0, "ratio")
    m["blockmodel.truncated_index_pairs.self_ms"] = self_ms("blockmodel.truncated_index_pairs")
    m["blockmodel.lift_geodesic.calls"] = calls("blockmodel.lift_geodesic")
    pair_draws = sum(stats.calls(f"suites.random_{kind}_pair")
                     for kind in ("equal_index", "generic", "crossed", "quotient"))
    m["suites.pair_draws_per_op"] = (per_op(pair_draws), "draws/op")
    m["tracing.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
    m["tracing.spans_per_op"] = (per_op(len(stats.dur)), "spans/op")
    m["tracing.unattributed_ms"] = (per_op(traced_raw - stats.root_time_s()) * 1e3, "ms/op")
    return m


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_vendor,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_ENV},
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(args) -> tuple[dict, dict]:
    """One measured run; returns (metrics, info)."""
    from calibrate import Calibrator

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}"
    setup, wl = setup_samples(args, workdir)
    cal = Calibrator(wl.calibration)
    setup_scaled = [sec * cal.scale(kernel_ms) for sec, kernel_ms in setup]
    info = {"workload": args.workload, "env": environment(args.seed),
            "calibration": wl.calibration, "setup_raw_s": [sec for sec, _ in setup]}
    plain = Loop(wl, cal)
    # warm-up on seeds outside the timed set: lazy imports, BLAS start-up
    plain.warmup(WARMUP_OPS)
    if args.trace == 0:
        plain.until(args.seconds, PASSES)
        loops = [plain]
        per_op = [statistics.median(runs) for runs in plain.scaled()]
        metrics = timing_metrics(per_op, setup_scaled)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        raw = timing_metrics([statistics.median(runs) for runs in plain.runs],
                             [sec for sec, _ in setup])
        info["raw"] = {k: v for k, (v, _) in raw.items()}
    else:
        from tracer import SpanStats, Tracer

        plain.until(args.seconds / 2)
        n = min(len(plain.runs), MAX_TRACED_OPS)
        untraced_s = sum(runs[0] for runs in plain.scaled()[:n])
        tracer = Tracer()
        traced = Loop(wl, cal, tracer)
        tracer.install()
        try:
            traced.warmup(1)
            tracer.clear()
            for _ in range(n):
                traced.op()
        finally:
            tracer.uninstall()
        tracer.save(OUT / f"spans-{args.workload}.npz")
        loops = [plain, traced]
        metrics = per_layer_metrics(SpanStats.of(tracer), n, untraced_s,
                                    sum(runs[0] for runs in traced.scaled()),
                                    sum(runs[0] for runs in traced.runs))
        info["traced_ops"] = n
        info["untraced_sha256"] = plain.digest(n)
        info["traced_sha256"] = traced.digest()
    shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    kernel = cal.samples_ms
    info.update({
        "op_samples": len(plain.runs),
        "passes": PASSES if args.trace == 0 else 1,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "warmup_failed": sum(lp.warmup_failed for lp in loops),
        "kernel_ms": {"median": statistics.median(kernel), "min": min(kernel),
                      "max": max(kernel), "samples": len(kernel)},
        "outputs_sha256": plain.digest(DIGEST_OPS),
        "errors": [e for lp in loops for e in lp.errors][:5],
    })
    return metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    if args.setup_only is not None:
        seconds, kernel_ms, _ = timed_setup(args.workload, args.seed, Path(args.setup_only))
        print(repr(seconds), repr(kernel_ms))
        return 0
    metrics, info = measure(args)
    correct = info["failed"] == 0 and info["warmup_failed"] == 0
    if args.trace == 1:
        correct = correct and info["untraced_sha256"] == info["traced_sha256"]
    print(json.dumps({"info": info}))
    result = {
        "correct": correct,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
