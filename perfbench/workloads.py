"""The benchmark's three workloads.

Each workload builds its inputs from the run seed in ``setup`` and then
serves ops: ``op(i)`` is one unit of user work, run as a closed loop by a
single client, and is the only part that is timed.  ``check`` then turns the
op's result into its canonical output bytes (suite report JSON or CLI
stdout); a wrong answer raises ``OpFailed``.

* ``geodesic-small``: one ``minimality``-suite trial (n <= 16): the seeded
  equal-index pair, its minimal exponent, ten two-leg competitors and the
  chordal length on a 500-point grid.  Per-call overhead and repeated
  validation dominate; stresses ``projections`` and ``geodesics``, never
  touches ``blockmodel`` or ``serialize``.
* ``quotient-small``: one ``existence``, ``lifting`` or ``normlift`` trial in
  round robin (block dim d <= 6).  The work is mostly in ``blockmodel``; it
  solves one small geodesic per trial, so it bypasses geodesic-level changes.
* ``geodesic-large``: one in-process ``projgeo geodesic --samples 20`` on an
  n = 128 index-(0,0) pair file written in set-up by ``projgeo gen``.  LAPACK
  bound; shares the ``geodesics``/``projections`` code with
  ``geodesic-small``, so trading per-call overhead for extra factorizations
  shows up here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

from projgeo import cli, suites
from projgeo.serialize import dumps_canonical

# seeds of timed op i and warm-up op j live in disjoint ranges of one block
SEED_BLOCK = 10**6
# the top of each block is kept for warm-up seeds
MAX_OPS = SEED_BLOCK - 1000


class OpFailed(Exception):
    """An op completed but its output fails the workload's check."""


def timed_seed(seed: int, i: int) -> int:
    if i >= MAX_OPS:
        raise ValueError(f"op index {i} leaves the timed seed range")
    return SEED_BLOCK * seed + i


def warmup_seed(seed: int, j: int) -> int:
    return SEED_BLOCK * seed + SEED_BLOCK - 1 - j


# Checking runs outside the timed op, through references taken at import,
# before any tracing: the digest never shows up as suites or serialize work.
_report_json = suites.SuiteReport.to_json


class _SuiteWorkload:
    kinds: tuple[str, ...]
    calibration = "interpreter"

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def op(self, i: int):
        # looked up at call time, so a traced phase sees its wrapper
        return suites.run_suite(self.kinds[i % len(self.kinds)], 1, timed_seed(self.seed, i))

    def warmup(self, j: int):
        return suites.run_suite(self.kinds[j % len(self.kinds)], 1, warmup_seed(self.seed, j))

    def check(self, report) -> bytes:
        text = dumps_canonical(_report_json(report))
        if report.failures or len(report.records) != 1 or not report.records[0]["ok"]:
            raise OpFailed(f"{report.suite} trial not ok: {text}")
        return text.encode()


class GeodesicSmall(_SuiteWorkload):
    name = "geodesic-small"
    kinds = ("minimality",)


class QuotientSmall(_SuiteWorkload):
    name = "quotient-small"
    kinds = ("existence", "lifting", "normlift")


class GeodesicLarge:
    name = "geodesic-large"
    calibration = "mixed"
    dims = "32,32,0,0,64"
    files = 4
    samples = 20

    def setup(self, seed: int, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.paths = [self._gen(timed_seed(seed, k), workdir / f"pair-{k}.json")
                      for k in range(self.files)]
        self.warmup_path = self._gen(warmup_seed(seed, 0), workdir / "pair-warmup.json")

    @staticmethod
    def _cli(argv) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def _gen(self, gen_seed: int, path: Path) -> Path:
        code, _, err = self._cli(["gen", "--dims", self.dims, "--seed", str(gen_seed),
                                  "--out", str(path)])
        if code != 0:
            raise OpFailed(f"projgeo gen exited {code}: {err}")
        return path

    def _geodesic(self, path: Path):
        return self._cli(["geodesic", "--in", str(path), "--samples", str(self.samples)])

    def check(self, result) -> bytes:
        code, text, err = result
        if code != 0:
            raise OpFailed(f"projgeo geodesic exited {code}: {err}")
        report = json.loads(text)
        norm_z = report["norm_Z"]
        ok = (
            report["endpoint_error"] <= 1e-9
            and norm_z <= math.pi / 2 + 1e-12
            and report["length_estimate"] <= norm_z + 1e-12
            and report["index"] == [0, 0]
        )
        if not ok:
            raise OpFailed(f"geodesic report out of bounds: {text}")
        return text.encode()

    def op(self, i: int):
        return self._geodesic(self.paths[i % self.files])

    def warmup(self, j: int):
        return self._geodesic(self.warmup_path)


WORKLOADS = {w.name: w for w in (GeodesicSmall, QuotientSmall, GeodesicLarge)}
