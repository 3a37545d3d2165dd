"""Command-line harness: instance generation, geodesic computation,
verification suites.

Machine-readable JSON goes to stdout (floats pinned to 17 significant
digits, so identical flags and seed reproduce identical bytes); human
messages go to stderr, where ``verify`` counts its failed trials by failed
check, or by error type for a trial that raised.  Exit codes: 0 success,
1 suite failures, 2 usage or no-geodesic, 64 unknown suite.
"""

from __future__ import annotations

import argparse
import csv
import sys
from collections import Counter
from functools import cache
from pathlib import Path

import numpy as np

from .errors import NoGeodesic, ProjGeoError
from .geodesics import minimal_geodesic, sample_curve
from .numkernel import Tolerance
from .projections import fivespace_report, halmos_decompose, random_projection
from .serialize import csv_rows, dumps_canonical, read_pair, write_pair
from .suites import SUITES, run_suite
from . import projections

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2
EXIT_UNKNOWN_SUITE = 64


def _parse_list(text: str, kind) -> list:
    return [kind(part) for part in text.split(",") if part.strip() != ""]


def _tolerance_from_args(args) -> Tolerance:
    return Tolerance(rank_rtol=args.tol_rank)


def _emit(args, payload: dict) -> None:
    text = dumps_canonical(payload) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def cmd_gen(args) -> int:
    if args.dims is not None and args.ranks is not None:
        return _usage("--dims and --ranks are mutually exclusive")
    if args.angles is not None and args.dims is None:
        return _usage("--angles requires --dims")
    if args.dim is not None and args.ranks is None:
        return _usage("--dim requires --ranks")
    tol = _tolerance_from_args(args)
    if args.dims is not None:
        dims = _parse_list(args.dims, int)
        if len(dims) != 5:
            return _usage(f"--dims needs 5 entries, got {len(dims)}")
        d11, d00, d10, d01, dgen = dims
        if args.angles is not None:
            angles = _parse_list(args.angles, float)
        else:
            rng = np.random.default_rng(args.seed)
            angles = rng.uniform(0.1, np.pi / 2 - 0.1, dgen // 2)
        p, q = projections.pair_with_dims(
            d11, d00, d10, d01, dgen, angles, seed=args.seed
        )
    elif args.ranks is not None:
        ranks = _parse_list(args.ranks, int)
        if len(ranks) != 2:
            return _usage(f"--ranks needs 2 entries, got {len(ranks)}")
        if args.dim is None:
            return _usage("--ranks requires --dim")
        p = random_projection(args.dim, ranks[0], args.seed)
        q = random_projection(args.dim, ranks[1], (args.seed, 1))
    else:
        return _usage("provide either --dims or --ranks")

    fs = halmos_decompose(p, q, tol)  # a pair it rejects leaves no file
    write_pair(args.out, p, q)
    report = fivespace_report(fs)
    report["out"] = str(args.out)
    d_plus, d_minus = report["index"]
    if d_plus != d_minus:
        print(
            f"warning: index mismatch ({d_plus}, {d_minus}); "
            "the pair admits no geodesic",
            file=sys.stderr,
        )
    sys.stdout.write(dumps_canonical(report) + "\n")
    return EXIT_OK


def _write_samples(path, seg, samples: int) -> None:
    n = seg.base.shape[0]
    header = ["t"]
    for i in range(n):
        for j in range(n):
            header += [f"re_{i}_{j}", f"im_{i}_{j}"]
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(header)
        ts = [k / samples for k in range(samples + 1)]
        for chunk, points in sample_curve(seg, ts):
            values = points.reshape(chunk.size, -1).view(np.float64)
            handle.write(csv_rows(np.column_stack([chunk, values])))


def cmd_geodesic(args) -> int:
    if args.samples < 2:
        return _usage(f"--samples must be >= 2, got {args.samples}")
    tol = _tolerance_from_args(args)
    p, q = read_pair(args.infile)
    try:
        seg, report = minimal_geodesic(p, q, samples=args.samples, tol=tol)
    except NoGeodesic as exc:
        ip = exc.index  # the split that refused the pair found it
        print(f"no geodesic: index ({ip.d_plus}, {ip.d_minus})", file=sys.stderr)
        return EXIT_USAGE
    if args.csv:
        _write_samples(args.csv, seg, args.samples)
    _emit(args, report)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(
            f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}",
            file=sys.stderr,
        )
        return EXIT_UNKNOWN_SUITE
    tol = _tolerance_from_args(args)
    report = run_suite(args.suite, args.trials, args.seed, tol)
    _emit(args, report.to_json())
    failed = Counter(name for r in report.records if not r["ok"]
                     for name in r.get("failed") or [r["error"].partition(":")[0]])
    line = f"suite {args.suite}: {report.trials} trials, {report.failures} failures"
    if failed:
        line += "; failed: " + ", ".join(f"{name} {count}" for name, count in failed.most_common())
    print(line, file=sys.stderr)
    return EXIT_OK if report.failures == 0 else EXIT_FAILURES


def _add_tolerance_flags(parser: argparse.ArgumentParser) -> None:
    """The flag read by ``_tolerance_from_args``, last in every subcommand."""
    parser.add_argument("--tol-rank", type=float, default=Tolerance.rank_rtol,
                        help="rank-decision threshold (default %(default)g)")


@cache  # built on the first main call, not at import; parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projgeo",
        description="Geodesics between selfadjoint projections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a projection pair file")
    gen.add_argument("--dim", type=int, default=None, help="ambient dimension (with --ranks)")
    gen.add_argument("--dims", type=str, default=None,
                     help="five-space dimensions d11,d00,d10,d01,dgen")
    gen.add_argument("--ranks", type=str, default=None,
                     help="two ranks r1,r2 for an unstructured random pair")
    gen.add_argument("--angles", type=str, default=None,
                     help="principal angles (radians), one per generic 2-plane")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=str, default="pair.json")
    _add_tolerance_flags(gen)
    gen.set_defaults(func=cmd_gen)

    geo = sub.add_parser("geodesic", help="minimal geodesic of a stored pair")
    geo.add_argument("--in", dest="infile", type=str, required=True)
    geo.add_argument("--samples", type=int, default=1000,
                     help="grid size for the length estimate and CSV output")
    geo.add_argument("--csv", type=str, default=None,
                     help="write sampled curve points to this CSV file")
    geo.add_argument("--out", type=str, default=None)
    _add_tolerance_flags(geo)
    geo.set_defaults(func=cmd_geodesic)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", type=str, required=True)
    ver.add_argument("--trials", type=int, default=100)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out", type=str, default=None)
    _add_tolerance_flags(ver)
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ProjGeoError, OSError, ValueError, KeyError) as exc:
        return _usage(str(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
