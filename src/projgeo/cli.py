"""Command-line harness: instance generation, geodesic computation,
verification suites.

Machine-readable JSON goes to stdout (floats pinned to 17 significant
digits, so identical flags and seed reproduce identical bytes); human
messages go to stderr.  Exit codes: 0 success, 1 suite failures, 2 usage
or no-geodesic, 64 unknown suite.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .errors import NoGeodesic, ProjGeoError
from .geodesics import minimal_geodesic, sample_curve
from .numkernel import Tolerance, default_tolerance
from .projections import (
    fivespace_report,
    halmos_decompose,
    index_pair,
    random_projection,
)
from .serialize import dumps_canonical, read_pair, write_pair
from .suites import SUITES, run_suite
from . import projections

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2
EXIT_UNKNOWN_SUITE = 64


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip() != ""]


def _parse_float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip() != ""]


def _tolerance_from_args(args) -> Tolerance:
    base = default_tolerance()
    rank = args.tol_rank if args.tol_rank is not None else base.rank_rtol
    recon = args.tol_recon if args.tol_recon is not None else base.recon_rtol
    return Tolerance(rank_rtol=rank, recon_rtol=recon)


def _emit(args, payload: dict) -> None:
    text = dumps_canonical(payload) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    if args.dims is not None and args.ranks is not None:
        print("error: --dims and --ranks are mutually exclusive", file=sys.stderr)
        return EXIT_USAGE
    tol = _tolerance_from_args(args)
    if args.dims is not None:
        dims = _parse_int_list(args.dims)
        if len(dims) != 5:
            print(f"error: --dims needs 5 entries, got {len(dims)}", file=sys.stderr)
            return EXIT_USAGE
        d11, d00, d10, d01, dgen = dims
        if args.angles is not None:
            angles = _parse_float_list(args.angles)
        else:
            rng = np.random.default_rng(args.seed)
            angles = rng.uniform(0.1, np.pi / 2 - 0.1, dgen // 2)
        p, q = projections.pair_with_dims(
            d11, d00, d10, d01, dgen, angles, seed=args.seed
        )
    elif args.ranks is not None:
        ranks = _parse_int_list(args.ranks)
        if len(ranks) != 2:
            print(f"error: --ranks needs 2 entries, got {len(ranks)}", file=sys.stderr)
            return EXIT_USAGE
        if args.dim is None:
            print("error: --ranks requires --dim", file=sys.stderr)
            return EXIT_USAGE
        p = random_projection(args.dim, ranks[0], args.seed)
        q = random_projection(args.dim, ranks[1], (args.seed, 1))
    else:
        print("error: provide either --dims or --ranks", file=sys.stderr)
        return EXIT_USAGE

    write_pair(args.out, p, q)
    fs = halmos_decompose(p, q, tol)
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
        writer = csv.writer(handle)
        writer.writerow(header)
        ts = [k / samples for k in range(samples + 1)]
        for chunk, points in sample_curve(seg, ts):
            for t, point in zip(chunk.tolist(), points):
                row = [format(t, ".17g")]
                for z in point.ravel():
                    row += [format(z.real, ".17g"), format(z.imag, ".17g")]
                writer.writerow(row)


def cmd_geodesic(args) -> int:
    tol = _tolerance_from_args(args)
    p, q = read_pair(args.infile)
    try:
        seg, report = minimal_geodesic(p, q, samples=args.samples, tol=tol)
    except NoGeodesic:
        ip = index_pair(p, q, tol)
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
    print(
        f"suite {args.suite}: {report.trials} trials, {report.failures} failures, "
        f"worst residual {report.worst_residual:.3e}",
        file=sys.stderr,
    )
    return EXIT_OK if report.failures == 0 else EXIT_FAILURES


def _add_tolerance_flags(parser: argparse.ArgumentParser) -> None:
    """The flags read by ``_tolerance_from_args``, last in every subcommand."""
    parser.add_argument("--tol-rank", type=float, default=None)
    parser.add_argument("--tol-recon", type=float, default=None)


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProjGeoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
