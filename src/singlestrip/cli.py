"""Command-line front end.

Exit codes: 0 success, 1 usage, 2 parse/load failure, 3 validation failure,
4 pipeline or verification failure. An OS error while reading an input (a
missing file, a directory, no permission) is a load failure, exit 2. One
while writing the outputs means the --out, --stats or gen -o path is unusable
(an existing file where a directory is wanted, no permission), exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .boundary import strip_with_boundary
from .fileio import (
    ParseError,
    load_mesh,
    read_strip_order,
    save_mesh,
    write_stats,
    write_strip_order,
)
from .generators import generate, parse_spec
from .matching import MatchingError
from .mesh import MeshError, ValidationError, validate
from .sfc import CurveError, direct_cycle, export_curve, generate_curve
from .striploop import PipelineError, StripResult, stripify, verify_order

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PIPELINE = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singlestrip",
        description="Single triangle cycle / strip construction and space-filling curves.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a test mesh, e.g. 'torus(20,10)'")
    p.add_argument("spec", help="one of tetrahedron, octahedron, icosphere(s), torus(p,q), fan(m), mk(k)")
    p.add_argument("--out", "-o", default=None, help="output file (default: <spec>.<format>)")
    p.add_argument("--format", choices=("off", "obj"), default="off")

    p = sub.add_parser("stripify", help="closed mesh -> single Hamiltonian triangle cycle")
    p.add_argument("input")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--stats", default=None, help="stats JSON path (default <stem>.stats.json)")

    p = sub.add_parser("stripify-boundary", help="mesh with holes -> single open strip")
    p.add_argument("input")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--stats", default=None)

    p = sub.add_parser("sfc", help="stripify a closed mesh and emit a space-filling curve")
    p.add_argument("input")
    p.add_argument("--depth", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--curve-format", choices=("obj", "json"), default="obj")
    p.add_argument("--stats", default=None)

    p = sub.add_parser("verify", help="check a strip order file against its mesh")
    p.add_argument("mesh", help="the subdivided mesh the order refers to")
    p.add_argument("strip", help="strip order file ('cycle N' or 'strip N' header)")

    p = sub.add_parser("stats", help="print mesh statistics and validation result")
    p.add_argument("input")
    return parser


class OutputError(Exception):
    """An output path cannot be written."""


@contextmanager
def _writing():
    """Report an OS error raised inside the block as an OutputError."""
    try:
        yield
    except OSError as exc:
        raise OutputError(str(exc)) from exc


def _write_result(result: StripResult, input_path: Path, out_dir: Path, stats_path) -> None:
    stem = input_path.stem
    with _writing():
        out_dir.mkdir(parents=True, exist_ok=True)
        save_mesh(result.mesh, out_dir / f"{stem}.strip.obj")
        write_strip_order(out_dir / f"{stem}.strip.txt", result.order, result.closed)
        write_stats(Path(stats_path) if stats_path else out_dir / f"{stem}.stats.json", result.stats)


def _cmd_gen(args) -> int:
    spec = parse_spec(args.spec)
    mesh = generate(spec)
    out = Path(args.out) if args.out else Path(f"{spec}.{args.format}")
    with _writing():
        save_mesh(mesh, out, fmt=args.format)
    print(f"wrote {out}: {mesh.n_vertices} vertices, {mesh.n_triangles} triangles")
    return EXIT_OK


def _cmd_stripify(args) -> int:
    input_path = Path(args.input)
    result = stripify(load_mesh(input_path))
    _write_result(result, input_path, Path(args.out), args.stats)
    s = result.stats
    print(
        f"cycle of {s['output_triangles']} triangles from {s['input_triangles']} "
        f"(+{s['percent_increase']}%, {s['splits']} splits)"
    )
    return EXIT_OK


def _cmd_stripify_boundary(args) -> int:
    input_path = Path(args.input)
    result = strip_with_boundary(load_mesh(input_path))
    _write_result(result, input_path, Path(args.out), args.stats)
    s = result.stats
    print(
        f"strip of {s['output_triangles']} triangles from {s['input_triangles']} "
        f"({s['splits']} splits, spine {s['spine_edges']})"
    )
    return EXIT_OK


def _cmd_sfc(args) -> int:
    input_path = Path(args.input)
    result = stripify(load_mesh(input_path))
    t0 = time.perf_counter()
    dc = direct_cycle(result.mesh, result.order)
    curve = generate_curve(result.mesh, dc, args.depth)
    t1 = time.perf_counter()
    out_dir = Path(args.out)
    curve_path = out_dir / f"{input_path.stem}.curve.{args.curve_format}"
    with _writing():
        out_dir.mkdir(parents=True, exist_ok=True)
        export_curve(curve, curve_path, fmt=args.curve_format)
    t2 = time.perf_counter()
    stats = dict(result.stats)
    stats["elapsed_ms"] = dict(
        stats["elapsed_ms"],
        curve=round((t1 - t0) * 1000.0, 3),
        export=round((t2 - t1) * 1000.0, 3),
    )
    stats["curve_depth"] = args.depth
    stats["curve_points"] = len(curve.points)
    with _writing():
        write_stats(
            Path(args.stats) if args.stats else out_dir / f"{input_path.stem}.stats.json", stats
        )
    print(f"wrote {curve_path}: {len(curve.points)} points at depth {args.depth}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    mesh = load_mesh(Path(args.mesh))
    order, closed = read_strip_order(Path(args.strip))
    ok, why = verify_order(mesh, order, closed)
    if not ok:
        print(f"INVALID: {why}", file=sys.stderr)
        return EXIT_PIPELINE
    kind = "cycle" if closed else "strip"
    print(f"valid {kind} of {len(order)} triangles")
    return EXIT_OK


def _cmd_stats(args) -> int:
    mesh = load_mesh(Path(args.input))
    boundary = len(mesh.boundary_edges())
    mode = "closed" if boundary == 0 else "with_boundary"
    report = validate(mesh, mode)
    info = {
        "vertices": mesh.n_vertices,
        "triangles": mesh.n_triangles,
        "edges": len(mesh.edge_map),
        "boundary_edges": boundary,
        "mode": mode,
        "valid": report.ok,
        "violations": [f"[{code}] {detail}" for code, detail in report.violations],
    }
    print(json.dumps(info, indent=2, sort_keys=True))
    return EXIT_OK if report.ok else EXIT_VALIDATION


_COMMANDS = {
    "gen": _cmd_gen,
    "stripify": _cmd_stripify,
    "stripify-boundary": _cmd_stripify_boundary,
    "sfc": _cmd_sfc,
    "verify": _cmd_verify,
    "stats": _cmd_stats,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 2 for usage errors
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except OutputError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ParseError, MeshError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation failed:\n{exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (MatchingError, PipelineError, CurveError) as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    raise SystemExit(main())
