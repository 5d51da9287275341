"""Command-line front end.

Exit codes: 0 success, 1 usage, 2 parse/load failure, 3 validation failure,
4 pipeline or verification failure. An OS error while reading an input (a
missing file, a directory, no permission) is a load failure, exit 2. One
while writing the outputs means the --out, --stats or gen -o path is unusable
(an existing file where a directory is wanted, no permission), exit 1. A
pipeline error names the stage it failed in.

Each command runs with the cyclic garbage collector off. The pipelines build
millions of small acyclic containers, every collection walks all of them
again, and a whole command leaves only a few hundred objects in cycles. The
caller's setting is restored on return, so a caller that calls `main` in
process keeps its own policy.

Stats file (``stripify``, ``stripify-boundary`` and ``sfc``), schema 1:

- ``schema_version``: 1.
- ``input_triangles``, ``output_triangles``: triangle counts.
- ``percent_increase``: 100 * (output - input) / input, in percent.
- ``splits``: matched pairs split at an edge midpoint, each adding two
  triangles.
- ``verified``: always true; an order that fails verification is an error.
- ``elapsed_ms``: wall time of each stage, in milliseconds. The stages
  cover the whole command except parsing its arguments and writing the
  stats file.
  - ``stripify``: load, validate, eliminate, match, restore, cycles, nodal,
    splits, assemble, output, write.
  - ``stripify-boundary``: load, validate, strip, verify, write. Its
    validate stage checks the edges only, from the edges the loaded mesh's
    constructor flagged when it sorted them for the neighbour table, so it
    sorts nothing. The dual's connectivity is checked by the spanning tree,
    and the check for a boundary edge comes after it, so both are timed in
    strip.
  - ``sfc``: the stages of ``stripify`` up to output, then curve and
    export.

The closed pipeline (``stripify`` and ``sfc``) adds:

- ``cycles_initial``: triangle cycles after matching and restoration.
- ``cycles_after_nodal``: cycles left after nodal fan toggles.
- ``nodal_merges``: fan toggles accepted. The nodal stage tries each vertex
  once, so it always makes one pass and there is no pass counter.
- ``greedy_matched``: dual nodes matched by the greedy phase and its
  contraction replay; ``greedy_coverage`` is their share of all dual nodes.
- ``greedy_picks``: smallest-id picks the greedy phase made when no node
  had degree 1 or 2.
- ``augmentations``: augmenting paths the blossom phase found.
- ``augment_nodes``: nodes labelled by all of the blossom phase's
  augmenting searches, each search counting its root, the nodes it reached
  and their partners once; 0 when the greedy phase already matched every
  node. Added after ``schema_version`` 1 was set; a reader of an older
  file finds no such key.

``stripify-boundary`` adds ``spine_edges`` (tree edges on the spine path,
not doubled), ``bound_3n_minus_4log2n`` and ``bound_gap`` (output count
minus that bound), and sets the two cycle counts to null. ``sfc`` adds
``curve_depth`` and ``curve_points``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from contextlib import contextmanager
from functools import cache
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
from .sfc import MAX_DEPTH, CurveError, direct_cycle, export_curve, generate_curve
from .striploop import PipelineError, StageTimer, stripify, verify_order

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PIPELINE = 4


def _depth(text: str) -> int:
    """--depth: an integer from 0 to the curve's depth guard."""
    try:
        depth = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= depth <= MAX_DEPTH:
        raise argparse.ArgumentTypeError(f"must be from 0 to {MAX_DEPTH}, not {depth}")
    return depth


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, so every `main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="singlestrip",
        description="Single triangle cycle / strip construction and space-filling curves.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a test mesh, e.g. 'torus(20,10)'")
    p.add_argument(
        "spec",
        help="one of tetrahedron, octahedron, icosphere(s), torus(p,q), fan(m), mk(k); "
        "torus and fan stop at 2^20 triangles",
    )
    p.add_argument("--out", "-o", default=None, help="output file (default: <spec>.<format>)")
    p.add_argument("--format", choices=("off", "obj"), help="default: the -o suffix, else off")

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
    p.add_argument("--depth", type=_depth, default=0)
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


def _load_and_run(input_path: Path, pipeline):
    """Load the input and run `pipeline` on it, timing the load as a stage.

    Returns the result, a copy of its stats whose ``elapsed_ms`` holds the
    load and the pipeline's stages, and the timer whose `ms` is that
    ``elapsed_ms``, for the command's own later stages. The pipeline's own
    stats are left as they are.
    """
    timer = StageTimer()
    with timer("load"):
        mesh = load_mesh(input_path)
    result = pipeline(mesh)
    timer.ms.update(result.stats["elapsed_ms"])
    return result, dict(result.stats, elapsed_ms=timer.ms), timer


def _stats_path(args, input_path: Path, out_dir: Path) -> Path:
    return Path(args.stats) if args.stats else out_dir / f"{input_path.stem}.stats.json"


def _run_strip(args, pipeline) -> dict:
    """Load, run `pipeline` and write the strip mesh, order and stats."""
    input_path, out_dir = Path(args.input), Path(args.out)
    result, stats, timer = _load_and_run(input_path, pipeline)
    with _writing():
        with timer("write"):
            out_dir.mkdir(parents=True, exist_ok=True)
            save_mesh(result.mesh, out_dir / f"{input_path.stem}.strip.obj")
            write_strip_order(
                out_dir / f"{input_path.stem}.strip.txt", result.order, result.closed
            )
            # freeing the result is part of the command's time, so time it here
            del result
        write_stats(_stats_path(args, input_path, out_dir), stats)
    return stats


def _cmd_gen(args) -> int:
    spec = parse_spec(args.spec)
    mesh = generate(spec)
    fmt = args.format
    if fmt is None:
        suffix = Path(args.out).suffix.lower() if args.out else ""
        fmt = suffix[1:] if suffix in (".off", ".obj") else "off"
    out = Path(args.out) if args.out else Path(f"{spec}.{fmt}")
    with _writing():
        save_mesh(mesh, out, fmt=fmt)
    print(f"wrote {out}: {mesh.n_vertices} vertices, {mesh.n_triangles} triangles")
    return EXIT_OK


def _cmd_stripify(args) -> int:
    s = _run_strip(args, stripify)
    print(
        f"cycle of {s['output_triangles']} triangles from {s['input_triangles']} "
        f"(+{s['percent_increase']}%, {s['splits']} splits)"
    )
    return EXIT_OK


def _cmd_stripify_boundary(args) -> int:
    s = _run_strip(args, strip_with_boundary)
    print(
        f"strip of {s['output_triangles']} triangles from {s['input_triangles']} "
        f"({s['splits']} splits, spine {s['spine_edges']})"
    )
    return EXIT_OK


def _cmd_sfc(args) -> int:
    input_path, out_dir = Path(args.input), Path(args.out)
    result, stats, timer = _load_and_run(input_path, stripify)
    with timer("curve"):
        dc = direct_cycle(result.mesh, result.order)
        curve = generate_curve(result.mesh, dc, args.depth)
        del result, dc  # freed inside a stage, as in _run_strip
    stats["curve_depth"] = args.depth
    stats["curve_points"] = len(curve.points)
    curve_path = out_dir / f"{input_path.stem}.curve.{args.curve_format}"
    with _writing():
        with timer("export"):
            out_dir.mkdir(parents=True, exist_ok=True)
            export_curve(curve, curve_path, fmt=args.curve_format)
            del curve
        write_stats(_stats_path(args, input_path, out_dir), stats)
    print(f"wrote {curve_path}: {stats['curve_points']} points at depth {args.depth}")
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
        "edges": mesh.n_edges,
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
    # off before the arguments are parsed (and, on the first call, the parser
    # built), so that no collection starts outside the command's stages
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 0 for --help/--version, 2 for usage errors
            return EXIT_OK if exc.code == 0 else EXIT_USAGE
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
        where = f" in {exc.stage}" if getattr(exc, "stage", None) else ""
        print(f"pipeline error{where}: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
