"""Independent checks of the files the CLI writes.

Everything here parses the output files itself and shares no code with the
program, so a defect in the program's own `verify_order` cannot hide here.
"""

from __future__ import annotations

import json
from pathlib import Path


class CheckError(Exception):
    """An output file is malformed or breaks a guarantee of the paper."""


def read_obj_faces(path: Path) -> list[tuple[int, int, int]]:
    """0-based triangles of an OBJ file, each index checked against the vertices."""
    n_vertices = 0
    faces = []
    with open(path) as f:
        for line in f:
            if line.startswith("v "):
                n_vertices += 1
            elif line.startswith("f "):
                refs = line.split()[1:]
                if len(refs) != 3:
                    raise CheckError(f"{path.name}: face with {len(refs)} vertices")
                faces.append(tuple(int(r.split("/")[0]) - 1 for r in refs))
    for face in faces:
        if min(face) < 0 or max(face) >= n_vertices or len(set(face)) != 3:
            raise CheckError(f"{path.name}: bad face {face} over {n_vertices} vertices")
    return faces


def read_order(path: Path) -> tuple[list[int], bool]:
    """Triangle order and whether it is a closed cycle, from a .strip.txt file."""
    tokens = path.read_text().split()
    if len(tokens) < 2 or tokens[0] not in ("cycle", "strip"):
        raise CheckError(f"{path.name}: no 'cycle N' or 'strip N' header")
    order = [int(x) for x in tokens[2:]]
    if len(order) != int(tokens[1]):
        raise CheckError(f"{path.name}: header says {tokens[1]}, file lists {len(order)}")
    return order, tokens[0] == "cycle"


def check_order(faces: list[tuple[int, int, int]], order: list[int], closed: bool) -> None:
    """Every triangle exactly once; consecutive ones (and the closing pair of
    a cycle) share an edge."""
    n = len(faces)
    if sorted(order) != list(range(n)):
        raise CheckError(f"order of {len(order)} does not list each of {n} triangles once")
    for i in range(n if closed else n - 1):
        a, b = faces[order[i]], faces[order[(i + 1) % n]]
        if len(set(a) & set(b)) != 2:
            raise CheckError(f"triangles {order[i]} and {order[(i + 1) % n]} share no edge")


def check_strip(out_dir: Path, stem: str, n_in: int, closed: bool, mk_k: int | None) -> int:
    """Check a stripify / stripify-boundary result; returns the output size."""
    faces = read_obj_faces(out_dir / f"{stem}.strip.obj")
    order, is_cycle = read_order(out_dir / f"{stem}.strip.txt")
    if is_cycle != closed:
        raise CheckError(f"expected a {'cycle' if closed else 'strip'}")
    check_order(faces, order, closed)
    n_out = len(faces)
    if n_out < n_in:
        raise CheckError(f"output has {n_out} triangles, input {n_in}")
    if closed and not n_out < 1.5 * n_in:
        raise CheckError(f"closed output {n_out} is not under 1.5 * {n_in}")
    if mk_k is not None and n_out != 3 * n_in - 2 - 4 * mk_k:
        raise CheckError(f"M_{mk_k} output {n_out} != 3n - 2 - 4k = {3 * n_in - 2 - 4 * mk_k}")
    return n_out


def check_curve(out_dir: Path, stem: str, n_in: int, depth: int) -> int:
    """Check an sfc result; returns the size of the stripified mesh."""
    stats = json.loads((out_dir / f"{stem}.stats.json").read_text())
    n_out = stats["output_triangles"]
    if not n_in <= n_out < 1.5 * n_in:
        raise CheckError(f"stripified mesh has {n_out} triangles for {n_in} input")
    if stats["curve_points"] != n_out * 2 * 4**depth:
        raise CheckError(f"{stats['curve_points']} curve points != n * 2 * 4^{depth}")
    n_vertices = 0
    polyline = None
    with open(out_dir / f"{stem}.curve.obj") as f:
        for line in f:
            if line.startswith("v "):
                n_vertices += 1
            elif line.startswith("l "):
                if polyline is not None:
                    raise CheckError("curve has more than one line element")
                polyline = line.rstrip("\n")
    if not 3 <= n_vertices <= stats["curve_points"]:
        raise CheckError(f"curve file has {n_vertices} vertices")
    if polyline != "l " + " ".join(map(str, range(1, n_vertices + 1))) + " 1":
        raise CheckError("curve line element does not visit every vertex once and close")
    return n_out
