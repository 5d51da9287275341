"""OFF/OBJ mesh readers and writers, plus strip-order and stats files.

OFF: `OFF` header, `V F E` counts, vertex lines, face lines `3 i j k`.
OBJ: `v x y z` and `f i j k` (1-based); normals/texcoords after `/` are
ignored, polygon faces with more than 3 vertices are rejected.
"""

from __future__ import annotations

import json
from pathlib import Path

from .mesh import Mesh, MeshError


class ParseError(Exception):
    """Malformed mesh, strip, or stats file."""


def load_mesh(path, fmt: str | None = None) -> Mesh:
    """Load an OFF or OBJ mesh; the format defaults to the file extension."""
    path = Path(path)
    if fmt is None:
        fmt = path.suffix.lstrip(".").lower()
    fmt = fmt.lower()
    text = path.read_text()
    if fmt == "off":
        return loads_off(text)
    if fmt == "obj":
        return loads_obj(text)
    raise ParseError(f"unknown mesh format {fmt!r} for {path}")


def save_mesh(mesh: Mesh, path, fmt: str | None = None) -> None:
    path = Path(path)
    if fmt is None:
        fmt = path.suffix.lstrip(".").lower()
    fmt = fmt.lower()
    if fmt == "off":
        path.write_text(dumps_off(mesh))
    elif fmt == "obj":
        path.write_text(dumps_obj(mesh))
    else:
        raise ParseError(f"unknown mesh format {fmt!r} for {path}")


def _significant_lines(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line.split())
    return out


def loads_off(text: str) -> Mesh:
    lines = _significant_lines(text)
    if not lines or lines[0][0].upper() != "OFF":
        raise ParseError("missing OFF header")
    # counts may share the header line
    if len(lines[0]) == 4:
        counts = lines[0][1:]
        body = lines[1:]
    else:
        if len(lines) < 2:
            raise ParseError("missing OFF counts line")
        counts = lines[1]
        body = lines[2:]
    try:
        nv, nf = int(counts[0]), int(counts[1])
    except (ValueError, IndexError) as exc:
        raise ParseError(f"bad OFF counts line: {counts}") from exc
    if nv < 0 or nf < 0:
        raise ParseError(f"negative OFF counts: {nv} vertices, {nf} faces")
    if len(body) < nv + nf:
        raise ParseError(f"OFF file truncated: expected {nv} vertices + {nf} faces")
    vertices = []
    for row in body[:nv]:
        try:
            vertices.append((float(row[0]), float(row[1]), float(row[2])))
        except (ValueError, IndexError) as exc:
            raise ParseError(f"bad OFF vertex line: {' '.join(row)}") from exc
    faces = []
    for row in body[nv : nv + nf]:
        try:
            k = int(row[0])
            idx = [int(x) for x in row[1 : 1 + k]]
        except (ValueError, IndexError) as exc:
            raise ParseError(f"bad OFF face line: {' '.join(row)}") from exc
        if k != 3 or len(idx) != 3:
            raise ParseError(f"non-triangle OFF face with {k} vertices")
        faces.append(tuple(idx))
    try:
        return Mesh(vertices, faces)
    except MeshError as exc:
        raise ParseError(str(exc)) from exc


def loads_obj(text: str) -> Mesh:
    vertices = []
    faces = []
    for row in _significant_lines(text):
        tag = row[0]
        if tag == "v":
            try:
                vertices.append((float(row[1]), float(row[2]), float(row[3])))
            except (ValueError, IndexError) as exc:
                raise ParseError(f"bad OBJ vertex line: {' '.join(row)}") from exc
        elif tag == "f":
            refs = row[1:]
            if len(refs) != 3:
                raise ParseError(f"non-triangle OBJ face with {len(refs)} vertices")
            idx = []
            for ref in refs:
                head = ref.split("/", 1)[0]
                try:
                    i = int(head)
                except ValueError as exc:
                    raise ParseError(f"bad OBJ face reference {ref!r}") from exc
                if i < 1:
                    raise ParseError(f"OBJ face reference {i} is not positive 1-based")
                idx.append(i - 1)
            faces.append(tuple(idx))
        # other records (vn, vt, o, g, s, usemtl, ...) are ignored
    try:
        return Mesh(vertices, faces)
    except MeshError as exc:
        raise ParseError(str(exc)) from exc


def dumps_off(mesh: Mesh) -> str:
    ids = mesh.alive_ids()
    lines = ["OFF", f"{mesh.n_vertices} {len(ids)} {mesh.n_edges}"]
    for x, y, z in mesh.vertices:
        lines.append(f"{x!r} {y!r} {z!r}")
    for t in ids:
        a, b, c = mesh.triangles[t]
        lines.append(f"3 {a} {b} {c}")
    return "\n".join(lines) + "\n"


def dumps_obj(mesh: Mesh) -> str:
    lines = []
    for x, y, z in mesh.vertices:
        lines.append(f"v {x!r} {y!r} {z!r}")
    for t in mesh.alive_ids():
        a, b, c = mesh.triangles[t]
        lines.append(f"f {a + 1} {b + 1} {c + 1}")
    return "\n".join(lines) + "\n"


# -- strip order files -------------------------------------------------------


def dumps_strip_order(order: list[int], closed: bool) -> str:
    head = "cycle" if closed else "strip"
    lines = [f"{head} {len(order)}"]
    lines.extend(str(t) for t in order)
    return "\n".join(lines) + "\n"


def write_strip_order(path, order: list[int], closed: bool) -> None:
    Path(path).write_text(dumps_strip_order(order, closed))


def read_strip_order(path) -> tuple[list[int], bool]:
    rows = _significant_lines(Path(path).read_text())
    if not rows or rows[0][0] not in ("cycle", "strip"):
        raise ParseError("strip file must start with 'cycle <n>' or 'strip <n>'")
    closed = rows[0][0] == "cycle"
    try:
        count = int(rows[0][1])
        order = [int(r[0]) for r in rows[1:]]
    except (ValueError, IndexError) as exc:
        raise ParseError("malformed strip order file") from exc
    if len(order) != count:
        raise ParseError(f"strip header says {count} triangles but file lists {len(order)}")
    return order, closed


# Version of the stats file's keys and units, documented in `cli`.
STATS_SCHEMA_VERSION = 1


def write_stats(path, stats: dict) -> None:
    """Write `stats` as sorted JSON, stamped with ``schema_version``."""
    stamped = dict(stats, schema_version=STATS_SCHEMA_VERSION)
    Path(path).write_text(json.dumps(stamped, indent=2, sort_keys=True) + "\n")
