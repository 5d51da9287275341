"""OFF/OBJ mesh readers and writers, plus strip-order and stats files.

OFF: `OFF` header, `V F E` counts, vertex lines, face lines `3 i j k`.
OBJ: `v x y z` and `f i j k` (1-based); normals/texcoords after `/` are
ignored, polygon faces with more than 3 vertices are rejected.

Each reader has two routes to the same mesh. The array route hands the
vertex and face blocks to numpy's C row reader (`np.loadtxt`) and the
arrays straight to `Mesh`. It takes a text without `#` whose lines are:
for OFF, the header (counts on it or on the next line), then exactly V
vertex rows of three numbers and F face rows `3 i j k`, trailing lines
ignored; for OBJ, a block of `v x y z ...` lines and then a block of
`f i j k` lines with plain positive indices. Any other text, and any text
numpy reads differently from Python's `float`/`int` (`1_0`, non-ASCII
digits, `2.0` as an index, indices beyond int64), goes to the line reader,
which reads every layout and words every `ParseError`. The array route
raises only `Mesh`'s own errors, which name the same values.

The writers print each coordinate as its shortest `repr`. `_vertex_lines`
writes the vertex text of both mesh formats and of the curve OBJ in chunks
of `_ROWS` rows. It formats each distinct coordinate of a chunk once, keeps
those reprs in a numpy object array, and fills one `%` template per chunk
from the array gathered through the chunk's inverse indices.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .mesh import Mesh, MeshError


class ParseError(Exception):
    """Malformed mesh, strip, or stats file."""


def load_mesh(path, fmt: str | None = None) -> Mesh:
    """Load an OFF or OBJ mesh; the format defaults to the file extension.
    The format is resolved before the file is opened, so a file of another
    format is refused unread, and a file that is not UTF-8 text is a
    `ParseError` naming the file."""
    path = Path(path)
    if fmt is None:
        fmt = path.suffix.lstrip(".")
    fmt = fmt.lower()
    reader = {"off": loads_off, "obj": loads_obj}.get(fmt)
    if reader is None:
        raise ParseError(f"unknown mesh format {fmt!r} for {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text (byte {exc.start})") from exc
    return reader(text)


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


def loads_off(text: str) -> Mesh:
    found = _off_arrays(text)
    return _read_off(text) if found is None else _mesh(*found)


def loads_obj(text: str) -> Mesh:
    found = _obj_arrays(text)
    return _read_obj(text) if found is None else _mesh(*found)


def _mesh(vertices, faces) -> Mesh:
    try:
        return Mesh(vertices, faces)
    except MeshError as exc:
        raise ParseError(str(exc)) from exc


# -- array route --------------------------------------------------------------


def _plain_lines(text: str) -> list[str]:
    """The lines of a text without comments, split as the line reader splits
    them; none for a text with `#`, whose lines the line reader cuts."""
    return [] if "#" in text else text.splitlines()


def _rows(lines: list[str], dtype, width: int, usecols=None) -> np.ndarray | None:
    """`lines` as a (len(lines), width) array read by numpy, or None where it
    would not match the line reader. numpy skips blank lines and rejects
    what Python's `float`/`int` would read differently, so a blank line,
    ragged row or extra column shows in the shape or as a ValueError. A
    blank first line is declined before numpy warns of an empty block."""
    if not lines or not lines[0].strip():
        return None
    try:
        rows = np.loadtxt(lines, dtype=dtype, comments=None, usecols=usecols, ndmin=2)
    except ValueError:
        return None
    return rows if rows.shape == (len(lines), width) else None


def _off_arrays(text: str):
    """(vertices, triangles) of a plain OFF text, or None."""
    lines = _plain_lines(text)
    head = lines[0].split() if lines else []
    if not head or head[0].upper() != "OFF":
        return None
    if len(head) == 4:
        counts, start = head[1:], 1
    else:
        counts, start = lines[1].split() if len(lines) > 1 else [], 2
    try:
        nv, nf = int(counts[0]), int(counts[1])
    except (ValueError, IndexError):
        return None
    if nv < 0 or nf < 0 or len(lines) < start + nv + nf:
        return None
    pts = _rows(lines[start : start + nv], np.float64, 3)
    faces = _rows(lines[start + nv : start + nv + nf], np.int64, 4)
    if pts is None or faces is None or (faces[:, 0] != 3).any():
        return None
    return pts, faces[:, 1:]


def _obj_arrays(text: str):
    """(vertices, triangles) of an OBJ text that is a block of `v ` lines
    followed by a block of `f ` lines, or None."""
    lines = _plain_lines(text)
    # nv counts every `v ` line, so if the rest are `f ` lines, the first nv are the `v ` lines
    nv = sum(map(str.startswith, lines, repeat("v ")))
    if not all(map(str.startswith, lines[nv:], repeat("f "))):
        return None
    pts = _rows(lines[:nv], np.float64, 3, usecols=(1, 2, 3))
    # the tags are cut off, so that a fourth reference changes the shape
    faces = _rows([line[2:] for line in lines[nv:]], np.int64, 3)
    if pts is None or faces is None or (faces < 1).any():
        return None
    return pts, faces - 1


# -- line reader --------------------------------------------------------------


def _significant_lines(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line.split())
    return out


def _read_off(text: str) -> Mesh:
    """The line reader for OFF."""
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
    return _mesh(vertices, faces)


def _read_obj(text: str) -> Mesh:
    """The line reader for OBJ."""
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
    return _mesh(vertices, faces)


# Rows per chunk of vertex text: a chunk's text and its distinct reprs stay
# within a few MiB.
_ROWS = 1 << 13


def _vertex_lines(points: np.ndarray, prefix: str):
    """Vertex text in chunks of `_ROWS` rows: per row of the (N, 3) float64
    array `points`, `prefix` and the three coordinates as their shortest
    `repr`, one line each. A chunk formats each distinct bit pattern once;
    bit patterns rather than values, so that -0.0 and 0.0 keep their own
    reprs. The reprs are held in an object array, and numpy gathers them
    into coordinate order, so the fill makes no Python int per coordinate."""
    for i in range(0, len(points), _ROWS):
        rows = points[i : i + _ROWS]
        bits, inverse = np.unique(rows.view(np.uint64).ravel(), return_inverse=True)
        text = np.fromiter(map(repr, bits.view(np.float64).tolist()), object, len(bits))
        yield (prefix + "%s %s %s\n") * len(rows) % tuple(text[inverse].tolist())


def _vertex_array(mesh: Mesh) -> np.ndarray:
    """The mesh's vertex tuples as an (n, 3) float64 array, read through one
    flat iterator: half the time `np.array` takes on the tuples."""
    flat = np.fromiter(chain.from_iterable(mesh.vertices), np.float64, 3 * mesh.n_vertices)
    return flat.reshape(-1, 3)


def dumps_off(mesh: Mesh) -> str:
    ids = mesh.alive_ids()
    head = f"OFF\n{mesh.n_vertices} {len(ids)} {mesh.n_edges}\n"
    faces = [f"3 {a} {b} {c}\n" for a, b, c in map(mesh.triangles.__getitem__, ids)]
    return "".join([head, *_vertex_lines(_vertex_array(mesh), ""), *faces])


def dumps_obj(mesh: Mesh) -> str:
    ids = mesh.alive_ids()
    faces = [f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in map(mesh.triangles.__getitem__, ids)]
    # a mesh without vertices or faces is one empty line
    return "".join([*_vertex_lines(_vertex_array(mesh), "v "), *faces]) or "\n"


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
