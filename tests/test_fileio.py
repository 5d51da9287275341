"""OFF/OBJ round-trips, parse failures, strip order files."""

import random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from oracles import (
    dumps_obj_by_lines,
    dumps_off_by_lines,
    edge_triangles,
    insert_centroid,
    mesh_edges,
    punch_holes,
    relabel,
    vertex_lines_by_fstrings,
)
from singlestrip import fileio
from singlestrip.fileio import (
    ParseError,
    dumps_obj,
    dumps_off,
    load_mesh,
    loads_obj,
    loads_off,
    read_strip_order,
    save_mesh,
    write_strip_order,
)
from singlestrip.generators import octahedron, tetrahedron, torus
from singlestrip.mesh import Mesh
from singlestrip.striploop import stripify

TETRA_OFF = """OFF
4 4 6
0 0 0
1 0 0
0 1 0
0 0 1
3 0 1 2
3 1 0 3
3 0 2 3
3 2 1 3
"""


def test_load_off_tetrahedron(tmp_path):
    path = tmp_path / "tetra.off"
    path.write_text(TETRA_OFF)
    mesh = load_mesh(path)
    assert mesh.n_triangles == 4
    assert mesh.n_edges == 6
    assert all(len(edge_triangles(mesh, e)) == 2 for e in mesh_edges(mesh))


def test_off_header_variants():
    assert loads_off("OFF 4 4 0\n" + TETRA_OFF.split("\n", 2)[2]).n_triangles == 4
    assert loads_off("# comment\n" + TETRA_OFF).n_triangles == 4


def test_off_bad_index_reports_parse_error():
    bad = TETRA_OFF.replace("3 2 1 3", "3 2 1 99")
    with pytest.raises(ParseError, match="out of range"):
        loads_off(bad)


def test_off_missing_header():
    with pytest.raises(ParseError, match="OFF header"):
        loads_off("4 4 0\n0 0 0\n")


def test_off_truncated():
    with pytest.raises(ParseError, match="truncated"):
        loads_off("OFF\n4 4 0\n0 0 0\n")


@pytest.mark.parametrize("counts", ["-1 1 0", "3 -1 0"])
def test_off_negative_counts_are_parse_errors(counts):
    # a negative count used to slice from the end of the body
    with pytest.raises(ParseError, match="negative OFF counts"):
        loads_off(f"OFF\n{counts}\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")


def test_off_polygon_face_rejected():
    bad = TETRA_OFF.replace("3 0 1 2", "4 0 1 2 3")
    with pytest.raises(ParseError, match="non-triangle"):
        loads_off(bad)


def test_obj_round_trip_of_generated_torus(tmp_path):
    mesh = torus(20, 10)
    path = tmp_path / "torus.obj"
    save_mesh(mesh, path)
    back = load_mesh(path)
    assert back.n_triangles == 400
    assert back.vertices == mesh.vertices
    assert [back.triangles[t] for t in back.alive_ids()] == [
        mesh.triangles[t] for t in mesh.alive_ids()
    ]


def test_off_round_trip_bitexact(tmp_path):
    mesh = torus(5, 4)
    text = dumps_off(mesh)
    again = dumps_off(loads_off(text))
    assert text == again


def test_writers_print_coordinates_as_floats():
    # the writers print each coordinate's repr, so the mesh must hold Python
    # floats whatever it was built from: ints, numpy scalars, added midpoints
    mesh = Mesh([(0, 0, 0), (1, 0, 0), np.array([0, 2, 0])], [(0, 1, 2)])
    mesh.add_vertex(np.array([0.5, 0.5, 0.0], dtype=np.float32))
    assert dumps_obj(mesh).splitlines()[:4] == [
        "v 0.0 0.0 0.0", "v 1.0 0.0 0.0", "v 0.0 2.0 0.0", "v 0.5 0.5 0.0"
    ]
    assert dumps_off(mesh).splitlines()[2:6] == [
        "0.0 0.0 0.0", "1.0 0.0 0.0", "0.0 2.0 0.0", "0.5 0.5 0.0"
    ]


def test_obj_ignores_normals_and_texcoords():
    text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nvt 0 0\nf 1/1/1 2/2/1 3/3/1\n"
    mesh = loads_obj(text)
    assert mesh.n_triangles == 1


def test_obj_rejects_quads():
    text = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
    with pytest.raises(ParseError, match="non-triangle"):
        loads_obj(text)


def test_obj_rejects_zero_index():
    text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n"
    with pytest.raises(ParseError, match="1-based"):
        loads_obj(text)


def test_generation_is_deterministic():
    assert dumps_obj(torus(7, 5)) == dumps_obj(torus(7, 5))
    assert dumps_off(torus(7, 5)) == dumps_off(torus(7, 5))


def test_strip_order_round_trip(tmp_path):
    path = tmp_path / "order.txt"
    write_strip_order(path, [3, 1, 2], closed=True)
    order, closed = read_strip_order(path)
    assert order == [3, 1, 2]
    assert closed
    write_strip_order(path, [0, 1], closed=False)
    order, closed = read_strip_order(path)
    assert order == [0, 1]
    assert not closed


def test_strip_order_count_mismatch(tmp_path):
    path = tmp_path / "order.txt"
    path.write_text("cycle 3\n0\n1\n")
    with pytest.raises(ParseError, match="header says 3"):
        read_strip_order(path)


# -- array route against the line reader ---------------------------------------

BASES = [tetrahedron(), octahedron(), torus(4, 3)]
ROUTES = {
    "off": (fileio._off_arrays, fileio._read_off, loads_off),
    "obj": (fileio._obj_arrays, fileio._read_obj, loads_obj),
}
# edits a text may get; most texts draw none or one
COMMON = ["crlf", "seps", "blank", "comment", "colour", "underscore", "arabic", "float-index",
          "big-index", "odd-floats", "trailing", "truncate"]
EDITS = {
    "off": COMMON + ["header", "header-counts", "counts", "polygon"],
    "obj": COMMON + ["slash", "zero-index", "quad", "records", "interleave"],
}
# splitlines breaks lines on \x0b, \x0c and \x1c-\x1e; str.split splits on all
SEPS = ["\t", "  ", " \t ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", " \x1f", "\xa0"]
BIG_INDICES = [2**63, 2**63 + 7, 2**64, -(2**63) - 1]
ODD_FLOATS = ["nan", "inf", "-inf", "1e400", "-0"]
RECORDS = [["vn", "0", "0", "1"], ["vt", "1", "2", "3"], ["o", "m"], ["g"]]
TRAILING = ["0 0 0", "junk", "3 0 1 2", "f 1 2 3", " "]


def _arabic(token):
    return "".join(chr(0x660 + int(c)) if c.isdigit() else c for c in token)


@st.composite
def mesh_texts(draw, fmt):
    """Texts of a small mesh in `fmt`, with a few edits from EDITS[fmt]."""
    mesh = draw(st.sampled_from(BASES))
    edits = draw(st.sets(st.sampled_from(EDITS[fmt]), max_size=draw(st.sampled_from([1, 1, 3]))))
    base = 1 if fmt == "obj" else 0
    verts = [[repr(x) for x in p] for p in mesh.vertices]
    faces = [[str(i + base) for i in mesh.triangles[t]] for t in mesh.alive_ids()]

    def token(rows):
        r = draw(st.integers(0, len(rows) - 1))
        return rows[r], draw(st.integers(0, len(rows[r]) - 1))

    def edit(name, rows, new):
        if name in edits:
            row, c = token(rows)
            row[c] = new(row[c])

    edit("underscore", verts, lambda _: "1_0")
    edit("arabic", draw(st.sampled_from([verts, faces])), _arabic)
    edit("float-index", faces, lambda t: t + ".0")
    edit("big-index", faces, lambda _: str(draw(st.sampled_from(BIG_INDICES))))
    edit("odd-floats", verts, lambda _: draw(st.sampled_from(ODD_FLOATS)))
    edit("slash", faces, lambda t: t + "/1/" + t)
    edit("zero-index", faces, lambda _: "0")
    if "colour" in edits:
        rows = draw(st.sampled_from([verts, faces]))
        for row in rows if draw(st.booleans()) else [token(rows)[0]]:
            row.extend(["255", "0", "0"])
    if "quad" in edits:
        token(faces)[0].append("1")
    if fmt == "off":
        counts = [str(len(verts)), str(len(faces)), "0"]
        if "counts" in edits:
            i = draw(st.integers(0, 1))
            counts[i] = str(int(counts[i]) + draw(st.sampled_from([-1, 1, -100])))
        tag = draw(st.sampled_from(["off", "COFF", "OFF2"])) if "header" in edits else "OFF"
        if "header-counts" in edits:
            head = [[tag, *counts, *draw(st.sampled_from([[], ["9"]]))]]
        else:
            head = [[tag], counts]
        rows = head + verts + [["3", *f] for f in faces]
        if "polygon" in edits:
            rows[draw(st.integers(len(head) + len(verts), len(rows) - 1))][0] = "4"
    else:
        rows = [["v", *v] for v in verts] + [["f", *f] for f in faces]
        if "records" in edits:
            rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(RECORDS)))
        if "interleave" in edits:
            rows.insert(draw(st.integers(0, len(verts) - 1)), rows.pop())
    lines = []
    for row in rows:
        sep = draw(st.sampled_from(SEPS)) if "seps" in edits and draw(st.booleans()) else " "
        lines.append(sep.join(row))
    if "seps" in edits:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(st.sampled_from(SEPS)) + lines[i] + draw(st.sampled_from(SEPS))
    for name, new in (("blank", lambda: draw(st.sampled_from(["", "   ", "\t", "\x1f"]))),
                      ("comment", lambda: "# " + draw(st.sampled_from(["note", "1 2 3"])))):
        if name in edits:
            lines.insert(draw(st.integers(0, len(lines))), new())
    if "comment" in edits and draw(st.booleans()):
        i = draw(st.one_of(st.just(0), st.integers(0, len(lines) - 1)))
        lines[i] += " # c"
    if "truncate" in edits:
        del lines[len(lines) - draw(st.integers(1, len(lines))):]
    if "trailing" in edits:
        lines += draw(st.lists(st.sampled_from(TRAILING), min_size=1, max_size=3))
    end = "\r\n" if "crlf" in edits else "\n"
    return end.join(lines) + (end if draw(st.booleans()) else "")


def _outcome(read, text):
    """What a reader makes of `text`: the mesh (vertices by repr, so that -0.0
    and 0.0 differ) or the ParseError message."""
    try:
        mesh = read(text)
    except ParseError as exc:
        return ("error", str(exc))
    return ("mesh", repr(mesh.vertices), mesh.triangles, mesh.neighbours)


@pytest.mark.filterwarnings("error::UserWarning")  # numpy's warning of an empty block
@pytest.mark.parametrize("fmt", sorted(ROUTES))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_array_route_matches_the_line_reader(fmt, data):
    took = _check_routes(fmt, data.draw(mesh_texts(fmt)))
    event("array route" if took else "line reader")


TETRA_ROWS = "0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
TETRA_FACES = "3 0 1 2\n3 1 0 3\n3 0 2 3\n"


@pytest.mark.filterwarnings("error::UserWarning")
@pytest.mark.parametrize("text", [
    # the header has four tokens only before the comment is cut
    "OFF 4 3 #0\n" + TETRA_ROWS + TETRA_FACES,
    # negative counts whose slices would land on the vertex and face rows
    "OFF\n-8 3 0\n" + TETRA_ROWS + TETRA_FACES + "0\n0\n0\n",
    # blocks of blank lines, which numpy reads as no data
    "OFF\n3 1 0\n\n \n\t\n3 0 1 2\n",
    "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n \n",
])
def test_array_route_matches_the_line_reader_on_pinned_texts(text):
    _check_routes("off", text)


def _check_routes(fmt, text):
    """Both routes and `loads_*` agree on `text`; True if the array route
    took it."""
    arrays, line_reader, loads = ROUTES[fmt]
    want = _outcome(line_reader, text)
    found = arrays(text)
    if found is not None:
        assert _outcome(lambda _: fileio._mesh(*found), text) == want
    assert _outcome(loads, text) == want
    return found is not None


@pytest.mark.parametrize("dumps,suffix", [(dumps_off, "off"), (dumps_obj, "obj")])
def test_written_meshes_load_without_the_line_reader(tmp_path, monkeypatch, dumps, suffix):
    def line_reader(text):
        raise AssertionError("the line reader read a plain file")

    monkeypatch.setattr(fileio, "_read_off", line_reader)
    monkeypatch.setattr(fileio, "_read_obj", line_reader)
    mesh = torus(20, 10)
    path = tmp_path / f"torus.{suffix}"
    path.write_text(dumps(mesh))
    back = load_mesh(path)
    assert (back.vertices, back.triangles, back.neighbours) == (
        mesh.vertices, mesh.triangles, mesh.neighbours)


# -- the vertex writer against one f-string per line ------------------------------

# -0.0 beside 0.0, subnormals, the largest finite magnitudes, and values on
# either side of repr's switches to exponent form at 1e16 and 1e-4
_EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
    9999999999999998.0, 1e16, 1.0000000000000002e16, -1e16,
    9.999999999999999e-05, 0.0001, 0.00010000000000000002, -0.0001,
)
_coords = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(width=64))
_ROWS = 4


@settings(max_examples=200, deadline=None)
@given(
    rows=st.sampled_from([0, 1, _ROWS - 1, _ROWS, _ROWS + 1, 3 * _ROWS + 1]).flatmap(
        lambda n: st.lists(st.tuples(_coords, _coords, _coords), min_size=n, max_size=n)
    ),
    prefix=st.sampled_from(["v ", ""]),
)
@example(rows=[(0.0, -0.0, 0.0), (-0.0, 5e-324, 0.0), (0.0, 0.0, -0.0), (1e16, 1e16, -0.0),
               (-0.0, 0.0, 0.0)], prefix="v ")
def test_vertex_lines_equal_one_fstring_per_row(rows, prefix):
    # chunks of four rows; the rows as an array (the curve) and as a mesh's
    # vertex tuples
    points = np.array(rows, dtype=float).reshape(-1, 3)
    mesh = Mesh._built(rows, [])
    with patch.object(fileio, "_ROWS", _ROWS):
        assert "".join(fileio._vertex_lines(points, prefix)) == vertex_lines_by_fstrings(points, prefix)
        assert dumps_obj(mesh) == dumps_obj_by_lines(mesh)


def _centroid_torus(seed):
    """A relabelled torus with a few triangles split at their centroid."""
    rng = random.Random(seed)
    mesh = relabel(torus(9, 7), rng)
    for _ in range(10):
        insert_centroid(mesh, rng.choice(mesh.alive_ids()))
    return mesh


def _holed_grid(seed):
    """A 12 x 9 grid with about a fifth of its triangles removed; its z
    coordinates mix -0.0 and 0.0."""
    rng = random.Random(seed)
    vertices = [(x / 3, y / 7, -0.0 if (x + y) % 2 else 0.0) for y in range(10) for x in range(13)]
    triangles = []
    for y in range(9):
        for x in range(12):
            v = y * 13 + x
            triangles += [(v, v + 1, v + 14), (v, v + 14, v + 13)]
    mesh = Mesh(vertices, triangles)
    punch_holes(mesh, [t for t in mesh.alive_ids() if rng.random() < 0.2])
    return mesh


@pytest.mark.parametrize("rows", [7, fileio._ROWS])
@pytest.mark.parametrize("seed", range(3))
def test_mesh_writers_equal_one_fstring_per_line(monkeypatch, seed, rows):
    monkeypatch.setattr(fileio, "_ROWS", rows)
    torus_mesh = _centroid_torus(seed)
    for mesh in (torus_mesh, stripify(torus_mesh).mesh, _holed_grid(seed), Mesh([], [])):
        assert dumps_obj(mesh) == dumps_obj_by_lines(mesh)
        assert dumps_off(mesh) == dumps_off_by_lines(mesh)
