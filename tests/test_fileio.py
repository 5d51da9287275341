"""OFF/OBJ round-trips, parse failures, strip order files."""

import numpy as np
import pytest

from oracles import edge_triangles, mesh_edges
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
from singlestrip.generators import torus
from singlestrip.mesh import Mesh

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
