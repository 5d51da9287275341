"""Generator parameter checks, Euler characteristics, determinism."""

import pytest

from singlestrip.cli import main
from singlestrip.fileio import dumps_obj
from singlestrip.generators import (
    MAX_TRIANGLES,
    GenSpec,
    fan,
    generate,
    icosphere,
    octahedron,
    parse_spec,
    tetrahedron,
    torus,
)
from singlestrip.mesh import validate


def _euler(mesh):
    return mesh.n_vertices - mesh.n_edges + mesh.n_triangles


def test_torus_counts_and_genus():
    mesh = torus(20, 10)
    assert mesh.n_triangles == 400
    assert mesh.n_vertices == 200
    assert _euler(mesh) == 0
    assert validate(mesh, "closed").ok


def test_icosphere_counts_and_genus():
    for s in (0, 1, 2):
        mesh = icosphere(s)
        assert mesh.n_triangles == 20 * 4**s
        assert _euler(mesh) == 2
        assert validate(mesh, "closed").ok


def test_icosphere_vertices_on_unit_sphere():
    mesh = icosphere(2)
    for x, y, z in mesh.vertices:
        assert abs(x * x + y * y + z * z - 1.0) < 1e-12


def test_fan_counts():
    mesh = fan(5)
    assert mesh.n_triangles == 5
    assert mesh.n_vertices == 7
    assert mesh.boundary_edges()
    assert validate(mesh, "with_boundary").ok


def test_tetra_octa():
    assert tetrahedron().n_triangles == 4
    assert octahedron().n_triangles == 8
    assert _euler(tetrahedron()) == 2
    assert _euler(octahedron()) == 2


def test_parameter_bounds():
    with pytest.raises(ValueError):
        torus(2, 5)
    with pytest.raises(ValueError):
        torus(5, 2)
    with pytest.raises(ValueError):
        fan(0)
    with pytest.raises(ValueError):
        icosphere(-1)


@pytest.mark.parametrize("spec", ["torus(100000,100000)", "torus(3,174763)", "fan(1048577)"])
def test_oversized_specs_are_refused_before_allocating(tmp_path, spec):
    # each would allocate millions of triangles; the cap refuses it at once
    with pytest.raises(ValueError, match="triangles, over"):
        generate(spec)
    assert main(["gen", spec, "-o", str(tmp_path / "m.off")]) == 2
    assert not (tmp_path / "m.off").exists()
    # the largest mesh of the benchmark matrix stays within the cap
    assert 2 * 600 * 320 <= MAX_TRIANGLES


def test_parse_spec():
    assert parse_spec("torus(20,10)") == GenSpec("torus", (20, 10))
    assert parse_spec("tetrahedron") == GenSpec("tetrahedron", ())
    assert parse_spec("icosphere( 2 )") == GenSpec("icosphere", (2,))
    with pytest.raises(ValueError):
        parse_spec("cube(3)")
    with pytest.raises(ValueError):
        parse_spec("torus(20)")
    with pytest.raises(ValueError):
        parse_spec("torus")


def test_generate_dispatch():
    assert generate("mk(2)").n_triangles == 10
    assert generate(GenSpec("fan", (3,))).n_triangles == 3


def test_byte_identical_output():
    assert dumps_obj(generate("torus(6,5)")) == dumps_obj(generate("torus(6,5)"))
    assert dumps_obj(generate("icosphere(1)")) == dumps_obj(generate("icosphere(1)"))
