"""Hostile inputs through `cli.main`: every run ends in an exit code in
0..4, never in an exception."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from singlestrip.cli import main
from singlestrip.fileio import dumps_obj, dumps_off
from singlestrip.generators import fan, torus

TORUS_OFF = dumps_off(torus(4, 3)).encode()
TORUS_OBJ = dumps_obj(torus(4, 3)).encode()
FAN_OFF = dumps_off(fan(5)).encode()
TRI = b"0 0 0\n1 0 0\n0 1 0\n"
TETRA = b"0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
TETRA_FACES = b"3 0 1 2\n3 1 0 3\n3 0 2 3\n3 2 1 3\n"


def _tetra_obj(tail=b""):
    rows = b"".join(b"v " + row + tail + b"\n" for row in TETRA.splitlines())
    return rows + b"f 1 2 3\nf 2 1 4\nf 1 3 4\nf 3 2 4\n"


TETRA_OBJ = _tetra_obj()

HOSTILE = {
    "empty.off": b"",
    "empty.obj": b"",
    "header-only.off": b"OFF\n",
    "negative-vertices.off": b"OFF\n-1 1 0\n" + TRI + b"3 0 1 2\n",
    "negative-faces.off": b"OFF\n3 -1 0\n" + TRI + b"3 0 1 2\n",
    "huge-counts.off": b"OFF\n99999999999999999999 99999999999999999999 0\n" + TRI,
    "nan.off": b"OFF\n3 1 0\n0 0 nan\n1 0 0\n0 1 0\n3 0 1 2\n",
    "inf.obj": b"v 0 0 0\nv inf 0 0\nv 0 1 0\nf 1 2 3\n",
    "index-above-2^63.off": b"OFF\n3 1 0\n" + TRI + b"3 0 1 %d\n" % (2**63 + 5),
    "index-below--2^63.off": b"OFF\n3 1 0\n" + TRI + b"3 0 1 %d\n" % -(2**63 + 5),
    "index-above-2^63.obj": b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 %d\n" % (2**64),
    "non-utf8.off": b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 \xff\xfe\n3 0 1 2\n",
    "non-utf8.obj": b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3 \x80\x81\n",
    "quad.off": b"OFF\n4 1 0\n" + TRI + b"1 1 0\n4 0 1 2 3\n",
    "repeated-vertex.obj": b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 2\n",
    "duplicate.off": b"OFF\n3 2 0\n" + TRI + b"3 0 1 2\n3 1 2 0\n",
    "non-manifold.off": b"OFF\n5 3 0\n" + TRI + b"0 0 1\n1 1 1\n3 0 1 2\n3 1 0 3\n3 0 1 4\n",
    "mis-oriented.off": b"OFF\n4 2 0\n" + TRI + b"1 1 0\n3 0 1 2\n3 1 2 3\n",
    "truncated-torus.off": TORUS_OFF[: len(TORUS_OFF) // 2],
    "truncated-torus.obj": TORUS_OBJ[: len(TORUS_OBJ) * 2 // 3],
    "torus.off": TORUS_OFF,
    "fan.off": FAN_OFF,
}

# Texts where numpy's row reader and Python's float/int disagree, or whose
# layout it does not take, with the exit codes of the five commands that the
# line reader gives them (a tetrahedron: stripify and sfc succeed, it has no
# boundary, and "cycle 1" is not a cycle of it).
READ_AS_TETRA = [0, 0, 3, 0, 4]
PARSE_ERROR = [2] * 5
READER_EDGES = {
    "underscore-float.off": (b"OFF\n4 4 0\n" + TETRA.replace(b"1 0 0", b"1_0 0 0") + TETRA_FACES,
                             READ_AS_TETRA),
    "underscore-float.obj": (TETRA_OBJ.replace(b"v 1 0 0", b"v 1_0 0 0"), READ_AS_TETRA),
    "arabic-indic.off": (b"OFF\n4 4 0\n" + TETRA.replace(b"1", "\u0661".encode()) + TETRA_FACES,
                         READ_AS_TETRA),
    "arabic-indic-index.obj": (TETRA_OBJ.replace(b"f 1 2 3", "f 1 2 \u0663".encode()),
                               READ_AS_TETRA),
    "float-index.off": (b"OFF\n4 4 0\n" + TETRA + TETRA_FACES.replace(b"3 2 1 3", b"3 2 1 3.0"),
                        PARSE_ERROR),
    "float-index.obj": (TETRA_OBJ.replace(b"f 3 2 4", b"f 3 2 4.0"), PARSE_ERROR),
    "vertical-tab.off": (b"OFF\n4 4 0\n" + TETRA.replace(b"0 0 1", b"0\x0b0 1") + TETRA_FACES,
                         PARSE_ERROR),
    "colour.off": (b"OFF\n4 4 0\n" + TETRA.replace(b"\n", b" 255 0 0\n")
                   + TETRA_FACES.replace(b"\n", b" 0 0 255\n"), READ_AS_TETRA),
    "colour.obj": (_tetra_obj(b" 0.5 0.5 0.5"), READ_AS_TETRA),
    "crlf.off": ((b"OFF\n4 4 0\n" + TETRA + TETRA_FACES).replace(b"\n", b"\r\n"), READ_AS_TETRA),
    "crlf.obj": (TETRA_OBJ.replace(b"\n", b"\r\n"), READ_AS_TETRA),
}
HOSTILE.update((name, data) for name, (data, _) in READER_EDGES.items())

STRIPS = {
    "garbage.txt": b"\x00\x01\x02\xff",
    "negative.txt": b"cycle 2\n-1\n5\n",
    "huge.txt": b"strip 1\n%d\n" % (2**70),
    "short.txt": b"cycle 3\n0\n",
    "empty.txt": b"",
}


def _commands(mesh, strip, out):
    return [
        ["stats", str(mesh)],
        ["stripify", str(mesh), "--out", str(out)],
        ["stripify-boundary", str(mesh), "--out", str(out)],
        ["sfc", str(mesh), "--depth", "1", "--out", str(out)],
        ["verify", str(mesh), str(strip)],
    ]


def _run_all(tmp_path, name, data, strip_data=b"cycle 1\n0\n"):
    mesh = tmp_path / name
    mesh.write_bytes(data)
    strip = tmp_path / "order.txt"
    strip.write_bytes(strip_data)
    codes = []
    for argv in _commands(mesh, strip, tmp_path / "out"):
        code = main(argv)
        assert code in range(5), (argv, code)
        codes.append(code)
    return codes


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_meshes_end_in_an_exit_code(tmp_path, name):
    _run_all(tmp_path, name, HOSTILE[name])


@pytest.mark.parametrize("name", ["negative-vertices.off", "negative-faces.off",
                                  "index-above-2^63.off", "index-above-2^63.obj", "non-utf8.off"])
def test_malformed_numbers_are_parse_errors(tmp_path, name):
    assert _run_all(tmp_path, name, HOSTILE[name]) == [2] * 5


@pytest.mark.parametrize("name", sorted(READER_EDGES))
def test_reader_edge_cases_keep_the_line_readers_exit_codes(tmp_path, name):
    data, codes = READER_EDGES[name]
    assert _run_all(tmp_path, name, data) == codes


@pytest.mark.parametrize("name", sorted(STRIPS))
def test_hostile_strip_files_end_in_an_exit_code(tmp_path, name):
    _run_all(tmp_path, "torus.off", TORUS_OFF, STRIPS[name])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    source=st.sampled_from([TORUS_OFF, TORUS_OBJ, FAN_OFF]),
    cut=st.floats(0.0, 1.0),
    flips=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 255)), max_size=4),
    suffix=st.sampled_from([".off", ".obj"]),
)
def test_truncated_and_corrupted_files_end_in_an_exit_code(tmp_path, source, cut, flips, suffix):
    data = bytearray(source[: int(len(source) * cut)])
    for where, byte in flips:
        if data:
            data[int(where * (len(data) - 1))] = byte
    _run_all(tmp_path, "fuzz" + suffix, bytes(data))


def test_random_binary_files_end_in_an_exit_code(tmp_path):
    rng = random.Random(5)
    for i in range(20):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 200)))
        _run_all(tmp_path, f"bin{i}" + (".off" if i % 2 else ".obj"), data)
