"""CLI subcommands, exit codes, artifact round-trips."""

import ast
import gc
import json
import random
import time
from pathlib import Path

import pytest

from oracles import insert_centroid, load_curve_json, read_stats
from singlestrip import boundary, cli, striploop
from singlestrip.boundary import strip_with_boundary
from singlestrip.cli import main
from singlestrip.fileio import ParseError, load_mesh, read_strip_order, save_mesh, write_strip_order
from singlestrip.generators import fan, gen_mk, torus
from singlestrip.mesh import Mesh
from singlestrip.sfc import CurveError
from singlestrip.striploop import stripify


def test_gen_writes_mesh(tmp_path, capsys, monkeypatch):
    out = tmp_path / "t.off"
    assert main(["gen", "torus(5,4)", "-o", str(out)]) == 0
    assert load_mesh(out).n_triangles == 40
    # without -o, the file is named after the spec as parsed
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    for spec, name, count in [("torus( 4,3 )", "torus(4,3).off", 24), ("octahedron", "octahedron.off", 8)]:
        assert main(["gen", spec]) == 0
        assert capsys.readouterr().out.startswith(f"wrote {name}: ")
        assert load_mesh(tmp_path / name).n_triangles == count


@pytest.mark.parametrize(
    "name,argv,head",
    [
        ("t.obj", [], "v "),
        ("t.OFF", [], "OFF"),
        ("t.mesh", [], "OFF"),
        ("t.obj", ["--format", "off"], "OFF"),
        ("t.off", ["--format", "obj"], "v "),
    ],
    ids=["obj", "upper-case-off", "other-suffix", "format-off-wins", "format-obj-wins"],
)
def test_gen_format_follows_the_out_suffix_unless_given(tmp_path, name, argv, head):
    out = tmp_path / name
    assert main(["gen", "torus(6,4)", "-o", str(out), *argv]) == 0
    assert out.read_text().startswith(head)
    if argv == [] and name != "t.mesh":
        assert load_mesh(out).n_triangles == 48


def test_gen_bad_spec_is_parse_error(tmp_path, capsys):
    for spec, message in [
        ("hypercube(4)", "unknown generator 'hypercube'"),
        ("torus(4", "cannot parse generator spec 'torus(4'"),
        ("icosphere(8)", "subdivision level > 7"),
    ]:
        assert main(["gen", spec, "-o", str(tmp_path / "x.off")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "x.off").exists()


def test_usage_error_is_1():
    assert main(["stripify"]) == 1
    assert main([]) == 1


def test_parser_is_built_once_and_parses_alike_every_call(capsys):
    assert cli.build_parser() is cli.build_parser()
    argvs = (["--help"], ["--version"], ["stripify", "--help"], ["stripify"], ["bogus"], [])
    runs = []
    for _ in range(2):
        for argv in argvs:
            code = main(argv)
            runs.append((code, *capsys.readouterr()))
    assert runs[: len(argvs)] == runs[len(argvs) :]
    assert [code for code, _, _ in runs[: len(argvs)]] == [0, 0, 0, 1, 1, 1]
    assert runs[0][1] == cli.build_parser.__wrapped__().format_help()


def test_stripify_artifacts_roundtrip(tmp_path, capsys):
    mesh_path = tmp_path / "torus.off"
    main(["gen", "torus(6,5)", "-o", str(mesh_path)])
    out = tmp_path / "out"
    assert main(["stripify", str(mesh_path), "--out", str(out)]) == 0
    strip_mesh = load_mesh(out / "torus.strip.obj")
    order, closed = read_strip_order(out / "torus.strip.txt")
    stats = read_stats(out / "torus.stats.json")
    assert closed
    assert strip_mesh.n_triangles == stats["output_triangles"] == len(order)
    assert stats["output_triangles"] == stats["input_triangles"] + 2 * stats["splits"]
    expected = 100.0 * (stats["output_triangles"] - stats["input_triangles"]) / stats["input_triangles"]
    assert abs(stats["percent_increase"] - expected) <= 0.01
    # the written artifacts must verify on their own
    assert main(["verify", str(out / "torus.strip.obj"), str(out / "torus.strip.txt")]) == 0


def test_stripify_open_mesh_is_validation_error(tmp_path, capsys):
    path = tmp_path / "fan.obj"
    save_mesh(fan(4), path)
    assert main(["stripify", str(path)]) == 3
    # a report lists its first 12 violations: mk(3) has 24 boundary edges
    save_mesh(gen_mk(3), path)
    capsys.readouterr()
    assert main(["stripify", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[:2] == ["validation failed:", "24 violation(s) in closed mode"]
    assert len(err) == 2 + 12 + 1 and err[-1] == "  ... 12 more"


def test_stripify_missing_file_is_parse_error(tmp_path, capsys):
    assert main(["stripify", str(tmp_path / "nope.off")]) == 2
    # a file of an unknown format is refused by its suffix before it is read:
    # a binary one is not decoded, and a missing one is not looked for
    capsys.readouterr()
    binary = tmp_path / "b.ply"
    binary.write_bytes(b"ply\nformat binary_little_endian 1.0\n" + bytes(range(256)) * 8)
    for path in (tmp_path / "m.ply", binary):
        assert main(["stripify", str(path)]) == 2
        assert capsys.readouterr().err == f"error: unknown mesh format 'ply' for {path}\n"


def test_a_mesh_file_that_is_not_utf8_is_a_parse_error_naming_it(tmp_path, capsys):
    path = tmp_path / "m.off"
    path.write_bytes(b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n\xff\xff\n")
    with pytest.raises(ParseError, match=r"m\.off is not UTF-8 text \(byte 36\)$"):
        load_mesh(path)
    capsys.readouterr()
    assert main(["stripify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path} is not UTF-8 text (byte 36)\n"


def test_stripify_boundary_artifacts(tmp_path):
    path = tmp_path / "mk.obj"
    main(["gen", "mk(3)", "-o", str(path), "--format", "obj"])
    out = tmp_path / "out"
    assert main(["stripify-boundary", str(path), "--out", str(out)]) == 0
    order, closed = read_strip_order(out / "mk.strip.txt")
    assert not closed
    assert len(order) == 3 * 22 - 2 - 4 * 3
    assert main(["verify", str(out / "mk.strip.obj"), str(out / "mk.strip.txt")]) == 0


def test_stripify_boundary_on_closed_mesh_is_validation_error(tmp_path):
    path = tmp_path / "t.off"
    main(["gen", "torus(4,3)", "-o", str(path)])
    assert main(["stripify-boundary", str(path)]) == 3


def test_verify_detects_duplicate(tmp_path):
    mesh_path = tmp_path / "t.off"
    main(["gen", "torus(5,4)", "-o", str(mesh_path)])
    out = tmp_path / "out"
    main(["stripify", str(mesh_path), "--out", str(out)])
    order, closed = read_strip_order(out / "t.strip.txt")
    order[3] = order[0]
    (out / "t.strip.txt").write_text(
        f"cycle {len(order)}\n" + "\n".join(map(str, order)) + "\n"
    )
    assert main(["verify", str(out / "t.strip.obj"), str(out / "t.strip.txt")]) == 4


def test_verify_malformed_strip_order_is_parse_error(tmp_path, capsys):
    mesh_path = tmp_path / "t.off"
    main(["gen", "torus(4,3)", "-o", str(mesh_path)])
    strip = tmp_path / "t.txt"
    for text in ("cycle 3\n0\nx\n1\n", "cycle\n0\n1\n", "strip 2.0\n0\n1\n"):
        strip.write_text(text)
        capsys.readouterr()
        assert main(["verify", str(mesh_path), str(strip)]) == 2
        assert capsys.readouterr().err == "error: malformed strip order file\n"


@pytest.mark.parametrize("triangles,order,closed,bad", [
    ([(0, 1, 2), (0, 2, 3)], [0, 1], True, 0),
    ([(0, 1, 2), (1, 0, 3), (0, 1, 4)], [0, 1, 2], True, 0),
    ([(0, 1, 2), (1, 0, 3), (0, 1, 4)], [0, 1, 2], False, 1),
], ids=["square-cycle", "fin-cycle", "fin-strip"])
def test_verify_rejects_a_triangle_entered_and_left_by_one_edge(
    tmp_path, capsys, triangles, order, closed, bad
):
    vertices = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1)]
    save_mesh(Mesh(vertices, triangles), tmp_path / "m.off")
    write_strip_order(tmp_path / "m.txt", order, closed)
    assert main(["verify", str(tmp_path / "m.off"), str(tmp_path / "m.txt")]) == 4
    assert capsys.readouterr().err == f"INVALID: triangle {bad} enters and exits by the same edge\n"


def test_sfc_curve_artifact(tmp_path):
    mesh_path = tmp_path / "tet.off"
    main(["gen", "tetrahedron", "-o", str(mesh_path)])
    out = tmp_path / "out"
    assert main(
        ["sfc", str(mesh_path), "--depth", "2", "--out", str(out), "--curve-format", "json"]
    ) == 0
    curve = load_curve_json(out / "tet.curve.json")
    assert curve.closed
    assert len(curve.points) == 4 * 2 * 16
    stats = read_stats(out / "tet.stats.json")
    assert stats["curve_depth"] == 2


def test_sfc_stats_time_curve_and_export(tmp_path, monkeypatch):
    real_stripify, results = cli.stripify, []

    def stripify_spy(mesh):
        results.append(real_stripify(mesh))
        return results[-1]

    monkeypatch.setattr(cli, "stripify", stripify_spy)
    mesh_path = tmp_path / "tet.off"
    main(["gen", "tetrahedron", "-o", str(mesh_path)])
    out = tmp_path / "out"
    assert main(["sfc", str(mesh_path), "--depth", "1", "--out", str(out)]) == 0
    elapsed = read_stats(out / "tet.stats.json")["elapsed_ms"]
    assert elapsed["curve"] >= 0.0 and elapsed["export"] >= 0.0
    assert set(results[0].stats["elapsed_ms"]) < set(elapsed)
    assert "curve" not in results[0].stats["elapsed_ms"]


@pytest.mark.parametrize("depth", ["-1", "x", "13"])
def test_sfc_bad_depth_is_usage_error_before_loading(tmp_path, capsys, monkeypatch, depth):
    loads = []
    monkeypatch.setattr(cli, "load_mesh", lambda path: loads.append(path))
    code = main(["sfc", str(tmp_path / "missing.off"), "--depth", depth])
    assert code == 1
    assert "--depth" in capsys.readouterr().err
    assert loads == []


def test_sfc_obj_polyline(tmp_path):
    mesh_path = tmp_path / "tet.off"
    main(["gen", "tetrahedron", "-o", str(mesh_path)])
    out = tmp_path / "out"
    assert main(["sfc", str(mesh_path), "--depth", "0", "--out", str(out)]) == 0
    text = (out / "tet.curve.obj").read_text()
    lines = [ln for ln in text.splitlines() if ln]
    assert lines[-1].startswith("l ")
    refs = lines[-1].split()[1:]
    assert refs[0] == refs[-1]  # closed polyline wraps


def test_stats_command(tmp_path, capsys):
    path = tmp_path / "t.off"
    main(["gen", "torus(4,3)", "-o", str(path)])
    capsys.readouterr()
    assert main(["stats", str(path)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["triangles"] == 24
    assert info["valid"] is True
    assert info["mode"] == "closed"


def test_stats_reports_invalid(tmp_path, capsys):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3\nf 2 3 4\n")
    capsys.readouterr()
    assert main(["stats", str(path)]) == 3
    info = json.loads(capsys.readouterr().out)
    assert not info["valid"]


# -- OS errors end in an exit code, never a traceback -----------------------------


def test_directory_as_input_is_parse_error(tmp_path, capsys):
    mesh_path = tmp_path / "t.off"
    main(["gen", "torus(4,3)", "-o", str(mesh_path)])
    assert main(["stripify", str(tmp_path), "--out", str(tmp_path / "a")]) == 2
    assert main(["stripify-boundary", str(tmp_path), "--out", str(tmp_path / "b")]) == 2
    assert main(["verify", str(tmp_path), str(mesh_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_out_path_that_is_a_file_is_usage_error(tmp_path, capsys):
    mesh_path = tmp_path / "t.off"
    main(["gen", "torus(4,3)", "-o", str(mesh_path)])
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert main(["stripify", str(mesh_path), "--out", str(taken)]) == 1
    assert main(["sfc", str(mesh_path), "--depth", "1", "--out", str(taken)]) == 1
    assert "cannot write output" in capsys.readouterr().err
    assert taken.read_text() == "not a directory\n"


# -- non-finite coordinates --------------------------------------------------------


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("fmt", ["off", "obj"])
def test_non_finite_vertex_is_parse_error(tmp_path, capsys, bad, fmt):
    rows = [("0", "0", "0"), ("1", "0", "0"), ("0", bad, "0"), ("0", "0", "1")]
    faces = [(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)]
    if fmt == "off":
        text = "OFF\n4 4 0\n" + "".join(" ".join(r) + "\n" for r in rows)
        text += "".join(f"3 {a} {b} {c}\n" for a, b, c in faces)
    else:
        text = "".join("v " + " ".join(r) + "\n" for r in rows)
        text += "".join(f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in faces)
    path = tmp_path / f"tet.{fmt}"
    path.write_text(text)
    with pytest.raises(ParseError, match="vertex 2 has a non-finite coordinate"):
        load_mesh(path)
    assert main(["stripify", str(path), "--out", str(tmp_path / "a")]) == 2
    assert main(["sfc", str(path), "--out", str(tmp_path / "b")]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


# -- the sfc point budget -----------------------------------------------------------


def test_sfc_over_the_point_budget_is_pipeline_error(tmp_path, capsys):
    # 4 triangles * 2 * 4**12 = 134M points: refused before anything is allocated
    mesh_path = tmp_path / "tet.off"
    main(["gen", "tetrahedron", "-o", str(mesh_path)])
    out = tmp_path / "out"
    assert main(["sfc", str(mesh_path), "--depth", "12", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "pipeline error in curve: " in err and "over the budget" in err
    assert not out.exists()


def test_sfc_curve_error_in_export_names_the_stage(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise CurveError("x")

    monkeypatch.setattr(cli, "export_curve", refuse)
    mesh_path = tmp_path / "tet.off"
    main(["gen", "tetrahedron", "-o", str(mesh_path)])
    assert main(["sfc", str(mesh_path), "--out", str(tmp_path / "out")]) == 4
    assert "pipeline error in export: x" in capsys.readouterr().err


# -- stage timings cover the whole command ------------------------------------------

CLOSED_STAGES = [
    "load", "validate", "eliminate", "match", "restore", "cycles", "nodal", "splits",
    "assemble", "output",
]
COMMAND_STAGES = {
    "stripify": CLOSED_STAGES + ["write"],
    "stripify-boundary": ["load", "validate", "strip", "verify", "write"],
    "sfc": CLOSED_STAGES + ["curve", "export"],
}


def _closed_input():
    # four times the meshes of test_striploop's pipeline coverage test: argument
    # parsing costs a fixed 1-2 ms, 5-10% of a CLI call on those
    mesh = torus(60, 40)
    for t in random.Random(8).sample(range(mesh.n_triangles), 30):
        insert_centroid(mesh, t)
    return mesh


@pytest.mark.parametrize("command", ["stripify", "stripify-boundary", "sfc"])
def test_stages_account_for_the_cli_wall_time(tmp_path, command):
    path = tmp_path / "m.off"
    save_mesh(gen_mk(10) if command == "stripify-boundary" else _closed_input(), path)
    argv = [command, str(path), "--out", str(tmp_path / "out")]
    if command == "sfc":
        argv += ["--depth", "1"]
    shares = []
    for _ in range(3):
        t0 = time.perf_counter()
        assert main(argv) == 0
        wall_ms = (time.perf_counter() - t0) * 1000.0
        elapsed = read_stats(tmp_path / "out" / "m.stats.json")["elapsed_ms"]
        assert sorted(elapsed) == sorted(COMMAND_STAGES[command])
        shares.append(sum(elapsed.values()) / wall_ms)
    # the best of three: a stall of a few ms in the parser or the stats write
    # is noise, while a stage left untimed lowers every run
    assert max(shares) >= 0.95


def test_cli_stats_add_the_schema_and_leave_the_pipeline_stats_alone(tmp_path, monkeypatch):
    results = []
    monkeypatch.setattr(cli, "stripify", lambda mesh: results.append(stripify(mesh)) or results[-1])
    path = tmp_path / "t.off"
    save_mesh(torus(6, 5), path)
    assert main(["stripify", str(path), "--out", str(tmp_path)]) == 0
    own = results[0].stats
    assert "load" not in own["elapsed_ms"] and "write" not in own["elapsed_ms"]
    assert "schema_version" not in own
    written = read_stats(tmp_path / "t.stats.json")
    assert written["schema_version"] == 1
    assert {k: v for k, v in written["elapsed_ms"].items() if k in own["elapsed_ms"]} == own[
        "elapsed_ms"
    ]


# -- the cyclic collector is off inside a command, and only there -----------------------


@pytest.fixture
def gc_state():
    """Put the collector's state back after the test."""
    enabled, threshold = gc.isenabled(), gc.get_threshold()
    yield
    gc.set_threshold(*threshold)
    (gc.enable if enabled else gc.disable)()


def _collector_cases(tmp_path):
    closed, bad = tmp_path / "t.off", tmp_path / "bad.off"
    save_mesh(torus(6, 5), closed)
    bad.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n")
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    return [
        (["stripify"], 1),
        (["stripify", str(closed), "--out", str(tmp_path / "ok")], 0),
        (["stripify", str(closed), "--out", str(taken)], 1),
        (["stripify", str(bad), "--out", str(tmp_path / "bad")], 2),
        (["stripify-boundary", str(closed), "--out", str(tmp_path / "closed")], 3),
    ]


@pytest.mark.parametrize("caller_enabled", [True, False])
def test_main_restores_the_collector_on_every_exit(tmp_path, monkeypatch, gc_state, caller_enabled):
    seen = []

    def load_spy(path):
        seen.append(gc.isenabled())
        return load_mesh(path)

    monkeypatch.setattr(cli, "load_mesh", load_spy)
    (gc.enable if caller_enabled else gc.disable)()
    gc.set_threshold(1234, 11, 12)
    for argv, code in _collector_cases(tmp_path):
        assert main(argv) == code
        assert gc.isenabled() is caller_enabled
        assert gc.get_threshold() == (1234, 11, 12)
    assert seen == [False] * 4


def test_main_restores_the_collector_when_an_error_escapes(tmp_path, monkeypatch, gc_state):
    def broken(mesh):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "stripify", broken)
    path = tmp_path / "t.off"
    save_mesh(torus(6, 5), path)
    gc.enable()
    with pytest.raises(RuntimeError, match="boom"):
        main(["stripify", str(path), "--out", str(tmp_path)])
    assert gc.isenabled()


def test_library_leaves_the_collector_alone(gc_state):
    gc.enable()
    stripify(torus(6, 5))
    assert gc.isenabled()
    strip_with_boundary(gen_mk(3))
    assert gc.isenabled()
    src = Path(cli.__file__).parent
    importers = sorted(
        f.name
        for f in src.glob("*.py")
        for node in ast.walk(ast.parse(f.read_text()))
        if isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "gc"
    )
    assert importers == ["cli.py"]


# -- a pipeline error names its stage ------------------------------------------------


@pytest.mark.parametrize(
    "command, module, stage",
    [("stripify", striploop, "assemble"), ("stripify-boundary", boundary, "verify")],
)
def test_pipeline_error_names_its_stage(tmp_path, capsys, monkeypatch, command, module, stage):
    monkeypatch.setattr(module, "verify_order", lambda *args, **kwargs: (False, "x"))
    path = tmp_path / "m.off"
    save_mesh(torus(6, 5) if command == "stripify" else gen_mk(3), path)
    assert main([command, str(path), "--out", str(tmp_path / "out")]) == 4
    assert f"pipeline error in {stage}: " in capsys.readouterr().err
