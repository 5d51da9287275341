"""CLI subcommands, exit codes, artifact round-trips."""

import json

from singlestrip import cli
from singlestrip.cli import main
from singlestrip.fileio import load_mesh, read_strip_order, read_stats, save_mesh
from singlestrip.generators import fan, torus
from singlestrip.sfc import load_curve_json


def test_gen_writes_mesh(tmp_path, capsys):
    out = tmp_path / "t.off"
    assert main(["gen", "torus(5,4)", "-o", str(out)]) == 0
    assert load_mesh(out).n_triangles == 40


def test_gen_bad_spec_is_parse_error(tmp_path):
    assert main(["gen", "hypercube(4)", "-o", str(tmp_path / "x.off")]) == 2


def test_usage_error_is_1():
    assert main(["stripify"]) == 1
    assert main([]) == 1


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


def test_stripify_open_mesh_is_validation_error(tmp_path):
    path = tmp_path / "fan.obj"
    save_mesh(fan(4), path)
    assert main(["stripify", str(path)]) == 3


def test_stripify_missing_file_is_parse_error(tmp_path):
    assert main(["stripify", str(tmp_path / "nope.off")]) == 2


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
