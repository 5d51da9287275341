"""CLI subcommands, exit codes, artifact round-trips."""

import json

import pytest

from singlestrip import cli
from singlestrip.cli import main
from singlestrip.fileio import ParseError, load_mesh, read_strip_order, read_stats, save_mesh
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
    assert "over the budget" in capsys.readouterr().err
    assert not out.exists()
