"""Tests of the benchmark itself, on the tiny smoke configuration.

    python3 -m pytest -q perfbench

They are kept out of the repository's tier-1 suite, which collects `tests/`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace:
        assert abs(result["metrics"]["trace.coverage"]["value"] - 1.0) < 0.05


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("closed-perturbed", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _write_strip(tmp_path: Path, faces, order, head: str) -> None:
    n_vertices = max(max(f) for f in faces) + 1
    obj = [f"v {i} 0 0" for i in range(n_vertices)] + [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in faces]
    (tmp_path / "m.strip.obj").write_text("\n".join(obj) + "\n")
    (tmp_path / "m.strip.txt").write_text(f"{head} {len(order)}\n" + "\n".join(map(str, order)) + "\n")


FAN = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)]


def test_checker_accepts_a_strip_and_rejects_broken_orders(tmp_path):
    _write_strip(tmp_path, FAN, [0, 1, 2, 3], "strip")
    assert checker.check_strip(tmp_path, "m", 4, closed=False, mk_k=None) == 4
    for order, head in (([0, 1, 1, 3], "strip"), ([0, 2, 1, 3], "strip"), ([0, 1, 2, 3], "cycle")):
        _write_strip(tmp_path, FAN, order, head)
        with pytest.raises(checker.CheckError):
            checker.check_strip(tmp_path, "m", 4, closed=head == "cycle", mk_k=None)
    _write_strip(tmp_path, FAN, [0, 1, 2, 3], "strip")
    with pytest.raises(checker.CheckError):
        checker.check_strip(tmp_path, "m", 4, closed=False, mk_k=1)


def test_an_exception_from_the_cli_is_a_counted_failure(tmp_path):
    def main(argv):
        raise RecursionError("deep tree")

    cli = types.SimpleNamespace(main=main)
    cal = types.SimpleNamespace(sample=lambda: worker.CAL_REF_S)
    job = {"name": "m", "n_in": 4, "check": "strip", "argv": ["stripify-boundary", "m.off"]}
    (tmp_path / "out").mkdir()
    rec = worker.run_job(cli, job, tmp_path / "out", cal, None)
    assert rec["verified"] is False and rec["error"].startswith("RecursionError")
    assert rec["wall"] > 0


def test_tracer_wraps_every_binding_and_restores_it():
    from singlestrip import boundary, cli, mesh, striploop
    from singlestrip.generators import torus

    def bindings():
        return (mesh.split_pair, striploop.split_pair, boundary.split_pair,
                mesh.Mesh.__init__, cli.main)

    originals = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert striploop.split_pair is boundary.split_pair is not originals[0]
        striploop.stripify(torus(6, 4))
    finally:
        tracer.uninstall()
    assert bindings() == originals
    names = {span[0] for span in tracer.spans}
    assert {"striploop.stripify_self", "mesh.Mesh_init", "matching.perfect_match_dual_self"} <= names


def test_a_deleted_function_is_a_missing_metric(monkeypatch):
    from singlestrip import sfc

    monkeypatch.delattr(sfc, "dumps_curve_obj")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["sfc.dumps_curve_obj"]
