"""The layer tracer still finds and counts what it traces.

`perfbench/tracer.py` reports a traced function it cannot find as missing
and leaves its metrics out, and reads some counters off return values, so
renaming a function or changing its return shape would only show in the
benchmark's own slow tests. The tracer is loaded from its file here, not
imported as a package, and nothing in it is changed.
"""

import importlib
import importlib.util
import random
import sys
from pathlib import Path

from oracles import insert_centroid
from singlestrip import cli
from singlestrip.fileio import save_mesh
from singlestrip.generators import gen_mk, torus
from singlestrip.mesh import Mesh

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _resolve(package: str, module_name: str, attr: str):
    owner = importlib.import_module(f"{package}.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _stem in tracer.TRACED
        if not callable(_resolve(tracer.PACKAGE, module_name, attr))
    ]
    assert missing == []


def _bindings(package: str) -> dict:
    """Every name bound in the package's modules, and `Mesh`'s own methods."""
    out = {
        (name, key): value
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == package
        for key, value in vars(module).items()
    }
    out.update({("Mesh", key): value for key, value in vars(Mesh).items()})
    return out


def _inputs(tmp_path):
    """A closed input with degree-3 vertices, a nodal merge and splits, and
    an open one with splits."""
    closed = torus(20, 10)
    for t in random.Random(3).sample(range(closed.n_triangles), 12):
        insert_centroid(closed, t)
    save_mesh(closed, tmp_path / "closed.off")
    save_mesh(gen_mk(3), tmp_path / "open.off")
    return str(tmp_path / "closed.off"), str(tmp_path / "open.off")


def _traced(tracer, argvs):
    """The tracer's run of `cli.main` on each argv, all exiting 0."""
    run = tracer.Tracer()
    run.install()
    try:
        for argv in argvs:
            assert cli.main(argv) == 0, argv
    finally:
        run.uninstall()
    return run


def test_return_counts_are_recorded_and_uninstall_restores(tmp_path):
    closed, open_ = _inputs(tmp_path)
    tracer = _load_tracer()
    before = _bindings(tracer.PACKAGE)
    out = ["--out", str(tmp_path)]
    run = _traced(tracer, [["stripify", closed, *out], ["stripify-boundary", open_, *out]])
    after = _bindings(tracer.PACKAGE)
    assert run.missing == [] and run.errors == {}
    counters = sorted(key for key, _count in tracer.RETURN_COUNTS.values())
    assert sorted(run.counts) == counters
    assert all(run.counts[key] > 0 for key in counters), run.counts
    assert after.keys() == before.keys()
    assert [k for k, v in after.items() if v is not before[k]] == []


def test_every_traced_layer_records_a_span(tmp_path):
    # a traced layer that the pipelines reach only through a private copy
    # reads 0 in every benchmark run; `export_curve` streams its chunks and
    # never calls `dumps_curve_obj`, which the benchmark still names
    closed, open_ = _inputs(tmp_path)
    tracer = _load_tracer()
    out = ["--out", str(tmp_path)]
    argvs = [
        ["stripify", closed, *out],
        ["stripify-boundary", open_, *out],
        ["sfc", closed, "--depth", "1", *out],
    ]
    run = _traced(tracer, argvs)
    assert run.missing == [] and run.errors == {}
    spanned = {span[0] for span in run.spans}
    silent = [
        f"{module_name}.{stem}"
        for module_name, _attr, stem in tracer.TRACED
        if f"{module_name}.{stem}" not in spanned
    ]
    assert silent == ["sfc.dumps_curve_obj"]


def test_a_closed_run_builds_one_dual_mapping(tmp_path):
    # the table is the one adjacency the pipelines share; beside it, a
    # closed run builds `build_dual`'s sets once, for the greedy phase of
    # matching, and the open path builds none
    closed, open_ = _inputs(tmp_path)
    tracer = _load_tracer()
    out = ["--out", str(tmp_path)]
    argvs = {
        "stripify": ["stripify", closed, *out],
        "sfc": ["sfc", closed, "--depth", "1", *out],
        "stripify-boundary": ["stripify-boundary", open_, *out],
    }
    duals = {}
    for command, argv in argvs.items():
        run = _traced(tracer, [argv])
        assert run.missing == [] and run.errors == {}
        duals[command] = sum(span[0] == "mesh.build_dual" for span in run.spans)
    assert duals == {"stripify": 1, "sfc": 1, "stripify-boundary": 0}
