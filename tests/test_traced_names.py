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
from singlestrip.boundary import gen_mk
from singlestrip.fileio import save_mesh
from singlestrip.generators import torus
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


def test_return_counts_are_recorded_and_uninstall_restores(tmp_path):
    # the closed input has degree-3 vertices, a nodal merge and splits; the
    # open one has splits
    closed = torus(20, 10)
    for t in random.Random(3).sample(range(closed.n_triangles), 12):
        insert_centroid(closed, t)
    save_mesh(closed, tmp_path / "closed.off")
    save_mesh(gen_mk(3), tmp_path / "open.off")
    tracer = _load_tracer()
    before = _bindings(tracer.PACKAGE)
    run = tracer.Tracer()
    run.install()
    try:
        assert cli.main(["stripify", str(tmp_path / "closed.off"), "--out", str(tmp_path)]) == 0
        argv = ["stripify-boundary", str(tmp_path / "open.off"), "--out", str(tmp_path)]
        assert cli.main(argv) == 0
    finally:
        run.uninstall()
    after = _bindings(tracer.PACKAGE)
    assert run.missing == [] and run.errors == {}
    counters = sorted(key for key, _count in tracer.RETURN_COUNTS.values())
    assert sorted(run.counts) == counters
    assert all(run.counts[key] > 0 for key in counters), run.counts
    assert after.keys() == before.keys()
    assert [k for k, v in after.items() if v is not before[k]] == []
