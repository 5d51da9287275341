"""The layer tracer's names still exist in the package.

`perfbench/tracer.py` reports a traced function it cannot find as missing
and leaves its metrics out, so renaming or deleting one would only show in
the benchmark's own slow tests. The tracer is loaded from its file here, not
imported as a package, and nothing in it is changed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _resolve(package: str, module_name: str, attr: str):
    owner = importlib.import_module(f"{package}.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _stem in tracer.TRACED
        if not callable(_resolve(tracer.PACKAGE, module_name, attr))
    ]
    assert missing == []
