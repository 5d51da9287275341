"""Timed loop, set-up probe and calibrator, each a fresh interpreter.

    python3 worker.py loop CONFIG.json    # timed loop over the workload's meshes
    python3 worker.py setup CONFIG.json   # one set-up sample
    python3 worker.py calibrator          # one `calibrate` sample per input line

run.py starts the first two; the first two print one JSON object as the
last line of standard output. Every timed call is bracketed by two samples
of `calibrate`, a fixed pure-Python loop run in the calibrator, so times can
be given in reference seconds: raw seconds scaled by CAL_REF_S / (mean of
the two samples). That cancels most of the machine's speed drift between
and within runs.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checker
from tracer import TRACED, Tracer, self_times

# Median of 120 `calibrate` samples taken by the helper process during
# benchmark runs on a 2-vCPU x86-64 virtual machine with CPython 3.11.7.
# A fixed constant, never measured again: a reference second is a second
# of that machine.
CAL_REF_S = 0.0814

CAL_ENTRIES = 48_000
CAL_CHUNKS = 5


def calibrate() -> float:
    """Seconds taken by dict inserts keyed by int tuples, then an iteration.

    The loop runs in CAL_CHUNKS equal chunks and the median chunk, scaled
    up, is returned, so one burst of contention does not skew the sample.
    """
    chunks = []
    for _ in range(CAL_CHUNKS):
        t0 = time.perf_counter()
        table = {}
        for i in range(CAL_ENTRIES):
            table[(i, i >> 4)] = i
        total = 0
        for (a, b), v in table.items():
            total += a - b + v
        chunks.append(time.perf_counter() - t0)
    return sorted(chunks)[CAL_CHUNKS // 2] * CAL_CHUNKS


class Calibrator:
    """A helper interpreter that runs `calibrate` whenever asked.

    Calibrating in a process of its own keeps the sample independent of the
    measured program's heap: after a large mesh the same loop run in process
    is up to 40% slower, and that would change with the program's memory
    use rather than with the machine's speed.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "calibrator"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.sample()  # the first run in a fresh interpreter is cold

    def sample(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)


def setup_probe(cfg: dict) -> dict:
    """Import the CLI in this fresh interpreter and make one warm-up call."""
    sys.path.insert(0, cfg["src"])
    t0 = time.perf_counter()
    from singlestrip import cli

    code = _quiet_main(cli, cfg["warmup"])
    wall = time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"warm-up call {cfg['warmup']} exited {code}")
    return {"wall": wall}


def _quiet_main(cli, argv: list[str]):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def run_job(cli, job: dict, out_dir: Path, cal: Calibrator, tracer: Tracer | None) -> dict:
    """One CLI call, timed between two calibrations, then checked."""
    gc.collect()
    first_span = len(tracer.spans) if tracer else 0
    cal0 = cal.sample()
    if tracer:
        tracer.install()
    failure = None
    t0 = time.perf_counter()
    try:
        code = _quiet_main(cli, job["argv"] + ["--out", str(out_dir)])
    except Exception as exc:  # any escape from cli.main is a failed attempt
        code, failure = None, exc
    wall = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()
    cal1 = cal.sample()
    rec = {"name": job["name"], "n_in": job["n_in"], "wall": wall, "cal": (cal0 + cal1) / 2,
           "code": code}
    if failure is not None:
        rec["error"] = f"{type(failure).__name__}: {str(failure)[:120]}"
        tail = traceback.format_exception(failure, limit=-2)
        print(f"perfbench: {job['name']} raised\n{''.join(tail)}", end="", file=sys.stderr)
        del failure
    rec["verified"] = False
    if code == 0:
        try:
            rec["n_out"] = _check(job, out_dir)
            rec["verified"] = True
        except (checker.CheckError, OSError, ValueError, KeyError) as exc:
            rec["check_error"] = f"{type(exc).__name__}: {exc}"
    if tracer:
        rec["spans"] = (first_span, len(tracer.spans))
        rec.update(_output_counts(job, out_dir))
    shutil.rmtree(out_dir)
    out_dir.mkdir()
    gc.collect()
    return rec


def _check(job: dict, out_dir: Path) -> int:
    if job["check"] == "curve":
        return checker.check_curve(out_dir, job["name"], job["n_in"], job["depth"])
    closed = job["check"] == "cycle"
    return checker.check_strip(out_dir, job["name"], job["n_in"], closed, job.get("mk_k"))


def _output_counts(job: dict, out_dir: Path) -> dict:
    """Per-layer counts read from the stats JSON and the output file sizes."""
    stem = job["name"]
    stats_path = out_dir / f"{stem}.stats.json"
    stats = json.loads(stats_path.read_text()) if stats_path.exists() else {}
    written = [out_dir / f"{stem}.strip.obj", out_dir / f"{stem}.strip.txt", stats_path]
    curve = out_dir / f"{stem}.curve.obj"
    return {
        "stats": {k: v for k, v in stats.items() if isinstance(v, (int, float))},
        "out_bytes": sum(p.stat().st_size for p in written if p.exists()),
        "export_bytes": curve.stat().st_size if curve.exists() else 0,
    }


def run_loop(cfg: dict) -> dict:
    """Whole passes over the jobs until another pass would overrun `seconds`.

    With tracing, each job runs untraced and then traced, so the two can be
    compared for the tracing overhead.
    """
    sys.path.insert(0, cfg["src"])
    from singlestrip import cli

    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    if _quiet_main(cli, cfg["warmup"]) != 0:
        raise SystemExit(f"warm-up call {cfg['warmup']} failed")
    shutil.rmtree(out_dir)
    out_dir.mkdir()
    tracer = Tracer() if cfg["trace"] else None
    records: list[dict] = []
    with Calibrator() as cal:
        t_start = time.perf_counter()
        passes = 0
        while True:
            for job in cfg["jobs"]:
                records.append(run_job(cli, job, out_dir, cal, None))
                if tracer:
                    records.append(dict(run_job(cli, job, out_dir, cal, tracer), traced=True))
            passes += 1
            elapsed = time.perf_counter() - t_start
            if elapsed / passes * (passes + 1) > cfg["seconds"]:
                break
    result = {
        "records": [{k: v for k, v in r.items() if k != "spans"} for r in records],
        "passes": passes,
        "loop_s": elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["layers"] = layer_metrics(tracer, records)
    return result


# Per-layer counts taken from the stats JSON: metric -> stats key.
STATS_COUNTS = {
    "matching.augmentations": "augmentations",
    "striploop.cycles_initial": "cycles_initial",
    "striploop.cycles_after_nodal": "cycles_after_nodal",
    "boundary.spine_edges": "spine_edges",
    "sfc.points": "curve_points",
}


def layer_metrics(tracer: Tracer, records: list[dict]) -> dict:
    """Per traced mesh: self ms in reference time, call counts and counters."""
    traced = [r for r in records if r.get("traced")]
    untraced = [r for r in records if not r.get("traced")]
    n = len(traced)
    ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_sum = 0.0
    for r in traced:
        scale = CAL_REF_S / r["cal"]
        for name, (secs, k) in self_times(tracer.spans, *r["spans"]).items():
            ms[name] = ms.get(name, 0.0) + secs * scale * 1000.0
            calls[name] = calls.get(name, 0) + k
            self_sum += secs
    out: dict[str, tuple[float, str]] = {}
    missing = set(tracer.missing)
    for module, _, stem in TRACED:
        name = f"{module}.{stem}"
        if name not in missing:
            out[f"{name}_ms"] = (ms.get(name, 0.0) / n, "ms")
    for name in ("mesh.build_dual", "mesh.split_pair", "striploop.extract_cycles"):
        if name not in missing:
            out[f"{name}_calls"] = (calls.get(name, 0) / n, "count")
    for metric, key in STATS_COUNTS.items():
        out[metric] = (sum(r["stats"].get(key) or 0 for r in traced) / n, "count")
    for metric in ("striploop.removed_configs", "striploop.nodal_merges",
                   "striploop.splits", "boundary.splits"):
        out[metric] = (tracer.counts.get(metric, 0) / n, "count")
    coverage = [r["stats"]["greedy_coverage"] for r in traced if "greedy_coverage" in r["stats"]]
    out["matching.greedy_coverage"] = (sum(coverage) / len(coverage) if coverage else 0.0, "ratio")
    augmentations = sum(r["stats"].get("augmentations") or 0 for r in traced)
    blossom_ms = ms.get("matching.blossom_maximum_matching", 0.0)
    out["matching.ms_per_augmentation"] = (blossom_ms / augmentations if augmentations else 0.0, "ms")
    failed = tracer.errors.get("boundary.strip_with_boundary_self", 0)
    out["boundary.errors"] = (failed / n, "count")
    out["sfc.export_bytes"] = (sum(r["export_bytes"] for r in traced) / n, "bytes")
    out["fileio.out_bytes"] = (sum(r["out_bytes"] for r in traced) / n, "bytes")
    out["trace.coverage"] = (self_sum / sum(r["wall"] for r in traced), "ratio")
    # each traced call directly follows the same call untraced
    ratios = [(t["wall"] / t["cal"]) / (u["wall"] / u["cal"]) for u, t in zip(untraced, traced)]
    out["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "ratio")
    return {name: {"value": v, "unit": u} for name, (v, u) in out.items()}


def main(argv: list[str]) -> int:
    if argv == ["calibrator"]:
        for _ in sys.stdin:
            print(calibrate(), flush=True)
        return 0
    mode, config = argv
    cfg = json.loads(Path(config).read_text())
    result = setup_probe(cfg) if mode == "setup" else run_loop(cfg)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
