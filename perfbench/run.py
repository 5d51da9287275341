"""Benchmark of the `singlestrip` command line, driven in process.

    python3 perfbench/run.py --workload closed-perturbed --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the program is imported from `src/`. The
seed generates every input, written as an OFF file before timing starts.
A fresh interpreter then runs a closed loop with one client: `cli.main` is
called on one mesh after another, in whole passes over the workload, until
another pass would overrun `--seconds`. Each output is re-read and checked
by `checker.py`, outside the timed region.

Times are in reference seconds (see worker.py). The last line of standard
output is one JSON object; with `--trace 0` it holds the end-to-end metrics:

- tri_per_s: input triangles of verified results per reference second of
  the loop, failed attempts' time included;
- setup_s: median over fresh interpreters of importing `singlestrip.cli`
  plus one warm-up call on a tiny input;
- peak_rss_mb: high-water RSS of the interpreter running the loop;
- output_growth_pct: 100 * (sum out - sum in) / sum in over verified meshes;
- verified_frac: verified meshes / attempted meshes.

With `--trace 1` each call is made twice, untraced and traced, and the
object holds the per-layer metrics of tracer.py instead. `--smoke` swaps in
tiny meshes so that the benchmark's own tests finish in seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import meshgen
from worker import CAL_REF_S, Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 5
LOOP_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 20


def perturb_closed(mesh, rng):
    return meshgen.perturb(mesh, rng, split_frac=0.03)


# Each workload: (CLI command and extra arguments, check kind, seeded
# preparation of a generated mesh, meshes). A mesh is (name, generator,
# arguments); "mk" meshes are also checked against the exact 3n - 2 - 4k size.
WORKLOADS = {
    # Closed meshes in file order rather than generator order: relabelling
    # multiplies the initial cycles, and the centroid splits give the
    # three-cycle elimination and restoration real work. Matching and
    # nodal merging dominate.
    "closed-perturbed": (["stripify"], "cycle", perturb_closed, [
        ("torus-150x80", meshgen.torus, (150, 80)),
        ("icosphere-5", meshgen.icosphere, (5,)),
        ("torus-240x50", meshgen.torus, (240, 50)),
    ]),
    # Open meshes: the Euler construction splits a pair per non-spine tree
    # edge, so writes to the mesh dominate and matching never runs. The
    # 3 x 2000 strip has a deep dual tree that currently fails; it stays in
    # as a counted failure.
    "open-holes": (["stripify-boundary"], "strip", meshgen.perturb, [
        ("grid-100x100", meshgen.grid, (100, 100)),
        ("holes-100x100", meshgen.grid, (100, 100, 5, 20)),
        ("mk-11", meshgen.mk, (11,)),
        ("fan-2000", meshgen.fan, (2000,)),
        ("strip-3x2000", meshgen.grid, (3, 2000)),
    ]),
    # Small closed meshes, deep curves: curve generation and OBJ text
    # dominate, and the curve alone sets peak memory. The seed only rotates
    # the mesh: relabelling would move the handful of splits on meshes this
    # small, and with them output_growth_pct, by half from seed to seed.
    "sfc-curve": (["sfc", "--depth", "5"], "curve", meshgen.rotate, [
        ("torus-16x8", meshgen.torus, (16, 8)),
        ("icosphere-1", meshgen.icosphere, (1,)),
        ("torus-8x6", meshgen.torus, (8, 6)),
    ]),
}

SMOKE = {
    "closed-perturbed": (["stripify"], "cycle", perturb_closed, [
        ("torus-12x8", meshgen.torus, (12, 8)),
        ("icosphere-2", meshgen.icosphere, (2,)),
    ]),
    "open-holes": (["stripify-boundary"], "strip", meshgen.perturb, [
        ("holes-12x12", meshgen.grid, (12, 12, 2, 5)),
        ("mk-3", meshgen.mk, (3,)),
        ("fan-20", meshgen.fan, (20,)),
    ]),
    "sfc-curve": (["sfc", "--depth", "2"], "curve", meshgen.rotate, [
        ("torus-6x4", meshgen.torus, (6, 4)),
    ]),
}

WARMUP_MESH = (meshgen.torus, (4, 3))
WARMUP_BOUNDARY_MESH = (meshgen.grid, (2, 2))


def make_inputs(workload: str, seed: int, smoke: bool, work: Path) -> dict:
    """Write the seeded inputs and return the worker configuration."""
    command, check, prepare, meshes = (SMOKE if smoke else WORKLOADS)[workload]
    jobs = []
    for name, gen, args in meshes:
        mesh = prepare(gen(*args), random.Random(f"{seed}:{name}"))
        path = work / f"{name}.off"
        meshgen.write_off(mesh, path)
        job = {"name": name, "n_in": len(mesh[1]), "check": check,
               "argv": [command[0], str(path), *command[1:]]}
        if gen is meshgen.mk:
            job["mk_k"] = args[0]
        if check == "curve":
            job["depth"] = int(command[2])
        jobs.append(job)
        del mesh
    gen, args = WARMUP_BOUNDARY_MESH if check == "strip" else WARMUP_MESH
    warm = work / "warmup.off"
    meshgen.write_off(prepare(gen(*args), random.Random(f"{seed}:warmup")), warm)
    return {
        "src": str(ROOT / "src"),
        "out_dir": str(work / "out"),
        "jobs": jobs,
        "warmup": [command[0], str(warm), *command[1:], "--out", str(work / "warmup-out")],
    }


def run_worker(mode: str, cfg: dict, work: Path, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter; its last stdout line is JSON."""
    config = work / f"{mode}.json"
    config.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, str(config)],
        stdout=subprocess.PIPE, text=True, timeout=timeout, cwd=ROOT,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker {mode} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ref_seconds(rec: dict) -> float:
    return rec["wall"] * CAL_REF_S / rec["cal"]


def end_to_end(records: list[dict], peak_rss_mb: float, setup: list[dict]) -> dict:
    """The five end-to-end metrics. Each mesh's time is its median over the
    passes, so one burst of contention on a shared machine moves it less."""
    meshes: dict[str, list[dict]] = {}
    for r in records:
        meshes.setdefault(r["name"], []).append(r)
    n_in = n_out = 0
    seconds = 0.0
    for runs in meshes.values():
        seconds += statistics.median(ref_seconds(r) for r in runs)
        if all(r["verified"] for r in runs):
            n_in += runs[0]["n_in"]
            n_out += runs[0]["n_out"]
    verified = sum(r["verified"] for r in records)
    metrics = {
        "tri_per_s": (n_in / seconds, "1/s"),
        "setup_s": (statistics.median(ref_seconds(s) for s in setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "output_growth_pct": (100.0 * (n_out - n_in) / n_in if n_in else 0.0, "%"),
        "verified_frac": (verified / len(records), "ratio"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def report(records: list[dict], passes: int, loop_s: float) -> None:
    """Per-mesh lines, so the reference-second scaling can be checked."""
    for r in records:
        status = "ok" if r["verified"] else r.get("error") or r.get("check_error") or f"exit {r['code']}"
        tag = " traced" if r.get("traced") else ""
        print(f"{r['name']}{tag}: n_in={r['n_in']} n_out={r.get('n_out', '-')} "
              f"wall_s={r['wall']:.4f} cal_s={r['cal']:.4f} ref_s={ref_seconds(r):.4f} {status}")
    raw = sum(r["wall"] for r in records)
    ref = sum(ref_seconds(r) for r in records)
    print(f"{passes} pass(es) in {loop_s:.2f} s; timed wall {raw:.4f} s = {ref:.4f} "
          f"reference s at cal_ref_s={CAL_REF_S}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny meshes, one set-up sample")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "singlestrip" / "cli.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'singlestrip'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        cfg = make_inputs(args.workload, args.seed, args.smoke, work)
        setup = []
        if not args.trace:
            with Calibrator() as cal:
                for _ in range(1 if args.smoke else SETUP_SAMPLES):
                    shutil.rmtree(work / "warmup-out", ignore_errors=True)
                    cal0 = cal.sample()
                    probe = run_worker("setup", cfg, work, SETUP_TIMEOUT_S)
                    setup.append(dict(probe, cal=(cal0 + cal.sample()) / 2))
        cfg.update(seconds=args.seconds, trace=bool(args.trace))
        result = run_worker("loop", cfg, work, LOOP_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()

    records = result["records"]
    report(records, result["passes"], result["loop_s"])
    untraced = [r for r in records if not r.get("traced")]
    metrics = result["layers"] if args.trace else end_to_end(untraced, result["peak_rss_mb"], setup)
    print(json.dumps({
        "correct": not any("check_error" in r for r in records),
        "attempted": len(untraced),
        "failed": sum(not r["verified"] for r in untraced),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
