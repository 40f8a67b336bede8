"""Benchmark of charthree: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify_t2 --seed 1 --seconds 30 --trace 0

The workload is a closed loop in one process and one thread: a pass starts
when the previous one has finished, and passes repeat until `--seconds`
have been spent on them (at least one pass).  Set-up is repeated
`SETUP_REPEATS` times and its median reported.  Set-up and pass times are
scaled by the speed of a reference loop timed between passes
(`calibrate.py`); the unscaled medians are in the detail line.

With `--trace 0` the last line reports the end-to-end metrics; with
`--trace 1` half the time runs untraced passes and half traced ones, and
the last line reports the per-layer metrics plus `trace.overhead_ratio`.
The line before it is a JSON document with everything else: the
environment, the generated inputs, the sample count behind each statistic,
`failed_ratio` and the names of failed checks.  A traced run also writes
its spans to `.bench_out/`.  See `bench/README.md` for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7


def load_charthree(src: Path) -> SimpleNamespace:
    """Import charthree afresh from `src`, so each call pays the import."""
    for name in [n for n in sys.modules if n == "charthree" or n.startswith("charthree.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("charthree")
    if Path(pkg.__file__).resolve().parent != (src / "charthree").resolve():
        raise ImportError(f"charthree was imported from {pkg.__file__}, not {src}")
    mods = {m: importlib.import_module(f"charthree.{m}") for m in layers.MODULES}
    return SimpleNamespace(package=pkg, **mods)


def git_revision(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "charthree").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(ROOT),
        "src_sha256": source_digest(ROOT / "src"),
        "seed": seed,
    }


class Gate:
    """Tally of correctness checks over every pass of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, checks):
        for name, ok in checks:
            self.attempted += 1
            if not ok:
                self.failed.append(name)

    def error(self, where: str, exc: BaseException):
        self.attempted += 1
        self.failed.append(f"{where}: {type(exc).__name__}: {exc}")


def run_passes(workload, ch, inputs, seconds: float, gate: Gate, speed=None,
               tracer_factory=None):
    """Closed loop of passes for `seconds` (at least one), sampling `speed`
    after each pass when given; returns (walls, items, traced layer metrics
    per pass, last tracer)."""
    walls, items, traced, tracer = [], [], [], None
    spent = 0.0
    while not walls or spent < seconds:
        tracer = tracer_factory() if tracer_factory else None
        gc.collect()   # start every pass from a heap without the last pass's garbage
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = workload.run(ch, inputs)
            else:
                with tracer:
                    res = workload.run(ch, inputs)
        except Exception as exc:   # a crash is a failed check, not a crashed run
            traceback.print_exc()
            gate.error("pass", exc)
            break
        wall = time.perf_counter() - t0
        spent += wall
        gate.add(res.checks)
        walls.append(wall)
        items.append(res.items)
        if speed is not None:
            speed.sample()
        if tracer is not None:
            traced.append(layers.layer_metrics(tracer))
    return walls, items, traced, tracer


def write_spans(tracer, path: Path):
    spans = tracer.spans
    t0 = spans[0][1] if spans else 0.0
    doc = {
        "spans": [{"name": n, "start_s": s - t0, "end_s": e - t0, "parent": p}
                  for n, s, e, p in spans],
        "calls": dict(tracer.calls),
        "inclusive_s": dict(tracer.inclusive),
        "self_s": dict(tracer.self_s),
        "extra": dict(tracer.extra),
    }
    path.write_text(json.dumps(doc))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "charthree" / "__init__.py").is_file():
        print(f"error: no charthree sources under {src}", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]

    speed = calibrate.Speed()
    speed.sample()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ch = load_charthree(src)
        inputs = workload.setup(ch, args.seed, scratch)
        setups.append(time.perf_counter() - t0)

    speed.sample()
    gate = Gate()
    budget = args.seconds / 2 if args.trace else args.seconds
    walls, items, _, _ = run_passes(workload, ch, inputs, budget, gate, speed)
    traced_walls, traced, tracer = [], [], None
    if args.trace and not gate.failed:
        traced_walls, _, traced, tracer = run_passes(
            workload, ch, inputs, budget, gate,
            tracer_factory=lambda: layers.make_tracer(ch))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    end_to_end, raw = {}, {}
    if walls:
        rates = [n / w for n, w in zip(items, walls)]
        raw = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
               "items_per_s": statistics.median(rates)}
        f = speed.factor()
        end_to_end = {
            "wall_s": (raw["wall_s"] * f, "s"),
            "setup_s": (raw["setup_s"] * f, "s"),
            "items_per_s": (raw["items_per_s"] / f, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    samples = {"wall_s": [len(walls), len(speed.samples)],
               "setup_s": [len(setups), len(speed.samples)],
               "items_per_s": [len(walls), len(speed.samples)], "peak_rss_mb": 1}
    per_layer = {}
    if traced:
        per_layer = layers.median_metrics(traced)
        per_layer["trace.overhead_ratio"] = (
            statistics.median(traced_walls) / statistics.median(walls), "ratio")
        samples["per_layer"] = len(traced)
        samples["trace.overhead_ratio"] = [len(traced_walls), len(walls)]
    trace_file = None
    if tracer is not None:
        trace_file = scratch / f"trace-{args.workload}-seed{args.seed}.json"
        write_spans(tracer, trace_file)

    failed = len(gate.failed)
    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed),
        "inputs": workload.describe(inputs),
        "samples": samples,
        "pass_walls_s": walls,
        "traced_pass_walls_s": traced_walls,
        "setup_runs_s": setups,
        "failed_ratio": failed / gate.attempted,
        "failed_checks": gate.failed[:20],
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "unscaled": raw,
        "reference_runs_s": speed.samples,
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
    }
    print(json.dumps(detail))
    metrics = per_layer if args.trace else end_to_end
    result = {
        "correct": failed == 0,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
