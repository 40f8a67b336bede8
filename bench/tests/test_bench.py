"""Self-tests of the benchmark.

- Tracing changes no output: the verify_t2 and census_t4 JSON documents
  are byte-identical and the certify_t4 certificate lists are equal.
- Every gate passes, traced and untraced.
- The stress/bypass predictions of README.md hold on the traced pass.
- After tracing, every patched attribute is the original object again.
- The metric and workload names match BENCHMARK.json.
- Without the package sources the benchmark fails without a result.

Run from the repository root (about a minute: one untraced and one traced
pass per workload):

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
from tracing import Target, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1


def _namespaces(ch):
    spaces = [ch.package] + [getattr(ch, m) for m in layers.MODULES]
    classes = {v for ns in spaces for v in vars(ns).values()
               if isinstance(v, type) and v.__module__.startswith("charthree")}
    return spaces + sorted(classes, key=lambda c: c.__qualname__)


def _snapshot(ch):
    return {(id(ns), k): v for ns in _namespaces(ch) for k, v in vars(ns).items()}


@pytest.fixture(scope="module")
def ch():
    return run.load_charthree(run.ROOT / "src")


@pytest.fixture(scope="module")
def passes(ch):
    """name -> (untraced result, traced result, layer metrics, patched list,
    attribute snapshots before and after tracing)."""
    scratch = run.ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    out = {}
    for name, wl in WORKLOADS.items():
        inputs = wl.setup(ch, SEED, scratch)
        plain = wl.run(ch, inputs)
        before = _snapshot(ch)
        tracer = layers.make_tracer(ch)
        with tracer:
            patched = tracer.patched()
            traced = wl.run(ch, inputs)
        out[name] = (plain, traced, layers.layer_metrics(tracer), patched,
                     before, _snapshot(ch))
    return out


def test_tracing_changes_no_output(passes):
    for name in ("verify_t2", "census_t4"):
        plain, traced = passes[name][:2]
        assert isinstance(plain.output, bytes) and plain.output == traced.output, name
    plain, traced = passes["certify_t4"][:2]
    assert [len(c) for c in plain.output] == [1080, 1080]
    assert plain.output == traced.output


def test_every_gate_passes(passes):
    for name, (plain, traced, *_) in passes.items():
        for res in (plain, traced):
            failed = [c for c, ok in res.checks if not ok]
            assert res.checks and not failed, (name, failed)


def test_stress_and_bypass_predictions(passes):
    m = {name: p[2] for name, p in passes.items()}
    assert m["verify_t2"]["curve.sample_calls"][0] > 0
    assert m["certify_t4"]["curve.sample_calls"][0] == 0
    assert m["census_t4"]["curve.sample_calls"][0] == 0
    assert m["census_t4"]["localseries.series_mul_calls"][0] == 0
    assert m["certify_t4"]["automorphisms.orbit_partition_s"][0] == 0
    assert m["certify_t4"]["localseries.witness_calls"][0] == 2160
    assert m["census_t4"]["curve.places_enumerated"][0] == 181522


def test_tracing_restores_every_attribute(passes):
    for name, (*_, patched, before, after) in passes.items():
        # the imported-by-name bindings are among those patched
        names = {(getattr(ns, "__name__", ""), attr) for ns, attr, _ in patched}
        assert {("charthree.cli", "verify_gaps"), ("charthree.curve", "p_order"),
                ("charthree.localseries", "expand_coordinates")} <= names
        assert before.keys() == after.keys()
        changed = [k for k, v in before.items() if after[k] is not v]
        assert not changed, (name, changed)
        for ns, attr, original in patched:
            assert vars(ns)[attr] is original


def test_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "items_per_s", "peak_rss_mb"}
    assert [m["name"] for m in spec["per_layer"]] == \
        list(layers.METRICS) + ["trace.overhead_ratio"]


def test_tracer_counts_nested_calls_once():
    mod = types.ModuleType("toy")

    def leaf(x):
        return x + 1

    def outer(n):
        return sum(mod.leaf(i) for i in range(n)) + (mod.outer(n - 1) if n else 0)

    mod.leaf, mod.outer, mod.alias = leaf, outer, outer
    other = types.ModuleType("other")
    other.outer = outer
    expected = outer(3)
    tracer = Tracer([Target(mod, "outer", "a", "outer", span=True),
                     Target(mod, "leaf", "b", "leaf")], also=[other])
    with tracer:
        assert mod.alias is mod.outer is other.outer is not outer
        assert other.outer(3) == expected
    assert mod.outer is outer and mod.alias is outer and other.outer is outer
    assert tracer.calls["outer"] == 4 and tracer.calls["leaf"] == 3 + 2 + 1
    assert [s[3] for s in tracer.spans] == [None, 0, 1, 2]
    total = tracer.inclusive["outer"]
    assert total == pytest.approx(tracer.spans[0][2] - tracer.spans[0][1])
    assert tracer.self_s["a"] + tracer.self_s["b"] == pytest.approx(total)


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify_t2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
