"""Tests of the benchmark's own helpers, plus a tiny-scale pass over every workload."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import inputs, join, oracle, serve_batch, serve_mixed
from perfbench.stats import median, n_beyond, percentile, supported_percentile
from perfbench.trace import Span, Tracer, children_of, outermost, self_time, time_in, union_length

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------- #
# percentile rule
# ---------------------------------------------------------------------- #
def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert median([3, 1, 2, 4]) == 2.5


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
        (99, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert supported_percentile(n) == expected
    if expected is not None:
        assert n_beyond(n, expected) >= 10


# ---------------------------------------------------------------------- #
# spans
# ---------------------------------------------------------------------- #
def _span(name, start, end, parent=None):
    span = Span(name, start, parent, "r0")
    span.end = end
    return span


def test_self_time_subtracts_the_union_of_children():
    root = _span("root", 0.0, 10.0)
    spans = [
        root,
        _span("a", 1.0, 4.0, root),
        _span("b", 3.0, 6.0, root),  # overlaps a: covered once
        _span("c", 8.0, 12.0, root),  # runs past the parent: clipped
    ]
    assert self_time(root, children_of(spans)) == pytest.approx(10.0 - 5.0 - 2.0)
    assert union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_nested_spans_of_one_stage_count_once():
    root = _span("call", 0.0, 10.0)
    outer = _span("core.decide", 1.0, 5.0, root)
    inner = _span("core.decide", 2.0, 3.0, outer)
    other = _span("core.decide", 6.0, 7.0, _span("x", 5.5, 9.0, root))
    spans = [root, outer, inner, other, other.parent]
    children = children_of(spans)
    assert time_in(root, "core.decide", children) == pytest.approx(5.0)
    assert outermost(spans, ["core.decide"]) == [outer, other]
    assert outermost(spans, ["core.decide"], exclude_under=["x"]) == [outer]


class _Target:
    def work(self, value):
        return value * 2

    @classmethod
    def build(cls, value):
        return cls().work(value)


def test_tracer_wraps_records_parents_and_restores():
    tracer = Tracer()
    originals = (_Target.__dict__["work"], _Target.__dict__["build"])
    with tracer.installed(
        lambda t: (
            t.wrap(_Target, "work", "layer.work", lambda a, k, r: {"out": r}),
            t.wrap(_Target, "build", "layer.build"),
        )
    ):
        with tracer.span("bench.sample"):
            assert _Target.build(21) == 42
        with tracer.span("bench.sample"):
            pass
    assert (_Target.__dict__["work"], _Target.__dict__["build"]) == originals
    names = [span.name for span in tracer.spans]
    assert names == ["bench.sample", "layer.build", "layer.work", "bench.sample"]
    sample, build, work, second = tracer.spans
    assert work.parent is build and build.parent is sample and second.parent is None
    assert sample.request == build.request == work.request != second.request
    assert work.counts == {"out": 42}
    assert sample.start <= build.start <= work.start <= work.end <= build.end <= sample.end


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("x") as span:
        pass
    assert span is None and tracer.spans == []


# ---------------------------------------------------------------------- #
# inputs and oracles
# ---------------------------------------------------------------------- #
def test_inputs_are_a_function_of_the_seed():
    first, labels = inputs.corpus(300, seed=3, binary=False)
    again, labels_again = inputs.corpus(300, seed=3, binary=False)
    other, _ = inputs.corpus(300, seed=4, binary=False)
    assert (first != again).nnz == 0 and np.array_equal(labels, labels_again)
    assert first.shape == other.shape and (first != other).nnz > 0

    a = inputs.serving_inputs(400, 32, 20, seed=5, binary=True)
    b = inputs.serving_inputs(400, 32, 20, seed=5, binary=True)
    for name in ("index", "queries", "spare"):
        assert (getattr(a, name) != getattr(b, name)).nnz == 0
    assert a.index.shape[0] == 400 and a.queries.shape[0] == 32 and a.spare.shape[0] == 20
    assert a.query_from_cluster.sum() == round(inputs.CLUSTER_QUERY_SHARE * 32)


def test_mixed_plan_is_seeded_and_never_reuses_a_row():
    phase_a, phase_b = serve_mixed.plan(seed=2, n_a=90, n_b=300)
    again = serve_mixed.plan(seed=2, n_a=90, n_b=300)
    assert (phase_a, phase_b) == again
    ops = phase_a + phase_b
    deleted = [row for op in ops for row in op.get("rows", [])]
    inserted = [doc for op in ops for doc in op.get("docs", [])]
    assert len(deleted) == len(set(deleted)) and len(inserted) == len(set(inserted))
    writes = sum(op["kind"] in serve_mixed.WRITE_KINDS for op in phase_a)
    assert writes == 18  # the mix is kept exactly in every block of 30


def test_oracle_matches_the_library_ground_truth():
    from repro.evaluation.ground_truth import exact_all_pairs

    matrix, _ = inputs.corpus(250, seed=1, binary=False)
    ours = oracle.all_pairs(matrix, 0.5, "cosine")
    theirs = exact_all_pairs(matrix, 0.5, measure="cosine")
    assert ours.keys() == theirs.pair_set()
    for pair, value in theirs.similarity_map().items():
        assert ours[pair] == pytest.approx(value, abs=1e-12)
    binary, _ = inputs.corpus(250, seed=1, binary=True)
    theirs = exact_all_pairs(binary, 0.4, measure="jaccard")
    assert oracle.all_pairs(binary, 0.4, "jaccard").keys() == theirs.pair_set()


# ---------------------------------------------------------------------- #
# tiny-scale pass over every workload
# ---------------------------------------------------------------------- #
def _assert_passed(outcome, skip=()):
    failed = [check for check in outcome.checks if not check[1] and check[0] not in skip]
    assert not failed, failed
    assert outcome.attempted >= 1 and outcome.failed == 0


@pytest.mark.parametrize("traced", [False, True])
def test_tiny_join(monkeypatch, traced):
    monkeypatch.setattr(join, "N_DOCS", 300)
    monkeypatch.setattr(join, "SETUP_REPEATS", 2)
    outcome = join.run(seed=1, seconds=0.0, tracer=Tracer(enabled=traced))
    _assert_passed(outcome)
    assert set(outcome.end_to_end) == {
        "setup_s", "peak_rss_mb", "latency_ms", "throughput_per_s", "recall", "est_ok_share"
    }
    if traced:
        assert outcome.per_layer["candidates.generate_s"] > 0
        assert outcome.per_layer["verification.verify_s"] > 0


@pytest.mark.parametrize("traced", [False, True])
def test_tiny_serve_batch(monkeypatch, traced):
    monkeypatch.setattr(serve_batch, "N_INDEX", 800)
    monkeypatch.setattr(serve_batch, "N_QUERIES", 16)
    outcome = serve_batch.run(seed=1, seconds=0.0, tracer=Tracer(enabled=traced))
    _assert_passed(outcome)
    assert min(outcome.end_to_end.values()) > 0
    if traced:
        assert outcome.per_layer["candidates.probe_s.query"] > 0
        assert outcome.per_layer["serving.segments.exact_s.topk_exact"] > 0


@pytest.mark.parametrize("traced", [False, True])
def test_tiny_serve_mixed(monkeypatch, tmp_path, traced):
    monkeypatch.setattr(serve_mixed, "N_INDEX", 600)
    monkeypatch.setattr(serve_mixed, "N_PROBE", 32)
    monkeypatch.setattr(serve_mixed, "N_SPARE", 400)
    monkeypatch.setattr(serve_mixed, "RATE", 10.0)
    monkeypatch.chdir(ROOT)  # the generator resolves the socket path from the checkout
    work = Path(".perfbench") / f"test-{tmp_path.name}"  # socket paths must stay short
    work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = serve_mixed.run(seed=1, seconds=3.0, tracer=Tracer(enabled=traced), work=work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # Keeping the generator's schedule is a property of how busy the machine
    # is, not of the code; every other check must pass.
    _assert_passed(outcome, skip=[c[0] for c in outcome.checks if "schedule" in c[0]])
    assert outcome.attempted >= 20
    assert min(outcome.end_to_end.values()) > 0
    if traced:
        assert outcome.per_layer["serving.daemon.read_service_p50_ms"] > 0
        assert outcome.per_layer["serving.wal.append_s"] > 0


# ---------------------------------------------------------------------- #
# the command
# ---------------------------------------------------------------------- #
def test_benchmark_declaration_lists_every_metric_once():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    assert {"setup_s", "latency_ms"} <= set(names)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "join", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


_LEAKY_RUN = """
import json, multiprocessing, os, subprocess, time
from multiprocessing import resource_tracker
from perfbench.children import child_pids, end_children

worker = multiprocessing.get_context("spawn").Process(target=time.sleep, args=(0.01,))
worker.start()
worker.join()
tracker = resource_tracker._resource_tracker._pid
sleeper = subprocess.Popen(["sleep", "30"])
leaked = end_children(grace=5.0)
try:
    os.kill(tracker, 0)
    tracker_alive = True
except ProcessLookupError:
    tracker_alive = False
print(json.dumps({"leaked": leaked, "sleeper": sleeper.pid, "tracker": tracker,
                  "tracker_alive": tracker_alive, "left": child_pids()}))
"""


def test_end_children_stops_the_resource_tracker_and_leaked_children():
    done = subprocess.run(
        [sys.executable, "-c", _LEAKY_RUN],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["tracker"] is not None
    assert not seen["tracker_alive"]
    assert seen["leaked"] == [seen["sleeper"]]
    assert seen["left"] == []
