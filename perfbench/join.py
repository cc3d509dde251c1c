"""``join``: offline all-pairs search with AllPairs + BayesLSH (the paper's own use).

Each sample builds the pipeline (set-up) and runs one join over a seeded
tf-idf corpus.  Candidate generation and verification do all the work;
no serving layer is touched.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from perfbench import inputs, layers, oracle
from perfbench.outcome import Outcome
from perfbench.stats import median, peak_rss_mb, reset_peak_rss
from perfbench.trace import children_of, descendants, time_in

N_DOCS = 3000
THRESHOLD = 0.7
#: the BayesLSH accuracy contract: P[|estimate - s| > DELTA] < GAMMA per pair
DELTA, GAMMA = 0.05, 0.03
#: extra pipeline builds per run, so set-up has a median over many samples
SETUP_REPEATS = 15
MIN_SAMPLES = 3


def _build(collection, seed):
    from repro.search.pipelines import make_pipeline

    return make_pipeline(
        "ap_bayeslsh", collection, measure="cosine", threshold=THRESHOLD, seed=seed
    )


def _round1_pruned_share(result) -> float:
    trace = [entry for entry in result.metadata["prune_trace"] if entry[0] > 0]
    if not trace or not result.n_candidates:
        return 0.0
    return 1.0 - trace[0][1] / result.n_candidates


def _layer_metrics(sample, result, children) -> dict:
    below = list(descendants(sample, children))
    generate = [span for span in below if span.name == "candidates.generate"]
    verify = [span for span in below if span.name == "verification.verify"]
    return {
        "candidates.generate_s": sum(span.duration for span in generate),
        "candidates.dedup_s": time_in(sample, "candidates.dedup", children),
        "candidates.score_accumulations": sum(
            span.counts["score_accumulations"] for span in generate
        ),
        "candidates.n_candidates": result.n_candidates,
        "verification.verify_s": sum(span.duration for span in verify),
        "hashing.extend_s": sum(
            time_in(span, "hashing.signatures", children) for span in verify
        ),
        "hashing.count_matches_s": time_in(sample, "hashing.count_matches_rounds", children),
        "core.decide_s": time_in(sample, "core.decide", children),
        "verification.hash_comparisons": result.metadata["hash_comparisons"],
        "verification.round1_pruned_share": _round1_pruned_share(result),
        "verification.candidates_per_output": result.n_candidates / max(len(result), 1),
    }


def _check_answer(out: Outcome, result, matrix, truth: dict) -> None:
    left, right = result.left, result.right
    keys = left * matrix.shape[0] + right
    out.check(
        "join: pairs are ordered and unique",
        bool(np.all(left < right)) and len(np.unique(keys)) == len(keys),
    )
    reported = set(zip(left.tolist(), right.tolist()))
    recall = len(reported & truth.keys()) / max(len(truth), 1)
    exact = oracle.pair_similarities(matrix, left, right, "cosine")
    errors = float(np.mean(np.abs(result.similarities - exact) > DELTA)) if len(left) else 0.0
    out.check("join: recall vs brute force >= 0.9", recall >= 0.9, f"{recall:.4f}")
    # BayesLSH promises P[|estimate - s| > DELTA] < GAMMA per pair; the
    # measured share is the est_ok_share metric.  The check only catches
    # estimates that have come loose from the similarities altogether.
    out.check(
        f"join: estimates within {DELTA} of the exact similarity for >= 90% of pairs",
        errors <= 0.1,
        f"{errors:.4f} off (gamma={GAMMA})",
    )
    below = float(np.mean(exact < THRESHOLD - DELTA)) if len(left) else 0.0
    out.check(
        f"join: reported pairs below t-{DELTA} stay under gamma",
        below <= GAMMA,
        f"{below:.4f}",
    )
    out.info.update(
        reported_pairs=len(reported),
        true_pairs=len(truth),
        candidates=int(result.n_candidates),
    )
    out.named["join_recall"] = (recall, "fraction")
    out.named["join_est_err_share"] = (errors, "fraction")


def run(seed: int, seconds: float, tracer) -> Outcome:
    """Measure joins for ``seconds``; in a traced run every other sample is traced."""
    from repro.similarity.vectors import VectorCollection

    out = Outcome()
    matrix, _ = inputs.corpus(N_DOCS, seed, binary=False)
    truth = oracle.all_pairs(matrix, THRESHOLD, "cosine")
    out.check("inputs: corpus has pairs above the threshold", len(truth) > 0, str(len(truth)))
    # A fresh collection per build, so set-up pays the measure's row
    # preparation as a first build over new data does.
    _build(VectorCollection(matrix), seed)  # the first build pays lazy imports

    reset_peak_rss()
    setups, joins, traced_joins, layer_samples = [], [], [], []
    for _ in range(SETUP_REPEATS):
        collection = VectorCollection(matrix)
        started = time.perf_counter()
        _build(collection, seed)
        setups.append(time.perf_counter() - started)
    first = None
    deadline = time.perf_counter() + seconds
    while out.attempted < MIN_SAMPLES or time.perf_counter() < deadline:
        traced = tracer.enabled and out.attempted % 2 == 1
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(tracer.installed(layers.install))
                sample = stack.enter_context(tracer.span("bench.join"))
            collection = VectorCollection(matrix)
            started = time.perf_counter()
            engine = _build(collection, seed)
            built = time.perf_counter()
            result = engine.run(collection)
            finished = time.perf_counter()
        out.attempted += 1
        if traced:
            traced_joins.append(finished - built)
        else:
            setups.append(built - started)
            joins.append(finished - built)
        if first is None:
            first = result
            _check_answer(out, result, matrix, truth)
        elif not (
            np.array_equal(result.left, first.left)
            and np.array_equal(result.right, first.right)
            and np.array_equal(result.similarities, first.similarities)
        ):
            out.failed += 1
        if traced:
            layer_samples.append(_layer_metrics(sample, result, children_of(tracer.spans)))
    out.check("join: every repeat returns the identical answer", out.failed == 0)

    join_s = median(joins)
    out.end_to_end = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "latency_ms": join_s * 1000.0,
        "throughput_per_s": N_DOCS / join_s,
        "recall": out.named["join_recall"][0],
        "est_ok_share": 1.0 - out.named["join_est_err_share"][0],
    }
    out.named["join_s"] = (join_s, "s")
    if layer_samples:
        out.per_layer = {
            name: median(sample[name] for sample in layer_samples)
            for name in layer_samples[0]
        }
        out.per_layer["trace.overhead_share"] = median(traced_joins) / join_s - 1.0
    out.info.update(samples=len(joins), traced_samples=len(traced_joins))
    return out
