"""``serve-batch``: a serial ``QueryIndex`` answering whole query batches in-process.

Each sample sends one batch of held-out queries through ``query_many``,
exact ``top_k_many`` and estimate-ranked ``top_k_many``.  Probing, exact
scoring and top-k selection dominate; there is no daemon and no write.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from perfbench import inputs, layers, oracle
from perfbench.outcome import Outcome
from perfbench.stats import median, peak_rss_mb, reset_peak_rss
from perfbench.trace import children_of

N_INDEX = 8000
N_QUERIES = 256
#: distinct held-out batches a run cycles through.  Probe work differs by
#: up to ~15% between batches of 256 queries, and batch time more than that;
#: a run's median over several batches keeps one unlucky batch from setting it.
N_BATCHES = 3
THRESHOLD = 0.7
K = 10
FLOOR = 0.1  # top_k_many's default floor_threshold
DELTA = 0.05
SETUP_REPEATS = 3
MIN_SAMPLES = 3
#: call kind -> how to make the call
CALLS = {
    "query": lambda index, q: index.query_many(q),
    "topk_exact": lambda index, q: index.top_k_many(q, k=K),
    "topk_estimate": lambda index, q: index.top_k_many(q, k=K, rank_by="estimate"),
}


def build_index(matrix, seed: int):
    """The measured set-up: index a fresh collection (hash, band, post)."""
    from repro.search.query import QueryIndex
    from repro.similarity.vectors import VectorCollection

    return QueryIndex(
        VectorCollection(matrix),
        measure="cosine",
        threshold=THRESHOLD,
        verification="bayes",
        seed=seed,
    )


def _pairs(scored_lists):
    return [[(pair.j, pair.similarity) for pair in scored] for scored in scored_lists]


def _check_answers(out: Outcome, answers: dict, exact: np.ndarray, n_index: int) -> None:
    """Oracle checks on one batch's answers; records recall and estimate accuracy."""
    truth = [set(np.flatnonzero(row > THRESHOLD).tolist()) for row in exact]
    found = sum(len(truth[q] & {j for j, _ in answer}) for q, answer in enumerate(answers["query"]))
    recall = found / max(sum(len(t) for t in truth), 1)
    estimates = [(exact[q, j], s) for q, answer in enumerate(answers["query"]) for j, s in answer]
    est_ok = float(np.mean([abs(s - e) <= DELTA for e, s in estimates])) if estimates else 1.0
    out.check(
        "serve-batch: query_many recall vs brute force >= 0.9", recall >= 0.9, f"{recall:.4f}"
    )
    out.check(
        "serve-batch: query_many answers are above the threshold and unique",
        all(
            s > THRESHOLD and len({j for j, _ in answer}) == len(answer)
            for answer in answers["query"]
            for _, s in answer
        ),
    )

    worst, complete, ordered = 0.0, 0, True
    for q, answer in enumerate(answers["topk_exact"]):
        values = [s for _, s in answer]
        ordered &= len(answer) <= K and values == sorted(values, reverse=True)
        ordered &= all(s > FLOOR and 0 <= j < n_index for j, s in answer)
        for j, s in answer:
            worst = max(worst, abs(s - exact[q, j]))
        best = sorted(truth[q], key=lambda j: -exact[q, j])[:K]
        complete += len(set(best) & {j for j, _ in answer})
    wanted = sum(min(len(t), K) for t in truth)
    out.check("serve-batch: exact top-k lists are sorted, <= k, above the floor", ordered)
    out.check(
        "serve-batch: every exact top-k similarity equals brute force to 1e-12",
        worst <= 1e-12,
        f"max error {worst:.2e}",
    )
    out.check(
        "serve-batch: exact top-k finds >= 90% of the true top-k above t",
        complete >= 0.9 * wanted,
        f"{complete}/{wanted}",
    )
    ranked_ok = all(
        len(answer) <= K
        and [s for _, s in answer] == sorted((s for _, s in answer), reverse=True)
        and all(0 <= j < n_index for j, _ in answer)
        for answer in answers["topk_estimate"]
    )
    out.check("serve-batch: estimate top-k lists are sorted, <= k, valid rows", ranked_ok)
    out.named["batch_recall"] = (recall, "fraction")
    out.named["batch_est_ok_share"] = (est_ok, "fraction")


def run(seed: int, seconds: float, tracer) -> Outcome:
    """Measure batches for ``seconds``; in a traced run every other sample is traced."""
    out = Outcome()
    data = inputs.serving_inputs(N_INDEX, N_BATCHES * N_QUERIES, 0, seed, binary=False)
    batches = [data.queries[b * N_QUERIES : (b + 1) * N_QUERIES] for b in range(N_BATCHES)]
    exact = oracle.cross(data.queries, data.index, "cosine")
    with_neighbour = float(np.mean((exact > THRESHOLD).any(axis=1)))
    out.check(
        "inputs: some queries have a true neighbour at or above t",
        with_neighbour > 0,
        f"{with_neighbour:.3f} of queries",
    )
    out.named["queries_with_neighbour_share"] = (with_neighbour, "fraction")

    reset_peak_rss()
    setups, setup_spans = [], []
    for rep in range(SETUP_REPEATS):
        traced = tracer.enabled and rep % 2 == 1
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(tracer.installed(layers.install))
                setup_spans.append(stack.enter_context(tracer.span("bench.setup")))
            index = None  # release the previous build first, as a single build would
            started = time.perf_counter()
            index = build_index(data.index, seed)
            setups.append(time.perf_counter() - started)

    # One untimed pass finishes the lazy hash extension every later batch reuses.
    for call in CALLS.values():
        call(index, batches[0])

    # Answers per batch, from its first timed run; repeats must match them.
    reference: list[dict | None] = [None] * N_BATCHES
    times = {kind: [] for kind in CALLS}
    totals, traced_totals, batch_spans = [], [], []
    deadline = time.perf_counter() + seconds
    n_samples = 0
    while n_samples < max(MIN_SAMPLES, N_BATCHES) or time.perf_counter() < deadline:
        traced = tracer.enabled and n_samples % 2 == 1
        batch = n_samples % N_BATCHES
        answers = {}
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(tracer.installed(layers.install))
                batch_spans.append(stack.enter_context(tracer.span("bench.batch")))
            total = 0.0
            for kind, call in CALLS.items():
                started = time.perf_counter()
                answer = call(index, batches[batch])
                elapsed = time.perf_counter() - started
                total += elapsed
                if not traced:
                    times[kind].append(elapsed)
                answers[kind] = _pairs(answer)
                out.attempted += 1
        if reference[batch] is None:
            reference[batch] = answers
        else:
            out.failed += sum(answers[kind] != reference[batch][kind] for kind in CALLS)
        n_samples += 1
        (traced_totals if traced else totals).append(total)
    out.check("serve-batch: every repeated batch returns the identical answers", out.failed == 0)
    _check_answers(
        out,
        {kind: [row for answers in reference for row in answers[kind]] for kind in CALLS},
        exact,
        N_INDEX,
    )

    total_s = median(totals)
    out.end_to_end = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "latency_ms": total_s * 1000.0,
        "throughput_per_s": len(CALLS) * N_QUERIES / total_s,
        "recall": out.named["batch_recall"][0],
        "est_ok_share": out.named["batch_est_ok_share"][0],
    }
    for kind, samples in times.items():
        out.named[f"batch_{kind}_s"] = (median(samples), "s")
    if tracer.enabled:
        children = children_of(tracer.spans)
        calls = [call for batch in batch_spans for call in children.get(id(batch), ())]
        out.per_layer = {
            **layers.read_call_metrics(calls, children),
            **layers.setup_metrics(setup_spans, children),
            "serving.segments.n_segments": index.n_segments,
        }
        out.per_layer["trace.overhead_share"] = median(traced_totals) / total_s - 1.0
    out.info.update(samples=len(totals), traced_samples=len(traced_totals))
    return out
