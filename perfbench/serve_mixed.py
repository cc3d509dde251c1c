"""``serve-mixed``: the serving daemon under reads and writes from another process.

A child process prepares the seeded inputs and a flat snapshot of a
Jaccard (minhash) index with a write-ahead log checkpoint.  The serving
process then — as the measured set-up — loads the snapshot
memory-mapped, attaches the WAL (``fsync="batch"``), starts a
:class:`~repro.serving.daemon.ServingDaemon` with its 2-worker resident pool
and waits for the first answer.  A separate generator process
(:mod:`perfbench.loadgen`) then sends about 80% reads (threshold query,
exact top-k, estimate top-k) and 20% writes (insert unseen documents,
delete live rows) over 2 connections: first an open loop at a fixed rate
well below capacity, then a closed loop that measures capacity.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from perfbench import inputs, layers, oracle
from perfbench.outcome import Outcome
from perfbench.stats import (
    median,
    peak_rss_mb,
    percentile,
    reset_peak_rss,
    supported_percentile,
)
from perfbench.trace import children_of, outermost, union_length

N_INDEX = 10000
N_PROBE = 256
N_SPARE = 1000
THRESHOLD = 0.5
K = 10
DELTA = 0.05
POOL_WORKERS = 2
CONNECTIONS = 2
#: offered rate of the open loop, well below the 45-60 ops/s closed-loop
#: capacity on a 2-core box.  Every insert re-forks the pool, and reads in
#: its wake wait ~4x longer; at 20 ops/s a third of all reads fall in that
#: wake, the read median sits between the two modes and swung 21-34 ms
#: between runs, while at 10 ops/s it held within a few percent.
RATE = 10.0
#: share of the run given to the open loop; the closed loop gets the rest
OPEN_SHARE = 0.6
READ_KINDS = ("query", "topk_exact", "topk_estimate")
WRITE_KINDS = ("insert", "delete")
#: one block of the operation mix (80% reads, 20% writes); each block of
#: the plan is a fresh shuffle of it, so every phase keeps the mix exactly
MIX_BLOCK = (
    ["query"] * 8 + ["topk_exact"] * 8 + ["topk_estimate"] * 8 + ["insert"] * 3 + ["delete"] * 3
)
DOCS_PER_INSERT = 2
ROWS_PER_DELETE = 2
SETUP_REPEATS = 3
#: the input matrices :func:`prepare` writes for the serving process
INPUTS = ("index", "queries", "spare")
#: the generator is on schedule when its dispatch lateness stays below these
LATE_P90_S, LATE_MAX_S = 0.005, 0.1
ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #
def plan(seed: int, n_a: int, n_b: int) -> tuple[list, list]:
    """The operations of both phases: each spare doc inserted and each row deleted once."""
    rng = np.random.default_rng([seed, 1])
    n_blocks = -(-(n_a + n_b) // len(MIX_BLOCK))
    kinds = [kind for _ in range(n_blocks) for kind in rng.permutation(MIX_BLOCK)]
    victims = iter(rng.permutation(N_INDEX).tolist())
    spare = iter(range(N_SPARE))
    ops = []
    for kind in kinds[: n_a + n_b]:
        op = {"kind": str(kind)}
        if kind in READ_KINDS:
            op["q"] = int(rng.integers(N_PROBE))
            op["k"] = K
        elif kind == "insert":
            op["docs"] = [next(spare) for _ in range(DOCS_PER_INSERT)]
        else:
            op["rows"] = [next(victims) for _ in range(ROWS_PER_DELETE)]
        ops.append(op)
    return ops[:n_a], ops[n_a:]


def prepare(seed: int, work: Path, sizes: tuple[int, int, int]) -> None:
    """Write the seeded inputs and a checkpointed snapshot of the index under ``work``.

    Runs in a child process: generating the corpus and building the index
    left 150-200 MB of freed-but-retained heap behind, which varied by seed
    and sat under the serving process's peak memory.  The snapshot is
    a flat layout saved with a write-ahead log attached, so it records the
    (empty) log's checkpoint position.
    """
    from repro.search.query import QueryIndex
    from repro.serving.wal import WriteAheadLog
    from repro.similarity.vectors import VectorCollection

    data = inputs.serving_inputs(*sizes, seed, binary=True)
    for name in INPUTS:
        sp.save_npz(work / f"{name}.npz", getattr(data, name))
    index = QueryIndex(
        VectorCollection(data.index),
        measure="jaccard",
        threshold=THRESHOLD,
        verification="bayes",
        seed=seed,
    )
    with WriteAheadLog(work / "wal", fsync="batch") as wal:
        index.attach_wal(wal)
        index.save(work / "snapshot", layout="flat")


def _prepared(seed: int, work: Path) -> SimpleNamespace:
    """Run :func:`prepare` in a fresh process and load the inputs it wrote."""
    # The child imports this module afresh: pass the sizes, not module state.
    child = multiprocessing.get_context("spawn").Process(
        target=prepare, args=(seed, work, (N_INDEX, N_PROBE, N_SPARE))
    )
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"input preparation failed with exit code {child.exitcode}")
    return SimpleNamespace(
        **{name: sp.csr_matrix(sp.load_npz(work / f"{name}.npz")) for name in INPUTS}
    )


# ---------------------------------------------------------------------- #
# the measured set-up
# ---------------------------------------------------------------------- #
class Serving:
    """One loaded index, its WAL, daemon and client connection."""

    def __init__(self, snapshot: Path, wal_dir: Path, socket_path: Path, first_query):
        from repro.search.query import QueryIndex
        from repro.serving.client import DaemonClient
        from repro.serving.daemon import ServingDaemon
        from repro.serving.wal import WriteAheadLog

        started = time.perf_counter()
        self.wal = WriteAheadLog(wal_dir, fsync="batch")
        self.index = QueryIndex.load(snapshot, storage="mmap", wal=self.wal)
        loaded = time.perf_counter()
        self.daemon = ServingDaemon(self.index, socket_path, pool_workers=POOL_WORKERS).start()
        try:
            self.client = DaemonClient(socket_path)
            self.client.query({"tokens": first_query})
        except BaseException:
            self.daemon.stop()
            self.index.close()
            self.wal.close()
            raise
        answered = time.perf_counter()
        self.timings = {
            "setup_s": answered - started,
            "load_s": loaded - started,
            "first_answer_s": answered - loaded,
        }

    def stop(self) -> None:
        """Close the connection, stop the daemon (and its pool), close the WAL."""
        self.client.close()
        self.daemon.stop()
        self.index.close()
        self.wal.close()


# ---------------------------------------------------------------------- #
# checks
# ---------------------------------------------------------------------- #
def _as_pairs(scored_lists):
    return [[(pair.j, pair.similarity) for pair in scored] for scored in scored_lists]


def _check_run(out: Outcome, records: list, data, corpus: sp.csr_matrix) -> None:
    """Checks on the answers the daemon gave during the run."""
    delete_acks = sorted(
        (r["done"], row)
        for r in records
        if r["kind"] == "delete" and r["ok"]
        for row in r["op_rows"]
    )
    leaked, worst, exact_reads = 0, 0.0, 0
    queries = data.queries
    for record in records:
        if record["kind"] not in READ_KINDS or not record["ok"]:
            continue
        gone = {row for done, row in delete_acks if done < record["sent"]}
        leaked += sum(row in gone for row, _ in record["rows"])
        if record["kind"] == "topk_exact" and not record.get("degraded"):
            exact_reads += 1
            rows = [row for row, _ in record["rows"]]
            if rows:
                truth = oracle.cross(queries[record["q"]], corpus[rows], "jaccard")[0]
                worst = max(
                    worst, max(abs(s - t) for (_, s), t in zip(record["rows"], truth))
                )
    out.check(
        "serve-mixed: no answer holds a row deleted before the read was sent",
        leaked == 0,
        f"{leaked} leaked",
    )
    out.check(
        "serve-mixed: every exact top-k similarity equals brute force to 1e-12",
        worst <= 1e-12,
        f"{exact_reads} exact reads, max error {worst:.2e}",
    )


def _check_final(out: Outcome, serving: Serving, records, data, snapshot, wal_dir, corpus):
    """After the load: acked writes readable, twin identical, recall vs brute force."""
    from repro.search.query import QueryIndex
    from repro.serving.wal import WriteAheadLog

    index = serving.index
    inserts = [r for r in records if r["kind"] == "insert" and r["ok"]]
    deleted = {row for r in records if r["kind"] == "delete" and r["ok"] for row in r["op_rows"]}
    n_inserted = sum(len(r["assigned"]) for r in inserts)
    out.check(
        "serve-mixed: live rows = indexed + acked inserts - acked deletes",
        index.n_alive == N_INDEX + n_inserted - len(deleted),
        f"{index.n_alive} live",
    )
    if inserts:
        assigned = [row for r in inserts for row in r["assigned"]]
        docs = corpus[assigned]
        found = index.query_many(docs)
        readable = sum(
            row in {pair.j for pair in answer}
            for row, answer, nnz in zip(assigned, found, np.diff(docs.indptr))
            if nnz
        )
        wanted = int(np.count_nonzero(np.diff(docs.indptr)))
        out.check(
            "serve-mixed: every acknowledged insert is readable",
            readable == wanted,
            f"{readable}/{wanted}",
        )

    live_query = _as_pairs(index.query_many(data.queries))
    live_topk = _as_pairs(index.top_k_many(data.queries, k=K))
    with WriteAheadLog(wal_dir, fsync="off") as wal:  # replays the whole run's log
        twin = QueryIndex.load(snapshot, storage="mmap", wal=wal)
        same = (
            _as_pairs(twin.query_many(data.queries)) == live_query
            and _as_pairs(twin.top_k_many(data.queries, k=K)) == live_topk
        )
    out.check("serve-mixed: snapshot + WAL replay answers exactly like the live index", same)
    out.check(
        "serve-mixed: no deleted row in the final answers",
        not any(j in deleted for answer in live_query + live_topk for j, _ in answer),
    )

    rows = [row for row in range(corpus.shape[0]) if row not in deleted]
    exact = oracle.cross(data.queries, corpus[rows], "jaccard")
    truth = [{rows[c] for c in np.flatnonzero(line > THRESHOLD)} for line in exact]
    position = {row: c for c, row in enumerate(rows)}
    found = sum(len(truth[q] & {j for j, _ in answer}) for q, answer in enumerate(live_query))
    recall = found / max(sum(len(t) for t in truth), 1)
    close = [
        abs(s - exact[q, position[j]]) <= DELTA
        for q, answer in enumerate(live_query)
        for j, s in answer
    ]
    out.check(
        "serve-mixed: final query recall vs brute force >= 0.9", recall >= 0.9, f"{recall:.4f}"
    )
    out.named["mixed_recall"] = (recall, "fraction")
    out.named["mixed_est_ok_share"] = (float(np.mean(close)) if close else 1.0, "fraction")


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #
def _latency_metrics(out: Outcome, records: list, report: dict) -> None:
    for group, kinds in (("read", READ_KINDS), ("write", WRITE_KINDS)):
        latencies = sorted(
            (r["done"] - r["due"]) * 1000.0 if r["ok"] else float("inf")
            for r in records
            if r["phase"] == "A" and r["kind"] in kinds
        )
        out.named[f"{group}_p50_ms"] = (percentile(latencies, 50), "ms")
        tail = supported_percentile(len(latencies))
        if tail is not None and tail > 50:
            label = f"{tail:g}".replace(".", "_")
            out.named[f"{group}_p{label}_ms"] = (percentile(latencies, tail), "ms")
        report[f"{group}_samples"] = len(latencies)


def _generator_report(out: Outcome, result: dict, n_a: int) -> dict:
    phase_a = [r for r in result["records"] if r["phase"] == "A"]
    lateness = sorted(r["dispatched"] - r["due"] for r in phase_a)
    dispatched = (len(phase_a) - 1) / (max(r["dispatched"] for r in phase_a) - result["start_a"])
    completed = sum(r["ok"] for r in phase_a) / (result["end_a"] - result["start_a"])
    report = {
        "offered_per_s": RATE,
        "dispatched_per_s": round(dispatched, 3),
        "completed_per_s": round(completed, 3),
        "late_p50_ms": round(percentile(lateness, 50) * 1000.0, 3),
        "late_p90_ms": round(percentile(lateness, 90) * 1000.0, 3),
        "late_max_ms": round(lateness[-1] * 1000.0, 3),
    }
    on_schedule = (
        len(phase_a) == n_a
        and percentile(lateness, 90) <= LATE_P90_S
        and lateness[-1] <= LATE_MAX_S
    )
    out.check(
        "serve-mixed: the open-loop generator kept its schedule (else the run is invalid)",
        on_schedule,
        json.dumps(report),
    )
    return report


def _tally(out: Outcome, records: list) -> dict:
    tally = {}
    for kind in READ_KINDS + WRITE_KINDS:
        sent = [r for r in records if r["kind"] == kind]
        ok = sum(r["ok"] for r in sent)
        tally[kind] = {"sent": len(sent), "succeeded": ok, "failed": len(sent) - ok}
    out.attempted = len(records)
    out.failed = sum(not r["ok"] for r in records)
    internal = [r["error"] for r in records if not r["ok"] and "DaemonError" in r["error"]]
    out.check(
        "serve-mixed: no request failed inside the daemon", not internal, "; ".join(internal[:3])
    )
    return tally


def _layer_metrics(tracer, serving, setups, result, counters: dict, user_bytes: int) -> dict:
    start, end = result["start_a"], result["end_b"]
    children = children_of(tracer.spans)
    setup_spans = [s for s in tracer.spans if s.name == "bench.setup"]
    spans = [s for s in tracer.spans if start <= s.start <= end]
    reads = [s for s in spans if s.name in layers.READ_CALLS]
    writes = [s for s in spans if s.name in layers.WRITE_CALLS]
    busy = union_length((s.start, s.end) for s in reads + writes)
    stats, pool = counters["daemon"], counters["pool"]
    wal_before, wal_after = counters["wal_before"], counters["wal_after"]

    def total(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name)

    def p50_ms(calls) -> float:
        return 1000.0 * percentile([call.duration for call in calls], 50)

    ingest = [
        s
        for s in spans
        if s.name == "serving.segments.append"
        and s.parent is not None
        and s.parent.name == "search.query.insert"
    ]
    return {
        **layers.read_call_metrics(reads, children),
        **layers.setup_metrics(setup_spans, children),
        "serving.snapshot.load_s": median(t["load_s"] for t in setups),
        "serving.first_answer_s": median(t["first_answer_s"] for t in setups),
        "serving.daemon.read_service_p50_ms": p50_ms(reads),
        "serving.daemon.write_service_p50_ms": p50_ms(writes),
        "serving.daemon.busy_share": busy / (end - start),
        "serving.daemon.mean_batch": stats["requests"] / max(stats["batches"], 1),
        "serving.daemon.rejected": stats["rejected_overloaded"] + stats["rejected_draining"],
        "serving.daemon.shed": stats["shed"],
        "serving.daemon.deadline_misses": stats["deadline_misses"],
        "search.executor.pool_refreshes": pool["refreshes"],
        "search.executor.pool_refresh_s": total("search.executor.pool_refresh"),
        "serving.wal.append_s": total("serving.wal.append"),
        "serving.wal.sync_s": total("serving.wal.sync"),
        "serving.wal.syncs": wal_after["syncs"] - wal_before["syncs"],
        "serving.wal.bytes_per_user_byte": (
            (wal_after["bytes"] - wal_before["bytes"]) / max(user_bytes, 1)
        ),
        "serving.segments.ingest_s": sum(s.duration for s in ingest),
        "candidates.postings_add_s": sum(
            s.duration
            for s in outermost(spans, ["candidates.postings_add"], ["candidates.postings_build"])
        ),
        "candidates.postings_rebuilds": sum(s.name == "candidates.postings_build" for s in spans),
        "serving.segments.n_segments": serving.index.n_segments,
    }


def _trace_overhead(tracer, index, queries) -> float:
    """Alternate untraced and traced probe batches on the (now serial) live index."""
    untraced, traced = [], []
    for rep in range(6):
        with contextlib.ExitStack() as stack:
            if rep % 2:
                stack.enter_context(tracer.installed(layers.install))
            started = time.perf_counter()
            index.query_many(queries)
            index.top_k_many(queries, k=K)
            (traced if rep % 2 else untraced).append(time.perf_counter() - started)
    return median(traced) / median(untraced) - 1.0


# ---------------------------------------------------------------------- #
# the workload
# ---------------------------------------------------------------------- #
def run(seed: int, seconds: float, tracer, work: Path) -> Outcome:
    """Set up, drive both load phases for ``seconds`` in total, then check everything."""
    out = Outcome()
    data = _prepared(seed, work)
    snapshot, wal_dir = work / "snapshot", work / "wal"
    exact = oracle.cross(data.queries, data.index, "jaccard")
    with_neighbour = float(np.mean((exact >= THRESHOLD).any(axis=1)))
    del exact
    out.check(
        "inputs: some queries have a true neighbour at or above t",
        with_neighbour > 0,
        f"{with_neighbour:.3f} of queries",
    )
    out.named["queries_with_neighbour_share"] = (with_neighbour, "fraction")
    seconds_a = OPEN_SHARE * seconds
    seconds_b = seconds - seconds_a
    n_a = int(RATE * seconds_a)
    phase_a, phase_b = plan(seed, n_a, int(200 * seconds_b) + 100)
    socket_path = work / "daemon.sock"
    queries = inputs.token_lists(data.queries)
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec = {
        "socket": str(socket_path),
        "connections": CONNECTIONS,
        "rate": RATE,
        "phase_b_seconds": seconds_b,
        "phase_a": phase_a,
        "phase_b": phase_b,
        "queries": queries,
        "spare": inputs.token_lists(data.spare),
    }
    spec_path.write_text(json.dumps(spec))
    del spec

    # The extra set-ups that give set-up time its median run after the load,
    # each on a fresh copy of the checkpointed (still empty) log, so the peak
    # memory below covers one serving lifetime only.
    pristine_wal = work / "wal-checkpoint"
    shutil.copytree(wal_dir, pristine_wal)
    reset_peak_rss()
    serving = None
    with contextlib.ExitStack() as stack:
        if tracer.enabled:
            stack.enter_context(tracer.installed(layers.install))
        try:
            with tracer.span("bench.setup"):
                serving = Serving(snapshot, wal_dir, socket_path, queries[0])
            setups = [serving.timings]
            counters = {"wal_before": serving.index.wal_stats()}
            generator = subprocess.Popen(
                [sys.executable, "-m", "perfbench.loadgen", str(spec_path), str(result_path)],
                cwd=ROOT,
                env={**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])},
                stdout=subprocess.DEVNULL,
            )
            try:
                status = generator.wait(timeout=seconds + 120)
            finally:
                if generator.poll() is None:
                    generator.kill()
                    generator.wait()
            rss = peak_rss_mb()  # the serving process's peak, before reading results
            if status != 0:
                raise RuntimeError(f"load generator exited with status {status}")
            counters.update(
                daemon=serving.client.stats(),
                pool=serving.index.pool_stats(),
                wal_after=serving.index.wal_stats(),
            )
        finally:
            if serving is not None:
                serving.stop()
        for rep in range(1, SETUP_REPEATS):
            rep_wal = work / f"wal-setup-{rep}"
            shutil.copytree(pristine_wal, rep_wal)
            with tracer.span("bench.setup"):
                extra = Serving(snapshot, rep_wal, socket_path, queries[rep])
            extra.stop()
            setups.append(extra.timings)

    result = json.loads(result_path.read_text())
    records = result["records"]
    ops = {"A": phase_a, "B": phase_b}
    for record in records:  # attach the payload fields the checks need
        op = ops[record["phase"]][record["i"]]
        record.update(q=op.get("q"), op_rows=op.get("rows", []), docs=op.get("docs", []))
    # Every row the index ever held, by row number: the corpus, then each
    # acknowledged insert's documents at the rows the daemon assigned.
    inserted = sorted(
        (row, doc)
        for r in records
        if r["kind"] == "insert" and r["ok"]
        for row, doc in zip(r["assigned"], r["docs"])
    )
    out.check(
        "serve-mixed: inserts were assigned consecutive new rows",
        [row for row, _ in inserted] == list(range(N_INDEX, N_INDEX + len(inserted))),
    )
    corpus = sp.vstack([data.index] + [data.spare[doc] for _, doc in inserted], format="csr")

    tally = _tally(out, records)
    report = _generator_report(out, result, n_a)
    _check_run(out, records, data, corpus)
    _check_final(out, serving, records, data, snapshot, wal_dir, corpus)
    _latency_metrics(out, records, report)

    closed = [r for r in records if r["phase"] == "B" and r["ok"] and r["done"] <= result["end_b"]]
    ops_per_s = len(closed) / (result["end_b"] - result["start_b"])
    out.named["mixed_ops_per_s"] = (ops_per_s, "ops/s")
    out.end_to_end = {
        "setup_s": median(t["setup_s"] for t in setups),
        "peak_rss_mb": rss,
        "latency_ms": out.named["read_p50_ms"][0],
        "throughput_per_s": ops_per_s,
        "recall": out.named["mixed_recall"][0],
        "est_ok_share": out.named["mixed_est_ok_share"][0],
    }
    out.info.update(generator=report, requests=tally)
    if tracer.enabled:
        user_bytes = 12 * sum(data.spare[doc].nnz for _, doc in inserted)
        out.per_layer = _layer_metrics(tracer, serving, setups, result, counters, user_bytes)
    if tracer.enabled:
        out.per_layer["trace.overhead_share"] = _trace_overhead(tracer, serving.index, data.queries)
    return out
