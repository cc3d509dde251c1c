"""Which public calls of each layer the traced run wraps, and under what span name.

Layers are the package's modules: ``hashing``, ``candidates``, ``core``,
``verification``, ``search`` (engine, executor, query) and ``serving``
(segments, snapshot, wal).  Span names start with the layer.  Every traced
run installs the same wrappers; a layer a workload never calls records no
spans, and the metrics read from it are 0 on that workload.
"""

from __future__ import annotations

import weakref

from perfbench.stats import median
from perfbench.trace import descendants, self_time, time_in

#: the read entry points of the serving index: span name -> call kind
READ_KINDS = {
    "search.query.query_many": "query",
    "search.query.top_k_many.exact": "topk_exact",
    "search.query.top_k_many.estimate": "topk_estimate",
}
READ_CALLS = tuple(READ_KINDS)
WRITE_CALLS = ("search.query.insert", "search.query.delete")
_HASH_QUERIES = ("hashing.clone_for", "hashing.signatures.query")
#: stage metrics of each read call kind: metric prefix -> spans it times
STAGES = {
    "query": {
        "hashing.query_hash_s": _HASH_QUERIES,
        "candidates.probe_s": ("candidates.probe",),
        "serving.segments.count_matches_s": ("serving.segments.count_matches_cross",),
        "core.decide_s": ("core.decide",),
    },
    "topk_exact": {
        "hashing.query_hash_s": _HASH_QUERIES,
        "candidates.probe_s": ("candidates.probe",),
        "serving.segments.exact_s": ("serving.segments.cross_similarities",),
    },
    "topk_estimate": {
        "hashing.query_hash_s": _HASH_QUERIES,
        "candidates.probe_s": ("candidates.probe",),
        "serving.segments.count_matches_s": ("serving.segments.count_matches_cross",),
        "core.decide_s": ("core.decide",),
    },
}


def read_call_metrics(calls, children: dict) -> dict:
    """Per read-call kind, the median over calls of each stage's time and of self time.

    Also the probe's pairs per ``query_many`` call and the share of those
    pairs that came back as answers (counted over calls probed in this
    process; a resident pool probes in its workers).
    """
    samples: dict[str, list] = {}
    for call in calls:
        kind = READ_KINDS[call.name]
        for prefix, names in STAGES[kind].items():
            samples.setdefault(f"{prefix}.{kind}", []).append(time_in(call, names, children))
        samples.setdefault(f"search.query.self_s.{kind}", []).append(self_time(call, children))
    metrics = {name: median(values) for name, values in samples.items()}
    probed = []
    for call in calls:
        if call.name == "search.query.query_many":
            pairs = sum(
                span.counts["pairs"]
                for span in descendants(call, children)
                if span.name == "candidates.probe"
            )
            if pairs:
                probed.append((pairs, call.counts["answers"]))
    if probed:
        metrics["candidates.probe_pairs"] = median(pairs for pairs, _ in probed)
        metrics["search.query.answer_share"] = sum(a for _, a in probed) / sum(p for p, _ in probed)
    return metrics


def setup_metrics(setups, children: dict) -> dict:
    """Median over set-up spans of the time spent sealing segments and building postings."""
    return {
        "serving.segments.append_s": median(
            time_in(span, "serving.segments.append", children) for span in setups
        ),
        "candidates.postings_build_s": median(
            time_in(span, "candidates.postings_build", children) for span in setups
        ),
    }


def _top_k_name(args, kwargs) -> str:
    rank_by = kwargs.get("rank_by", args[4] if len(args) > 4 else "exact")
    return f"search.query.top_k_many.{rank_by}"


def _answers(args, kwargs, result) -> dict:
    return {"answers": sum(len(scored) for scored in result)}


def _probe_pairs(args, kwargs, result) -> dict:
    return {"pairs": len(result[0])}


def _candidates(args, kwargs, result) -> dict:
    return {
        "candidates": len(result),
        "score_accumulations": result.metadata.get("n_score_accumulations", 0),
    }


def install(tracer) -> None:
    """Wrap the instrumented calls of every layer with ``tracer`` spans."""
    from repro.candidates.allpairs import AllPairsGenerator
    from repro.candidates.base import CandidateSet
    from repro.candidates.lsh_index import BandPostings
    from repro.core.concentration_cache import ConcentrationCache
    from repro.core.min_matches import MinMatchesTable
    from repro.core.posteriors import PosteriorModel
    from repro.hashing.base import HashFamily
    from repro.hashing.minhash import MinHashFamily  # noqa: F401  (registers subclass)
    from repro.hashing.signatures import SignatureStore
    from repro.hashing.simhash import SimHashFamily  # noqa: F401  (registers subclass)
    from repro.search.engine import SearchEngine
    from repro.search.executor import ResidentServingPool
    from repro.search.query import QueryIndex
    from repro.serving.segments import SegmentedCollection
    from repro.serving.wal import WriteAheadLog
    from repro.verification.bayes import BayesLSHVerifier

    # A family cloned inside a read call hashes that call's query batch.
    query_families = weakref.WeakSet()

    def note_query_family(args, kwargs, result) -> dict:
        if tracer.inside(READ_CALLS):
            query_families.add(result)
        return {}

    def signatures_name(args, kwargs) -> str:
        return "hashing.signatures.query" if args[0] in query_families else "hashing.signatures"

    tracer.wrap(HashFamily, "signatures", signatures_name)
    tracer.wrap_hierarchy(HashFamily, "clone_for", "hashing.clone_for", note_query_family)
    tracer.wrap_hierarchy(SignatureStore, "count_matches_rounds", "hashing.count_matches_rounds")

    tracer.wrap(AllPairsGenerator, "generate", "candidates.generate", _candidates)
    tracer.wrap(CandidateSet, "from_arrays", "candidates.dedup")
    tracer.wrap(BandPostings, "probe_many", "candidates.probe", _probe_pairs)
    tracer.wrap(BandPostings, "build", "candidates.postings_build")
    tracer.wrap(BandPostings, "add", "candidates.postings_add")

    tracer.wrap(MinMatchesTable, "passes_many", "core.decide")
    tracer.wrap(ConcentrationCache, "is_concentrated_many", "core.decide")
    tracer.wrap_hierarchy(PosteriorModel, "map_estimate_many", "core.decide")

    tracer.wrap(BayesLSHVerifier, "verify", "verification.verify")

    tracer.wrap(SearchEngine, "run", "search.engine.run")
    tracer.wrap(QueryIndex, "query_many", "search.query.query_many", _answers)
    tracer.wrap(QueryIndex, "top_k_many", _top_k_name, _answers)
    tracer.wrap(QueryIndex, "insert", "search.query.insert")
    tracer.wrap(QueryIndex, "delete", "search.query.delete")
    tracer.wrap(QueryIndex, "load", "serving.snapshot.load")
    tracer.wrap(ResidentServingPool, "refresh", "search.executor.pool_refresh")

    tracer.wrap(SegmentedCollection, "append", "serving.segments.append")
    tracer.wrap(SegmentedCollection, "count_matches_cross", "serving.segments.count_matches_cross")
    tracer.wrap(SegmentedCollection, "cross_similarities", "serving.segments.cross_similarities")

    tracer.wrap(WriteAheadLog, "append_insert", "serving.wal.append")
    tracer.wrap(WriteAheadLog, "append_delete", "serving.wal.append")
    # Every fsync — explicit sync() and the batch policy's periodic one
    # inside an append — goes through this one private method.
    tracer.wrap(WriteAheadLog, "_sync_locked", "serving.wal.sync")
