"""Scalar reference implementations of the vectorised hot paths.

Every batched kernel in the library (signature generation, the posterior
``*_many`` queries, the round-synchronous verification loops, the
array-based candidate generators) is required to be
**bit-identical** to a straightforward scalar formulation — same seeds give
same signatures, same prune/emit decisions, same candidate pairs and the
same bookkeeping counters.  This module holds those scalar formulations:
direct ports of the original one-row-at-a-time / one-pair-at-a-time loops,
kept as the executable specification that
``tests/property/test_vectorised_equivalence.py`` checks the production
kernels against on randomised inputs.

Nothing here is exported for production use; these functions trade every
optimisation for obviousness.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.core.bayeslsh import VerificationOutput
from repro.core.concentration_cache import ConcentrationCache
from repro.core.min_matches import MinMatchesTable
from repro.core.params import BayesLSHLiteParams, BayesLSHParams
from repro.core.posteriors import PosteriorModel
from repro.hashing.minhash import _PRIME, MinHashFamily
from repro.hashing.signatures import SignatureStore
from repro.hashing.simhash import SimHashFamily
from repro.similarity.measures import get_measure
from repro.similarity.vectors import VectorCollection

__all__ = [
    "minhash_signatures_reference",
    "simhash_bits_reference",
    "concentration_decisions_reference",
    "map_estimates_reference",
    "prob_above_threshold_reference",
    "bayeslsh_verify_reference",
    "lite_verify_reference",
    "lsh_candidates_reference",
    "allpairs_candidates_reference",
    "ppjoin_candidates_reference",
]


# --------------------------------------------------------------------- #
# hashing
# --------------------------------------------------------------------- #
def minhash_signatures_reference(family: MinHashFamily, n_hashes: int) -> np.ndarray:
    """Row-at-a-time minwise signatures for ``family``'s first ``n_hashes`` functions."""
    coef_a, coef_b = family.coefficients(n_hashes)
    collection = family.collection
    values = np.empty((collection.n_vectors, n_hashes), dtype=np.int64)
    for row in range(collection.n_vectors):
        features = collection.row_features(row)
        if len(features) == 0:
            values[row, :] = -(row + 1)
            continue
        feats = features.astype(np.int64) % _PRIME
        permuted = (coef_a[:, None] * feats[None, :] + coef_b[:, None]) % _PRIME
        values[row, :] = permuted.min(axis=1)
    return values


def simhash_bits_reference(family: SimHashFamily, n_hashes: int) -> np.ndarray:
    """Row-at-a-time signed-random-projection bits for ``family``."""
    directions = family.projections.columns(0, n_hashes)
    collection = family.collection
    bits = np.empty((collection.n_vectors, n_hashes), dtype=np.uint8)
    for row in range(collection.n_vectors):
        products = collection.row(row) @ directions
        bits[row, :] = (np.asarray(products).ravel() >= 0.0).astype(np.uint8)
    return bits


# --------------------------------------------------------------------- #
# posterior queries
# --------------------------------------------------------------------- #
def concentration_decisions_reference(
    posterior: PosteriorModel, matches, n: int, delta: float, gamma: float
) -> np.ndarray:
    """Pair-at-a-time concentration decisions (Equation 6 per match count)."""
    return np.array(
        [
            posterior.concentration_probability(int(m), int(n), delta) >= 1.0 - gamma
            for m in np.asarray(matches)
        ],
        dtype=bool,
    )


def map_estimates_reference(posterior: PosteriorModel, matches, hashes) -> np.ndarray:
    """Pair-at-a-time MAP estimates (Equation 4 per ``(m, n)``)."""
    return np.array(
        [
            posterior.map_estimate(int(m), int(n))
            for m, n in zip(np.asarray(matches), np.asarray(hashes))
        ],
        dtype=np.float64,
    )


def prob_above_threshold_reference(
    posterior: PosteriorModel, matches, n: int, threshold: float
) -> np.ndarray:
    """Pair-at-a-time pruning probabilities (Equation 3 per match count)."""
    return np.array(
        [posterior.prob_above_threshold(int(m), int(n), threshold) for m in np.asarray(matches)],
        dtype=np.float64,
    )


# --------------------------------------------------------------------- #
# verification loops (Algorithms 1 and 2)
# --------------------------------------------------------------------- #
def _prune_loop_reference(
    hashes: np.ndarray, left, right, k: int, n_rounds: int, min_matches, concentration
):
    """Algorithm 1's per-pair loop, one pair at a time.

    ``hashes`` is a dense ``(n_vectors, n_hashes)`` matrix of per-hash
    values; a pair's matches over a round are its equal entries.  Returns
    per-pair ``(pruned, matches, hashes seen, rounds examined, prune
    round)`` lists, with prune round ``None`` for pairs never pruned.
    """
    outcomes = []
    for i, j in zip(np.asarray(left).tolist(), np.asarray(right).tolist()):
        m = n = rounds = 0
        pruned_at = None
        for round_index in range(n_rounds):
            lo, n = n, n + k
            m += int(np.count_nonzero(hashes[i, lo:n] == hashes[j, lo:n]))
            rounds += 1
            if not min_matches.passes(m, n):
                pruned_at = round_index
                break
            if concentration is not None and concentration.is_concentrated(m, n):
                break
        outcomes.append((pruned_at is not None, m, n, rounds, pruned_at))
    return outcomes


def _round_trace_reference(outcomes, k: int) -> list[tuple[int, int]]:
    """The round-synchronous ``(hashes, not yet pruned)`` trace of per-pair outcomes.

    A round-synchronous run executes round ``r`` while any pair is still
    active at its start, i.e. while some pair examined more than ``r``
    rounds.
    """
    n_rounds = max((rounds for *_, rounds, _ in outcomes), default=0)
    return [
        (
            (r + 1) * k,
            sum(1 for *_, pruned_at in outcomes if pruned_at is None or pruned_at > r),
        )
        for r in range(n_rounds)
    ]


def bayeslsh_verify_reference(
    hashes: np.ndarray, posterior: PosteriorModel, params: BayesLSHParams, left, right
) -> VerificationOutput:
    """Pair-at-a-time BayesLSH (Algorithm 1) with the scalar decision tables.

    Prunes with :meth:`MinMatchesTable.passes`, emits with
    :meth:`ConcentrationCache.is_concentrated` and reports
    :meth:`PosteriorModel.map_estimate` for every pair not pruned.
    """
    min_matches = MinMatchesTable(
        posterior, params.threshold, params.epsilon, params.k, params.max_hashes
    )
    concentration = ConcentrationCache(posterior, params.delta, params.gamma)
    outcomes = _prune_loop_reference(
        hashes, left, right, params.k, params.n_rounds, min_matches, concentration
    )
    kept = [index for index, outcome in enumerate(outcomes) if not outcome[0]]
    return VerificationOutput(
        left=np.asarray(left, dtype=np.int64)[kept],
        right=np.asarray(right, dtype=np.int64)[kept],
        estimates=np.array(
            [
                posterior.map_estimate(outcomes[index][1], outcomes[index][2])
                if outcomes[index][2]
                else 0.0
                for index in kept
            ],
            dtype=np.float64,
        ),
        n_candidates=len(outcomes),
        n_pruned=len(outcomes) - len(kept),
        trace=_round_trace_reference(outcomes, params.k),
        hash_comparisons=sum(rounds for *_, rounds, _ in outcomes) * params.k,
    )


def lite_verify_reference(
    hashes: np.ndarray,
    posterior: PosteriorModel,
    params: BayesLSHLiteParams,
    exact_similarity,
    left,
    right,
) -> VerificationOutput:
    """Pair-at-a-time BayesLSH-Lite (Algorithm 2) with the scalar pruning table.

    Pairs surviving ``h`` hashes of :meth:`MinMatchesTable.passes` pruning
    are output when ``exact_similarity(i, j)`` exceeds the threshold.
    """
    min_matches = MinMatchesTable(
        posterior, params.threshold, params.epsilon, params.k, params.h
    )
    outcomes = _prune_loop_reference(
        hashes, left, right, params.k, params.n_rounds, min_matches, None
    )
    out_left, out_right, values = [], [], []
    n_exact = 0
    for i, j, outcome in zip(np.asarray(left).tolist(), np.asarray(right).tolist(), outcomes):
        if outcome[0]:
            continue
        n_exact += 1
        value = exact_similarity(i, j)
        if value > params.threshold:
            out_left.append(i)
            out_right.append(j)
            values.append(value)
    return VerificationOutput(
        left=np.array(out_left, dtype=np.int64),
        right=np.array(out_right, dtype=np.int64),
        estimates=np.array(values, dtype=np.float64),
        n_candidates=len(outcomes),
        n_pruned=len(outcomes) - n_exact,
        trace=_round_trace_reference(outcomes, params.k),
        hash_comparisons=sum(rounds for *_, rounds, _ in outcomes) * params.k,
        exact_computations=n_exact,
    )


# --------------------------------------------------------------------- #
# candidate generation
# --------------------------------------------------------------------- #
def lsh_candidates_reference(
    store: SignatureStore, rows: np.ndarray, n_signatures: int, signature_width: int
) -> tuple[set[tuple[int, int]], int]:
    """Dict-of-buckets LSH banding: ``(candidate pairs, raw collision count)``."""
    pairs: set[tuple[int, int]] = set()
    n_raw_collisions = 0
    for band in range(n_signatures):
        buckets: dict[bytes, list[int]] = defaultdict(list)
        for row in rows:
            buckets[store.band_key(int(row), band, signature_width)].append(int(row))
        for bucket_rows in buckets.values():
            for a_index in range(len(bucket_rows)):
                for b_index in range(a_index + 1, len(bucket_rows)):
                    i, j = bucket_rows[a_index], bucket_rows[b_index]
                    n_raw_collisions += 1
                    pairs.add((i, j) if i < j else (j, i))
    return pairs, n_raw_collisions


def allpairs_candidates_reference(
    collection: VectorCollection, measure, threshold: float
) -> tuple[set[tuple[int, int]], dict]:
    """Sequential AllPairs with per-feature Python lists (Bayardo et al.)."""
    measure = get_measure(measure)
    prepared = measure.prepare(collection).normalized()
    n_vectors = prepared.n_vectors
    if n_vectors < 2:
        return set(), {"n_score_accumulations": 0, "index_entries": 0}
    matrix = prepared.matrix
    n_features = prepared.n_features

    feature_counts = np.asarray((matrix != 0).sum(axis=0)).ravel()
    feature_order = np.argsort(-feature_counts, kind="stable")
    feature_rank = np.empty(n_features, dtype=np.int64)
    feature_rank[feature_order] = np.arange(n_features)

    max_weight_dim = np.zeros(n_features, dtype=np.float64)
    coo = matrix.tocoo()
    np.maximum.at(max_weight_dim, coo.col, coo.data)

    vector_order = np.argsort(-prepared.max_weights, kind="stable")
    index_rows: list[list[int]] = [[] for _ in range(n_features)]
    index_weights: list[list[float]] = [[] for _ in range(n_features)]
    pairs: set[tuple[int, int]] = set()
    n_score_accumulations = 0

    for x in vector_order:
        x = int(x)
        features = prepared.row_features(x)
        weights = prepared.row_values(x)
        if len(features) == 0:
            continue
        order = np.argsort(feature_rank[features], kind="stable")
        features = features[order]
        weights = weights[order]

        scores: dict[int, float] = {}
        for feature, weight in zip(features, weights):
            for y, y_weight in zip(index_rows[feature], index_weights[feature]):
                scores[y] = scores.get(y, 0.0) + weight * y_weight
                n_score_accumulations += 1
        for y in scores:
            pairs.add((x, y) if x < y else (y, x))

        bound = 0.0
        x_max_weight = float(prepared.max_weights[x])
        for feature, weight in zip(features, weights):
            bound += float(weight) * min(float(max_weight_dim[feature]), x_max_weight)
            if bound >= threshold:
                index_rows[feature].append(x)
                index_weights[feature].append(float(weight))

    metadata = {
        "n_score_accumulations": n_score_accumulations,
        "index_entries": int(sum(len(rows) for rows in index_rows)),
    }
    return pairs, metadata


def _minimum_overlap_reference(measure_name: str, threshold, size_x: int, size_y: int) -> float:
    import math

    if measure_name == "jaccard":
        return threshold / (1.0 + threshold) * (size_x + size_y)
    return threshold * math.sqrt(size_x * size_y)


def ppjoin_candidates_reference(
    collection: VectorCollection,
    measure,
    threshold: float,
    use_positional_filter: bool = True,
    use_suffix_filter: bool = True,
) -> tuple[set[tuple[int, int]], dict]:
    """Sequential PPJoin/PPJoin+ with a dict-based prefix index (Xiao et al.)."""
    import math

    measure = get_measure(measure)
    prepared = measure.prepare(collection)
    n_vectors = prepared.n_vectors
    empty_meta = {
        "n_prefix_collisions": 0,
        "n_filtered_positional": 0,
        "n_filtered_suffix": 0,
    }
    if n_vectors < 2:
        return set(), empty_meta

    binary = prepared.binarized().matrix
    token_counts = np.asarray(binary.sum(axis=0)).ravel()
    token_rank = np.argsort(np.argsort(token_counts, kind="stable"), kind="stable")

    records: list[np.ndarray] = []
    for row in range(n_vectors):
        features = prepared.row_features(row)
        order = np.argsort(token_rank[features], kind="stable")
        records.append(token_rank[features][order].astype(np.int64))
    sizes = np.array([len(tokens) for tokens in records], dtype=np.int64)
    processing_order = np.argsort(sizes, kind="stable")

    def length_bounds(size_x: int) -> float:
        if measure.name == "jaccard":
            return threshold * size_x
        return threshold * threshold * size_x

    def prefix_length(size_x: int) -> int:
        if measure.name == "jaccard":
            min_overlap_with_self = math.ceil(threshold * size_x)
        else:
            min_overlap_with_self = math.ceil(threshold * threshold * size_x)
        return max(1, size_x - min_overlap_with_self + 1)

    def suffix_overlap_bound(tokens_x, tokens_y, position_x, position_y) -> int:
        suffix_x = tokens_x[position_x + 1 :]
        suffix_y = tokens_y[position_y + 1 :]
        if len(suffix_x) == 0 or len(suffix_y) == 0:
            return 0
        if suffix_x[-1] < suffix_y[0] or suffix_y[-1] < suffix_x[0]:
            return 0
        return min(len(suffix_x), len(suffix_y))

    index: dict[int, list[tuple[int, int]]] = defaultdict(list)
    pairs: set[tuple[int, int]] = set()
    n_prefix_collisions = 0
    n_filtered_positional = 0
    n_filtered_suffix = 0

    for x in processing_order:
        x = int(x)
        tokens_x = records[x]
        size_x = len(tokens_x)
        if size_x == 0:
            continue
        lower = length_bounds(size_x)
        prefix_x = prefix_length(size_x)

        scores: dict[int, bool] = {}
        for position_x in range(prefix_x):
            token = int(tokens_x[position_x])
            for y, position_y in index[token]:
                if y in scores:
                    continue
                size_y = len(records[y])
                if size_y < lower:
                    continue
                n_prefix_collisions += 1
                alpha = _minimum_overlap_reference(measure.name, threshold, size_x, size_y)
                if use_positional_filter:
                    overlap_bound = 1 + min(size_x - position_x - 1, size_y - position_y - 1)
                    if overlap_bound < alpha:
                        n_filtered_positional += 1
                        continue
                if use_suffix_filter:
                    suffix_bound = 1 + suffix_overlap_bound(
                        tokens_x, records[y], position_x, position_y
                    )
                    if suffix_bound < alpha:
                        n_filtered_suffix += 1
                        continue
                scores[y] = True
        for y in scores:
            pairs.add((x, y) if x < y else (y, x))

        for position_x in range(prefix_x):
            index[int(tokens_x[position_x])].append((x, position_x))

    metadata = {
        "n_prefix_collisions": n_prefix_collisions,
        "n_filtered_positional": n_filtered_positional,
        "n_filtered_suffix": n_filtered_suffix,
    }
    return pairs, metadata
