"""Seeded workload inputs, all drawn from the in-repo synthetic text corpus.

Every input is a pure function of the seed.  The seed draws a random
subset (``SUBSET_SHARE``) of a fixed base corpus, in random order, and every
choice made below; the base corpus itself comes from one fixed generator
seed.  Independently generated corpora of a few thousand documents differ
by up to ~30% in join work (a handful of long documents dominate the
candidate count), which would bury the differences between two versions of
the program under differences between inputs; subsets of one corpus keep
the work per seed comparable while every seed still sees different rows,
orders, queries and hash functions.  Serving
queries are *held out* of the index — one member of each chosen planted
near-duplicate cluster, whose cluster-mates stay indexed, mixed with
background documents that have no planted neighbour — so a realistic share
of queries has true neighbours above the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

#: corpus shape shared by all workloads (the synthetic generator's defaults)
VOCABULARY = 5000
#: generator seed of the base corpus every seed draws its subset from
BASE_SEED = 0
#: share of the base corpus a seed's subset keeps
SUBSET_SHARE = 0.9
#: share of serving queries drawn from planted clusters (the rest: background)
CLUSTER_QUERY_SHARE = 0.75


def corpus(n_documents: int, seed: int, binary: bool):
    """``(matrix, cluster_labels)`` of ``n_documents`` seeded rows: tf-idf, or 0/1.

    The rows are a random subset, in random order, of a base corpus
    ``1 / SUBSET_SHARE`` times larger; tf-idf weights come from the subset.
    """
    from repro.datasets.synthetic import synthetic_text_corpus
    from repro.similarity.transforms import tfidf_weighting
    from repro.similarity.vectors import VectorCollection

    base = synthetic_text_corpus(
        n_documents=int(np.ceil(n_documents / SUBSET_SHARE)),
        vocabulary_size=VOCABULARY,
        seed=BASE_SEED,
    )
    rows = np.random.default_rng([seed, 0]).choice(
        base.collection.n_vectors, size=n_documents, replace=False
    )
    subset = VectorCollection(base.collection.matrix[rows])
    if binary:
        matrix = subset.binarized().matrix
    else:
        matrix = tfidf_weighting(subset).matrix
    return sp.csr_matrix(matrix, dtype=np.float64), base.metadata["cluster_labels"][rows]


@dataclass
class ServingInputs:
    """An index corpus, held-out queries and unseen documents for ingest."""

    index: sp.csr_matrix
    queries: sp.csr_matrix
    query_from_cluster: np.ndarray  # bool per query: a planted-cluster member
    spare: sp.csr_matrix  # never indexed; the only rows a workload may insert


def serving_inputs(
    n_index: int, n_queries: int, n_spare: int, seed: int, binary: bool
) -> ServingInputs:
    """Split one seeded corpus into index, held-out queries and spare rows."""
    total = n_index + n_queries + n_spare
    matrix, labels = corpus(total, seed, binary)
    rng = np.random.default_rng(seed)

    n_cluster_queries = int(round(CLUSTER_QUERY_SHARE * n_queries))
    clusters = np.unique(labels[labels >= 0])
    chosen = rng.choice(clusters, size=n_cluster_queries, replace=False)
    members = [np.flatnonzero(labels == cluster) for cluster in chosen]
    cluster_rows = np.array([rng.choice(group) for group in members], dtype=np.int64)
    background = rng.choice(
        np.flatnonzero(labels < 0), size=n_queries - n_cluster_queries, replace=False
    )
    query_rows = np.concatenate([cluster_rows, background])
    query_from_cluster = np.arange(n_queries) < n_cluster_queries
    order = rng.permutation(n_queries)
    query_rows, query_from_cluster = query_rows[order], query_from_cluster[order]

    rest = np.setdiff1d(np.arange(total), query_rows)
    spare_rows = np.sort(rng.choice(rest, size=n_spare, replace=False))
    index_rows = np.setdiff1d(rest, spare_rows)
    return ServingInputs(
        index=matrix[index_rows],
        queries=matrix[query_rows],
        query_from_cluster=query_from_cluster,
        spare=matrix[spare_rows],
    )


def token_lists(matrix: sp.csr_matrix) -> list[list[int]]:
    """Each row's feature ids (the wire form of a binary row)."""
    return [
        matrix.indices[matrix.indptr[row] : matrix.indptr[row + 1]].tolist()
        for row in range(matrix.shape[0])
    ]
