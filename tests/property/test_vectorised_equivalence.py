"""Equivalence of the batched kernels and their scalar references.

The vectorisation contract: every batched hot-path kernel must be
*bit-identical* to the retained scalar formulation in :mod:`repro.reference`
— same seeds give same signatures, same prune/emit decisions, same candidate
pairs and the same bookkeeping counters.  These tests check that contract on
randomised inputs (random collections, random match counts, random
thresholds) so a future "optimisation" that changes results gets caught.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import reference
from repro.candidates.allpairs import AllPairsGenerator
from repro.candidates.arrayops import pairs_within_groups, ragged_arange
from repro.candidates.lsh_index import LSHGenerator
from repro.candidates.ppjoin import PPJoinGenerator
from repro.core.bayeslsh import BayesLSH
from repro.core.concentration_cache import ConcentrationCache
from repro.core.lite import BayesLSHLite
from repro.core.params import BayesLSHLiteParams, BayesLSHParams
from repro.core.posteriors import (
    BetaPosterior,
    GridCollisionPosterior,
    TruncatedCollisionPosterior,
)
from repro.core.priors import BetaPrior
from repro.hashing.minhash import MinHashFamily
from repro.hashing.simhash import SimHashFamily
from repro.similarity.measures import get_measure
from repro.similarity.vectors import VectorCollection

_SETTINGS = settings(max_examples=15, deadline=None)

_POSTERIORS = [
    BetaPosterior(),
    BetaPosterior(BetaPrior(2.5, 7.0)),
    TruncatedCollisionPosterior(),
]


def _random_sets_collection(seed: int, n_rows: int = 40, universe: int = 60):
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(n_rows):
        size = int(rng.integers(0, 16))
        sets.append(set(rng.choice(universe, size=min(size, universe), replace=False).tolist()))
    return VectorCollection.from_sets(sets, n_features=universe)


def _random_weighted_collection(seed: int, n_rows: int = 35, n_features: int = 30):
    rng = np.random.default_rng(seed)
    dense = rng.random((n_rows, n_features)) * (rng.random((n_rows, n_features)) < 0.35)
    return VectorCollection.from_dense(dense)


class TestSignatureEquivalence:
    @_SETTINGS
    @given(st.integers(min_value=0, max_value=10_000))
    def test_minhash_matches_scalar_reference(self, seed):
        collection = _random_sets_collection(seed)
        family = MinHashFamily(collection, seed=seed % 257)
        store = family.signatures(96)
        expected = reference.minhash_signatures_reference(family, store.n_hashes)
        np.testing.assert_array_equal(np.asarray(store.values, dtype=np.int64), expected)

    @_SETTINGS
    @given(st.integers(min_value=0, max_value=10_000))
    def test_minhash_incremental_growth_matches_reference(self, seed):
        collection = _random_sets_collection(seed)
        family = MinHashFamily(collection, seed=3)
        family.signatures(64)
        store = family.signatures(192)
        expected = reference.minhash_signatures_reference(family, store.n_hashes)
        np.testing.assert_array_equal(np.asarray(store.values, dtype=np.int64), expected)

    @_SETTINGS
    @given(st.integers(min_value=0, max_value=10_000))
    def test_simhash_matches_scalar_reference(self, seed):
        collection = _random_weighted_collection(seed)
        family = SimHashFamily(collection, seed=seed % 101)
        store = family.signatures(64)
        expected = reference.simhash_bits_reference(family, 64)
        for row in range(collection.n_vectors):
            np.testing.assert_array_equal(store.get_bits(row, 0, 64), expected[row])


class TestPosteriorBatchEquivalence:
    @_SETTINGS
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=512),
        st.sampled_from([0.3, 0.5, 0.7, 0.9]),
    )
    def test_prob_above_threshold_many(self, seed, n, threshold):
        rng = np.random.default_rng(seed)
        matches = rng.integers(0, n + 1, size=24)
        for posterior in _POSTERIORS:
            batched = posterior.prob_above_threshold_many(matches, n, threshold)
            expected = reference.prob_above_threshold_reference(posterior, matches, n, threshold)
            np.testing.assert_array_equal(batched, expected)

    @_SETTINGS
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=512))
    def test_map_estimate_many(self, seed, n_max):
        rng = np.random.default_rng(seed)
        hashes = rng.integers(0, n_max + 1, size=24)
        matches = (hashes * rng.random(24)).astype(np.int64)
        for posterior in _POSTERIORS:
            batched = posterior.map_estimate_many(matches, hashes)
            expected = reference.map_estimates_reference(posterior, matches, hashes)
            np.testing.assert_array_equal(batched, expected)

    @_SETTINGS
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=512),
        st.sampled_from([(0.05, 0.03), (0.01, 0.05), (0.10, 0.02)]),
    )
    def test_concentration_decisions_match_scalar(self, seed, n, accuracy):
        delta, gamma = accuracy
        rng = np.random.default_rng(seed)
        matches = rng.integers(0, n + 1, size=24)
        for posterior in _POSTERIORS:
            cache = ConcentrationCache(posterior, delta=delta, gamma=gamma)
            batched = cache.is_concentrated_many(matches, n)
            expected = reference.concentration_decisions_reference(
                posterior, matches, n, delta, gamma
            )
            np.testing.assert_array_equal(batched, expected)

    def test_grid_posterior_uses_scalar_fallback(self):
        posterior = GridCollisionPosterior(lambda r: np.ones_like(r))
        matches = np.array([10, 20, 30])
        batched = posterior.map_estimate_many(matches, np.full(3, 32))
        expected = reference.map_estimates_reference(posterior, matches, np.full(3, 32))
        np.testing.assert_array_equal(batched, expected)


def _planted_pairs(rng, collection: VectorCollection, n_pairs: int = 60):
    """Random candidate pairs over a collection whose second half repeats the first.

    Rows ``i`` and ``i + n/2`` start out as copies (the caller perturbs
    them), so the pair set mixes near-duplicates — which survive many rounds
    and exercise emission and the hash budget — with random pairs, most of
    which are pruned early.
    """
    half = collection.n_vectors // 2
    twins = rng.integers(0, half, size=n_pairs // 3)
    left = rng.integers(0, collection.n_vectors, size=n_pairs - len(twins))
    right = rng.integers(0, collection.n_vectors, size=n_pairs - len(twins))
    return np.concatenate([twins, left]), np.concatenate([twins + half, right])


def _verification_setup(measure_name: str, seed: int):
    """A prepared collection, its hash family and the measure's posteriors."""
    rng = np.random.default_rng(seed)
    if measure_name == "jaccard":
        base = _random_sets_collection(seed, n_rows=20)
        sets = [set(base.row_features(row).tolist()) for row in range(base.n_vectors)]
        for row in range(base.n_vectors):
            twin = set(sets[row])
            if twin and rng.random() < 0.5:
                twin.discard(int(rng.choice(sorted(twin))))
            sets.append(twin)
        collection = VectorCollection.from_sets(sets, n_features=60)
        posteriors = [BetaPosterior(), BetaPosterior(BetaPrior(2.5, 7.0))]
    else:
        dense = rng.random((20, 30)) * (rng.random((20, 30)) < 0.35)
        noise = rng.random((20, 30)) * 0.1 * (dense > 0)
        collection = VectorCollection.from_dense(np.vstack([dense, dense + noise]))
        posteriors = [TruncatedCollisionPosterior()]
    measure = get_measure(measure_name)
    prepared = measure.prepare(collection)
    family_type = MinHashFamily if measure_name == "jaccard" else SimHashFamily
    return rng, measure, prepared, family_type, posteriors


def _dense_hashes(family, n_hashes: int) -> np.ndarray:
    """Per-hash values from the row-at-a-time signature references."""
    family.signatures(n_hashes)
    if isinstance(family, MinHashFamily):
        return reference.minhash_signatures_reference(family, n_hashes)
    return reference.simhash_bits_reference(family, n_hashes)


def _assert_same_output(output, expected) -> None:
    np.testing.assert_array_equal(output.left, expected.left)
    np.testing.assert_array_equal(output.right, expected.right)
    assert output.estimates.tobytes() == expected.estimates.tobytes()
    assert output.n_candidates == expected.n_candidates
    assert output.n_pruned == expected.n_pruned
    assert output.trace == expected.trace
    assert output.hash_comparisons == expected.hash_comparisons
    assert output.exact_computations == expected.exact_computations


class TestVerificationLoopEquivalence:
    """The round-synchronous verify loops against pair-at-a-time Algorithms 1 and 2."""

    @_SETTINGS
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["jaccard", "cosine"]),
        st.sampled_from([0.4, 0.6, 0.8]),
        st.sampled_from([(8, 64), (16, 256), (32, 512)]),
    )
    def test_bayeslsh_verify_matches_per_pair_reference(
        self, seed, measure_name, threshold, budget
    ):
        rng, _, prepared, family_type, posteriors = _verification_setup(measure_name, seed)
        k, max_hashes = budget
        params = BayesLSHParams(threshold=threshold, k=k, max_hashes=max_hashes)
        left, right = _planted_pairs(rng, prepared)
        for posterior in posteriors:
            family = family_type(prepared, seed=seed % 97)
            output = BayesLSH(family, posterior, params).verify(left, right)
            expected = reference.bayeslsh_verify_reference(
                _dense_hashes(family, max_hashes), posterior, params, left, right
            )
            _assert_same_output(output, expected)

    @_SETTINGS
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["jaccard", "cosine"]),
        st.sampled_from([0.4, 0.6, 0.8]),
        st.sampled_from([(8, 32), (16, 64), (32, 128)]),
    )
    def test_lite_verify_matches_per_pair_reference(
        self, seed, measure_name, threshold, budget
    ):
        rng, measure, prepared, family_type, posteriors = _verification_setup(
            measure_name, seed
        )
        k, h = budget
        params = BayesLSHLiteParams(threshold=threshold, k=k, h=h)
        left, right = _planted_pairs(rng, prepared)

        def exact(i: int, j: int) -> float:
            return measure.exact(prepared, i, j)

        for posterior in posteriors:
            family = family_type(prepared, seed=seed % 97)
            output = BayesLSHLite(family, posterior, params, exact).verify(left, right)
            expected = reference.lite_verify_reference(
                _dense_hashes(family, h), posterior, params, exact, left, right
            )
            _assert_same_output(output, expected)


class TestCandidateGeneratorEquivalence:
    @_SETTINGS
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([0.3, 0.5, 0.7]))
    def test_lsh_matches_bucket_reference(self, seed, threshold):
        collection = _random_sets_collection(seed)
        generator = LSHGenerator("jaccard", threshold, seed=7)
        candidates = generator.generate(collection)
        store = generator.family.signatures(0)
        rows = np.flatnonzero(collection.row_nnz > 0)
        expected_pairs, expected_collisions = reference.lsh_candidates_reference(
            store, rows, candidates.metadata["n_signatures"], generator.signature_width
        )
        assert candidates.as_set() == expected_pairs
        assert candidates.metadata["n_raw_collisions"] == expected_collisions

    @_SETTINGS
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([0.4, 0.6, 0.8]))
    def test_allpairs_matches_sequential_reference(self, seed, threshold):
        collection = _random_weighted_collection(seed)
        candidates = AllPairsGenerator("cosine", threshold).generate(collection)
        expected_pairs, expected_meta = reference.allpairs_candidates_reference(
            collection, "cosine", threshold
        )
        assert candidates.as_set() == expected_pairs
        assert (
            candidates.metadata["n_score_accumulations"]
            == expected_meta["n_score_accumulations"]
        )
        assert candidates.metadata["index_entries"] == expected_meta["index_entries"]

    @_SETTINGS
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["jaccard", "binary_cosine"]),
        st.sampled_from([0.4, 0.6]),
        st.booleans(),
        st.booleans(),
    )
    def test_ppjoin_matches_sequential_reference(
        self, seed, measure, threshold, positional, suffix
    ):
        collection = _random_sets_collection(seed)
        candidates = PPJoinGenerator(
            measure,
            threshold,
            use_positional_filter=positional,
            use_suffix_filter=suffix,
        ).generate(collection)
        expected_pairs, expected_meta = reference.ppjoin_candidates_reference(
            collection,
            measure,
            threshold,
            use_positional_filter=positional,
            use_suffix_filter=suffix,
        )
        assert candidates.as_set() == expected_pairs
        for key, value in expected_meta.items():
            assert candidates.metadata[key] == value, key


class TestArrayOps:
    @_SETTINGS
    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 8)), max_size=12))
    def test_ragged_arange(self, segments):
        starts = np.array([s for s, _ in segments], dtype=np.int64)
        lengths = np.array([length for _, length in segments], dtype=np.int64)
        expected = (
            np.concatenate([np.arange(s, s + length) for s, length in segments])
            if segments and lengths.sum()
            else np.zeros(0, dtype=np.int64)
        )
        np.testing.assert_array_equal(ragged_arange(starts, lengths), expected)

    @_SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8))
    def test_pairs_within_groups(self, sizes):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 100, size=int(np.sum(sizes)))
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        earlier, later = pairs_within_groups(values, offsets)
        expected = []
        for g in range(len(sizes)):
            group = values[offsets[g] : offsets[g + 1]]
            for q in range(len(group)):
                for p in range(q):
                    expected.append((group[p], group[q]))
        assert list(zip(earlier.tolist(), later.tolist())) == [
            (int(a), int(b)) for a, b in expected
        ]
