import numpy as np
import pytest

from emocause import clustering
from emocause.clauses import ClauseSpan, Clause, Sentence, Token
from emocause.clustering import (ClauseVector, agglomerative_complete_link,
                                 cluster_causes, cosine_distance, head_clause,
                                 prune_small, vectorize_clause)
from emocause.embeddings import EmbeddingTable
from emocause.errors import OovError

from helpers import as_partition, reference_complete_link


def vec(values, review_id="r0", text="clause"):
    return ClauseVector(values=np.asarray(values, dtype=float),
                        review_id=review_id, clause_text=text)


def angle_vec(theta):
    return vec([np.cos(theta), np.sin(theta)])


def random_vectors(rng, n, dim=4):
    return [vec(rng.normal(size=dim), review_id=f"r{i}") for i in range(n)]


class TestCosineDistance:
    def test_identical_is_zero(self, rng):
        v = vec(rng.normal(size=5))
        assert cosine_distance(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_is_one(self):
        assert cosine_distance(vec([1, 0]), vec([0, 1])) == pytest.approx(1.0)

    def test_antiparallel_is_two(self):
        assert cosine_distance(vec([1, 2]), vec([-1, -2])) == pytest.approx(2.0, abs=1e-12)


class TestVectorizeClause:
    def make_clause(self, words):
        tokens = [Token(i, w, "NOUN", len(words) - 1 if i < len(words) - 1 else i,
                        "dep" if i < len(words) - 1 else "root")
                  for i, w in enumerate(words)]
        s = Sentence(tuple(tokens), review_id="r9", sent_index=1)
        return Clause(span=ClauseSpan(0, len(words) - 1, len(words) - 1),
                      words=tuple(words), sentence=s)

    def test_single_word(self):
        raw = EmbeddingTable(["a"], [[1.0, -2.0]])
        aware = EmbeddingTable(["a"], [[0.5, 3.0]])
        cv = vectorize_clause(self.make_clause(["a"]), raw, aware)
        assert np.array_equal(cv.values, [1.0, -2.0, 0.5, 3.0])
        assert cv.review_id == "r9"
        assert cv.clause_text == "a"

    def test_elementwise_max(self):
        raw = EmbeddingTable(["a", "b"], [[1.0, -2.0], [0.0, 3.0]])
        aware = EmbeddingTable(["a", "b"], [[5.0, 1.0], [4.0, 2.0]])
        cv = vectorize_clause(self.make_clause(["a", "b"]), raw, aware)
        assert np.array_equal(cv.values, [1.0, 3.0, 5.0, 2.0])

    def test_four_word_oracle(self, rng):
        words = ["a", "b", "c", "d"]
        raw_m = rng.normal(size=(4, 3))
        aware_m = rng.normal(size=(4, 3))
        raw = EmbeddingTable(words, raw_m)
        aware = EmbeddingTable(words, aware_m)
        cv = vectorize_clause(self.make_clause(words), raw, aware)
        expected = np.concatenate([raw_m, aware_m], axis=1).max(axis=0)
        assert np.allclose(cv.values, expected, atol=1e-12)

    def test_oov_words_skipped(self):
        raw = EmbeddingTable(["a"], [[1.0, 1.0]])
        aware = EmbeddingTable(["a"], [[2.0, 2.0]])
        cv = vectorize_clause(self.make_clause(["a", "zz"]), raw, aware)
        assert np.array_equal(cv.values, [1.0, 1.0, 2.0, 2.0])

    def test_all_oov_raises(self):
        raw = EmbeddingTable(["a"], [[1.0]])
        aware = EmbeddingTable(["a"], [[1.0]])
        with pytest.raises(OovError):
            vectorize_clause(self.make_clause(["zz", "yy"]), raw, aware)


class TestAgglomerative:
    def test_identical_pair_merges(self):
        clusters = agglomerative_complete_link([vec([1, 2]), vec([1, 2])], 0.13)
        assert clusters == [[0, 1]]

    def test_orthogonal_pair_stays_apart(self):
        clusters = agglomerative_complete_link([vec([1, 0]), vec([0, 1])], 0.13)
        assert clusters == [[0], [1]]

    def test_singleton_input(self):
        assert agglomerative_complete_link([vec([1, 1])], 0.13) == [[0]]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            agglomerative_complete_link([], 0.13)

    def test_matches_reference_on_random_instances(self, rng):
        # acceptance criterion: 100 random instances, n <= 8, threshold 0.13
        for trial in range(100):
            n = int(rng.integers(2, 9))
            # cluster-prone geometry: points near a few random directions
            centers = rng.normal(size=(int(rng.integers(1, 4)), 3))
            vecs = []
            for i in range(n):
                c = centers[int(rng.integers(len(centers)))]
                vecs.append(vec(c + rng.normal(scale=0.08, size=3), review_id=f"r{i}"))
            got = agglomerative_complete_link(vecs, 0.13)
            want = reference_complete_link(vecs, 0.13)
            assert as_partition(got) == as_partition(want), f"trial {trial}"
            assert got == want  # same ordering convention too

    def test_matches_reference_with_duplicates(self, rng):
        # equal vectors must be exactly 0 apart and tie exactly, as they do
        # in the per-pair oracle
        for trial in range(100):
            n = int(rng.integers(2, 11))
            pool = rng.normal(size=(int(rng.integers(1, 4)), 3))
            pool = np.concatenate([pool, pool + rng.normal(scale=0.08, size=pool.shape)])
            vecs = [vec(pool[int(rng.integers(len(pool)))], review_id=f"r{i}")
                    for i in range(n)]
            assert agglomerative_complete_link(vecs, 0.13) == \
                reference_complete_link(vecs, 0.13), f"trial {trial}"

    @pytest.mark.parametrize("points, threshold, want", [
        # two exact zero-distance pairs: (0, 2) merges first, then (1, 3)
        ([[1, 0], [0, 1], [1, 0], [0, 1]], 0.13, [[0, 2], [1, 3]]),
        # d(0, 1) == d(1, 2) exactly: the smaller pair (0, 1) wins
        ([[1, 0], [1, 1], [0, 1]], 0.5, [[0, 1], [2]]),
        ([[1, 1], [1, 0], [0, 1]], 0.5, [[0, 1], [2]]),
        # after (0, 3) and (1, 4) merge at 0, clusters {0, 3} and {1, 4}
        # tie with {1, 4} and {2} at 1 - cos 45 deg; the smaller pair wins
        ([[1, 0], [1, 1], [0, 1], [1, 0], [1, 1]], 0.5, [[0, 1, 3, 4], [2]]),
    ])
    def test_exact_ties_take_smallest_pair(self, points, threshold, want):
        vecs = [vec(p) for p in points]
        assert agglomerative_complete_link(vecs, threshold) == want
        assert reference_complete_link(vecs, threshold) == want

    def test_complete_linkage_guarantee(self, rng):
        for _ in range(30):
            vecs = random_vectors(rng, 8, dim=3)
            for members in agglomerative_complete_link(vecs, 0.5):
                for a in members:
                    for b in members:
                        if a < b:
                            assert cosine_distance(vecs[a], vecs[b]) < 0.5

    def test_partition_property(self, rng):
        vecs = random_vectors(rng, 10)
        clusters = agglomerative_complete_link(vecs, 0.9)
        seen = sorted(i for c in clusters for i in c)
        assert seen == list(range(10))

    def test_deterministic(self, rng):
        vecs = random_vectors(rng, 9)
        a = agglomerative_complete_link(vecs, 0.4)
        assert a == agglomerative_complete_link(vecs, 0.4)


class TestPruneSmall:
    def test_all_singletons_pruned(self):
        kept, pruned = prune_small([[0], [1], [2]])
        assert kept == [] and pruned == [0, 1, 2]

    def test_pair_survives(self):
        kept, pruned = prune_small([[0, 2], [1]])
        assert kept == [[0, 2]] and pruned == [1]

    def test_conservation(self, rng):
        for _ in range(20):
            vecs = random_vectors(rng, 8)
            clusters = agglomerative_complete_link(vecs, 0.6)
            kept, pruned = prune_small(clusters)
            members = sorted(i for c in kept for i in c) + pruned
            assert sorted(members) == list(range(8))


class TestHeadClause:
    def test_singleton(self):
        assert head_clause([4], [None] * 5) == 4

    def test_middle_of_three_angles(self):
        # 0, 20 and 40 degrees: the middle vector's worst distance is
        # 1 - cos(20 deg), strictly smaller than the ends' 1 - cos(40 deg)
        vecs = [angle_vec(0.0), angle_vec(np.pi / 9), angle_vec(2 * np.pi / 9)]
        assert head_clause([0, 1, 2], vecs) == 1

    def test_matches_exhaustive_scan(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 11))
            vecs = random_vectors(rng, n)
            members = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                        replace=False).tolist())
            got = head_clause(members, vecs)
            best, best_worst = None, np.inf
            for m in members:
                worst = max((cosine_distance(vecs[m], vecs[o])
                             for o in members if o != m), default=0.0)
                if worst < best_worst:
                    best, best_worst = m, worst
            assert got == best

    def test_duplicates_match_exhaustive_scan(self, rng):
        # 20 members drawn from 3 nearby vectors: duplicates tie exactly,
        # so the head is the smallest index of the best vector
        for trial in range(30):
            pool = rng.normal(size=16) + rng.normal(scale=0.05, size=(3, 16))
            vecs = [vec(pool[int(rng.integers(3))], review_id=f"r{i}")
                    for i in range(20)]
            members = rng.permutation(20).tolist()
            best, best_worst = None, np.inf
            for m in range(20):
                worst = max(cosine_distance(vecs[m], vecs[o])
                            for o in range(20) if o != m)
                if worst < best_worst:
                    best, best_worst = m, worst
            assert head_clause(members, vecs) == best, f"trial {trial}"

    def test_tie_goes_to_smallest_index(self):
        v = vec([1.0, 1.0])
        assert head_clause([2, 5, 7], [None, None, v, None, None, v, None, v]) == 2


class TestClusterCauses:
    def test_single_group_two_identical(self):
        entries = [("p1", "joy", vec([1, 2], review_id="a")),
                   ("p1", "joy", vec([1, 2], review_id="b"))]
        sets = cluster_causes(entries)
        assert len(sets) == 1
        cs = sets[0]
        assert cs.product == "p1" and cs.emotion == "joy"
        assert len(cs.clusters) == 1
        assert cs.clusters[0].members == (0, 1)
        assert cs.clusters[0].head == 0
        assert cs.pruned == []

    def test_groups_never_mix(self, rng):
        v = rng.normal(size=4)
        entries = [("p1", "joy", vec(v)), ("p2", "joy", vec(v)),
                   ("p1", "fear", vec(v))]
        sets = cluster_causes(entries)
        assert [(cs.product, cs.emotion) for cs in sets] == [
            ("p1", "fear"), ("p1", "joy"), ("p2", "joy")]
        for cs in sets:
            assert len(cs.vectors) == 1

    def test_empty_entries_give_empty_list(self):
        assert cluster_causes([]) == []

    def test_json_shape(self):
        entries = [("p1", "joy", vec([1, 2], review_id="a", text="it broke")),
                   ("p1", "joy", vec([1, 2], review_id="b", text="it broke")),
                   ("p1", "joy", vec([-3, 1], review_id="c", text="meh"))]
        obj = cluster_causes(entries)[0].to_json_obj()
        assert obj["product"] == "p1" and obj["emotion"] == "joy"
        assert obj["clusters"][0]["head"] == {"review_id": "a",
                                              "clause_text": "it broke"}
        assert obj["clusters"][0]["size"] == 2
        assert obj["pruned"] == [{"review_id": "c", "clause_text": "meh"}]


class TestProject2d:
    def test_shape_and_determinism(self, rng):
        vecs = random_vectors(rng, 6, dim=5)
        a = clustering.project_2d(vecs)
        b = clustering.project_2d(vecs)
        assert a.shape == (6, 2)
        assert np.array_equal(a, b)

    def test_planar_data_preserves_distances(self):
        # points already in a plane embedded in 4-D
        base = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        coords = np.array([[0.0, 0], [1, 0], [0, 1], [1, 1], [2, 1]])
        vecs = [vec(c @ base + 7.0) for c in coords]
        points = clustering.project_2d(vecs)
        got = np.linalg.norm(points[:, None] - points[None, :], axis=2)
        want = np.linalg.norm(coords[:, None] - coords[None, :], axis=2)
        assert np.allclose(got, want, atol=1e-9)

    def test_single_point(self):
        points = clustering.project_2d([vec([1.0, 2.0])])
        assert np.array_equal(points, [[0.0, 0.0]])


class TestClauseVectorInvariants:
    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zeros"):
            vec([0.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            vec([1.0, np.nan])

    def test_read_only(self):
        v = vec([1.0, 2.0])
        with pytest.raises(ValueError):
            v.values[0] = 9.0
