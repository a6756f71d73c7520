"""Complete-linkage clustering of cause clauses per (product, emotion).

A clause is represented by the elementwise max, over its in-vocabulary
words, of the concatenation of each word's raw and emotion-aware vectors
(length 2d). Distance is 1 - cosine similarity. Agglomeration merges the
closest pair of clusters (max pairwise member distance) while that distance
stays below the threshold, default 0.13; clusters smaller than 2 are pruned
but reported. Each cluster is represented by its head clause, the member
whose largest distance to any other member is smallest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingTable, cosine_similarity

DEFAULT_THRESHOLD = 0.13
MIN_CLUSTER_SIZE = 2


@dataclass(frozen=True)
class ClauseVector:
    values: np.ndarray  # (2d,)
    review_id: str
    clause_text: str

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("clause vector must be 1-D")
        if not np.all(np.isfinite(values)):
            raise ValueError("clause vector has non-finite entries")
        if not np.any(values):
            raise ValueError("clause vector is all zeros")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def vectorize_clause(clause, raw: EmbeddingTable, aware: EmbeddingTable) -> ClauseVector:
    """Max-pool concat(raw, aware) over the clause words both tables know;
    OovError when there are none."""
    if raw.dim != aware.dim:
        raise ValueError("raw and emotion-aware tables disagree on dimension")
    words = [w for w in clause.words if w in raw and w in aware]
    pooled = np.concatenate([raw.rows(words).max(axis=0), aware.rows(words).max(axis=0)])
    return ClauseVector(values=pooled,
                        review_id=clause.sentence.review_id,
                        clause_text=clause.text)


def cosine_distance(a: ClauseVector, b: ClauseVector) -> float:
    # clamp away float noise so the contract range [0, 2] holds exactly
    return min(max(1.0 - cosine_similarity(a.values, b.values), 0.0), 2.0)


def distance_matrix(vectors) -> np.ndarray:
    """(n, n) cosine distances in [0, 2] from one product of the distinct
    unit vectors. Equal vectors share one row of the product, so they are
    exactly 0 apart and their rows are identical."""
    data = np.stack([v.values for v in vectors])
    distinct, inverse = np.unique(data, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)  # its shape varies across numpy versions
    unit = distinct / np.linalg.norm(distinct, axis=1, keepdims=True)
    dist = np.clip(1.0 - unit @ unit.T, 0.0, 2.0)
    np.fill_diagonal(dist, 0.0)
    return dist[np.ix_(inverse, inverse)]


def agglomerative_complete_link(vectors, threshold: float = DEFAULT_THRESHOLD) -> list[list[int]]:
    """Member-index partition. Starts from singletons and repeatedly merges
    the pair of clusters with the smallest complete-linkage distance while
    it is strictly below the threshold; distance ties break on the smallest
    (i, j) position pair. A cluster lives in the row of its smallest member,
    so the first minimum of the symmetric matrix in row-major order is that
    pair. Cluster distances are maintained with the Lance-Williams
    complete-link update D(k, i+j) = max(D(k,i), D(k,j)); dead rows hold inf.
    """
    if not vectors:
        raise ValueError("nothing to cluster")
    n = len(vectors)
    clusters = [[i] for i in range(n)]
    dist = distance_matrix(vectors)
    np.fill_diagonal(dist, np.inf)
    for _ in range(n - 1):
        i, j = divmod(int(np.argmin(dist)), n)
        if dist[i, j] >= threshold:
            break
        dist[i] = dist[:, i] = np.maximum(dist[i], dist[j])
        dist[i, i] = np.inf
        dist[j] = dist[:, j] = np.inf
        clusters[i] = sorted(clusters[i] + clusters[j])
        clusters[j] = []
    return [members for members in clusters if members]


def prune_small(clusters, min_size: int = MIN_CLUSTER_SIZE):
    """(kept clusters, pruned member indices). Nothing is silently dropped."""
    kept = [c for c in clusters if len(c) >= min_size]
    pruned = sorted(i for c in clusters if len(c) < min_size for i in c)
    return kept, pruned


def head_clause(members, vectors) -> int:
    """The member whose largest distance to any other member is smallest;
    ties go to the smallest index, a singleton to itself."""
    if not members:
        raise ValueError("empty cluster")
    members = sorted(members)
    if len(members) == 1:
        return members[0]
    radius = distance_matrix([vectors[m] for m in members]).max(axis=1)
    return members[int(np.argmin(radius))]


@dataclass(frozen=True)
class Cluster:
    members: tuple  # sorted indices into the group's clause list
    head: int

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class ClusterSet:
    product: str
    emotion: str
    clusters: list[Cluster]
    pruned: list[int]
    vectors: list = field(default_factory=list)  # group's ClauseVectors, index-aligned

    def to_json_obj(self) -> dict:
        return {
            "product": self.product,
            "emotion": self.emotion,
            "clusters": [
                {
                    "head": {"review_id": self.vectors[c.head].review_id,
                             "clause_text": self.vectors[c.head].clause_text},
                    "members": [{"review_id": self.vectors[m].review_id,
                                 "clause_text": self.vectors[m].clause_text}
                                for m in c.members],
                    "size": c.size,
                }
                for c in self.clusters
            ],
            "pruned": [{"review_id": self.vectors[m].review_id,
                        "clause_text": self.vectors[m].clause_text}
                       for m in self.pruned],
        }


def cluster_causes(entries, threshold: float = DEFAULT_THRESHOLD) -> list[ClusterSet]:
    """Cluster (product, emotion, ClauseVector) entries per (product, emotion)
    group. Output is ordered by (product, emotion); clusters within a set by
    first member index."""
    groups: dict = {}
    for product, emotion, vector in entries:
        groups.setdefault((product, emotion), []).append(vector)
    out = []
    for (product, emotion), vectors in sorted(groups.items()):
        partition = agglomerative_complete_link(vectors, threshold)
        kept, pruned = prune_small(partition)
        clusters = [Cluster(members=tuple(members), head=head_clause(members, vectors))
                    for members in kept]
        out.append(ClusterSet(product=product, emotion=emotion, clusters=clusters,
                              pruned=pruned, vectors=vectors))
    return out


def project_2d(vectors) -> np.ndarray:
    """(n, 2) projection onto the first two principal components, for
    external plotting. Sign convention: each component's largest-magnitude
    loading is positive, so the output is deterministic."""
    data = np.stack([v.values for v in vectors])
    centered = data - data.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    points = np.zeros((data.shape[0], 2))
    for k in range(min(2, vt.shape[0])):
        if svals[k] <= 1e-12:
            break
        component = vt[k]
        if component[np.argmax(np.abs(component))] < 0:
            component = -component
        points[:, k] = centered @ component
    return points
