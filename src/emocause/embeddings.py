"""Emotion-aware word embeddings.

Raw vectors come from a word2vec-style text file. An intensity lexicon names
emotion words. One matrix product gives every vocabulary word's cosine
similarity to every emotion word; each word's k (default two) most similar
emotion words are blended in one batched product (weights = similarity *
intensity, negatives clamped to zero, normalized) and averaged with the
original vector. Words whose weights are all zero keep their raw vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, OovError

EMOTIONS = ("anger", "anticipation", "disgust", "fear", "joy",
            "sadness", "surprise", "trust")

DEFAULT_TOP_K = 2


class EmbeddingTable:
    """Immutable word -> float64 vector mapping with a fixed dimension."""

    def __init__(self, words, vectors):
        self.words = tuple(words)
        self.vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.words):
            raise ValueError("vectors must be one row per word")
        if self.vectors.shape[1] == 0:
            raise ValueError("embedding dimension must be positive")
        if len(set(self.words)) != len(self.words):
            raise ValueError("duplicate words in embedding table")
        zero_rows = np.flatnonzero(~np.any(self.vectors, axis=1))
        if zero_rows.size:
            raise ValueError(f"all-zero vector for word {self.words[zero_rows[0]]!r}")
        self.vectors.setflags(write=False)
        self._index = {w: i for i, w in enumerate(self.words)}

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def __getitem__(self, word: str) -> np.ndarray:
        try:
            return self.vectors[self._index[word]]
        except KeyError:
            raise KeyError(f"unknown word {word!r}") from None

    def rows(self, tokens) -> np.ndarray:
        """(n, d) vectors of the in-vocabulary tokens, in token order with
        repeats, from one gather. Out-of-vocabulary tokens are dropped;
        OovError when no token is known."""
        index = [self._index[t] for t in tokens if t in self._index]
        if not index:
            raise OovError("every token is out of vocabulary")
        return self.vectors[index]


@dataclass(frozen=True)
class EmotionLexicon:
    """word -> ((emotion, intensity), ...); a word may carry several emotions."""

    entries: dict

    def __post_init__(self):
        for word, pairs in self.entries.items():
            for emotion, intensity in pairs:
                if emotion not in EMOTIONS:
                    raise ValueError(f"unknown emotion {emotion!r} for {word!r}")
                if not 0.0 <= intensity <= 1.0:
                    raise ValueError(f"intensity {intensity} for {word!r} outside [0, 1]")

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def words(self):
        return self.entries.keys()

    def max_intensity(self, word: str) -> float:
        return max(intensity for _, intensity in self.entries[word])


@dataclass(frozen=True)
class SimilarityMatrix:
    """Cosine similarities of every vocabulary word (rows) against every
    emotion word that occurs in the vocabulary (columns, sorted)."""

    vocab_words: tuple
    emotion_words: tuple
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "_row_index",
                           {w: i for i, w in enumerate(self.vocab_words)})

    def row(self, word: str) -> np.ndarray:
        try:
            return self.values[self._row_index[word]]
        except KeyError:
            raise KeyError(f"word {word!r} not in similarity matrix") from None


def load_word_embeddings(path) -> EmbeddingTable:
    """Read a text-format embedding file: header "<count> <dim>", then one
    "<word> <floats...>" row per line."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DataError(f"{path}: header must be '<count> <dim>'")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise DataError(f"{path}: header must be '<count> <dim>'") from None
        if count < 0 or dim <= 0:
            raise DataError(f"{path}: bad header values {count} {dim}")
        words = []
        rows = []
        seen = set()
        for lineno, line in enumerate(fh, start=2):
            # the word2vec C tool ends every row with a space
            parts = line.rstrip().split(" ")
            if parts == [""]:
                continue
            word = parts[0]
            if len(parts) - 1 != dim:
                raise DataError(
                    f"{path}:{lineno}: {len(parts) - 1} values for {word!r}, expected {dim}")
            if word in seen:
                raise DataError(f"{path}:{lineno}: duplicate word {word!r}")
            seen.add(word)
            try:
                vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric value for {word!r}") from None
            if not np.all(np.isfinite(vec)):
                raise DataError(f"{path}:{lineno}: non-finite value for {word!r}")
            if not np.any(vec):
                raise DataError(f"{path}:{lineno}: all-zero vector for {word!r}")
            words.append(word)
            rows.append(vec)
    if len(words) != count:
        raise DataError(f"{path}: header promises {count} rows, found {len(words)}")
    return EmbeddingTable(words, np.array(rows) if rows else np.empty((0, dim)))


def save_word_embeddings(table: EmbeddingTable, path) -> None:
    """Write the same text format load_word_embeddings reads. Floats are
    written with repr, so a save/load round trip is bit-exact."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table)} {table.dim}\n")
        for word, vec in zip(table.words, table.vectors):
            fh.write(word + " " + " ".join(repr(float(x)) for x in vec) + "\n")


def load_emotion_lexicon(path) -> EmotionLexicon:
    """Read a headerless TSV of "<word>\\t<emotion>\\t<intensity>" rows."""
    entries: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
            word, emotion, raw = parts
            if emotion not in EMOTIONS:
                raise DataError(f"{path}:{lineno}: unknown emotion {emotion!r}")
            try:
                intensity = float(raw)
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad intensity {raw!r}") from None
            if not 0.0 <= intensity <= 1.0:
                raise DataError(f"{path}:{lineno}: intensity {intensity} outside [0, 1]")
            entries.setdefault(word, []).append((emotion, intensity))
    return EmotionLexicon({w: tuple(pairs) for w, pairs in entries.items()})


def cosine_similarity(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity of a zero vector is undefined")
    return float(a @ b / (na * nb))


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def build_similarity_matrix(table: EmbeddingTable, lexicon: EmotionLexicon) -> SimilarityMatrix:
    emotion_words = tuple(sorted(w for w in lexicon.words() if w in table))
    if not emotion_words:
        raise DataError("no lexicon word occurs in the vocabulary")
    cols = _unit_rows(table.rows(emotion_words))
    return SimilarityMatrix(table.words, emotion_words, _unit_rows(table.vectors) @ cols.T)


def _top_k(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns and values of each row's min(k, columns) largest entries,
    descending; argmax takes the first maximum, so ties go to the smaller
    column. Overwrites the chosen entries of `values` with -inf."""
    if k <= 0:
        raise ValueError("k must be positive")
    rows = np.arange(values.shape[0])
    cols = np.empty((values.shape[0], min(k, values.shape[1])), dtype=np.intp)
    sims = np.empty(cols.shape)
    for j in range(cols.shape[1]):
        cols[:, j] = values.argmax(axis=1)
        sims[:, j] = values[rows, cols[:, j]]
        values[rows, cols[:, j]] = -np.inf
    return cols, sims


def top_k_emotion_words(matrix: SimilarityMatrix, word: str,
                        k: int = DEFAULT_TOP_K) -> list[tuple[str, float]]:
    """The k most similar emotion words, descending; equal similarities are
    ordered lexicographically by emotion word (the columns are sorted)."""
    cols, sims = _top_k(matrix.row(word)[None, :].copy(), k)
    return [(matrix.emotion_words[j], float(s)) for j, s in zip(cols[0], sims[0])]


def build_emotion_aware_table(table: EmbeddingTable, lexicon: EmotionLexicon,
                              k: int = DEFAULT_TOP_K) -> EmbeddingTable:
    """Blend and overlay every vocabulary word; same words, same dimension.
    Blend weights are max(similarity, 0) * max intensity over the k most
    similar emotion words, normalized; all-zero weights keep the raw vector."""
    matrix = build_similarity_matrix(table, lexicon)
    cols, sims = _top_k(matrix.values, k)
    intensity = np.array([lexicon.max_intensity(w) for w in matrix.emotion_words])
    weights = np.maximum(sims, 0.0) * intensity[cols]
    total = weights.sum(axis=1)
    blended = total != 0.0
    weights = weights[blended] / total[blended, None]
    vecs = table.rows(matrix.emotion_words)[cols[blended]]
    out = np.array(table.vectors)
    out[blended] = (out[blended] + (weights[:, None, :] @ vecs)[:, 0]) / 2.0
    return EmbeddingTable(table.words, out)
