"""Emotion-aware word embeddings.

Raw vectors come from a word2vec-style text file. An intensity lexicon names
emotion words. One matrix product gives every vocabulary word's cosine
similarity to every emotion word; each word's k (default two) most similar
emotion words are blended in one batched product (weights = similarity *
intensity, negatives clamped to zero, normalized) and averaged with the
original vector. Words whose weights are all zero keep their raw vector.
"""

from __future__ import annotations

import hashlib
import os
import struct
from array import array
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DataError, OovError
from .nn.serialize import KIND_TABLE, atomic_open, load_container, save_container

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

    def indices(self, tokens) -> tuple:
        """Row indices of the in-vocabulary tokens, in token order with
        repeats; out-of-vocabulary tokens are dropped."""
        index = self._index
        return tuple(index[t] for t in tokens if t in index)

    def rows(self, tokens) -> np.ndarray:
        """(n, d) vectors of the in-vocabulary tokens, in token order with
        repeats, from one gather. Out-of-vocabulary tokens are dropped;
        OovError when no token is known."""
        index = self.indices(tokens)
        if not index:
            raise OovError("every token is out of vocabulary")
        return self.vectors[list(index)]


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
    """Cosine similarities of every word of a table (rows, in table order)
    against every emotion word that occurs in it (columns, sorted)."""

    emotion_words: tuple
    values: np.ndarray


# Rows converted per np.loadtxt call. The text held at once is this many
# lines, besides the table's values: about 1.5 MB at d = 300 in repr form.
BLOCK_LINES = 256

# numpy's float reader strips these ASCII separators as whitespace, and
# float() rejects them.
_SEPARATORS = ("\x1c", "\x1d", "\x1e", "\x1f")


def _block_values(path, rests, words, linenos) -> np.ndarray:
    """The (n, d) values of the last n = len(rests) rows read, whose value
    text is rests. One np.loadtxt call converts the block in C. numpy's
    float grammar is float()'s without `_` digit separators and non-ASCII
    digits, and gives the same double for every token it accepts. So a
    block that numpy rejects, or that holds one of _SEPARATORS, is
    converted by float() value by value, which gives the block's values
    or the error of its first bad row."""
    if not any(sep in rest for rest in rests for sep in _SEPARATORS):
        try:
            return np.loadtxt(rests, dtype=np.float64, delimiter=" ", comments=None,
                              quotechar=None, ndmin=2)
        except ValueError:
            pass
    first = len(words) - len(rests)
    values = []
    for rest, word, lineno in zip(rests, words[first:], linenos[first:]):
        try:
            values.append(list(map(float, rest.split(" "))))
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric value for {word!r}") from None
    return np.array(values, dtype=np.float64)


def _append_block(values: array, path, rests, words, linenos) -> None:
    if rests:
        values.frombytes(memoryview(_block_values(path, rests, words, linenos)).cast("B"))
        rests.clear()


def sidecar_path(path) -> str:
    """Where save_word_embeddings puts the binary copy of the table at path."""
    return os.fspath(path) + ".ecpe"


def _sidecar_values(path, text) -> np.ndarray | None:
    """The values of path's sidecar as a (V, d) array when the sidecar
    loads, is of kind KIND_TABLE, holds V x d values and records the
    SHA-256 of text's bytes; None otherwise, since a sidecar is a copy
    that may be missing or stale. text is the table file, open in binary
    mode at its start; it is hashed in one streaming pass, then rewound."""
    try:
        descriptor, payload = load_container(sidecar_path(path))
    except (OSError, DataError):
        return None
    if len(descriptor) != 11 or descriptor[0] != KIND_TABLE:
        return None
    rows, dim = descriptor[1:3]
    if payload.size != rows * dim:
        return None
    digest = hashlib.sha256()
    for block in iter(lambda: text.read(1 << 20), b""):
        digest.update(block)
    text.seek(0)
    if digest.digest() != struct.pack("<8I", *descriptor[3:]):
        return None
    return payload.reshape(rows, dim)


def load_word_embeddings(path) -> EmbeddingTable:
    """Read a text-format embedding file: header "<count> <dim>", then one
    "<word> <floats...>" row per line. Each line's word, width and
    duplicate checks run as it is read; its value text is converted in
    blocks of BLOCK_LINES rows (_block_values), appended to one growing
    array('d'). The array is viewed as the (V, d) table at the end, where
    the finiteness and all-zero checks run once. An error names the file
    line of the first bad row: a block is converted before a later row's
    width or duplicate error is raised. The header's count is checked,
    never trusted to size anything.

    When the table has a sidecar (sidecar_path) that save_word_embeddings
    wrote for these exact bytes, with the header's count and dim, its
    values are taken instead and no text is converted; every other check
    runs as above."""
    with open(path, encoding="utf-8") as fh:
        saved = _sidecar_values(path, fh.buffer)
        header = fh.readline().split()
        if len(header) != 2:
            raise DataError(f"{path}: header must be '<count> <dim>'")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise DataError(f"{path}: header must be '<count> <dim>'") from None
        if count < 0 or dim <= 0:
            raise DataError(f"{path}: bad header values {count} {dim}")
        if saved is not None and saved.shape != (count, dim):
            saved = None
        words, linenos, rests = [], [], []  # rests: the pending block's value text
        values = array("d")  # every converted row's floats, one after another
        seen = set()
        for lineno, line in enumerate(fh, start=2):
            # the word2vec C tool ends every row with a space
            line = line.rstrip()
            if not line:
                continue
            word, _, rest = line.partition(" ")
            width = line.count(" ")
            if width != dim or word in seen:
                _append_block(values, path, rests, words, linenos)
                if width != dim:
                    raise DataError(
                        f"{path}:{lineno}: {width} values for {word!r}, expected {dim}")
                raise DataError(f"{path}:{lineno}: duplicate word {word!r}")
            seen.add(word)
            words.append(word)
            linenos.append(lineno)
            if saved is None:
                rests.append(rest)
                if len(rests) == BLOCK_LINES:
                    _append_block(values, path, rests, words, linenos)
        _append_block(values, path, rests, words, linenos)
    if saved is None:
        vectors = np.frombuffer(values, dtype=np.float64).reshape(len(words), dim)
    elif len(words) == count:
        vectors = saved
    else:  # save_word_embeddings writes as many rows as the header says
        raise DataError(f"{path}: header promises {count} rows, found {len(words)}")
    finite = np.all(np.isfinite(vectors), axis=1)
    bad = ~(finite & np.any(vectors, axis=1))
    if bad.any():
        row = int(np.argmax(bad))
        what = "all-zero vector" if finite[row] else "non-finite value"
        raise DataError(f"{path}:{linenos[row]}: {what} for {words[row]!r}")
    if len(words) != count:
        raise DataError(f"{path}: header promises {count} rows, found {len(words)}")
    return EmbeddingTable(words, vectors)


def save_word_embeddings(table: EmbeddingTable, path) -> None:
    """Write the same text format load_word_embeddings reads. Floats are
    written with repr, so a save/load round trip is bit-exact; each row is
    formatted from its Python floats (tolist), not from numpy scalars. The
    text goes to a temporary file that replaces path once it is complete,
    so a failed write leaves any earlier table intact.

    Then the sidecar (sidecar_path) is written the same way: an ECPE1
    container of kind KIND_TABLE whose descriptor is [KIND_TABLE, V, d,
    the SHA-256 of the text's bytes as 8 u32 words] and whose payload is
    the (V, d) values. The hash is taken from the bytes as they are
    written. A sidecar whose hash does not match its text is ignored, so
    a failure between the two writes leaves a table that still loads."""
    digest = hashlib.sha256()
    rows = ((word + " " + " ".join(map(repr, row)) + "\n")
            for word, row in zip(table.words, table.vectors.tolist()))
    with atomic_open(path, "wb") as fh:
        for line in chain([f"{len(table)} {table.dim}\n"], rows):
            data = line.encode("utf-8")
            digest.update(data)
            fh.write(data)
    save_container(sidecar_path(path),
                   [KIND_TABLE, len(table), table.dim, *struct.unpack("<8I", digest.digest())],
                   table.vectors)


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
    return SimilarityMatrix(emotion_words, _unit_rows(table.vectors) @ cols.T)


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
