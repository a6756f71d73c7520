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
from io import TextIOWrapper

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

# The widest row a header may declare: one of dim float64 values must fit in
# the address space, so the (V, dim) table numpy builds has a valid shape.
MAX_DIM = np.iinfo(np.intp).max // 8

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


def input_copy_path(output) -> str:
    """Where build-embeddings puts the binary copy of the raw table it read:
    next to its output table, which summarize reads with it."""
    return os.fspath(output) + ".raw.ecpe"


# A copy's descriptor: [KIND_TABLE, V, d, the text's SHA-256 as 8 u32 words,
# the payload's SHA-256 as 8 u32 words, the byte length of the words].
_COPY_DESCRIPTOR = 20
_U32 = 1 << 32
# The text is hashed this many bytes at a time.
_HASH_BYTES = 1 << 20


def _read_copy(path) -> tuple | None:
    """(the text's SHA-256, the words, the (V, d) values) of the copy at
    path when it loads, is of kind KIND_TABLE, its payload holds V x d
    values and then the words' bytes, zero-padded to whole f64, the
    payload's SHA-256 (taken from the array already read) is the stored
    one, and those bytes are V UTF-8 words, each followed by "\\n"; None
    otherwise, since a copy may be missing, stale or damaged."""
    try:
        descriptor, payload = load_container(path)
    except (OSError, DataError):
        return None
    if len(descriptor) != _COPY_DESCRIPTOR or descriptor[0] != KIND_TABLE:
        return None
    rows, dim, size = descriptor[1], descriptor[2], descriptor[-1]
    count = rows * dim
    if payload.size != count + -(-size // 8):
        return None
    if hashlib.sha256(payload).digest() != struct.pack("<8I", *descriptor[11:19]):
        return None
    try:
        words = payload[count:].view(np.uint8)[:size].tobytes().decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return None
    if words.pop() != "" or len(words) != rows:
        return None
    return struct.pack("<8I", *descriptor[3:11]), words, payload[:count].reshape(rows, dim)


def _hash_text(raw) -> tuple[bytes, bytes]:
    """(the SHA-256 of raw's bytes, its first _HASH_BYTES bytes); raw is a
    binary file at its start, hashed in one streaming pass, then rewound."""
    first = raw.read(_HASH_BYTES)
    digest = hashlib.sha256(first)
    for block in iter(lambda: raw.read(_HASH_BYTES), b""):
        digest.update(block)
    raw.seek(0)
    return digest.digest(), first


def _parse_header(path, line: str) -> tuple[int, int]:
    header = line.split()
    if len(header) != 2:
        raise DataError(f"{path}: header must be '<count> <dim>'")
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError:
        raise DataError(f"{path}: header must be '<count> <dim>'") from None
    if count < 0 or not 0 < dim <= MAX_DIM:
        raise DataError(f"{path}: bad header values {count} {dim}")
    return count, dim


def _header_is(path, first: bytes, shape: tuple) -> bool:
    """Whether the header, the first line of first (ended by "\\n" or
    "\\r", as text mode reads it), gives shape's V and d."""
    ends = [i for i in (first.find(b"\n"), first.find(b"\r")) if i >= 0]
    if not ends:
        return False
    try:
        header = _parse_header(path, first[:min(ends)].decode("utf-8"))
    except (UnicodeDecodeError, DataError):
        return False
    return header == shape


def _read_text(path, fh) -> tuple[list, np.ndarray, list, int]:
    """(words, (V, d) values, each row's line number, the header's count)
    of the text table fh, read line by line after its header."""
    count, dim = _parse_header(path, fh.readline())
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
        rests.append(rest)
        if len(rests) == BLOCK_LINES:
            _append_block(values, path, rests, words, linenos)
    _append_block(values, path, rests, words, linenos)
    return words, np.frombuffer(values, dtype=np.float64).reshape(len(words), dim), linenos, count


def load_word_embeddings(path, copy_path=None, copy_to=None) -> EmbeddingTable:
    """Read a text-format embedding file: header "<count> <dim>", then one
    "<word> <floats...>" row per line.

    When the binary copy at copy_path (default sidecar_path(path)) fits (see
    _read_copy), records the SHA-256 of the text's bytes, hashed in one
    streaming pass, and its V and d are the header's, the words and values
    are taken from the copy and the text is read only by that pass. A
    duplicate word in such a copy is a DataError.

    Otherwise the text is read line by line from the same open file. Each
    line's word, width and duplicate checks run as it is read; its value
    text is converted in blocks of BLOCK_LINES rows (_block_values),
    appended to one growing array('d'), viewed as the (V, d) table at the
    end. An error names the file line of the first bad row: a block is
    converted before a later row's width or duplicate error is raised. The
    header's count is checked, never trusted to size anything.

    Either way the finiteness and all-zero checks run once on the values;
    on a copy, row i is named by line i + 2, where save_word_embeddings
    writes it. With copy_to, the table's copy is then written there,
    recording the SHA-256 of the bytes this load read (save_word_embeddings
    describes the copy)."""
    copy_path = sidecar_path(path) if copy_path is None else copy_path
    copy = _read_copy(copy_path)
    with open(path, "rb") as raw:
        digest, first = (_hash_text(raw) if copy is not None or copy_to is not None
                         else (None, b""))
        if copy is not None and copy[0] == digest and _header_is(path, first, copy[2].shape):
            _, words, vectors = copy
            count, linenos = len(words), range(2, len(words) + 2)
            seen = set()
            for word in words:
                if word in seen:
                    raise DataError(f"{path}: duplicate word {word!r} in its copy {copy_path}")
                seen.add(word)
        else:
            with TextIOWrapper(raw, encoding="utf-8") as fh:
                words, vectors, linenos, count = _read_text(path, fh)
    finite = np.all(np.isfinite(vectors), axis=1)
    bad = ~(finite & np.any(vectors, axis=1))
    if bad.any():
        row = int(np.argmax(bad))
        what = "all-zero vector" if finite[row] else "non-finite value"
        raise DataError(f"{path}:{linenos[row]}: {what} for {words[row]!r}")
    if len(words) != count:
        raise DataError(f"{path}: header promises {count} rows, found {len(words)}")
    table = EmbeddingTable(words, vectors)
    if copy_to is not None:
        _save_copy(copy_to, table, _words_bytes(table), digest)
    return table


# save_word_embeddings formats whole rows, about this many values at a time
# (at least one row): nn.kernels.BLOCK, not imported, since build-embeddings
# loads no kernel module.
_SAVE_VALUES = 1 << 14

# The shortest-digits formatter below works on little-endian 64-bit words,
# each holding eight bytes of text.
_WORD = np.dtype("<u8")
# 10^k for k = 0..21, each exactly a double, and Veltkamp's split of each
# into two halves of at most 26 bits, for Dekker's exact product.
_POW10 = np.array([float(10 ** k) for k in range(22)])
_SPLITTER = float((1 << 27) + 1)
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# For each n = 1000a + 100b + 10c + d in 0..9999: its four digits as ASCII,
# a in the lowest byte; and its count of trailing zero digits (4 for 0).
_A, _B, _C, _D = np.ix_(*[np.arange(10, dtype=np.uint64)] * 4)
_DIGITS4 = ((_A + 48) | (_B + 48) << 8 | (_C + 48) << 16 | (_D + 48) << 24).astype(_WORD).ravel()
_ZEROS4 = ((_D == 0) * (1 + (_C == 0) * (1 + (_B == 0) * (1 + (_A == 0))))).ravel()
del _A, _B, _C, _D
# A decision of the digit rule closer than this to a tie is left to repr.
_TIE = 1e-9


def _low_bytes(counts) -> tuple:
    """Three word columns whose low count bytes (of 24) are 0xff, per count."""
    bits = np.clip(np.asarray(counts)[:, None] * 8 - np.array([0, 64, 128]), 0, 64)
    words = np.array([(1 << int(b)) - 1 for b in bits.ravel()], dtype=_WORD)
    return tuple(np.ascontiguousarray(c) for c in words.reshape(bits.shape).T)


# A value's text is built from 18 bytes: its sign ("-" or 0) and its 17
# digits. _KEEP[c] keeps the sign and the first c digits. The decimal point
# position D = -3..16 (D digits before the point) indexes, at D + 3: the low
# bytes that stay in place (the sign and, for D > 0, the D integer digits),
# the bytes put after them ("." or "0.", "0" * -D) and the shift, in bits,
# that makes room for those.
_KEEP = _low_bytes(np.arange(19) + 1)
_POINTS = np.arange(-3, 17)
_STAY = _low_bytes(np.where(_POINTS > 0, _POINTS + 1, 1))
_INSERT = tuple(np.ascontiguousarray(c) for c in np.array(
    [np.frombuffer((b"\0" + (b"\0" * d + b"." if d > 0 else b"0." + b"0" * -d)).ljust(24, b"\0"),
                   _WORD) for d in _POINTS]).T)
_SHIFT = np.where(_POINTS > 0, 8, 8 * (2 - _POINTS)).astype(_WORD)


def _format_values(x: np.ndarray, ends: np.ndarray) -> bytes:
    """The bytes of " ".join(map(repr, x)), with ends (one 64-bit word
    per value, holding " " or "\n" in its top byte) after each value in
    place of the spaces. Each value is formatted into a 32-byte slot whose
    unused bytes are 0; the slots are compacted in one step.

    Values whose repr is positional (1e-4 <= |x| < 1e16) and that are not
    powers of two: y = |x| * 10^k, with k the one that puts y in [1e16,
    1e17), is exact as Dekker's product p + lo, and the values that round
    to x scale to [y - h, y + h], h = 2^(e-54) * 10^k (x in [2^(e-1),
    2^e)). repr's digits are the integer of that interval with the most
    trailing zeros, and of those the nearest to y. The interval is under
    23 wide, so it holds at most one multiple of 100; with none, the
    nearest multiple of 10 that it holds; with none, round(y). Every other
    value, and any whose decision falls within _TIE of a tie, is written
    by repr itself."""
    a = np.abs(x)
    ok = (a >= 1e-4) & (a < 1e16)
    a = np.where(ok, a, 1.5)  # every step below stays finite
    mantissa, e = np.frexp(a)
    ok &= mantissa != 0.5
    k = 16 - (((e - 1) * 78913) >> 18)  # 16 - floor((e - 1) * log10(2))
    k -= a * _POW10[k] >= 1e17
    p = a * _POW10[k]
    c = a * _SPLITTER
    a_hi = c - (c - a)
    a_lo = a - a_hi
    t_hi, t_lo = _POW10_HI[k], _POW10_LO[k]
    lo = ((a_hi * t_hi - p) + a_hi * t_lo + a_lo * t_hi) + a_lo * t_lo
    ok &= ((p > 1e16) | ((p == 1e16) & (lo >= 0.0))) & (p < 1e17)
    h = np.ldexp(_POW10[k], e - 54)
    whole = np.floor(lo)
    f = lo - whole
    q = p.astype(np.int64) + whole.astype(np.int64)  # y = q + f
    tens = q // 10
    d10 = (q - 10 * tens) + f  # y minus the multiple of 10 below it
    hundreds = tens // 10
    d100 = 10 * (tens - 10 * hundreds) + d10
    upper = 100.0 - d100 <= h
    up = d10 > 5.0
    near10 = np.where(up, 10.0 - d10, d10)
    ok &= ~((np.abs(d100 - h) < _TIE) | (np.abs(100.0 - d100 - h) < _TIE)
            | (np.abs(d10 - 5.0) < _TIE) | (np.abs(near10 - h) < _TIE) | (np.abs(f - 0.5) < _TIE))
    n = np.where((d100 <= h) | upper, 100 * (hundreds + upper),
                 np.where(near10 <= h, 10 * (tens + up), q + (f > 0.5)))
    ok &= n < 10 ** 17  # x rounds up to a power of ten: not in [1e-4, 1e16)
    point = 17 - k  # digits before the decimal point
    # n's 17 digits: one, then four groups of four
    first = n // 10 ** 16
    rest = n - first * 10 ** 16
    high = rest // 10 ** 8
    low = rest - high * 10 ** 8
    g1 = high // 10000
    g2 = high - g1 * 10000
    g3 = low // 10000
    g4 = low - g3 * 10000
    zeros = _ZEROS4[g4]
    round4 = np.flatnonzero(g4 == 0)
    if round4.size:  # four or more trailing zeros
        more = _ZEROS4[g3[round4]]
        more += (more == 4) * _ZEROS4[g2[round4]]
        more += (more == 8) * _ZEROS4[g1[round4]]
        zeros[round4] += more
    kept = np.maximum(17 - zeros, point + 1)  # a digit after the point, as in 1200.0
    high8 = _DIGITS4[g1] | (_DIGITS4[g2] << 32)
    low8 = _DIGITS4[g3] | (_DIGITS4[g4] << 32)
    w0 = (x < 0) * np.uint64(45) | ((first.astype(_WORD) + 48) << 8) | (high8 << 16)
    w1 = (high8 >> 48) | (low8 << 16)
    w2 = low8 >> 48
    w0 &= _KEEP[0][kept]
    w1 &= _KEEP[1][kept]
    w2 &= _KEEP[2][kept]
    at = point + 3
    s0, s1, s2 = w0 & _STAY[0][at], w1 & _STAY[1][at], w2 & _STAY[2][at]
    w0 ^= s0
    w1 ^= s1
    w2 ^= s2
    shift = _SHIFT[at]
    back = 64 - shift
    slots = np.empty((x.size, 4), _WORD)
    slots[:, 0] = (w0 << shift) | s0 | _INSERT[0][at]
    slots[:, 1] = (w1 << shift) | (w0 >> back) | s1 | _INSERT[1][at]
    slots[:, 2] = (w2 << shift) | (w1 >> back) | s2 | _INSERT[2][at]
    slots[:, 3] = ends
    text = slots.view(np.uint8)
    others = np.flatnonzero(~ok)
    if others.size:
        text[others, :31] = np.frombuffer(
            b"".join(repr(v).encode("ascii").ljust(31, b"\0") for v in x[others].tolist()),
            np.uint8).reshape(-1, 31)
    return text[text != 0].tobytes()


def _format_rows(words, rows: np.ndarray, ends: np.ndarray) -> bytes:
    """The text lines of rows (a (n, d) block of the table) and their
    words; ends holds the separator words of at least n full rows."""
    lines = _format_values(rows.ravel(), ends[:rows.size]).splitlines(keepends=True)
    parts = [b""] * (2 * len(lines))
    parts[::2] = [(word + " ").encode("utf-8") for word in words]
    parts[1::2] = lines
    return b"".join(parts)


def _words_bytes(table: EmbeddingTable) -> bytes:
    """The table's words as UTF-8, each followed by "\\n": its copy's
    second part, before the padding. ValueError when V, d or this length
    cannot go in the copy's u32 descriptor."""
    data = "".join(word + "\n" for word in table.words).encode("utf-8")
    for n, what in ((len(table), "rows"), (table.dim, "values per row"),
                    (len(data), "bytes of words")):
        if n >= _U32:
            raise ValueError(f"{n} {what} do not fit in a table copy's u32 descriptor")
    return data


def _save_copy(path, table: EmbeddingTable, words: bytes, text_digest: bytes) -> None:
    """Write the table's copy to path: its values, then words (from
    _words_bytes) zero-padded to whole f64, each part hashed and written in
    turn, with text_digest, the SHA-256 of the text it copies."""
    parts = (np.ascontiguousarray(table.vectors, dtype="<f8"),
             np.frombuffer(words + bytes(-len(words) % 8), dtype="<f8"))
    payload = hashlib.sha256()
    for part in parts:
        payload.update(part)
    save_container(path, [KIND_TABLE, len(table), table.dim, *struct.unpack("<8I", text_digest),
                          *struct.unpack("<8I", payload.digest()), len(words)], *parts)


def save_word_embeddings(table: EmbeddingTable, path) -> None:
    """Write the same text format load_word_embeddings reads. Each float is
    written as its repr, so a save/load round trip is bit-exact. The text
    is formatted and written a block of whole rows (about _SAVE_VALUES
    values) at a time, so memory does not grow with the vocabulary; each
    block's floats are formatted in whole-array steps (_format_values) and
    only the values that rule does not cover go through repr itself. The
    text goes to a temporary file that replaces path once it is complete,
    so a failed write leaves any earlier table intact.

    A word holding " ", "\\n" or "\\r" is a ValueError, raised before
    anything is written: the reader splits a row at its spaces, and text
    mode ends a line at "\\r". So the text of every table this writes
    loads back to the table, with or without its copy. So is a V, d or
    length of the words too large for the copy's u32 descriptor.

    Then the copy (sidecar_path) is written the same way: an ECPE1
    container of kind KIND_TABLE whose descriptor is [KIND_TABLE, V, d,
    the SHA-256 of the text's bytes as 8 u32 words, the SHA-256 of the
    payload's bytes as 8 u32 words, the byte length of the words] and whose
    payload is the (V, d) values, then the words as UTF-8, each followed by
    "\\n", zero-padded to whole f64. The text's hash is taken from the
    bytes as they are written. A copy whose hashes do not match its text
    and its own payload is ignored, so a failure between the two writes,
    or a damaged copy, leaves a table that still loads from its text."""
    words = _words_bytes(table)
    if b" " in words or b"\r" in words or words.count(b"\n") != len(table):
        word = next(w for w in table.words if " " in w or "\n" in w or "\r" in w)
        raise ValueError(f"word {word!r} holds a space or a line end, "
                         "which the text format cannot carry")
    digest = hashlib.sha256()
    block = max(1, _SAVE_VALUES // table.dim)
    ends = np.full((min(block, len(table)), table.dim), ord(" ") << 56, dtype=_WORD)
    ends[:, -1] = ord("\n") << 56
    ends = ends.ravel()
    with atomic_open(path, "wb") as fh:
        header = f"{len(table)} {table.dim}\n".encode("utf-8")
        digest.update(header)
        fh.write(header)
        for start in range(0, len(table), block):
            data = _format_rows(table.words[start:start + block],
                                table.vectors[start:start + block], ends)
            digest.update(data)
            fh.write(data)
    _save_copy(sidecar_path(path), table, words, digest.digest())


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
