import hashlib
import io
import math
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emocause import embeddings
from emocause.embeddings import (DEFAULT_TOP_K, EMOTIONS, EmbeddingTable,
                                 EmotionLexicon, build_emotion_aware_table,
                                 build_similarity_matrix, cosine_similarity,
                                 load_emotion_lexicon, load_word_embeddings,
                                 save_word_embeddings, sidecar_path)
from emocause.errors import DataError, OovError
from emocause.nn.serialize import KIND_TABLE, load_container, save_container

from conftest import random_table
from helpers import (mutated_container, mutated_lines, reference_emotion_aware_table,
                     top_k_emotion_words)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadWordEmbeddings:
    def test_minimal_file(self, tmp_path):
        p = write(tmp_path / "v.txt", "2 3\ngood 1 0 0\nbad 0 1 0\n")
        table = load_word_embeddings(p)
        assert len(table) == 2 and table.dim == 3
        assert np.array_equal(table["good"], [1.0, 0.0, 0.0])

    def test_dimension_mismatch(self, tmp_path):
        p = write(tmp_path / "v.txt", "1 3\ngood 1 0\n")
        with pytest.raises(DataError, match="expected 3"):
            load_word_embeddings(p)

    def test_malformed_header(self, tmp_path):
        p = write(tmp_path / "v.txt", "three words here\ngood 1 0\n")
        with pytest.raises(DataError, match="header"):
            load_word_embeddings(p)

    @pytest.mark.parametrize("dim", [embeddings.MAX_DIM + 1, 2 ** 63, 2 ** 64],
                             ids=["past-max", "2^63", "2^64"])
    def test_dim_past_the_address_space_rejected(self, tmp_path, dim):
        # with no rows, numpy used to raise on the final (0, dim) reshape
        p = write(tmp_path / "v.txt", f"0 {dim}\n")
        with pytest.raises(DataError, match=rf"v\.txt: bad header values 0 {dim}"):
            load_word_embeddings(p)

    def test_widest_dim_reads_as_an_empty_table(self, tmp_path):
        table = load_word_embeddings(write(tmp_path / "v.txt", f"0 {embeddings.MAX_DIM}\n"))
        assert len(table) == 0 and table.dim == embeddings.MAX_DIM

    def test_duplicate_word(self, tmp_path):
        p = write(tmp_path / "v.txt", "2 2\na 1 0\na 0 1\n")
        with pytest.raises(DataError, match="duplicate"):
            load_word_embeddings(p)

    def test_zero_vector_rejected(self, tmp_path):
        p = write(tmp_path / "v.txt", "1 2\na 0 0\n")
        with pytest.raises(DataError, match="zero"):
            load_word_embeddings(p)

    def test_count_mismatch(self, tmp_path):
        p = write(tmp_path / "v.txt", "2 2\na 1 0\n")
        with pytest.raises(DataError, match="promises 2"):
            load_word_embeddings(p)

    def test_word2vec_trailing_space(self, tmp_path):
        # the word2vec C tool ends every row with a space
        p = write(tmp_path / "v.txt", "2 3\nhello 0.1 0.2 0.3 \nworld 1 0 0 \n")
        table = load_word_embeddings(p)
        assert table.words == ("hello", "world")
        assert np.array_equal(table["hello"], [0.1, 0.2, 0.3])

    @pytest.mark.parametrize("row", ["a nan 1.0", "b inf 2.0", "c 1.0 -inf"])
    def test_non_finite_value_rejected(self, tmp_path, row):
        p = write(tmp_path / "v.txt", f"2 2\nok 1.0 2.0\n{row}\n")
        with pytest.raises(DataError, match=r"v\.txt:3: non-finite"):
            load_word_embeddings(p)

    def test_round_trip_bit_exact(self, tmp_path, rng):
        table = random_table(rng, 50, 7)
        p = tmp_path / "v.txt"
        save_word_embeddings(table, p)
        loaded = load_word_embeddings(p)
        assert loaded.words == table.words
        assert np.array_equal(loaded.vectors, table.vectors)


    def test_failed_save_leaves_the_earlier_table(self, tmp_path, rng, monkeypatch):
        p = tmp_path / "v.txt"
        save_word_embeddings(random_table(rng, 3, 4), p)
        before = p.read_bytes()
        sidecar_before = (tmp_path / "v.txt.ecpe").read_bytes()
        blocks = 0
        format_rows = embeddings._format_rows

        def failing_format_rows(*args):  # fails on the second block, after the first is written
            nonlocal blocks
            blocks += 1
            if blocks == 2:
                assert (tmp_path / "v.txt").read_bytes() == before
                assert len(list(tmp_path.glob("v.txt.*.tmp"))) == 1
                raise RuntimeError("formatting failed")
            return format_rows(*args)

        monkeypatch.setattr(embeddings, "_format_rows", failing_format_rows)
        with pytest.raises(RuntimeError, match="formatting failed"):
            save_word_embeddings(random_table(rng, 5000, 4), p)
        assert blocks == 2
        assert p.read_bytes() == before
        assert (tmp_path / "v.txt.ecpe").read_bytes() == sidecar_before
        assert sorted(f.name for f in tmp_path.iterdir()) == ["v.txt", "v.txt.ecpe"]

    def test_saved_text_is_pinned(self, tmp_path):
        table = EmbeddingTable(["up", "down"], [[0.1, -2.5e-07, 1e+16], [3.0, -0.0, 5e-324]])
        p = tmp_path / "v.txt"
        save_word_embeddings(table, p)
        assert p.read_text(encoding="utf-8") == (
            "2 3\nup 0.1 -2.5e-07 1e+16\ndown 3.0 -0.0 5e-324\n")

def repr_lines(words, rows) -> bytes:
    """The text rows as save_word_embeddings wrote them with repr."""
    return "".join(word + " " + " ".join(map(repr, row)) + "\n"
                   for word, row in zip(words, np.asarray(rows).tolist())).encode("utf-8")


def formatted(rows) -> bytes:
    rows = np.asarray(rows, dtype=np.float64)
    ends = np.full(rows.shape, ord(" ") << 56, dtype=embeddings._WORD)
    ends[:, -1] = ord("\n") << 56
    return embeddings._format_rows([f"w{i}" for i in range(len(rows))], rows, ends.ravel())


def float_families(rng, n):
    """Seeded families of values, each a flat array of about n floats."""
    decimals = np.array([round(v, int(places)) for v, places in
                         zip(rng.normal(size=n) * 10.0 ** rng.integers(-3, 9, n),
                             rng.integers(1, 16, n))])
    powers10 = 10.0 ** rng.integers(-6, 18, n)
    return {
        "normal": rng.normal(size=n),
        "exponents": rng.normal(size=n) * 10.0 ** rng.uniform(-6, 17, n),
        "decimals": decimals,
        "decimals-up": np.nextafter(decimals, np.inf),
        "decimals-down": np.nextafter(decimals, -np.inf),
        "powers-of-ten": powers10,
        "powers-of-ten-up": np.nextafter(powers10, np.inf),
        "powers-of-ten-down": np.nextafter(powers10, -np.inf),
        "integers": rng.integers(-10 ** 6, 10 ** 6, n).astype(np.float64),
        "big-integers": rng.integers(-10 ** 16, 10 ** 16, n).astype(np.float64),
        "powers-of-two": np.ldexp(rng.choice([-1.0, 1.0], n), rng.integers(-1074, 1024, n)),
        "bit-patterns": rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64),
    }


class TestBlockFormatter:
    """The writer's block formatter gives the bytes of repr, value by value."""

    @pytest.mark.parametrize("family", sorted(float_families(np.random.default_rng(0), 1)))
    def test_seeded_family_matches_repr(self, family):
        rows = float_families(np.random.default_rng(2024), 3000)[family].reshape(-1, 6)
        assert formatted(rows) == repr_lines([f"w{i}" for i in range(len(rows))], rows)

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 9)),
                  elements=st.floats(width=64)))
    def test_any_float64_matches_repr(self, rows):
        assert formatted(rows) == repr_lines([f"w{i}" for i in range(len(rows))], rows)

    def test_edge_values_raise_no_numpy_warning(self):
        rows = np.array([[0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308],
                         [1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 0.5, 1.0, -1e308]])
        with np.errstate(all="raise"):
            text = formatted(rows)
        assert text == repr_lines(["w0", "w1"], rows)

    def test_a_table_of_several_blocks_matches_repr(self, tmp_path, rng):
        table = random_table(rng, 2 * embeddings._SAVE_VALUES // 7 + 3, 7)
        p = tmp_path / "v.txt"
        save_word_embeddings(table, p)
        assert p.read_bytes() == b"%d 7\n" % len(table) + repr_lines(table.words, table.vectors)

    def test_memory_does_not_grow_with_the_vocabulary(self, tmp_path, rng):
        peaks = []
        for words in (1000, 4000):
            table = random_table(rng, words, 300)
            tracemalloc.start()
            try:
                save_word_embeddings(table, tmp_path / "v.txt")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks


BLOCK = embeddings.BLOCK_LINES


def row_text(rng, i, dim):
    """Row i's value tokens in one of the spellings a table may use, with
    the float() value of each token."""
    kind = i % 4
    if kind == 0:  # a saved table: shortest round-trip repr
        values = rng.normal(size=dim) * 10.0 ** rng.integers(-20, 20, size=dim)
        tokens = [repr(float(v)) for v in values]
    elif kind == 1:  # a raw word2vec table: six decimals
        tokens = [f"{v:.6f}" for v in rng.uniform(-9, 9, size=dim)]
    elif kind == 2:  # 17 significant digits and the extremes
        special = ["-0.0", "5e-324", "2.2250738585072e-308", "1e+300", "-1e+300",
                   "1e-300", "-1e-300", "4.9406564584124654e-324"]
        tokens = [special[j % len(special)] if j % 2 else f"{v:.16e}"
                  for j, v in enumerate(rng.normal(size=dim))]
    else:  # integers and short forms
        tokens = [str(int(v)) if j % 2 else f"{v:.3g}"
                  for j, v in enumerate(rng.integers(-50, 50, size=dim) + 0.5)]
    return tokens, [float(t) for t in tokens]


def awkward_table(rng, n, dim=5):
    """n rows of values over the whole exponent range, with -0.0 and the
    smallest subnormal."""
    vectors = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-300, 300, size=(n, dim))
    vectors[::7, 0] = -0.0
    vectors[::11, 1] = 5e-324
    return EmbeddingTable([f"w{i}" for i in range(n)], vectors)


def write_rows(path, rows, dim, endings=("\n", " \n", "\r\n", " \r\n"), header=None):
    """A table of (word, tokens) rows; row i ends with endings[i % len]:
    newline or CRLF, with or without word2vec's trailing space."""
    lines = [header or f"{len(rows)} {dim}\n"]
    lines += [w + " " + " ".join(tokens) + endings[i % len(endings)]
              for i, (w, tokens) in enumerate(rows)]
    path.write_bytes("".join(lines).encode("utf-8"))
    return path


def plain_rows(n, dim=3):
    return [(f"w{i}", [str(i + 1)] + ["0.5"] * (dim - 1)) for i in range(n)]


class TestBlockedLoad:
    """load_word_embeddings converts BLOCK_LINES rows at a time; values and
    errors must not depend on where the block boundaries fall."""

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_every_spelling_reads_as_float_does(self, tmp_path, rng, n):
        dim = 9
        rows, expected = [], []
        for i in range(n):
            tokens, values = row_text(rng, i, dim)
            rows.append((f"w{i}", tokens))
            expected.append(values)
        table = load_word_embeddings(write_rows(tmp_path / "v.txt", rows, dim))
        assert table.words == tuple(w for w, _ in rows)
        assert table.vectors.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_round_trip_bit_exact_across_blocks(self, tmp_path, rng, n):
        table = awkward_table(rng, n)
        p = tmp_path / "v.txt"
        save_word_embeddings(table, p)
        os.unlink(sidecar_path(p))  # read the values from the text
        assert load_word_embeddings(p).vectors.tobytes() == table.vectors.tobytes()

    BAD_ROW = BLOCK + 5  # in the second block

    @pytest.mark.parametrize("tokens, message", [
        (["1", "2"], "2 values for 'bad', expected 3"),
        (["1", "2", "x"], "non-numeric value for 'bad'"),
        (["1", "nan", "2"], "non-finite value for 'bad'"),
        (["0", "-0.0", "0e5"], "all-zero vector for 'bad'"),
    ], ids=["width", "non-numeric", "non-finite", "all-zero"])
    def test_row_error_past_the_first_block_names_its_line(self, tmp_path, tokens, message):
        rows = plain_rows(BLOCK + 20)
        rows[self.BAD_ROW] = ("bad", tokens)
        p = write_rows(tmp_path / "v.txt", rows, 3)
        # header is line 1, so row r is line r + 2
        with pytest.raises(DataError, match=rf"v\.txt:{self.BAD_ROW + 2}: {message}$"):
            load_word_embeddings(p)

    def test_duplicate_past_the_first_block_names_its_line(self, tmp_path):
        rows = plain_rows(BLOCK + 20)
        rows[self.BAD_ROW] = ("w3", rows[self.BAD_ROW][1])
        p = write_rows(tmp_path / "v.txt", rows, 3)
        with pytest.raises(DataError, match=rf"v\.txt:{self.BAD_ROW + 2}: duplicate word 'w3'$"):
            load_word_embeddings(p)

    def test_blank_lines_count_in_line_numbers(self, tmp_path):
        rows = plain_rows(BLOCK + 20)
        rows[self.BAD_ROW] = ("bad", ["1", "2", "x"])
        p = write_rows(tmp_path / "v.txt", rows, 3, endings=("\n", "\n\n", "\n \n"))
        # a blank or space-only line follows each row r with r % 3 != 0
        line = 2 + self.BAD_ROW + sum(i % 3 != 0 for i in range(self.BAD_ROW))
        with pytest.raises(DataError, match=rf"v\.txt:{line}: non-numeric"):
            load_word_embeddings(p)

    def test_earliest_error_wins_within_a_block(self, tmp_path):
        # the non-numeric row comes first, in the block the width error ends
        rows = plain_rows(40)
        rows[10] = ("early", ["1", "y", "2"])
        rows[30] = ("late", ["1", "2"])
        p = write_rows(tmp_path / "v.txt", rows, 3)
        with pytest.raises(DataError, match=r"v\.txt:12: non-numeric value for 'early'$"):
            load_word_embeddings(p)

    @pytest.mark.parametrize("token", ["1,5", "", "0x1p3", "1e", "--1", "\x1c1"])
    def test_non_numeric_value(self, tmp_path, token):
        p = write_rows(tmp_path / "v.txt", [("a", ["1", "2"]), ("b", [token, "3"])], 2)
        with pytest.raises(DataError, match=r"v\.txt:3: non-numeric value for 'b'$"):
            load_word_embeddings(p)

    @staticmethod
    def spy_on_converters(monkeypatch):
        """Counts of np.loadtxt calls and of values converted by float()."""
        calls = {"loadtxt": 0, "float": 0}
        loadtxt = np.loadtxt

        def counted_loadtxt(*args, **kwargs):
            calls["loadtxt"] += 1
            return loadtxt(*args, **kwargs)

        def counted_float(text):
            calls["float"] += 1
            return float(text)

        monkeypatch.setattr(embeddings.np, "loadtxt", counted_loadtxt)
        monkeypatch.setattr(embeddings, "float", counted_float, raising=False)
        return calls

    def test_one_loadtxt_call_per_block_and_no_float_call(self, tmp_path, monkeypatch):
        p = write_rows(tmp_path / "v.txt", plain_rows(2 * BLOCK + 1), 3)
        calls = self.spy_on_converters(monkeypatch)
        load_word_embeddings(p)
        assert calls == {"loadtxt": 3, "float": 0}

    def test_only_the_rejected_block_is_read_by_float(self, tmp_path, monkeypatch):
        rows = plain_rows(2 * BLOCK + 1)
        rows[BLOCK + 1] = ("odd", ["1", "1_0", "2"])
        p = write_rows(tmp_path / "v.txt", rows, 3)
        calls = self.spy_on_converters(monkeypatch)
        assert load_word_embeddings(p)["odd"].tolist() == [1.0, 10.0, 2.0]
        assert calls == {"loadtxt": 3, "float": 3 * BLOCK}

    @pytest.mark.parametrize("token, value", [
        ("1_0", 10.0), ("2_5e-1_0", 2.5e-9), ("\u0661\u0662", 12.0), ("\uff13", 3.0),
        ("1\t", 1.0), ("\xa07", 7.0),
    ])
    def test_spellings_only_float_accepts(self, tmp_path, token, value):
        # numpy's reader rejects these; the block falls back to float()
        rows = plain_rows(BLOCK + 3)
        rows[BLOCK + 1] = ("odd", ["1", token, "2"])
        table = load_word_embeddings(write_rows(tmp_path / "v.txt", rows, 3))
        assert table["odd"].tolist() == [1.0, value, 2.0]
        assert table.vectors.tobytes() == np.array(
            [[float(t) for t in tokens] for _, tokens in rows]).tobytes()


def sidecar_words(path):
    """The SHA-256 of path's bytes as the 8 u32 words a sidecar stores."""
    return list(struct.unpack("<8I", hashlib.sha256(path.read_bytes()).digest()))


def payload_words(*parts):
    """The SHA-256 of the parts' bytes, one after another, as the 8 u32
    words a sidecar stores."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(np.ascontiguousarray(part))
    return list(struct.unpack("<8I", digest.digest()))


def words_part(words, data=None):
    """(the words' byte length, the f64 part that holds them): each word as
    UTF-8 followed by "\\n", or data as given, zero-padded to whole f64."""
    if data is None:
        data = "".join(w + "\n" for w in words).encode("utf-8")
    return len(data), np.frombuffer(data + bytes(-len(data) % 8), dtype="<f8")


def spy_on_block_values(monkeypatch):
    calls = []
    convert = embeddings._block_values

    def counted(path, rests, words, linenos):
        calls.append(len(rests))
        return convert(path, rests, words, linenos)

    monkeypatch.setattr(embeddings, "_block_values", counted)
    return calls


def spy_on_text_reads(monkeypatch):
    """The mode of each file embeddings opens, and "text" for each file it
    then reads as text."""
    reads = []

    def opened(path, mode="r", *args, **kwargs):
        reads.append(mode)
        return open(path, mode, *args, **kwargs)

    def wrapped(*args, **kwargs):
        reads.append("text")
        return io.TextIOWrapper(*args, **kwargs)

    monkeypatch.setattr(embeddings, "open", opened, raising=False)
    monkeypatch.setattr(embeddings, "TextIOWrapper", wrapped)
    return reads


class TestSidecar:
    """save_word_embeddings writes an exact binary copy next to the text,
    which load_word_embeddings uses only while it matches the text."""

    def test_layout_is_the_documented_one(self, tmp_path, rng):
        table = EmbeddingTable(["w0", "", "\u00e9t\u00e9", "w3", "w4", "w5"],
                               rng.normal(size=(6, 4)))
        p = tmp_path / "v.txt"
        save_word_embeddings(table, p)
        assert sidecar_path(p) == str(tmp_path / "v.txt.ecpe")
        descriptor, payload = load_container(sidecar_path(p))
        assert KIND_TABLE == 5
        size, words = words_part(table.words)
        assert size == 19 and words.nbytes == 24
        assert list(descriptor) == ([KIND_TABLE, 6, 4] + sidecar_words(p)
                                    + payload_words(table.vectors, words) + [size])
        assert payload.tobytes() == (table.vectors.tobytes()
                                     + b"w0\n\n\xc3\xa9t\xc3\xa9\nw3\nw4\nw5\n\0\0\0\0\0")

    def test_load_with_sidecar_equals_load_without(self, tmp_path, rng):
        table = awkward_table(rng, 2 * BLOCK + 3)
        p = tmp_path / "v.txt"
        save_word_embeddings(table, p)
        fast = load_word_embeddings(p)
        os.unlink(sidecar_path(p))
        slow = load_word_embeddings(p)
        assert fast.words == slow.words == table.words
        assert fast.vectors.tobytes() == slow.vectors.tobytes() == table.vectors.tobytes()

    def test_a_hit_converts_no_text(self, tmp_path, rng, monkeypatch):
        p = tmp_path / "v.txt"
        save_word_embeddings(random_table(rng, 2 * BLOCK + 1, 3), p)
        calls = spy_on_block_values(monkeypatch)
        load_word_embeddings(p)
        assert calls == []
        os.unlink(sidecar_path(p))
        load_word_embeddings(p)
        assert calls == [BLOCK, BLOCK, 1]

    def test_a_hit_reads_the_text_only_to_hash_it(self, tmp_path, rng, monkeypatch):
        # the words come from the copy: no line of the text is read as text
        p = tmp_path / "v.txt"
        table = random_table(rng, 2 * BLOCK + 1, 3)
        save_word_embeddings(table, p)
        reads = spy_on_text_reads(monkeypatch)
        loaded = load_word_embeddings(p)
        assert reads == ["rb"]
        assert loaded.words == table.words
        os.unlink(sidecar_path(p))
        assert load_word_embeddings(p).words == table.words
        assert reads == ["rb", "rb", "text"]

    def test_a_stale_sidecar_is_ignored(self, tmp_path, rng):
        p = tmp_path / "v.txt"
        save_word_embeddings(random_table(rng, 4, 3), p)
        lines = p.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[3] = "w2 7.5 0.25 1.0\n"
        p.write_text("".join(lines), encoding="utf-8")
        assert load_word_embeddings(p)["w2"].tolist() == [7.5, 0.25, 1.0]

    def test_a_stale_sidecar_with_the_same_values_is_ignored(self, tmp_path, rng, monkeypatch):
        # a word renamed in the text: the copy's words are not used either
        p = tmp_path / "v.txt"
        save_word_embeddings(random_table(rng, 4, 3), p)
        p.write_bytes(p.read_bytes().replace(b"\nw2 ", b"\nz2 "))
        calls = spy_on_block_values(monkeypatch)
        assert load_word_embeddings(p).words == ("w0", "w1", "z2", "w3")
        assert calls == [4]

    @pytest.mark.parametrize("fault", ["truncated", "magic", "kind", "rows", "dim", "size",
                                       "kind-3", "digest", "kind-4", "word-count", "utf-8",
                                       "length", "text-digest"])
    def test_a_sidecar_that_does_not_fit_is_ignored(self, tmp_path, rng, monkeypatch, fault):
        # each bad sidecar holds the text's hash but other values and
        # words, with their own digest unless the digest is the fault, so
        # using it would show
        table = random_table(rng, 4, 6)
        p = tmp_path / "v.txt"
        save_word_embeddings(table, p)
        kind, rows, dim, values = KIND_TABLE, 4, 6, 2.0 * table.vectors
        words, text = ["x0", "x1", "x2", "x3"], sidecar_words(p)
        data = None
        if fault == "kind":
            kind = 1
        elif fault == "rows":
            rows, values, words = 3, values[:3], words[:3]
        elif fault == "dim":
            dim, values = 5, values.ravel()[:20]
        elif fault == "size":
            values = np.append(values, 1.0)
        elif fault == "word-count":
            words = words[:3]
        elif fault == "utf-8":
            data = b"\xffx0\nx1\nx2\nx3\n"
        elif fault == "text-digest":
            text = [text[0] ^ 1] + text[1:]
        size, part = words_part(words, data)
        digest = payload_words(table.vectors if fault == "digest" else values, part)
        if fault == "length":  # the words' length reaches past the payload
            size += 8
        descriptor = [kind, rows, dim] + text + digest + [size]
        if fault == "kind-3":  # the sidecar before it carried its payload's digest
            descriptor, part = [3, rows, dim] + text, part[:0]
        elif fault == "kind-4":  # the sidecar before it carried the words
            descriptor, part = [4, rows, dim] + text + payload_words(values), part[:0]
        save_container(sidecar_path(p), descriptor, values, part)
        sidecar = tmp_path / "v.txt.ecpe"
        if fault == "truncated":
            sidecar.write_bytes(sidecar.read_bytes()[:-12])
        elif fault == "magic":
            sidecar.write_bytes(b"not a table")
        calls = spy_on_block_values(monkeypatch)
        loaded = load_word_embeddings(p)
        assert calls == [4]
        assert loaded.words == table.words
        assert loaded.vectors.tobytes() == table.vectors.tobytes()

    def test_a_duplicate_word_in_a_fitting_sidecar_is_a_data_error(self, tmp_path, rng):
        table = random_table(rng, 3, 2)
        p = tmp_path / "v.txt"
        save_word_embeddings(table, p)
        size, part = words_part(["w0", "w1", "w0"])
        save_container(sidecar_path(p), [KIND_TABLE, 3, 2] + sidecar_words(p)
                       + payload_words(table.vectors, part) + [size], table.vectors, part)
        with pytest.raises(DataError, match=r"v\.txt: duplicate word 'w0' in its copy .*v\.txt\.ecpe$"):
            load_word_embeddings(p)

    def test_a_saved_nan_still_names_its_line(self, tmp_path, monkeypatch):
        p = tmp_path / "v.txt"
        save_word_embeddings(EmbeddingTable(["a", "b"], [[1.0, 2.0], [3.0, math.nan]]), p)
        calls = spy_on_block_values(monkeypatch)
        with pytest.raises(DataError, match=r"v\.txt:3: non-finite value for 'b'$"):
            load_word_embeddings(p)
        assert calls == []

    @pytest.mark.parametrize("word", ["b c", "b\nc", "b\rc", "\r", " "],
                             ids=["space", "newline", "return", "lone-return", "lone-space"])
    def test_the_writer_refuses_a_word_the_text_cannot_carry(self, tmp_path, word):
        # the reader would split the row at the space or the line end, so
        # the text would not load back to the table its copy holds
        p = tmp_path / "v.txt"
        with pytest.raises(ValueError, match="holds a space or a line end"):
            save_word_embeddings(EmbeddingTable(["a", word], [[1.0, 2.0], [3.0, 4.0]]), p)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dim", [5, 2 ** 32 - 1])
    def test_an_empty_table_saves_and_loads_through_both_paths(self, tmp_path, dim):
        p = tmp_path / "v.txt"
        save_word_embeddings(EmbeddingTable([], np.zeros((0, dim))), p)
        assert p.read_bytes() == f"0 {dim}\n".encode("ascii")
        for table in (load_word_embeddings(p), load_word_embeddings(p, tmp_path / "none")):
            assert table.words == () and table.vectors.shape == (0, dim)

    @pytest.mark.parametrize("rows,dim", [(0, 10 ** 12), (0, 2 ** 32)])
    def test_a_shape_the_copy_cannot_hold_is_refused_before_any_write(self, tmp_path, rows, dim):
        # the text path reads "0 1000000000000"; saving it once sized a
        # 7.28-TiB separator array
        table = load_word_embeddings(write(tmp_path / "in.txt", f"{rows} {dim}\n"))
        with pytest.raises(ValueError, match=f"{dim} values per row do not fit"):
            save_word_embeddings(table, tmp_path / "v.txt")
        assert [f.name for f in tmp_path.iterdir()] == ["in.txt"]


class TestInputCopy:
    """build-embeddings asks the loader to write a copy of the raw table it
    read (copy_to), for summarize, which reads the raw text through it."""

    def test_a_raw_text_loads_the_same_through_its_copy(self, tmp_path, rng, monkeypatch):
        # CRLF and LF rows, word2vec's trailing spaces, a blank line and
        # six-decimal values: the copy holds what the text path read
        rows = [(f"w{i}", [f"{v:.6f}" for v in rng.uniform(-1, 1, 4)]) for i in range(9)]
        p = write_rows(tmp_path / "raw.txt", rows, 4, header="9 4\r\n\n")
        copy = tmp_path / "aware.txt.raw.ecpe"
        assert embeddings.input_copy_path(tmp_path / "aware.txt") == str(copy)
        slow = load_word_embeddings(p, copy_to=copy)
        assert not os.path.exists(sidecar_path(p))
        reads = spy_on_text_reads(monkeypatch)
        fast = load_word_embeddings(p, copy)
        assert reads == ["rb"]
        assert fast.words == slow.words and fast.vectors.tobytes() == slow.vectors.tobytes()

    def test_the_copy_holds_the_digest_of_the_bytes_it_was_read_from(self, tmp_path, rng,
                                                                     monkeypatch):
        # the text is replaced between its hash and its parse: the copy
        # pairs the old text's digest with the old text's values, so it
        # does not fit the new text
        p, new = tmp_path / "raw.txt", tmp_path / "new.txt"
        old_table, new_table = random_table(rng, 3, 2), random_table(rng, 3, 2)
        save_word_embeddings(old_table, p)
        save_word_embeddings(new_table, new)
        hash_text = embeddings._hash_text

        def replaced_after_hashing(raw):
            out = hash_text(raw)
            os.replace(new, p)
            return out

        monkeypatch.setattr(embeddings, "_hash_text", replaced_after_hashing)
        copy = tmp_path / "copy.ecpe"
        loaded = load_word_embeddings(p, tmp_path / "none", copy_to=copy)
        assert loaded.vectors.tobytes() == old_table.vectors.tobytes()
        monkeypatch.undo()
        calls = spy_on_block_values(monkeypatch)
        assert load_word_embeddings(p, copy).vectors.tobytes() == new_table.vectors.tobytes()
        assert calls == [3]

    def test_a_failed_load_writes_no_copy(self, tmp_path):
        p = write(tmp_path / "raw.txt", "2 2\na 1 0\na 0 1\n")
        with pytest.raises(DataError, match="duplicate"):
            load_word_embeddings(p, copy_to=tmp_path / "copy.ecpe")
        assert [f.name for f in tmp_path.iterdir()] == ["raw.txt"]


def load_outcome(path, copy_path=None):
    """("table", words, value bytes) or ("error", message) of one load."""
    try:
        table = load_word_embeddings(path, copy_path)
    except DataError as err:
        return "error", str(err)
    return "table", table.words, table.vectors.tobytes()


@pytest.fixture(scope="module")
def sidecar_cases(tmp_path_factory):
    """name -> (a table's path, its sidecar's bytes, the text path's outcome).
    The text of "nan" is refused by the text path too."""
    rng = np.random.default_rng(7)
    tables = {"valid": random_table(rng, 6, 4),
              "nan": EmbeddingTable(["a", "b"], [[1.0, 2.0], [3.0, math.nan]])}
    out = {}
    for name, table in tables.items():
        p = tmp_path_factory.mktemp("sidecar") / "v.txt"
        save_word_embeddings(table, p)
        sidecar = Path(sidecar_path(p))
        good = sidecar.read_bytes()
        sidecar.unlink()
        out[name] = p, good, load_outcome(p)
    return out


# module-level functions: hypothesis refuses a parametrized method, whose
# calls come from more than one instance
@pytest.mark.parametrize("name", ["valid", "nan"])
@settings(max_examples=100, deadline=1000)
@given(data=st.data())
def test_a_mutated_sidecar_gives_the_text_paths_outcome(sidecar_cases, name, data):
    p, good, text_outcome = sidecar_cases[name]
    bad = data.draw(mutated_container(good))
    Path(sidecar_path(p)).write_bytes(bad)
    # anything but a DataError propagates; a sidecar whose bytes changed
    # fails its digests and is ignored, and one whose mutations undid each
    # other is the exact copy of the text
    assert load_outcome(p) == text_outcome


def test_a_sidecar_with_a_changed_value_is_not_read(sidecar_cases):
    p, good, text_outcome = sidecar_cases["valid"]
    bad = bytearray(good)
    bad[-1] ^= 1
    Path(sidecar_path(p)).write_bytes(bad)
    assert load_outcome(p) == text_outcome


# any word the text format carries: no space, no line end, no lone surrogate
CARRIED_WORD = st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                              blacklist_characters=" \n\r"), max_size=6)


@st.composite
def carried_tables(draw):
    """(words, values) of a table the writer accepts: "" and non-ASCII
    words, V = 0 and d = 1 among them, any float64 but all-zero rows."""
    words = draw(st.lists(CARRIED_WORD, max_size=6, unique=True))
    values = draw(arrays(np.float64, (len(words), draw(st.integers(1, 4))),
                         elements=st.floats(allow_subnormal=True, width=64)))
    assume(np.all(np.any(values, axis=1)))
    return words, values


@pytest.fixture(scope="module")
def carried_path(tmp_path_factory):
    return tmp_path_factory.mktemp("carried") / "v.txt"


@settings(max_examples=100, deadline=1000)
@given(carried_tables())
@example(([], np.zeros((0, 1))))
@example(([""], np.ones((1, 1))))
@example((["\u00e9t\u00e9", "\u2028", "\x85", "\t", "\x00", "\ufeff"], np.ones((6, 2))))
def test_a_table_loads_the_same_with_and_without_its_copy(carried_path, table):
    words, values = table
    save_word_embeddings(EmbeddingTable(words, values), carried_path)
    with_copy = load_outcome(carried_path)
    without = load_outcome(carried_path, Path(str(carried_path) + ".none"))
    assert with_copy == without
    if with_copy[0] == "table":  # non-finite values are refused by both
        assert with_copy == ("table", tuple(words), values.tobytes())


class TestLoadEmotionLexicon:
    def test_single_row(self, tmp_path):
        p = write(tmp_path / "l.tsv", "furious\tanger\t0.964\n")
        lex = load_emotion_lexicon(p)
        assert lex.entries["furious"] == (("anger", 0.964),)

    def test_intensity_out_of_range(self, tmp_path):
        p = write(tmp_path / "l.tsv", "calm\ttrust\t1.5\n")
        with pytest.raises(DataError, match="outside"):
            load_emotion_lexicon(p)

    def test_unknown_emotion(self, tmp_path):
        p = write(tmp_path / "l.tsv", "calm\tserenity\t0.5\n")
        with pytest.raises(DataError, match="unknown emotion"):
            load_emotion_lexicon(p)

    def test_malformed_row(self, tmp_path):
        p = write(tmp_path / "l.tsv", "calm trust 0.5\n")
        with pytest.raises(DataError, match="3 tab-separated"):
            load_emotion_lexicon(p)

    def test_multi_emotion_word(self, tmp_path):
        p = write(tmp_path / "l.tsv", "alarm\tfear\t0.8\nalarm\tsurprise\t0.6\n")
        lex = load_emotion_lexicon(p)
        assert lex.entries["alarm"] == (("fear", 0.8), ("surprise", 0.6))
        assert lex.max_intensity("alarm") == 0.8


TABLE = "3 4\ngood 1 0 0.5 -2\nbad 0 1e-3 0 1\n\u00e9t\u00e9 0.25 0.5 0.75 1\n".encode("utf-8")


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("table") / "v.txt"


@settings(max_examples=100, deadline=1000)
@given(data=st.data())
def test_a_mutated_table_loads_or_raises_data_error(table_path, data):
    bad = data.draw(mutated_lines(TABLE))
    table_path.write_bytes(bad)
    assert not os.path.exists(sidecar_path(table_path))  # the text path
    try:
        table = load_word_embeddings(table_path)
    except DataError:
        return
    except UnicodeDecodeError:  # the CLI's exit 2 for a file that is not UTF-8
        with pytest.raises(UnicodeDecodeError):
            bad.decode("utf-8")
        return
    assert table.vectors.shape == (len(table), table.dim)
    assert np.all(np.isfinite(table.vectors))


LEXICON = ("furious\tanger\t0.964\nalarm\tfear\t0.8\nalarm\tsurprise\t0.6\n"
           "calm\ttrust\t0.25\nglad\tjoy\t1\nsorry\tsadness\t0.0\n").encode("utf-8")


@pytest.fixture(scope="module")
def lexicon_path(tmp_path_factory):
    return tmp_path_factory.mktemp("lexicon") / "l.tsv"


@settings(max_examples=150, deadline=1000)
@given(data=st.data())
def test_a_mutated_lexicon_loads_or_raises_data_error(lexicon_path, data):
    bad = data.draw(mutated_lines(LEXICON))
    lexicon_path.write_bytes(bad)
    try:
        lexicon = load_emotion_lexicon(lexicon_path)
    except DataError:
        return
    except UnicodeDecodeError:  # the CLI's exit 2 for a file that is not UTF-8
        with pytest.raises(UnicodeDecodeError):
            bad.decode("utf-8")
        return
    for pairs in lexicon.entries.values():
        assert all(e in EMOTIONS and 0.0 <= x <= 1.0 for e, x in pairs)


class TestCosineSimilarity:
    def test_self_similarity(self, rng):
        v = rng.normal(size=5)
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_value(self):
        # dot = 32, norms = sqrt(14) * sqrt(77)
        expected = 32.0 / math.sqrt(14.0 * 77.0)
        assert expected == pytest.approx(0.974631846, abs=1e-6)
        assert cosine_similarity([1, 2, 3], [4, 5, 6]) == pytest.approx(expected, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            cosine_similarity([1.0], [1.0, 2.0])


def lexicon_for(words, intensity=0.9):
    return EmotionLexicon({w: (("joy", intensity),) for w in words})


class TestSimilarityMatrix:
    def test_single_self_entry(self):
        table = EmbeddingTable(["joyful"], [[1.0, 2.0]])
        matrix = build_similarity_matrix(table, lexicon_for(["joyful"]))
        assert matrix.values.shape == (1, 1)
        assert matrix.values[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_empty_intersection(self, rng):
        table = random_table(rng, 3, 4)
        with pytest.raises(DataError, match="no lexicon word"):
            build_similarity_matrix(table, lexicon_for(["absent"]))

    def test_matches_elementwise_oracle(self, rng):
        table = random_table(rng, 5, 6)
        emotion_words = ["w1", "w3", "w4"]
        matrix = build_similarity_matrix(table, lexicon_for(emotion_words))
        assert matrix.emotion_words == tuple(sorted(emotion_words))
        for i, w in enumerate(table.words):
            for j, ew in enumerate(matrix.emotion_words):
                expected = cosine_similarity(table[w], table[ew])
                assert matrix.values[i, j] == pytest.approx(expected, abs=1e-12)


class TestTopK:
    def test_truncates_to_available(self):
        table = EmbeddingTable(["joyful", "other"], [[1.0, 0.0], [0.5, 0.5]])
        matrix = build_similarity_matrix(table, lexicon_for(["joyful"]))
        assert len(top_k_emotion_words(matrix, table, "other", k=2)) == 1

    def test_lexicographic_tie_break(self):
        # b and c share a vector, so their similarities tie exactly
        table = EmbeddingTable(["w", "a", "b", "c"],
                               [[1.0, 0.0], [0.9, 0.1], [0.5, 0.5], [0.5, 0.5]])
        matrix = build_similarity_matrix(table, lexicon_for(["a", "b", "c"]))
        top = top_k_emotion_words(matrix, table, "w", k=2)
        assert [w for w, _ in top] == ["a", "b"]
        assert top[0][1] > top[1][1]

    def test_self_is_top(self, rng):
        table = random_table(rng, 4, 5)
        matrix = build_similarity_matrix(table, lexicon_for(["w2", "w3"]))
        top = top_k_emotion_words(matrix, table, "w2", k=2)
        assert top[0][0] == "w2"
        assert top[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_unknown_word(self, rng):
        table = random_table(rng, 3, 4)
        matrix = build_similarity_matrix(table, lexicon_for(["w0"]))
        with pytest.raises(KeyError):
            top_k_emotion_words(matrix, table, "nope", k=2)

    def test_matches_brute_force_scan(self, rng):
        # oracle: scan all emotion columns, sort by (-sim, word)
        for _ in range(100):
            n = int(rng.integers(3, 10))
            table = random_table(rng, n, 4)
            emotion_words = [f"w{i}" for i in range(int(rng.integers(1, n)))]
            matrix = build_similarity_matrix(table, lexicon_for(emotion_words))
            word = f"w{int(rng.integers(n))}"
            expected = sorted(
                ((ew, cosine_similarity(table[word], table[ew]))
                 for ew in emotion_words),
                key=lambda pair: (-pair[1], pair[0]))[:DEFAULT_TOP_K]
            got = top_k_emotion_words(matrix, table, word, DEFAULT_TOP_K)
            assert [w for w, _ in got] == [w for w, _ in expected]
            for (_, s_got), (_, s_exp) in zip(got, expected):
                assert s_got == pytest.approx(s_exp, abs=1e-12)


def aware_row(table, lexicon, word, k=DEFAULT_TOP_K):
    return build_emotion_aware_table(table, lexicon, k)[word]


class TestBlend:
    # the blend step of build_emotion_aware_table, read back from the aware
    # row as blend = 2 * aware - raw

    def test_single_word_yields_its_vector(self, rng):
        e, noise = rng.normal(size=(2, 3))
        table = EmbeddingTable(["w0", "w1"], [e, e + 0.1 * noise])
        lex = lexicon_for(["w0"], intensity=0.4)
        blend = 2.0 * aware_row(table, lex, "w1") - table["w1"]
        assert np.allclose(blend, table["w0"], atol=1e-12)

    def test_hand_weights(self):
        # w sits at 45 degrees to both emotion words; intensities (0.5, 1.0)
        # give weights 1/3, 2/3, so the blend is [2/3, 8/3]
        table = EmbeddingTable(["e1", "e2", "w"], [[2.0, 0.0], [0.0, 4.0], [1.0, 1.0]])
        lex = EmotionLexicon({"e1": (("joy", 0.5),), "e2": (("fear", 1.0),)})
        assert np.allclose(aware_row(table, lex, "w"), [5.0 / 6.0, 11.0 / 6.0],
                           atol=1e-12)

    def test_all_nonpositive_sims(self):
        # similarity 0 to e1, negative to e2, positive only to e3 whose
        # intensity is 0: every weight is zero, so w keeps its raw vector
        table = EmbeddingTable(["e1", "e2", "e3", "w"],
                               [[0.0, 1.0], [-1.0, 0.5], [1.0, 0.2], [1.0, 0.0]])
        lex = EmotionLexicon({"e1": (("joy", 0.9),), "e2": (("anger", 0.9),),
                              "e3": (("fear", 0.0),)})
        aware = build_emotion_aware_table(table, lex, k=3)
        assert np.array_equal(aware["w"], table["w"])

    def test_max_intensity_for_multi_emotion_word(self):
        table = EmbeddingTable(["e1", "e2", "w"], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        lex = EmotionLexicon({"e1": (("fear", 0.2), ("surprise", 0.8)),
                              "e2": (("joy", 0.4),)})
        # equal similarities; weights 0.8 and 0.4 -> blend [2/3, 1/3]
        assert np.allclose(aware_row(table, lex, "w"), [5.0 / 6.0, 2.0 / 3.0],
                           atol=1e-12)

    def test_weights_nonnegative_and_normalized(self, rng):
        # emotion words on scaled basis vectors: the blend is 2 * weights
        for _ in range(50):
            k = int(rng.integers(1, 4))
            w = rng.normal(size=3)
            table = EmbeddingTable(["e0", "e1", "e2", "w"], np.vstack([np.eye(3) * 2.0, w]))
            lex = EmotionLexicon({f"e{i}": (("joy", float(rng.uniform(0.1, 1.0))),)
                                  for i in range(3)})
            aware = aware_row(table, lex, "w", k)
            if np.all(w <= 0):
                assert np.array_equal(aware, w)
                continue
            weights = (2.0 * aware - w) / 2.0
            assert np.all(weights >= -1e-12)
            assert np.count_nonzero(np.abs(weights) > 1e-12) <= k
            assert weights.sum() == pytest.approx(1.0, abs=1e-9)


class TestOverlay:
    # the overlay step: the aware vector is the midpoint of raw and blend

    def test_idempotent_on_equal(self, rng):
        # the only emotion word shares w's vector, so blend == raw
        v = rng.normal(size=4)
        table = EmbeddingTable(["e", "w"], [v, v])
        assert np.array_equal(aware_row(table, lexicon_for(["e"]), "w"), v)

    def test_midpoint(self):
        table = EmbeddingTable(["e", "w"], [[2.0, 2.0], [2.0, 0.0]])
        assert np.array_equal(aware_row(table, lexicon_for(["e"]), "w"), [2.0, 1.0])

    def test_contraction_property(self, rng):
        # the blend is a convex combination of emotion vectors, so each word
        # moves at most half way to its farthest emotion word
        for _ in range(100):
            table = random_table(rng, 6, 6)
            emotion_words = ["w0", "w1", "w2"]
            aware = build_emotion_aware_table(table, lexicon_for(emotion_words), k=3)
            for word in table.words:
                reach = max(np.linalg.norm(table[e] - table[word]) for e in emotion_words)
                assert (np.linalg.norm(aware[word] - table[word])
                        <= reach / 2.0 + 1e-12)


class TestBuildEmotionAwareTable:
    def test_pure_emotion_word_is_fixed_point(self):
        table = EmbeddingTable(["joyful"], [[1.0, 2.0]])
        aware = build_emotion_aware_table(table, lexicon_for(["joyful"]))
        assert np.allclose(aware["joyful"], table["joyful"], atol=1e-12)

    def test_vocabulary_and_dim_preserved(self, rng):
        table = random_table(rng, 8, 5)
        aware = build_emotion_aware_table(table, lexicon_for(["w0", "w3"]))
        assert aware.words == table.words
        assert aware.dim == table.dim

    def test_matches_hand_composed_oracle(self, rng):
        # toy 4-word vocab, 2 emotion words; compose the expected rows from
        # scratch with raw numpy
        vecs = rng.normal(size=(4, 3))
        table = EmbeddingTable(["a", "b", "e1", "e2"], vecs)
        lex = EmotionLexicon({"e1": (("joy", 0.7),), "e2": (("anger", 0.9),)})
        aware = build_emotion_aware_table(table, lex)

        def unit(v):
            return v / np.linalg.norm(v)

        intensities = {"e1": 0.7, "e2": 0.9}
        for i, word in enumerate(table.words):
            sims = {ew: float(unit(vecs[i]) @ unit(table[ew])) for ew in ("e1", "e2")}
            weights = {ew: max(s, 0.0) * intensities[ew] for ew, s in sims.items()}
            total = sum(weights.values())
            if total == 0.0:
                expected = vecs[i]
            else:
                blend = sum(w / total * table[ew] for ew, w in weights.items())
                expected = (vecs[i] + blend) / 2.0
            assert np.allclose(aware[word], expected, atol=1e-9), word

    def test_word_without_positive_similarity_unchanged(self):
        table = EmbeddingTable(["w", "e"], [[1.0, 0.0], [-1.0, 0.0]])
        lex = EmotionLexicon({"e": (("anger", 1.0),)})
        aware = build_emotion_aware_table(table, lex)
        assert np.array_equal(aware["w"], table["w"])

    def test_scale_invariance(self, rng):
        table = random_table(rng, 6, 4)
        lex = lexicon_for(["w1", "w4"], intensity=0.8)
        aware = build_emotion_aware_table(table, lex)
        scaled = EmbeddingTable(table.words, table.vectors * 4.0)
        aware_scaled = build_emotion_aware_table(scaled, lex)
        # powers of two scale without rounding, so this is exact
        assert np.array_equal(aware_scaled.vectors, aware.vectors * 4.0)

    def test_matches_per_word_oracle_with_ties(self, rng):
        # duplicated and axis-aligned vectors make exact similarity ties;
        # duplicates carry distinct intensities, so the tie order shows in
        # the output
        for trial in range(300):
            n = int(rng.integers(2, 12))
            dim = int(rng.integers(1, 5))
            n_base = int(rng.integers(1, n + 1))
            if trial % 2:
                base = np.eye(dim)[rng.integers(0, dim, size=n_base)]
                base *= rng.choice([-2.0, -1.0, 1.0, 2.0], size=(n_base, 1))
            else:
                base = rng.integers(-2, 3, size=(n_base, dim)).astype(float)
                base[~base.any(axis=1), 0] = 1.0
            table = EmbeddingTable([f"w{i}" for i in range(n)],
                                   base[rng.integers(0, n_base, size=n)])
            emotion_words = rng.choice(table.words, size=int(rng.integers(1, n + 1)),
                                       replace=False)
            lex = EmotionLexicon({
                str(w): tuple((EMOTIONS[int(rng.integers(8))],
                               float(rng.choice([0.0, 0.25, 0.5, 1.0])))
                              for _ in range(int(rng.integers(1, 3))))
                for w in emotion_words})
            k = int(rng.integers(1, 5))
            got = build_emotion_aware_table(table, lex, k)
            expected = reference_emotion_aware_table(table, lex, k)
            assert np.allclose(got.vectors, expected, rtol=0.0, atol=1e-12), (trial, k)

    def test_k_must_be_positive(self, rng):
        table = random_table(rng, 3, 2)
        with pytest.raises(ValueError, match="positive"):
            build_emotion_aware_table(table, lexicon_for(["w0"]), k=0)

    def test_deterministic(self, rng):
        table = random_table(rng, 10, 4)
        lex = lexicon_for(["w2", "w5", "w7"])
        a = build_emotion_aware_table(table, lex)
        b = build_emotion_aware_table(table, lex)
        assert np.array_equal(a.vectors, b.vectors)


class TestEmbeddingTableInvariants:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingTable(["a", "a"], [[1.0], [2.0]])

    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError, match="zero"):
            EmbeddingTable(["a", "b"], [[1.0], [0.0]])

    def test_vectors_read_only(self):
        table = EmbeddingTable(["a"], [[1.0, 2.0]])
        with pytest.raises(ValueError):
            table["a"][0] = 5.0

    def test_emotion_labels_are_plutchik_eight(self):
        assert EMOTIONS == ("anger", "anticipation", "disgust", "fear",
                            "joy", "sadness", "surprise", "trust")


class TestEmbeddingTableRows:
    def test_all_known(self, rng):
        table = random_table(rng, 5, 4)
        xs = table.rows(("w0", "w2", "w4"))
        assert xs.shape == (3, 4)
        assert np.array_equal(xs[1], table["w2"])

    def test_unknown_skipped(self, rng):
        table = random_table(rng, 3, 4)
        xs = table.rows(("w1", "zz", "yy"))
        assert xs.shape == (1, 4)

    def test_all_unknown_raises(self, rng):
        table = random_table(rng, 3, 4)
        with pytest.raises(OovError):
            table.rows(("zz", "yy"))

    def test_rows_follow_token_order(self, rng):
        table = random_table(rng, 5, 3)
        assert np.array_equal(table.rows(("w4", "w0", "w2")), table.vectors[[4, 0, 2]])

    def test_repeated_tokens_repeat_rows(self, rng):
        table = random_table(rng, 5, 3)
        assert np.array_equal(table.rows(("w1", "w3", "w1", "w1")),
                              table.vectors[[1, 3, 1, 1]])

    def test_oov_tokens_dropped_in_place(self, rng):
        table = random_table(rng, 5, 3)
        assert np.array_equal(table.rows(("zz", "w2", "yy", "w0", "zz")),
                              table.vectors[[2, 0]])

    def test_empty_token_list_raises(self, rng):
        table = random_table(rng, 3, 4)
        with pytest.raises(OovError):
            table.rows(())
