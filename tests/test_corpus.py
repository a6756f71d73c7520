import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocause import synthetic
from emocause.clauses import extract_clauses, parse_conllu
from emocause.corpus import GoldCause, ReviewRecord, load_corpus, save_corpus
from emocause.embeddings import (EMOTIONS, load_emotion_lexicon,
                                 load_word_embeddings)
from emocause.errors import DataError

from helpers import mutated_lines


def record(i, **kw):
    fields = dict(review_id=f"r{i}", product_id="p0", stars=4,
                  text="it was fine", parse_ids=(f"r{i}.0",))
    fields.update(kw)
    return ReviewRecord(**fields)


def write_lines(path, objs):
    path.write_text("\n".join(json.dumps(o) for o in objs) + "\n", encoding="utf-8")
    return path


def valid_obj(i):
    return {"review_id": f"r{i}", "product_id": "p0", "stars": 3,
            "text": "ok", "parse_ids": [f"r{i}.0"]}


class TestLoadCorpus:
    def test_two_valid_lines(self, tmp_path):
        p = write_lines(tmp_path / "c.jsonl", [valid_obj(0), valid_obj(1)])
        records = load_corpus(p)
        assert [r.review_id for r in records] == ["r0", "r1"]

    def test_duplicate_id_names_line(self, tmp_path):
        p = write_lines(tmp_path / "c.jsonl", [valid_obj(0), valid_obj(0)])
        with pytest.raises(DataError, match=r"c\.jsonl:2.*duplicate"):
            load_corpus(p)

    def test_gold_emotion_without_cause_rejected(self, tmp_path):
        obj = valid_obj(0)
        obj["gold_emotion"] = "joy"
        p = write_lines(tmp_path / "c.jsonl", [obj])
        with pytest.raises(DataError, match="together"):
            load_corpus(p)

    def test_bad_stars(self, tmp_path):
        obj = valid_obj(0)
        obj["stars"] = 6
        p = write_lines(tmp_path / "c.jsonl", [obj])
        with pytest.raises(DataError, match="stars"):
            load_corpus(p)

    @pytest.mark.parametrize("key,value,message", [
        ("stars", True, "stars must be an integer"),
        ("parse_ids", "r0.0", "parse_ids must be a list of strings"),
        ("parse_ids", 5, "parse_ids must be a list of strings"),
        ("parse_ids", ["r0.0", 1], "parse_ids must be a list of strings"),
        ("review_id", 7, "review_id must be a string"),
        ("text", None, "text must be a string"),
        ("gold_cause", {"sentence_index": 0, "start": "1", "end": 2}, "malformed gold_cause"),
        ("gold_cause", {"sentence_index": 0, "start": 1.5, "end": 2}, "malformed gold_cause"),
        ("gold_cause", [0, 1, 2], "malformed gold_cause"),
        # a span that contradicts its own record: no clause could ever match it
        ("gold_cause", {"sentence_index": 7, "start": 5, "end": 2},
         "gold_cause sentence_index 7 is not an index into the 1 parse_ids"),
        ("gold_cause", {"sentence_index": -1, "start": 1, "end": 2},
         "gold_cause sentence_index -1 is not an index"),
        ("gold_cause", {"sentence_index": 0, "start": 5, "end": 2},
         r"gold_cause span 5\.\.2 does not satisfy"),
        ("gold_cause", {"sentence_index": 0, "start": -1, "end": 2},
         r"gold_cause span -1\.\.2 does not satisfy"),
        # JSON escapes that decode to lone surrogates, which no UTF-8 writer
        # can encode
        ("product_id", "p00\udc80", "product_id is not valid UTF-8: lone surrogate "
         r"'\\udc80' at index 3"),
        ("review_id", "\ud800r0", "review_id is not valid UTF-8"),
        ("text", "fine \udfff", "text is not valid UTF-8"),
        ("parse_ids", ["r0.\udc80"], "parse_ids is not valid UTF-8"),
    ], ids=["stars-bool", "parse-ids-string", "parse-ids-number", "parse-id-number",
            "review-id-number", "text-null", "cause-string", "cause-float", "cause-list",
            "cause-sentence-past-end", "cause-sentence-negative", "cause-start-after-end",
            "cause-start-negative", "product-id-surrogate", "review-id-surrogate",
            "text-surrogate", "parse-id-surrogate"])
    def test_wrong_field_type_names_line(self, tmp_path, key, value, message):
        obj = {**valid_obj(0), "gold_emotion": "joy",
               "gold_cause": {"sentence_index": 0, "start": 1, "end": 2}}
        obj[key] = value
        p = write_lines(tmp_path / "c.jsonl", [valid_obj(1), obj])
        with pytest.raises(DataError, match=rf"c\.jsonl:2: {message}"):
            load_corpus(p)

    def test_surrogate_pair_escape_accepted(self, tmp_path):
        # a pair of escapes is one valid character, U+1F600
        obj = {**valid_obj(0), "text": "\ud83d\ude00"}
        p = write_lines(tmp_path / "c.jsonl", [obj])
        assert load_corpus(p)[0].text == "\U0001F600"

    def test_missing_field_reports_line(self, tmp_path):
        obj = valid_obj(0)
        del obj["text"]
        p = write_lines(tmp_path / "c.jsonl", [valid_obj(1), obj])
        with pytest.raises(DataError, match=r":2: missing field 'text'"):
            load_corpus(p)

    def test_invalid_json_reports_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(json.dumps(valid_obj(0)) + "\n{broken\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2"):
            load_corpus(p)

    @pytest.mark.parametrize("line", [
        "[" * 100_000,  # json.loads raises RecursionError
        '{"review_id": "r0", "stars": ' + "7" * 5000 + "}",  # past the 4300-digit limit
    ], ids=["deep-nesting", "huge-integer"])
    def test_any_json_failure_names_the_line(self, tmp_path, line):
        p = tmp_path / "c.jsonl"
        p.write_text(json.dumps(valid_obj(0)) + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"c\.jsonl:2: invalid JSON"):
            load_corpus(p)

    def test_round_trip(self, tmp_path):
        records = [record(0), record(1, gold_emotion="fear",
                                     gold_cause=GoldCause(0, 2, 5), stars=1)]
        p = tmp_path / "c.jsonl"
        save_corpus(records, p)
        assert load_corpus(p) == records


class TestRecordInvariants:
    def test_gold_fields_together(self):
        with pytest.raises(DataError):
            record(0, gold_emotion="joy")
        with pytest.raises(DataError):
            record(0, gold_cause=GoldCause(0, 0, 1))

    def test_unknown_gold_emotion(self):
        with pytest.raises(DataError):
            record(0, gold_emotion="meh", gold_cause=GoldCause(0, 0, 1))

    def test_star_bounds(self):
        for bad in (0, 6, 2.5, True):
            with pytest.raises(DataError):
                record(0, stars=bad)


class TestSyntheticCorpus:
    def test_default_scale_counts(self):
        records, _ = synthetic.generate_synthetic_corpus(0)
        assert len(records) == 1000
        by_product = Counter(r.product_id for r in records)
        assert len(by_product) == 50
        assert set(by_product.values()) == {20}

    def test_every_record_has_gold(self):
        records, _ = synthetic.generate_synthetic_corpus(3, n_products=4,
                                                         n_reviews=40)
        for r in records:
            assert r.gold_emotion in EMOTIONS
            assert r.gold_cause is not None

    def test_deterministic_per_seed(self):
        a = synthetic.generate_synthetic_corpus(11, n_products=3, n_reviews=12)
        b = synthetic.generate_synthetic_corpus(11, n_products=3, n_reviews=12)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_different_seeds_differ(self):
        a = synthetic.generate_synthetic_corpus(1, n_products=3, n_reviews=12)
        b = synthetic.generate_synthetic_corpus(2, n_products=3, n_reviews=12)
        assert a != b

    def test_gold_cause_matches_extracted_clause_with_marker(self):
        records, conllu = synthetic.generate_synthetic_corpus(5, n_products=5,
                                                              n_reviews=50)
        sentences = {s.sent_id: s for s in parse_conllu(conllu)}
        for r in records:
            sid = r.parse_ids[r.gold_cause.sentence_index]
            clauses = extract_clauses(sentences[sid])
            match = [c for c in clauses
                     if (c.span.start, c.span.end) == (r.gold_cause.start,
                                                       r.gold_cause.end)]
            assert len(match) == 1
            assert any(w in synthetic.MARKERS for w in match[0].words)

    def test_text_is_token_join(self):
        records, conllu = synthetic.generate_synthetic_corpus(9, n_products=2,
                                                              n_reviews=10)
        sentences = {s.sent_id: s for s in parse_conllu(conllu)}
        for r in records:
            tokens = [t for pid in r.parse_ids for t in sentences[pid].texts()]
            assert r.text == " ".join(tokens)

    def test_emotion_word_in_text(self):
        records, _ = synthetic.generate_synthetic_corpus(2, n_products=2,
                                                         n_reviews=20)
        for r in records:
            words = set(r.text.split())
            assert words & set(synthetic.EMOTION_WORDS[r.gold_emotion])


class TestSyntheticSidecars:
    def test_embeddings_cover_vocabulary(self, tmp_path):
        table = synthetic.synthetic_embeddings(4)
        assert set(table.words) == set(synthetic.template_vocabulary())
        records, _ = synthetic.generate_synthetic_corpus(4, n_products=3,
                                                         n_reviews=30)
        for r in records:
            for token in r.text.split():
                assert token in table

    def test_embeddings_deterministic_and_loadable(self, tmp_path):
        import numpy as np
        a = synthetic.synthetic_embeddings(8)
        b = synthetic.synthetic_embeddings(8)
        assert a.words == b.words and np.array_equal(a.vectors, b.vectors)
        from emocause.embeddings import save_word_embeddings
        p = tmp_path / "e.txt"
        save_word_embeddings(a, p)
        assert np.array_equal(load_word_embeddings(p).vectors, a.vectors)

    def test_lexicon_rows_loadable_and_complete(self, tmp_path):
        rows = synthetic.synthetic_lexicon_rows(4)
        p = tmp_path / "l.tsv"
        synthetic.write_lexicon(rows, p)
        lexicon = load_emotion_lexicon(p)
        for words in synthetic.EMOTION_WORDS.values():
            for w in words:
                assert w in lexicon
        # the planted secondary emotions survive the round trip
        assert len(lexicon.entries["alarmed"]) == 2


GOOD_CORPUS = "".join(json.dumps(o, ensure_ascii=False) + "\n" for o in (
    valid_obj(0),
    dict(valid_obj(1), stars=1, text="the zipper jamm\u00e9d", parse_ids=["r1.0", "r1.1"],
         gold_emotion="fear", gold_cause={"sentence_index": 1, "start": 0, "end": 2}),
)).encode("utf-8")


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus") / "c.jsonl"


@settings(max_examples=100, deadline=1000)
@given(data=st.data())
def test_a_mutated_corpus_loads_or_raises_data_error(corpus_path, data):
    bad = data.draw(mutated_lines(GOOD_CORPUS))
    corpus_path.write_bytes(bad)
    try:
        records = load_corpus(corpus_path)
    except DataError:
        return
    except UnicodeDecodeError:  # the CLI's exit 2 for a file that is not UTF-8
        with pytest.raises(UnicodeDecodeError):
            bad.decode("utf-8")
        return
    assert all(isinstance(r, ReviewRecord) for r in records)
    assert len({r.review_id for r in records}) == len(records)
