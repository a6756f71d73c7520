import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocause.clauses import (Sentence, Token, clause_span_for_verb,
                              extract_clauses, find_other_verbs, find_root,
                              parse_conllu)
from emocause.errors import DataError

from helpers import mutated_lines

FIXTURES = Path(__file__).parent / "fixtures"


def tok(i, text, upos, head, deprel="dep"):
    return Token(index=i, text=text, upos=upos, head=head, deprel=deprel)


def sentence(*tokens, review_id="r", sent_index=0):
    return Sentence(tuple(tokens), review_id=review_id, sent_index=sent_index)


def two_token():
    return sentence(tok(0, "dogs", "NOUN", 1, "nsubj"),
                    tok(1, "bark", "VERB", 1, "root"))


class TestParseConllu:
    def test_minimal_tree(self):
        text = ("1\tdogs\tdogs\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
                "2\tbark\tbark\tVERB\t_\t_\t0\troot\t_\t_\n")
        sentences = parse_conllu(text)
        assert len(sentences) == 1
        s = sentences[0]
        assert find_root(s) == 1
        assert s.tokens[0].head == 1
        assert s.tokens[1].head == 1  # root points at itself

    def test_self_loop_is_cycle_error(self):
        text = ("1\ta\ta\tNOUN\t_\t_\t1\tdep\t_\t_\n"
                "2\tb\tb\tVERB\t_\t_\t0\troot\t_\t_\n")
        with pytest.raises(DataError, match="cyclic"):
            parse_conllu(text)

    def test_golden_file_sentence_count_and_mwt_skip(self):
        text = (FIXTURES / "golden.conllu").read_text(encoding="utf-8")
        sentences = parse_conllu(text)
        assert len(sentences) == 12
        by_review = {s.review_id: s for s in sentences}
        assert by_review["fx08"].texts() == ["do", "n't", "worry"]
        assert by_review["fx01"].sent_index == 0

    def test_non_integer_id(self):
        with pytest.raises(DataError, match="non-integer token id"):
            parse_conllu("x\ta\ta\tNOUN\t_\t_\t0\troot\t_\t_\n")

    def test_head_out_of_range(self):
        with pytest.raises(DataError, match="out of range"):
            parse_conllu("1\ta\ta\tVERB\t_\t_\t7\troot\t_\t_\n")

    def test_zero_roots(self):
        text = ("1\ta\ta\tNOUN\t_\t_\t2\tdep\t_\t_\n"
                "2\tb\tb\tVERB\t_\t_\t1\tdep\t_\t_\n")
        with pytest.raises(DataError, match="cyclic|root"):
            parse_conllu(text)

    def test_multiple_roots(self):
        text = ("1\ta\ta\tVERB\t_\t_\t0\troot\t_\t_\n"
                "2\tb\tb\tVERB\t_\t_\t0\troot\t_\t_\n")
        with pytest.raises(DataError, match="2 root"):
            parse_conllu(text)

    def test_wrong_column_count(self):
        with pytest.raises(DataError, match="10 columns"):
            parse_conllu("1\ta\tNOUN\t0\troot\n")

    def test_empty_node_skipped(self):
        text = ("1\ta\ta\tVERB\t_\t_\t0\troot\t_\t_\n"
                "1.1\tghost\tghost\tVERB\t_\t_\t_\t_\t_\t_\n")
        s = parse_conllu(text)[0]
        assert s.texts() == ["a"]

    def test_sent_id_parsing(self):
        text = ("# sent_id = r0042.3\n"
                "1\tok\tok\tVERB\t_\t_\t0\troot\t_\t_\n")
        s = parse_conllu(text)[0]
        assert s.review_id == "r0042" and s.sent_index == 3

    @pytest.mark.parametrize("sid, review_id, sent_index, sent_id", [
        ("r1.00", "r1", 0, "r1.00"),  # keyed as written, not as r1.0
        ("r1.07", "r1", 7, "r1.07"),
        # a suffix of non-ASCII digits is no index: int() would fail on ²
        ("r1.\u00b2", "r1.\u00b2", 0, "r1.\u00b2.0"),
        ("r1.\u0663", "r1.\u0663", 0, "r1.\u0663.0"),
        ("plain", "plain", 0, "plain.0"),
    ])
    def test_sent_id_spellings(self, sid, review_id, sent_index, sent_id):
        text = (f"# sent_id = {sid}\n"
                "1\tok\tok\tVERB\t_\t_\t0\troot\t_\t_\n")
        s = parse_conllu(text)[0]
        assert (s.review_id, s.sent_index, s.sent_id) == (review_id, sent_index, sent_id)

    @pytest.mark.parametrize("field, text", [
        # past Python's 4300-digit limit on integer strings
        ("sentence index", "# sent_id = r1." + "9" * 5000 + "\n"
                           "1\tok\tok\tVERB\t_\t_\t0\troot\t_\t_\n"),
        ("token id", "9" * 5000 + "\tok\tok\tVERB\t_\t_\t0\troot\t_\t_\n"),
        ("HEAD", "1\tok\tok\tVERB\t_\t_\t" + "9" * 5000 + "\troot\t_\t_\n"),
    ], ids=["sent-id", "token-id", "head"])
    def test_huge_numbers_are_data_errors(self, field, text):
        with pytest.raises(DataError, match=field):
            parse_conllu(text)


class TestFindRoot:
    def test_two_token(self):
        assert find_root(two_token()) == 1

    def test_single_token(self):
        assert find_root(sentence(tok(0, "go", "VERB", 0, "root"))) == 0

    def test_seven_token_fixture(self):
        text = (FIXTURES / "golden.conllu").read_text(encoding="utf-8")
        s = {x.review_id: x for x in parse_conllu(text)}["fx04"]
        assert find_root(s) == 3  # "great"


class TestFindOtherVerbs:
    def test_no_other_verbs(self):
        assert find_other_verbs(two_token(), 1) == []

    def test_direct_verb_dependent(self):
        s = sentence(tok(0, "i", "PRON", 1, "nsubj"),
                     tok(1, "stayed", "VERB", 1, "root"),
                     tok(2, "because", "SCONJ", 4, "mark"),
                     tok(3, "i", "PRON", 4, "nsubj"),
                     tok(4, "loved", "VERB", 1, "advcl"),
                     tok(5, "it", "PRON", 4, "obj"))
        assert find_other_verbs(s, 1) == [4]

    def test_depth_two_verb_excluded(self):
        s = sentence(tok(0, "she", "PRON", 1, "nsubj"),
                     tok(1, "said", "VERB", 1, "root"),
                     tok(2, "he", "PRON", 3, "nsubj"),
                     tok(3, "thinks", "VERB", 1, "ccomp"),
                     tok(4, "it", "PRON", 5, "nsubj"),
                     tok(5, "works", "VERB", 3, "ccomp"))
        assert find_other_verbs(s, 1) == [3]


class TestClauseSpan:
    def test_childless_verb_single_token(self):
        s = sentence(tok(0, "stop", "VERB", 0, "root"),
                     tok(1, "and", "CCONJ", 2, "cc"),
                     tok(2, "think", "VERB", 0, "conj"))
        span = clause_span_for_verb(s, 0)
        assert (span.start, span.end, span.verb) == (0, 0, 0)

    def test_root_excludes_subclause_head(self):
        s = sentence(tok(0, "i", "PRON", 1, "nsubj"),
                     tok(1, "stayed", "VERB", 1, "root"),
                     tok(2, "because", "SCONJ", 4, "mark"),
                     tok(3, "i", "PRON", 4, "nsubj"),
                     tok(4, "loved", "VERB", 1, "advcl"),
                     tok(5, "it", "PRON", 4, "obj"))
        span = clause_span_for_verb(s, 1)
        assert (span.start, span.end) == (0, 1)

    def test_children_straddle_verb(self):
        s = sentence(tok(0, "she", "PRON", 1, "nsubj"),
                     tok(1, "says", "VERB", 1, "root"),
                     tok(2, "the", "DET", 3, "det"),
                     tok(3, "team", "NOUN", 5, "nsubj"),
                     tok(4, "often", "ADV", 5, "advmod"),
                     tok(5, "wins", "VERB", 1, "ccomp"),
                     tok(6, "big", "ADJ", 7, "amod"),
                     tok(7, "games", "NOUN", 5, "obj"))
        span = clause_span_for_verb(s, 5)
        assert (span.start, span.end, span.verb) == (3, 7, 5)


class TestExtractClauses:
    def test_single_verb_sentence(self):
        clauses = extract_clauses(two_token())
        assert len(clauses) == 1
        assert clauses[0].words == ("dogs", "bark")

    def test_two_clause_fixture(self):
        text = (FIXTURES / "golden.conllu").read_text(encoding="utf-8")
        s = {x.review_id: x for x in parse_conllu(text)}["fx04"]
        clauses = extract_clauses(s)
        assert [(c.span.start, c.span.end) for c in clauses] == [(1, 3), (4, 7)]
        assert clauses[0].text == "food was great"
        assert clauses[1].text == "because the chef cared"

    def test_verbless_noun_root(self):
        s = sentence(tok(0, "a", "DET", 2, "det"),
                     tok(1, "great", "ADJ", 2, "amod"),
                     tok(2, "product", "NOUN", 2, "root"))
        clauses = extract_clauses(s)
        assert len(clauses) == 1
        assert (clauses[0].span.start, clauses[0].span.end) == (0, 2)


class TestGoldenFixtures:
    """Acceptance criterion: 12 hand-built sentences, exact expected spans."""

    def test_all_expected_spans(self):
        text = (FIXTURES / "golden.conllu").read_text(encoding="utf-8")
        expected = json.loads((FIXTURES / "golden_spans.json").read_text())
        sentences = {s.review_id: s for s in parse_conllu(text)}
        assert set(expected) == set(sentences)
        for fixture_id, info in expected.items():
            clauses = extract_clauses(sentences[fixture_id])
            got = [[c.span.start, c.span.end, c.span.verb] for c in clauses]
            assert got == info["spans"], f"{fixture_id}: {info['case']}"


class TestSentenceInvariants:
    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            Sentence(())

    def test_noncontiguous_rejected(self):
        with pytest.raises(DataError, match="contiguous"):
            sentence(tok(0, "a", "NOUN", 1), tok(2, "b", "VERB", 2, "root"))

    def test_cycle_rejected(self):
        with pytest.raises(DataError, match="cyclic"):
            sentence(tok(0, "a", "NOUN", 1), tok(1, "b", "NOUN", 0),
                     tok(2, "c", "VERB", 2, "root"))

    def test_two_roots_rejected(self):
        with pytest.raises(DataError, match="2 root"):
            sentence(tok(0, "a", "VERB", 0, "root"), tok(1, "b", "VERB", 1, "root"))


@st.composite
def random_sentences(draw):
    n = draw(st.integers(min_value=1, max_value=15))
    order = draw(st.permutations(range(n)))
    upos_pool = ("VERB", "NOUN", "ADJ", "ADV", "PRON", "ADP")
    heads = {}
    for pos, node in enumerate(order):
        if pos == 0:
            heads[node] = node
        else:
            heads[node] = order[draw(st.integers(0, pos - 1))]
    tokens = []
    for i in range(n):
        upos = draw(st.sampled_from(upos_pool))
        deprel = "root" if heads[i] == i else "dep"
        tokens.append(Token(index=i, text=f"t{i}", upos=upos,
                            head=heads[i], deprel=deprel))
    return Sentence(tuple(tokens))


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(random_sentences())
    def test_invariants_on_random_trees(self, s):
        clauses = extract_clauses(s)
        assert clauses
        keys = [(c.span.start, c.span.end) for c in clauses]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        root = find_root(s)
        root_span = clause_span_for_verb(s, root)
        assert any(c.span.start <= root_span.start and root_span.end <= c.span.end
                   for c in clauses)
        for c in clauses:
            assert c.span.start <= c.span.verb <= c.span.end
            assert 0 <= c.span.start <= c.span.end < len(s)
            assert len(c.words) == c.span.end - c.span.start + 1
        assert extract_clauses(s) == clauses


GOLDEN = (FIXTURES / "golden.conllu").read_bytes()


@settings(max_examples=150, deadline=1000)
@given(data=st.data())
def test_a_mutated_parse_file_parses_or_raises_data_error(data):
    # readers open parses as UTF-8; invalid bytes are decoded as U+FFFD so
    # that every example reaches the parser
    text = data.draw(mutated_lines(GOLDEN)).decode("utf-8", "replace")
    try:
        sentences = parse_conllu(text)
    except DataError:
        return
    for s in sentences:  # what extract-clauses does with them next
        extract_clauses(s)
