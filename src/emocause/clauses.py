"""Dependency-based clause segmentation.

Sentences arrive as CoNLL-U dependency parses. A sentence's clauses are
headed by its ROOT token plus every VERB whose only ancestor is the root
(i.e. a direct dependent of it). A head's clause spans from its leftmost to
its rightmost direct child, with children that are themselves clausal heads
excluded so subordinate clauses are not swallowed; the head itself is
always inside its span.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DataError


@dataclass(frozen=True)
class Token:
    index: int
    text: str
    upos: str
    head: int  # index of the head token; the root points at itself
    deprel: str

    def is_root(self) -> bool:
        return self.deprel.lower() == "root"


@dataclass(frozen=True)
class Sentence:
    tokens: tuple
    review_id: str = ""
    sent_index: int = 0
    id_text: str = ""  # the "# sent_id" comment's id, when it named one

    def __post_init__(self):
        n = len(self.tokens)
        if n == 0:
            raise DataError("empty sentence")
        roots = []
        for pos, tok in enumerate(self.tokens):
            if tok.index != pos:
                raise DataError(f"token indices not contiguous at position {pos}")
            if not 0 <= tok.head < n:
                raise DataError(f"head {tok.head} of token {tok.index} out of range")
            if tok.is_root():
                roots.append(tok)
        if len(roots) != 1:
            raise DataError(f"sentence has {len(roots)} root tokens, expected 1")
        if roots[0].head != roots[0].index:
            raise DataError("root token must point at itself")
        # every non-root chain must reach the root without looping
        root = roots[0].index
        for tok in self.tokens:
            cur, steps = tok.index, 0
            while cur != root:
                cur = self.tokens[cur].head
                steps += 1
                if steps > n:
                    raise DataError(f"cyclic head chain at token {tok.index}")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def sent_id(self) -> str:
        """The id as the parses spell it (r1.00 stays r1.00), else
        "<review_id>.<sent_index>"."""
        return self.id_text or f"{self.review_id}.{self.sent_index}"

    def texts(self) -> list[str]:
        return [t.text for t in self.tokens]


@dataclass(frozen=True)
class ClauseSpan:
    start: int
    end: int  # inclusive
    verb: int  # index of the clausal head


@dataclass(frozen=True)
class Clause:
    span: ClauseSpan
    words: tuple
    sentence: Sentence

    @property
    def text(self) -> str:
        return " ".join(self.words)


def parse_conllu(text: str) -> list[Sentence]:
    """Parse CoNLL-U text into sentences with 0-based reindexed tokens.

    Comment lines are honored for "# sent_id = <review_id>.<n>", n in
    ASCII digits; the sentence keeps the id as written (Sentence.sent_id).
    Another id is taken as the review id, with the sentence's position as
    its index. Multiword token ranges (1-2) and empty nodes (1.1) are
    skipped. HEAD=0 marks the root, which is stored pointing at itself.
    """
    sentences = []
    rows: list[tuple[int, str, str, int, str]] = []
    review_id = id_text = ""
    sent_index: int | None = None
    default_index = 0

    def flush():
        nonlocal rows, review_id, sent_index, id_text, default_index
        if not rows:
            review_id, sent_index, id_text = "", None, ""
            return
        ids = [r[0] for r in rows]
        if ids != list(range(1, len(rows) + 1)):
            raise DataError("token ids are not contiguous from 1")
        tokens = []
        for conllu_id, form, upos, head, deprel in rows:
            if not 0 <= head <= len(rows):
                raise DataError(f"HEAD {head} out of range for token {conllu_id}")
            idx = conllu_id - 1
            tokens.append(Token(index=idx, text=form, upos=upos,
                                head=idx if head == 0 else head - 1, deprel=deprel))
        index = sent_index if sent_index is not None else default_index
        sentences.append(Sentence(tuple(tokens), review_id=review_id, sent_index=index,
                                  id_text=id_text))
        default_index += 1
        rows, review_id, sent_index, id_text = [], "", None, ""

    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip()
        if not line:
            flush()
            continue
        if line.startswith("#"):
            comment = line[1:].strip()
            if comment.startswith("sent_id") and "=" in comment:
                sid = comment.split("=", 1)[1].strip()
                base, _, suffix = sid.rpartition(".")
                if base and suffix.isascii() and suffix.isdigit():
                    try:
                        sent_index = int(suffix)
                    except ValueError:  # past Python's limit on integer strings
                        raise DataError(f"line {lineno}: sentence index of {len(suffix)} "
                                        "digits") from None
                    review_id, id_text = base, sid
                else:
                    review_id, sent_index, id_text = sid, None, ""
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise DataError(f"line {lineno}: expected 10 columns, got {len(cols)}")
        raw_id = cols[0]
        if "-" in raw_id or "." in raw_id:
            continue  # multiword token range / empty node
        try:
            conllu_id = int(raw_id)
        except ValueError:
            raise DataError(f"line {lineno}: non-integer token id {raw_id!r}") from None
        try:
            head = int(cols[6])
        except ValueError:
            raise DataError(f"line {lineno}: non-integer HEAD {cols[6]!r}") from None
        rows.append((conllu_id, cols[1], cols[3], head, cols[7]))
    flush()
    return sentences


def find_root(s: Sentence) -> int:
    for tok in s.tokens:
        if tok.is_root():
            return tok.index
    raise DataError("sentence has no root")  # unreachable for a valid Sentence


def find_other_verbs(s: Sentence, root: int) -> list[int]:
    """Indices of VERB tokens hanging directly off the root, in sentence order."""
    return [t.index for t in s.tokens
            if t.index != root and t.upos == "VERB" and t.head == root]


def clause_span_for_verb(s: Sentence, verb: int) -> ClauseSpan:
    """Span from the leftmost to the rightmost direct child of the head,
    skipping children that head clauses of their own; the head itself is
    always included, so a childless head yields a single-token span."""
    heads = {find_root(s), *find_other_verbs(s, find_root(s))}
    positions = [verb]
    for t in s.tokens:
        if t.head == verb and t.index != verb and t.index not in heads:
            positions.append(t.index)
    return ClauseSpan(start=min(positions), end=max(positions), verb=verb)


def extract_clauses(s: Sentence) -> list[Clause]:
    """One clause per clausal head, deduplicated on identical spans and
    sorted by (start, end)."""
    root = find_root(s)
    spans = []
    seen = set()
    for head in [root, *find_other_verbs(s, root)]:
        span = clause_span_for_verb(s, head)
        if (span.start, span.end) in seen:
            continue
        seen.add((span.start, span.end))
        spans.append(span)
    spans.sort(key=lambda sp: (sp.start, sp.end))
    texts = s.texts()
    return [Clause(span=sp, words=tuple(texts[sp.start:sp.end + 1]), sentence=s)
            for sp in spans]
