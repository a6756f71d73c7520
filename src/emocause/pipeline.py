"""End-to-end orchestration: reviews -> clauses -> emotion -> cause clause
-> per-(product, emotion) clusters -> summary report.

A review is skipped, and counted under its reason, only for bad data: a
missing parse, every token out of vocabulary, or no scorable clause. Any
other error propagates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import bilstm_mlp, cause_model, clustering, emotion_model
from .clauses import extract_clauses, parse_conllu
from .corpus import load_corpus
from .embeddings import load_word_embeddings
from .errors import DataError
from .nn import core

DEFAULT_THRESHOLD = clustering.DEFAULT_THRESHOLD

SKIP_REASONS = ("missing_parse", "all_oov", "no_clause")


@dataclass
class PipelineConfig:
    """Input paths and the clustering threshold for inference with trained
    models; the default threshold is the reference 0.13."""

    embeddings_path: str = ""
    aware_path: str = ""
    corpus_path: str = ""
    parses_path: str = ""
    emotion_model_path: str = ""
    cause_model_path: str = ""
    threshold: float = DEFAULT_THRESHOLD


def format_skips(counts: dict) -> str:
    return ", ".join(f"{reason} {counts[reason]}" for reason in SKIP_REASONS)


@dataclass
class SummaryReport:
    cluster_sets: list = field(default_factory=list)  # clustering.ClusterSet
    processed: int = 0
    skipped_by_reason: dict = field(default_factory=lambda: dict.fromkeys(SKIP_REASONS, 0))

    @property
    def skipped(self) -> int:
        return sum(self.skipped_by_reason.values())

    def to_json_obj(self) -> dict:
        return {
            "groups": [cs.to_json_obj() for cs in self.cluster_sets],
            "processed": self.processed,
            "skipped": self.skipped,
            "skipped_by_reason": self.skipped_by_reason,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"reviews processed: {self.processed}, skipped: {self.skipped} "
                 f"({format_skips(self.skipped_by_reason)})"]
        for cs in self.cluster_sets:
            lines.append(f"product {cs.product} | emotion {cs.emotion} | "
                         f"{len(cs.clusters)} cluster(s), {len(cs.pruned)} pruned")
            for cluster in cs.clusters:
                head = cs.vectors[cluster.head]
                lines.append(f"  [size {cluster.size}] {head.clause_text} "
                             f"({head.review_id})")
        return "\n".join(lines) + "\n"


def index_sentences(conllu_text: str) -> dict:
    """The parsed sentences keyed by sent_id, which must not repeat."""
    index = {}
    for s in parse_conllu(conllu_text):
        if s.sent_id in index:
            raise DataError(f"parses: sent_id {s.sent_id!r} occurs twice")
        index[s.sent_id] = s
    return index


def load_reviews(corpus_path, parses_path):
    """The corpus records and their parsed sentences, keyed by sent_id."""
    records = load_corpus(corpus_path)
    with open(parses_path, encoding="utf-8") as fh:
        return records, index_sentences(fh.read())


def load_tables(cfg: PipelineConfig):
    raw = load_word_embeddings(cfg.embeddings_path)
    aware = load_word_embeddings(cfg.aware_path)
    if raw.dim != aware.dim or set(raw.words) != set(aware.words):
        raise DataError("raw and emotion-aware tables must share vocabulary and dim")
    return raw, aware


def _gold_reviews(records, sentences: dict):
    """(record, parsed sentences) for each record with gold labels whose
    parses are all present."""
    for record in records:
        if record.gold_emotion is not None and all(pid in sentences for pid in record.parse_ids):
            yield record, [sentences[pid] for pid in record.parse_ids]


def build_emotion_examples(records, sentences: dict):
    """Training examples for the emotion model: whole-review tokens plus the
    gold label. Records without gold labels or parses are dropped."""
    return [emotion_model.EmotionTrainExample(tuple(t for s in parsed for t in s.texts()),
                                              record.gold_emotion)
            for record, parsed in _gold_reviews(records, sentences)]


def build_cause_examples(records, sentences: dict):
    """Training examples for the cause scorer: one per extracted clause,
    labeled 1 iff it is the review's gold cause span. The emotion signal is
    teacher-forced to a one-hot of the gold label."""
    examples = []
    for record, parsed in _gold_reviews(records, sentences):
        probs = cause_model.one_hot_probs(record.gold_emotion)
        gold = record.gold_cause
        for sent_no, sentence in enumerate(parsed):
            for clause in extract_clauses(sentence):
                label = int(sent_no == gold.sentence_index
                            and clause.span.start == gold.start
                            and clause.span.end == gold.end)
                examples.append(cause_model.CauseTrainExample(clause.words, probs, label))
    return examples


# Reviews are inferred in chunks of whole reviews: one batched emotion
# forward over a chunk's reviews, then one batched cause forward over all of
# their distinct scorable clauses. A chunk grows while the padded kernel
# arrays of its larger forward fit in this many bytes (one review at least).
CHUNK_BYTES = 1 << 20


class ReviewSkipped(Exception):
    """A review that inference cannot use; reason is one of SKIP_REASONS."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class ReviewInference:
    emotion: str
    clauses: list  # clauses.Clause, in review order
    scores: list  # per clause: cause score, or None if all out of vocabulary
    chosen: int  # index of the cause clause


def distinct_clauses(clauses, table) -> tuple[list, list]:
    """(slots, distinct): distinct holds the row-index tuples of the
    clauses' in-vocabulary tokens, each once, in order of first use; slot i
    is clause i's index into it, or None when none of its tokens is known.
    Clauses with equal tuples are scored once and share that score exactly."""
    seen: dict = {}
    slots = []
    for clause in clauses:
        key = table.indices(clause.words)
        slots.append(seen.setdefault(key, len(seen)) if key else None)
    return slots, list(seen)


def choose(slots, distinct_scores) -> tuple[int, list]:
    """(index of the highest-scoring clause, per-clause scores) from the
    scores of the distinct clauses; ties go to the lowest index."""
    scores = [None if s is None else float(distinct_scores[s]) for s in slots]
    scored = [i for i, s in enumerate(scores) if s is not None]
    return max(scored, key=scores.__getitem__), scores


@dataclass
class _Review:
    """A usable review, ready for the batched forwards."""

    record: object
    clauses: list
    tokens: tuple  # the emotion model's table rows of its in-vocabulary tokens
    slots: list  # see distinct_clauses
    distinct: list


def _prepare(record, sentences: dict, emo, causes) -> _Review:
    """The review's inputs, or ReviewSkipped with the data reason."""
    try:
        parsed = [sentences[pid] for pid in record.parse_ids]
    except KeyError:
        raise ReviewSkipped("missing_parse") from None
    clauses = [c for s in parsed for c in extract_clauses(s)]
    tokens = emo.table.indices(t for s in parsed for t in s.texts())
    if not tokens:
        raise ReviewSkipped("all_oov")
    slots, distinct = distinct_clauses(clauses, causes.table)
    if not distinct:
        raise ReviewSkipped("no_clause")
    return _Review(record, clauses, tokens, slots, distinct)


def _sizes(review: _Review) -> tuple:
    """(reviews, longest review, clauses, longest clause) of a chunk of just
    this review, in tokens; _grown merges two such tuples."""
    return 1, len(review.tokens), len(review.distinct), max(map(len, review.distinct))


def _grown(a: tuple, b: tuple) -> tuple:
    return a[0] + b[0], max(a[1], b[1]), a[2] + b[2], max(a[3], b[3])


def _chunk_bytes(sizes: tuple, emo, causes) -> int:
    """Kernel bytes of the larger of the two forwards of a chunk of the
    given _sizes."""
    reviews, longest, clauses, longest_clause = sizes
    return max(core.bilstm_bytes(emo.bilstm.hidden_dim, longest, reviews),
               core.bilstm_bytes(causes.bilstm.hidden_dim, longest_clause, clauses))


def _infer_chunk(chunk, emo, causes) -> list:
    log_probs = emotion_model.classify(emo, [r.tokens for r in chunk])
    probs = np.exp(log_probs)
    clauses = [c for r in chunk for c in r.distinct]
    clause_probs = np.repeat(probs, [len(r.distinct) for r in chunk], axis=0)
    scores = cause_model.score(causes, clauses, clause_probs)
    results, start = [], 0
    for r, review_log_probs in zip(chunk, log_probs):
        chosen, review_scores = choose(r.slots, scores[start:start + len(r.distinct)])
        start += len(r.distinct)
        results.append((r.record, ReviewInference(
            emotion=emo.labels[int(np.argmax(review_log_probs))],
            clauses=r.clauses, scores=review_scores, chosen=chosen)))
    return results


def infer_corpus(records, sentences: dict, emo, causes):
    """(record, ReviewInference) for each usable review, in corpus order,
    and the skipped reviews counted by reason. Usable reviews are inferred
    in chunks of at most CHUNK_BYTES of kernel arrays, a chunk's sizes kept
    as running totals and maxima, so the accounting is linear in its
    length."""
    results = []
    skipped = dict.fromkeys(SKIP_REASONS, 0)
    chunk, sizes = [], None
    for record in records:
        try:
            review = _prepare(record, sentences, emo, causes)
        except ReviewSkipped as skip:
            skipped[skip.reason] += 1
            continue
        own = _sizes(review)
        sizes = _grown(sizes, own) if chunk else own
        if chunk and _chunk_bytes(sizes, emo, causes) > CHUNK_BYTES:
            results += _infer_chunk(chunk, emo, causes)
            chunk, sizes = [], own
        chunk.append(review)
    if chunk:
        results += _infer_chunk(chunk, emo, causes)
    return results, skipped


def run_pipeline(cfg: PipelineConfig) -> SummaryReport:
    """Inference over a corpus with already-trained models and tables."""
    raw, aware = load_tables(cfg)
    emo = bilstm_mlp.load(emotion_model.EmotionClassifier, cfg.emotion_model_path, aware)
    causes = bilstm_mlp.load(cause_model.CauseScorer, cfg.cause_model_path, aware)
    records, sentences = load_reviews(cfg.corpus_path, cfg.parses_path)
    results, skipped = infer_corpus(records, sentences, emo, causes)
    entries = [(record.product_id, result.emotion,
                clustering.vectorize_clause(result.clauses[result.chosen], raw, aware))
               for record, result in results]
    return SummaryReport(cluster_sets=clustering.cluster_causes(entries, cfg.threshold),
                         processed=len(entries), skipped_by_reason=skipped)


def dump_projection(report: SummaryReport) -> list[dict]:
    """Per (product, emotion) group, members projected to 2-D for plotting."""
    out = []
    for cs in report.cluster_sets:
        points = clustering.project_2d(cs.vectors)
        out.append({
            "product": cs.product,
            "emotion": cs.emotion,
            "points": [{"review_id": v.review_id,
                        "clause_text": v.clause_text,
                        "x": float(points[i, 0]),
                        "y": float(points[i, 1])}
                       for i, v in enumerate(cs.vectors)],
        })
    return out
