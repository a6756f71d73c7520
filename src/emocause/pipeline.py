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

from . import cause_model, clustering, emotion_model
from .clauses import extract_clauses, parse_conllu
from .corpus import load_corpus
from .embeddings import load_word_embeddings
from .errors import DataError, OovError

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
    return {s.sent_id: s for s in parse_conllu(conllu_text)}


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


class ReviewSkipped(Exception):
    """A review that inference cannot use; reason is one of SKIP_REASONS."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class ReviewInference:
    emotion: str
    probs: np.ndarray
    clauses: list  # clauses.Clause, in review order
    scores: list  # per clause: cause score, or None if all out of vocabulary
    chosen: int  # index of the cause clause


def infer_review(record, sentences: dict, emo, causes) -> ReviewInference:
    """Emotion and cause clause of one review, or ReviewSkipped."""
    try:
        parsed = [sentences[pid] for pid in record.parse_ids]
    except KeyError:
        raise ReviewSkipped("missing_parse") from None
    clauses = [c for s in parsed for c in extract_clauses(s)]
    tokens = [t for s in parsed for t in s.texts()]
    try:
        log_probs = emotion_model.forward_emotion(emo, tokens)
    except OovError:
        raise ReviewSkipped("all_oov") from None
    probs = np.exp(log_probs)
    try:
        chosen, scores = cause_model.select_cause_clause(causes, clauses, probs)
    except OovError:
        raise ReviewSkipped("no_clause") from None
    return ReviewInference(emotion=emo.labels[int(np.argmax(log_probs))], probs=probs,
                           clauses=clauses, scores=scores, chosen=chosen)


def infer_corpus(records, sentences: dict, emo, causes):
    """(record, ReviewInference) for each usable review, in corpus order,
    and the skipped reviews counted by reason."""
    results = []
    skipped = dict.fromkeys(SKIP_REASONS, 0)
    for record in records:
        try:
            results.append((record, infer_review(record, sentences, emo, causes)))
        except ReviewSkipped as skip:
            skipped[skip.reason] += 1
    return results, skipped


def run_pipeline(cfg: PipelineConfig) -> SummaryReport:
    """Inference over a corpus with already-trained models and tables."""
    raw, aware = load_tables(cfg)
    emo = emotion_model.load_emotion_model(cfg.emotion_model_path, aware)
    causes = cause_model.load_cause_model(cfg.cause_model_path, aware)
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
