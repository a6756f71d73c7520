import json
from types import SimpleNamespace

import numpy as np
import pytest

from emocause import bilstm_mlp, cause_model, emotion_model, pipeline, synthetic
from emocause.clustering import cosine_distance
from emocause.corpus import load_corpus, save_corpus
from emocause.errors import DataError
from emocause.nn import core
from emocause.pipeline import (PipelineConfig, ReviewSkipped,
                               build_cause_examples, build_emotion_examples,
                               index_sentences, infer_corpus, load_tables,
                               run_pipeline)

from helpers import infer_review, run_cli_chain, with_parses


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("trained")
    cfg = run_cli_chain(workdir, seed=0)
    return cfg, run_pipeline(cfg)


class TestRunPipeline:
    def test_review_conservation(self, trained):
        cfg, report = trained
        records = load_corpus(cfg.corpus_path)
        assert report.processed + report.skipped == len(records)
        assert report.skipped == 0

    def test_head_clauses_carry_planted_markers(self, trained):
        _, report = trained
        assert report.cluster_sets
        groups_with_heads = [cs for cs in report.cluster_sets if cs.clusters]
        assert groups_with_heads
        marked = 0
        for cs in groups_with_heads:
            heads = [cs.vectors[c.head].clause_text for c in cs.clusters]
            if any(any(m in h.split() for m in synthetic.MARKERS) for h in heads):
                marked += 1
        assert marked / len(groups_with_heads) >= 0.8

    def test_complete_linkage_invariant_in_report(self, trained):
        cfg, report = trained
        for cs in report.cluster_sets:
            for cluster in cs.clusters:
                for a in cluster.members:
                    for b in cluster.members:
                        if a < b:
                            assert cosine_distance(cs.vectors[a],
                                                   cs.vectors[b]) < cfg.threshold

    def test_heads_trace_back_to_reviews(self, trained):
        cfg, report = trained
        records = {r.review_id: r for r in load_corpus(cfg.corpus_path)}
        for cs in report.cluster_sets:
            for cluster in cs.clusters:
                head = cs.vectors[cluster.head]
                assert head.review_id in records
                assert head.clause_text in records[head.review_id].text

    def test_inference_deterministic(self, trained):
        cfg, report = trained
        again = run_pipeline(cfg)
        assert again.to_json() == report.to_json()

    def test_empty_corpus(self, trained, tmp_path):
        cfg, _ = trained
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        cfg2 = PipelineConfig(**{**cfg.__dict__, "corpus_path": str(empty)})
        report = run_pipeline(cfg2)
        assert report.processed == 0 and report.skipped == 0
        assert report.cluster_sets == []

    def test_missing_model_file_errors(self, trained):
        cfg, _ = trained
        cfg2 = PipelineConfig(**{**cfg.__dict__,
                                 "emotion_model_path": "/nonexistent/model.bin"})
        with pytest.raises(OSError):
            run_pipeline(cfg2)

    def test_missing_parses_skip_reviews(self, trained, tmp_path):
        cfg, _ = trained
        records = load_corpus(cfg.corpus_path)[:4]
        renamed = [with_parses(r, ("ghost.0",)) for r in records[:2]] + list(records[2:])
        partial = tmp_path / "partial.jsonl"
        save_corpus(renamed, partial)
        cfg2 = PipelineConfig(**{**cfg.__dict__, "corpus_path": str(partial)})
        report = run_pipeline(cfg2)
        assert report.skipped == 2 and report.processed == 2
        assert report.skipped_by_reason == {"missing_parse": 2, "all_oov": 0,
                                            "no_clause": 0}

    def test_programming_error_propagates(self, trained, monkeypatch):
        cfg, _ = trained

        def broken(*args, **kwargs):
            raise ValueError("scorer bug")

        monkeypatch.setattr(cause_model, "score", broken)
        with pytest.raises(ValueError, match="scorer bug"):
            run_pipeline(cfg)


OOV_PARSE = "# sent_id = zz.0\n1\tqqq\tqqq\tVERB\t_\t_\t0\troot\t_\t_\n\n"


class TestInferReview:
    @pytest.fixture
    def setup(self, trained):
        cfg, _ = trained
        _, aware = load_tables(cfg)
        emo = bilstm_mlp.load(emotion_model.EmotionClassifier, cfg.emotion_model_path, aware)
        causes = bilstm_mlp.load(cause_model.CauseScorer, cfg.cause_model_path, aware)
        with open(cfg.parses_path, encoding="utf-8") as fh:
            sentences = index_sentences(fh.read() + OOV_PARSE)
        return load_corpus(cfg.corpus_path)[0], sentences, emo, causes

    def test_scores_every_clause_and_picks_argmax(self, setup):
        record, sentences, emo, causes = setup
        result = infer_review(record, sentences, emo, causes)
        assert len(result.scores) == len(result.clauses) >= 2
        assert result.chosen == result.scores.index(max(result.scores))
        tokens = emo.table.indices(t for pid in record.parse_ids for t in sentences[pid].texts())
        log_probs = emotion_model.classify(emo, [tokens])[0]
        assert result.emotion == emo.labels[int(log_probs.argmax())]

    @pytest.mark.parametrize("parse_ids,reason", [(("ghost.0",), "missing_parse"),
                                                  (("zz.0",), "all_oov")])
    def test_skip_reasons(self, setup, parse_ids, reason):
        record, sentences, emo, causes = setup
        record = with_parses(record, parse_ids)
        with pytest.raises(ReviewSkipped) as info:
            infer_review(record, sentences, emo, causes)
        assert info.value.reason == reason

    def test_no_clause_skip(self, setup, monkeypatch):
        record, sentences, emo, causes = setup
        monkeypatch.setattr(pipeline, "extract_clauses", lambda sentence: [])
        with pytest.raises(ReviewSkipped) as info:
            infer_review(record, sentences, emo, causes)
        assert info.value.reason == "no_clause"


CLASSIFY = emotion_model.classify


class TestChunkedInference:
    """infer_corpus runs whole reviews in chunks bounded by CHUNK_BYTES;
    the chunking must not change what it finds."""

    @pytest.fixture
    def setup(self, trained):
        cfg, _ = trained
        _, aware = load_tables(cfg)
        emo = bilstm_mlp.load(emotion_model.EmotionClassifier, cfg.emotion_model_path, aware)
        causes = bilstm_mlp.load(cause_model.CauseScorer, cfg.cause_model_path, aware)
        with open(cfg.parses_path, encoding="utf-8") as fh:
            sentences = index_sentences(fh.read() + OOV_PARSE)
        records = load_corpus(cfg.corpus_path)[:12]
        # skipped reviews first, last, side by side and between usable ones
        bad = {0: ("ghost.0",), 3: ("zz.0",), 4: ("ghost.1",), 8: ("zz.0",), 11: ("ghost.2",)}
        records = [with_parses(r, bad[i]) if i in bad else r for i, r in enumerate(records)]
        return records, sentences, emo, causes

    def run(self, monkeypatch, setup, budget):
        """(what inference found, skip counts, reviews per chunk)."""
        monkeypatch.setattr(pipeline, "CHUNK_BYTES", budget)
        sizes = []

        def spy(m, sequences):
            sizes.append(len(sequences))
            return CLASSIFY(m, sequences)

        monkeypatch.setattr(emotion_model, "classify", spy)
        results, skipped = infer_corpus(*setup)
        found = [(record.review_id, r.emotion, r.chosen, [s is None for s in r.scores])
                 for record, r in results]
        return found, skipped, sizes

    def test_chunk_size_changes_nothing(self, monkeypatch, setup):
        emo, causes = setup[2], setup[3]
        # the budget that just fits k reviews of the corpus, as infer_corpus counts
        one = max(pipeline._chunk_bytes(pipeline._sizes(r), emo, causes)
                  for r in self.prepared(setup))
        runs = {k: self.run(monkeypatch, setup, budget)
                for k, budget in (("1", 1), ("2", 2 * one), ("3", 3 * one), ("all", 1 << 40))}
        found, skipped, sizes = runs["all"]
        assert sizes == [7]
        assert skipped == {"missing_parse": 3, "all_oov": 2, "no_clause": 0}
        assert len(found) == 7
        assert runs["1"][2] == [1] * 7
        assert max(runs["2"][2]) >= 2 and max(runs["3"][2]) >= 3
        for k, (f, s, sz) in runs.items():
            assert sum(sz) == 7
            assert s == skipped, k
            assert f == found, k

    def test_boundaries_follow_the_whole_chunk_rule(self, monkeypatch):
        # oracle: the rule the running sizes replaced, which recounted the
        # whole chunk with the next review added, for every review; over
        # reviews and clauses of random lengths, at every budget where a
        # boundary can move
        rng = np.random.default_rng(3)
        reviews = [pipeline._Review(None, [], (0,) * int(rng.integers(1, 30)), [],
                                    [(0,) * int(n) for n in rng.integers(1, 12, rng.integers(1, 5))])
                   for _ in range(14)]
        emo = SimpleNamespace(bilstm=SimpleNamespace(hidden_dim=16))
        causes = SimpleNamespace(bilstm=SimpleNamespace(hidden_dim=24))

        def whole_chunk_bytes(chunk):
            clauses = [c for r in chunk for c in r.distinct]
            return max(core.bilstm_bytes(16, max(len(r.tokens) for r in chunk), len(chunk)),
                       core.bilstm_bytes(24, max(map(len, clauses)), len(clauses)))

        monkeypatch.setattr(pipeline, "_prepare", lambda review, *_: review)
        monkeypatch.setattr(pipeline, "_infer_chunk", lambda chunk, *_: [len(chunk)])
        spans = [whole_chunk_bytes(reviews[a:b])
                 for a in range(len(reviews)) for b in range(a + 2, len(reviews) + 1)]
        budgets = sorted({b + delta for b in spans for delta in (-1, 0)})
        patterns = set()
        for budget in budgets:
            monkeypatch.setattr(pipeline, "CHUNK_BYTES", budget)
            expected, chunk = [], []
            for review in reviews:
                if chunk and whole_chunk_bytes(chunk + [review]) > budget:
                    expected.append(len(chunk))
                    chunk = []
                chunk.append(review)
            expected.append(len(chunk))
            assert infer_corpus(reviews, {}, emo, causes)[0] == expected, budget
            patterns.add(tuple(expected))
        assert len(patterns) > 20

    def prepared(self, setup):
        records, sentences, emo, causes = setup
        out = []
        for record in records:
            try:
                out.append(pipeline._prepare(record, sentences, emo, causes))
            except ReviewSkipped:
                pass
        return out

    def test_no_usable_review(self, monkeypatch, setup):
        records, sentences, emo, causes = setup
        bad = [records[i] for i in (0, 3, 4, 8, 11)]
        for budget in (1, 1 << 40):
            found, skipped, sizes = self.run(monkeypatch, (bad, sentences, emo, causes), budget)
            assert found == [] and sizes == []
            assert skipped == {"missing_parse": 3, "all_oov": 2, "no_clause": 0}

    def test_equal_clauses_share_one_score(self, setup):
        # a review whose sentences all appear twice: each clause and its
        # copy tie exactly, and the tie goes to the first
        records, sentences, emo, causes = setup
        record = records[1]
        n = len(infer_review(record, sentences, emo, causes).clauses)
        doubled = type(record)(**{**record.__dict__, "parse_ids": record.parse_ids * 2})
        twice = infer_review(doubled, sentences, emo, causes)
        assert twice.scores[:n] == twice.scores[n:]
        assert twice.chosen < n


class TestIndexSentences:
    def test_repeated_sent_id_is_a_data_error(self):
        # the second r1.0 would replace the first, and a sentence be lost
        text = ("# sent_id = r1.0\n1\tI\tI\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
                "2\tlove\tlove\tVERB\t_\t_\t0\troot\t_\t_\n\n"
                "# sent_id = r1.0\n1\tI\tI\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
                "2\thate\thate\tVERB\t_\t_\t0\troot\t_\t_\n\n")
        with pytest.raises(DataError, match="sent_id 'r1.0' occurs twice"):
            index_sentences(text)

    def test_ids_are_keyed_as_written(self):
        # r1.0 and r1.00 are two ids; neither is renamed
        text = ("# sent_id = r1.00\n1\tI\tI\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
                "2\tlove\tlove\tVERB\t_\t_\t0\troot\t_\t_\n\n"
                "# sent_id = r1.0\n1\tI\tI\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
                "2\thate\thate\tVERB\t_\t_\t0\troot\t_\t_\n\n")
        index = index_sentences(text)
        assert sorted(index) == ["r1.0", "r1.00"]
        assert index["r1.00"].texts() == ["I", "love"]


class TestReportRendering:
    def test_json_is_sorted_and_parseable(self, trained):
        _, report = trained
        obj = json.loads(report.to_json())
        assert set(obj) == {"groups", "processed", "skipped", "skipped_by_reason"}
        assert obj["skipped_by_reason"] == {"missing_parse": 0, "all_oov": 0,
                                            "no_clause": 0}
        for group in obj["groups"]:
            assert set(group) == {"product", "emotion", "clusters", "pruned"}

    def test_text_rendering_mentions_counts(self, trained):
        _, report = trained
        text = report.to_text()
        assert f"reviews processed: {report.processed}" in text
        assert "product p0" in text


class TestExampleBuilders:
    def test_emotion_examples_cover_gold_records(self, trained):
        cfg, _ = trained
        records = load_corpus(cfg.corpus_path)
        with open(cfg.parses_path, encoding="utf-8") as fh:
            sentences = index_sentences(fh.read())
        examples = build_emotion_examples(records, sentences)
        assert len(examples) == len(records)
        by_id = {r.review_id: r for r in records}
        for r, ex in zip(records, examples):
            assert ex.label == by_id[r.review_id].gold_emotion

    def test_cause_examples_have_one_positive_per_review(self, trained):
        cfg, _ = trained
        records = load_corpus(cfg.corpus_path)
        with open(cfg.parses_path, encoding="utf-8") as fh:
            sentences = index_sentences(fh.read())
        examples = build_cause_examples(records, sentences)
        assert len(examples) > len(records)  # at least 2 clauses per review
        positives = sum(ex.label for ex in examples)
        assert positives == len(records)
        assert {ex.label for ex in examples} == {0, 1}
