"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line each. Criterion 7 trains at full synthetic scale twice and dominates
the runtime (a few minutes); run with `pytest tests/test_acceptance.py -v -s`
to watch the lines as they appear.
"""

import json
import time
from pathlib import Path

import numpy as np

from emocause import cause_model, checks, emotion_model, synthetic
from emocause.clauses import extract_clauses, parse_conllu
from emocause.cli import main
from emocause.clustering import (ClauseVector, agglomerative_complete_link,
                                 cosine_distance, head_clause)
from emocause.embeddings import (EmbeddingTable, EmotionLexicon,
                                 build_emotion_aware_table,
                                 build_similarity_matrix)
from emocause.pipeline import run_pipeline

import conftest
from helpers import (as_partition, cause_accuracy, emotion_accuracy,
                     reference_complete_link, run_cli_chain,
                     separable_cause_setup, separable_emotion_setup,
                     top_k_emotion_words)

FIXTURES = Path(__file__).parent / "fixtures"


def report_line(number, ok, detail):
    line = f"criterion {number} {'PASS' if ok else 'FAIL'}: {detail}"
    print("\n" + line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    worst = checks.run_all(seeds=range(5))
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 30.0
    report_line(1, ok, f"max relative gradient error {worst:.3e} (< 1e-4) "
                       f"over {len(checks.ALL_CHECKS)} checks x 5 seeds "
                       f"in {elapsed:.1f}s (< 30s)")


def test_criterion_2_emotion_overfit():
    start = time.monotonic()
    table, examples = separable_emotion_setup()
    model, trace = emotion_model.train_emotion(
        examples, table, np.random.default_rng(42), epochs=100, hidden=128)
    accuracy = emotion_accuracy(model, examples)
    elapsed = time.monotonic() - start
    ok = accuracy == 10 and trace[-1] < 0.05 and elapsed < 120.0
    report_line(2, ok, f"emotion overfit accuracy {accuracy}/10, "
                       f"final mean NLL {trace[-1]:.4f} (< 0.05) "
                       f"in {elapsed:.1f}s (< 2min)")


def test_criterion_3_cause_overfit():
    start = time.monotonic()
    table, examples = separable_cause_setup()
    model, _trace = cause_model.train_cause(
        examples, table, np.random.default_rng(42), epochs=50, hidden=32)
    accuracy = cause_accuracy(model, examples)
    elapsed = time.monotonic() - start
    ok = accuracy == 10 and elapsed < 120.0
    report_line(3, ok, f"cause overfit accuracy {accuracy}/10 at threshold "
                       f"0.5 in {elapsed:.1f}s (< 2min)")


def test_criterion_4_clustering_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(4)
    partition_trials = 0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        centers = rng.normal(size=(int(rng.integers(1, 4)), 3))
        vectors = []
        for i in range(n):
            c = centers[int(rng.integers(len(centers)))]
            vectors.append(ClauseVector(c + rng.normal(scale=0.08, size=3),
                                        review_id=f"r{i}", clause_text="t"))
        got = agglomerative_complete_link(vectors, 0.13)
        want = reference_complete_link(vectors, 0.13)
        if as_partition(got) != as_partition(want):
            break
        partition_trials += 1
    head_trials = 0
    for _ in range(100):
        n = int(rng.integers(1, 11))
        vectors = [ClauseVector(rng.normal(size=4), review_id=f"r{i}",
                                clause_text="t") for i in range(n)]
        members = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                    replace=False).tolist())
        best, best_worst = None, np.inf
        for m in members:
            worst = max((cosine_distance(vectors[m], vectors[o])
                         for o in members if o != m), default=0.0)
            if worst < best_worst:
                best, best_worst = m, worst
        if head_clause(members, vectors) != best:
            break
        head_trials += 1
    elapsed = time.monotonic() - start
    ok = partition_trials == 100 and head_trials == 100 and elapsed < 10.0
    report_line(4, ok, f"complete-link partition matched naive reference on "
                       f"{partition_trials}/100 instances, head clause matched "
                       f"exhaustive scan on {head_trials}/100 clusters "
                       f"in {elapsed:.1f}s (< 10s)")


def test_criterion_5_clause_golden_files():
    start = time.monotonic()
    text = (FIXTURES / "golden.conllu").read_text(encoding="utf-8")
    expected = json.loads((FIXTURES / "golden_spans.json").read_text())
    sentences = {s.review_id: s for s in parse_conllu(text)}
    failures = []
    for fixture_id, info in sorted(expected.items()):
        got = [[c.span.start, c.span.end, c.span.verb]
               for c in extract_clauses(sentences[fixture_id])]
        if got != info["spans"]:
            failures.append(f"{fixture_id} ({info['case']}): {got}")
    elapsed = time.monotonic() - start
    ok = len(sentences) == 12 and not failures and elapsed < 1.0
    report_line(5, ok, f"{12 - len(failures)}/12 golden fixtures produced "
                       f"expected spans in {elapsed:.2f}s (< 1s)"
                       + (f"; failures: {failures}" if failures else ""))


def test_criterion_6_embedding_construction_oracle():
    # toy 6-word vocabulary, 3 emotion words: hand-compose blend + overlay
    rng = np.random.default_rng(6)
    words = ["calm", "dull", "happy", "mad", "tense", "warm"]
    emotion_words = {"happy": ("joy", 0.9), "mad": ("anger", 0.7),
                     "tense": ("fear", 0.6)}
    vectors = rng.normal(size=(6, 5))
    table = EmbeddingTable(words, vectors)
    lexicon = EmotionLexicon({w: ((e, i),) for w, (e, i) in emotion_words.items()})
    aware = build_emotion_aware_table(table, lexicon)

    def unit(v):
        return v / np.linalg.norm(v)

    worst = 0.0
    for i, word in enumerate(words):
        sims = sorted(((ew, float(unit(vectors[i]) @ unit(table[ew])))
                       for ew in emotion_words),
                      key=lambda p: (-p[1], p[0]))[:2]
        weights = [max(s, 0.0) * emotion_words[ew][1] for ew, s in sims]
        total = sum(weights)
        if total == 0.0:
            expected = vectors[i]
        else:
            blend = sum(w / total * table[ew] for (ew, _), w in zip(sims, weights))
            expected = (vectors[i] + blend) / 2.0
        worst = max(worst, float(np.max(np.abs(aware[word] - expected))))
    table_ok = worst < 1e-6

    top2_trials = 0
    for _ in range(100):
        n = int(rng.integers(3, 9))
        t = EmbeddingTable([f"w{i}" for i in range(n)], rng.normal(size=(n, 4)))
        k_emo = int(rng.integers(1, n))
        lex = EmotionLexicon({f"w{i}": (("joy", 0.5),) for i in range(k_emo)})
        matrix = build_similarity_matrix(t, lex)
        word = f"w{int(rng.integers(n))}"
        brute = sorted((((f"w{i}"),
                         float(unit(t[word]) @ unit(t[f"w{i}"])))
                        for i in range(k_emo)),
                       key=lambda p: (-p[1], p[0]))[:2]
        got = top_k_emotion_words(matrix, t, word, 2)
        if [w for w, _ in got] != [w for w, _ in brute]:
            break
        if any(abs(a - b) > 1e-9 for (_, a), (_, b) in zip(got, brute)):
            break
        top2_trials += 1
    ok = table_ok and top2_trials == 100
    report_line(6, ok, f"emotion-aware table matched hand-composed values "
                       f"within {worst:.2e} (< 1e-6); top-2 matched brute "
                       f"force on {top2_trials}/100 random tables")


def test_criterion_7_end_to_end(tmp_path):
    start = time.monotonic()
    reports = []
    for run in ("a", "b"):
        workdir = tmp_path / run
        workdir.mkdir()
        cfg = run_cli_chain(workdir, seed=0, products=50, reviews=1000, dim=16,
                            emotion_hidden=32, cause_hidden=64,
                            emotion_epochs=100, cause_epochs=50)
        report_path = workdir / "report.json"
        assert main(["summarize", "--corpus", cfg.corpus_path,
                     "--parses", cfg.parses_path,
                     "--embeddings", cfg.embeddings_path,
                     "--aware", cfg.aware_path,
                     "--emotion-model", cfg.emotion_model_path,
                     "--cause-model", cfg.cause_model_path,
                     "--output", str(report_path), "--seed", "0"]) == 0
        reports.append(report_path.read_bytes())
    identical = reports[0] == reports[1]

    report = run_pipeline(cfg)
    linkage_ok = all(
        cosine_distance(cs.vectors[a], cs.vectors[b]) < cfg.threshold
        for cs in report.cluster_sets
        for cluster in cs.clusters
        for a in cluster.members for b in cluster.members if a < b)
    groups = report.cluster_sets
    marked = sum(
        1 for cs in groups
        if any(any(m in cs.vectors[c.head].clause_text.split()
                   for m in synthetic.MARKERS) for c in cs.clusters))
    marker_rate = marked / len(groups) if groups else 0.0
    elapsed = time.monotonic() - start
    ok = (identical and linkage_ok and marker_rate >= 0.8
          and report.processed + report.skipped == 1000
          and elapsed < 15 * 60)
    report_line(7, ok, f"double run byte-identical: {identical}; "
                       f"complete-linkage invariant holds: {linkage_ok}; "
                       f"planted markers head {marker_rate:.1%} of "
                       f"{len(groups)} groups (>= 80%); "
                       f"{report.processed} processed + {report.skipped} "
                       f"skipped = 1000; {elapsed / 60:.1f}min (< 15min)")
