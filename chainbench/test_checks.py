"""Each checker of the chain benchmark accepts a correct output and rejects a
known-bad one.  Run: python3 -m pytest chainbench"""

import json
import struct

import numpy as np
import pytest

import checks
import workloads

THRESHOLD = 0.13

# four clauses: {0, 1} close, {2, 3} close, the two pairs far apart
DIST = np.array([[0.00, 0.05, 0.50, 0.50],
                 [0.05, 0.00, 0.50, 0.50],
                 [0.50, 0.50, 0.00, 0.06],
                 [0.50, 0.50, 0.06, 0.00]])


def test_group_correct_partition_passes():
    assert checks.check_group(DIST, [([0, 1], 0), ([2, 3], 2)], [], THRESHOLD) == []


@pytest.mark.parametrize("far", [THRESHOLD, 0.5])
def test_group_rejects_pair_at_or_above_threshold(far):
    dist = DIST.copy()
    dist[0, 1] = dist[1, 0] = far
    problems = checks.check_group(dist, [([0, 1], 0), ([2, 3], 2)], [], THRESHOLD)
    assert any("cluster pair" in p for p in problems)


def test_group_rejects_clusters_that_could_still_merge():
    problems = checks.check_group(DIST, [([0, 1], 0)], [2, 3], THRESHOLD)
    assert any("could still merge" in p for p in problems)


def test_group_rejects_head_that_loses_the_tie():
    # 0 and 1 have the same radius, so the head is the lower index
    problems = checks.check_group(DIST, [([0, 1], 1), ([2, 3], 2)], [], THRESHOLD)
    assert any("head" in p for p in problems)


def test_group_rejects_kept_singleton():
    problems = checks.check_group(DIST, [([0, 1], 0), ([2], 2)], [3], THRESHOLD)
    assert any("size 1" in p for p in problems)


# hand-computed aware vectors over 2-D embeddings; intensities are maxima
RAW = {"a": np.array([1.0, 0.0]), "e1": np.array([1.0, 1.0]),
       "e2": np.array([0.0, 1.0]), "e3": np.array([-1.0, 0.0]),
       "z": np.array([0.0, -1.0])}
INTENSITY = {"e1": 0.5, "e2": 1.0, "e3": 1.0, "absent": 0.9}
C45 = np.sqrt(0.5)
AWARE = {
    # top 2: e1 (cos 45 deg, weight 0.5 cos 45), e2 (cos 0, weight 0)
    "a": [1.0, 0.5],
    # itself (weight 0.5), then e2 (weight cos 45)
    "e1": list((RAW["e1"] + (0.5 * RAW["e1"] + C45 * RAW["e2"]) / (0.5 + C45)) / 2),
    # itself (weight 1), then e1 (weight 0.5 cos 45)
    "e2": list((RAW["e2"] + (RAW["e2"] + 0.5 * C45 * RAW["e1"]) / (1 + 0.5 * C45)) / 2),
    # itself (weight 1), then e2 (cos 0, weight 0)
    "e3": [-1.0, 0.0],
    # e3 (cos 0) and e1 (cos -45 deg): no positive weight, raw vector kept
    "z": [0.0, -1.0],
}


WIDTHS = {w: 2 for w in RAW}


def test_aware_hand_values_pass():
    assert checks.check_aware_table((5, 2), WIDTHS, AWARE, RAW, 2, INTENSITY) == []


def test_aware_rejects_vector_off_by_1e_6():
    vectors = {"a": [1.0, 0.5 + 1e-6]}
    problems = checks.check_aware_table((5, 2), WIDTHS, vectors, RAW, 2, INTENSITY)
    assert any("'a' is off by" in p for p in problems)


def test_aware_rejects_missing_word_and_wrong_width():
    widths = {w: n for w, n in WIDTHS.items() if w != "z"}
    widths["a"] = 3
    problems = checks.check_aware_table((5, 2), widths, {}, RAW, 2, INTENSITY)
    assert any("missing" in p for p in problems)
    assert any("do not have 2 values" in p for p in problems)


def write_model(path, descriptor, n_values, fill=0.25):
    with open(path, "wb") as fh:
        fh.write(b"ECPE1" + struct.pack("<I", len(descriptor))
                 + struct.pack(f"<{len(descriptor)}I", *descriptor))
        fh.write(np.full(n_values, fill, dtype="<f8").tobytes())


def test_model_file(tmp_path):
    # emotion model, dim 2, hidden 1: 2 * 4 * (2 + 1 + 1) + 80 * 3 + 8 * 81
    path = str(tmp_path / "m.bin")
    write_model(path, (1, 2, 1, 80, 8), 920)
    assert checks.check_model_file(path, checks.KIND_EMOTION, 2, 1) == []
    assert checks.check_model_file(path, checks.KIND_EMOTION, 2, 2) != []
    write_model(path, (1, 2, 1, 80, 8), 919)
    assert checks.check_model_file(path, checks.KIND_EMOTION, 2, 1) != []
    write_model(path, (1, 2, 1, 80, 8), 920, fill=np.nan)
    assert any("non-finite" in p for p in checks.check_model_file(
        path, checks.KIND_EMOTION, 2, 1))


def test_epoch_losses():
    assert checks.check_epoch_losses("epoch 1 loss 0.5\nsaved\nepoch 2 loss 0.25\n", 2) == []
    assert checks.check_epoch_losses("epoch 1 loss 0.5\nepoch 2 loss nan\n", 2) != []
    assert checks.check_epoch_losses("epoch 1 loss 0.5\n", 2) != []


def plan():
    """Six reviews of one product and issue; two are planted bad."""
    rng = np.random.default_rng(5)
    reviews = workloads.generate_reviews(rng, 6, workloads.plant_issues(rng, 1, (1, 1), False),
                                         "r")
    reviews[1].kind, reviews[4].kind = workloads.MISSING_PARSE, workloads.ALL_OOV
    return reviews


def one_vector_tables():
    # every word has the same vector, so every distance is 0 and all good
    # reviews form one cluster headed by the first of them
    vec = np.array([1.0, 2.0, 3.0])
    return ({w: vec for w in workloads.template_vocabulary()},) * 2


def correct_report(reviews):
    good = [r for r in reviews if r.kind == workloads.OK]
    member = [{"review_id": r.review_id, "clause_text": r.clause_text(r.gold)} for r in good]
    return {"processed": len(good), "skipped": len(reviews) - len(good),
            "groups": [{"product": "p00", "emotion": good[0].emotion, "pruned": [],
                        "clusters": [{"head": member[0], "members": member,
                                      "size": len(member)}]}]}


def test_summary_correct_report_passes():
    reviews = plan()
    raw, aware = one_vector_tables()
    problems, chosen = checks.check_summary(correct_report(reviews), reviews, raw, aware,
                                            THRESHOLD)
    assert problems == []
    assert len(chosen) == 4
    assert checks.gold_match(reviews, chosen)[0] == 1.0


@pytest.mark.parametrize("field,delta", [("processed", 1), ("processed", -1),
                                         ("skipped", 1)])
def test_summary_rejects_count_off_by_one(field, delta):
    reviews = plan()
    report = correct_report(reviews)
    report[field] += delta
    problems, _ = checks.check_summary(report, reviews, *one_vector_tables(), THRESHOLD)
    assert problems


def test_summary_rejects_dropped_and_duplicated_reviews():
    reviews = plan()
    report = correct_report(reviews)
    report["groups"][0]["pruned"] = [report["groups"][0]["clusters"][0]["members"][0]]
    problems, _ = checks.check_summary(report, reviews, *one_vector_tables(), THRESHOLD)
    assert any("more than once" in p for p in problems)
    report = correct_report(reviews)
    report["groups"][0]["clusters"][0]["members"].pop()
    problems, _ = checks.check_summary(report, reviews, *one_vector_tables(), THRESHOLD)
    assert any("missing from the report" in p for p in problems)


def score_lines(reviews, chosen_index):
    lines = []
    for r in reviews:
        if r.kind != workloads.OK:
            continue
        for i in range(len(r.clauses)):
            score = 0.9 if i == chosen_index[r.review_id] else 0.1 + 0.01 * i
            lines.append({"review_id": r.review_id, "clause_index": i, "score": score,
                          "selected": i == chosen_index[r.review_id]})
    return lines


def test_scores_correct_lines_pass():
    reviews = plan()
    index = {r.review_id: r.gold for r in reviews if r.kind == workloads.OK}
    chosen = {rid: next(r for r in reviews if r.review_id == rid).clause_text(i)
              for rid, i in index.items()}
    assert checks.check_scores(score_lines(reviews, index), reviews, chosen) == []


def test_scores_reject_selected_flag_off_the_argmax():
    reviews = plan()
    index = {r.review_id: r.gold for r in reviews if r.kind == workloads.OK}
    chosen = {rid: next(r for r in reviews if r.review_id == rid).clause_text(i)
              for rid, i in index.items()}
    lines = score_lines(reviews, index)
    target = next(o for o in lines if not o["selected"])
    for o in lines:
        if o["review_id"] == target["review_id"]:
            o["selected"] = o is target
    problems = checks.check_scores(lines, reviews, chosen)
    assert any("argmax" in p for p in problems)


def test_scores_reject_tie_not_broken_to_lowest_index():
    reviews = plan()
    r = next(r for r in reviews if r.kind == workloads.OK and len(r.clauses) > 1)
    lines = [{"review_id": r.review_id, "clause_index": i, "score": 0.5,
              "selected": i == 1} for i in range(len(r.clauses))]
    problems = checks.check_scores(lines, [r], {r.review_id: r.clause_text(1)})
    assert any("argmax 0" in p for p in problems)


def test_scores_reject_out_of_range_score_and_silent_good_review():
    reviews = plan()
    index = {r.review_id: r.gold for r in reviews if r.kind == workloads.OK}
    chosen = {rid: next(r for r in reviews if r.review_id == rid).clause_text(i)
              for rid, i in index.items()}
    lines = score_lines(reviews, index)
    lines[0]["score"] = 1.0
    assert any("outside (0, 1)" in p for p in checks.check_scores(lines, reviews, chosen))
    silent = lines[0]["review_id"]
    lines = [o for o in score_lines(reviews, index) if o["review_id"] != silent]
    assert any("without lines" in p for p in checks.check_scores(lines, reviews, chosen))


def test_generated_files_follow_the_plan(tmp_path):
    spec = workloads.SPECS["dense-groups"]
    inputs = workloads.generate(spec, 3, str(tmp_path))
    again = workloads.generate(spec, 3, str(tmp_path / "again"))
    for name in ("raw.txt", "lexicon.tsv", "infer.jsonl", "infer.conllu"):
        with open(inputs.paths[name], "rb") as a, open(again.paths[name], "rb") as b:
            assert a.read() == b.read(), name
    with open(inputs.paths["raw.txt"], encoding="utf-8") as fh:
        assert fh.readline().split() == [str(len(inputs.words)), str(spec.dim)]
        row = fh.readline().split(" ")
    assert [float(x) for x in row[1:]] == list(inputs.vectors[0])
    kinds = [r.kind for r in inputs.infer]
    n_bad = round(spec.bad_share * spec.infer_reviews)
    assert kinds.count(workloads.MISSING_PARSE) == kinds.count(workloads.ALL_OOV) == n_bad
    # the work per step must not depend on the seed
    other = workloads.generate(spec, 4, str(tmp_path / "other"))
    for a, b in ((inputs.train, other.train), (inputs.infer, other.infer)):
        assert sum(len(r.clauses) for r in a) == sum(len(r.clauses) for r in b)
    with open(inputs.paths["infer.jsonl"], encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    gold = records[next(i for i, r in enumerate(inputs.infer) if r.kind == workloads.OK)]
    r = next(r for r in inputs.infer if r.review_id == gold["review_id"])
    assert r.clauses[r.gold] == (gold["gold_cause"]["sentence_index"],
                                 gold["gold_cause"]["start"], gold["gold_cause"]["end"])
