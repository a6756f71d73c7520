"""Checkers for the outputs of the emocause command chain.

Each checker compares an output with a computation made here, apart from
the program, or with a property the method must have, and returns a list of
problems (empty when the output is correct). None of them compares with a
stored copy of an earlier output.
"""

from __future__ import annotations

import heapq
import math
import re
import struct

import numpy as np

AWARE_TOL = 1e-9
# distances are recomputed here with other arithmetic than the program's, so
# two radii this close count as a tie when the head is checked
TIE_TOL = 1e-9
TOP_K = 2
MID = 80
N_EMOTIONS = 8
KIND_EMOTION, KIND_CAUSE = 1, 2
EPOCH_LINE = re.compile(r"^epoch (\d+) loss (\S+)$")


# ---- build-embeddings -------------------------------------------------------

def expected_aware(word: str, raw: dict, max_intensity: dict) -> np.ndarray:
    """Brute force: cosine against every lexicon word in the vocabulary, the
    top 2 by (-similarity, word), weights max(sim, 0) * max intensity,
    normalised, averaged with the raw vector. All-zero weights keep raw."""
    v = raw[word]
    candidates = []
    for e, intensity in max_intensity.items():
        if e in raw:
            u = raw[e]
            sim = float(np.dot(v, u) / (np.linalg.norm(v) * np.linalg.norm(u)))
            candidates.append((-sim, e, intensity))
    top = heapq.nsmallest(TOP_K, candidates)
    weights = np.array([max(-neg, 0.0) * intensity for neg, _, intensity in top])
    total = weights.sum()
    if total == 0.0:
        return v.copy()
    blend = sum((wt / total) * raw[e] for wt, (_, e, _) in zip(weights, top))
    return (v + blend) / 2.0


def check_aware_table(header: tuple, widths: dict, vectors: dict, raw: dict, dim: int,
                      max_intensity: dict) -> list[str]:
    """widths: word -> number of values on its row of the aware table;
    vectors: word -> aware vector, for the sampled words. Every raw word must
    be kept with the same dimension; the sampled words must match the
    brute-force recomputation within AWARE_TOL."""
    problems = []
    if header != (len(raw), dim):
        problems.append(f"aware header {header}, expected {(len(raw), dim)}")
    if set(widths) != set(raw):
        problems.append(f"aware table has {len(set(widths) - set(raw))} extra and "
                        f"{len(set(raw) - set(widths))} missing words")
    bad_width = [w for w, n in widths.items() if n != dim]
    if bad_width:
        problems.append(f"{len(bad_width)} aware rows do not have {dim} values, "
                        f"e.g. {bad_width[0]!r}")
    for word, got in vectors.items():
        if len(got) != dim:
            continue
        err = float(np.max(np.abs(np.asarray(got) - expected_aware(word, raw, max_intensity))))
        if not err <= AWARE_TOL:
            problems.append(f"aware vector of {word!r} is off by {err:.3g}")
    return problems


# ---- training -----------------------------------------------------------------

def model_param_count(kind: int, dim: int, hidden: int) -> int:
    d_in = dim if kind == KIND_EMOTION else N_EMOTIONS * dim
    out = N_EMOTIONS if kind == KIND_EMOTION else 1
    lstm = 4 * hidden * (d_in + hidden + 1)
    return 2 * lstm + MID * (2 * hidden + 1) + out * (MID + 1)


def check_model_file(path: str, kind: int, dim: int, hidden: int) -> list[str]:
    """Reads the ECPE1 container as documented: magic, descriptor, then the
    raw f64 payload. The descriptor must hold the requested sizes, the
    payload must hold exactly that many parameters, all finite."""
    out = N_EMOTIONS if kind == KIND_EMOTION else 1
    with open(path, "rb") as fh:
        head = fh.read(5 + 4 + 4 * 5)
    if head[:5] != b"ECPE1":
        return [f"{path}: bad magic"]
    (n,) = struct.unpack_from("<I", head, 5)
    if n != 5:
        return [f"{path}: descriptor has {n} values, expected 5"]
    descriptor = struct.unpack_from("<5I", head, 9)
    if descriptor != (kind, dim, hidden, MID, out):
        return [f"{path}: descriptor {descriptor}, expected {(kind, dim, hidden, MID, out)}"]
    payload = np.memmap(path, dtype="<f8", mode="r", offset=len(head))
    problems = []
    if payload.size != model_param_count(kind, dim, hidden):
        problems.append(f"{path}: {payload.size} parameters, expected "
                        f"{model_param_count(kind, dim, hidden)}")
    step = 1 << 22
    for start in range(0, payload.size, step):
        if not np.all(np.isfinite(payload[start:start + step])):
            problems.append(f"{path}: non-finite parameter")
            break
    del payload
    return problems


def check_epoch_losses(log_text: str, epochs: int) -> list[str]:
    losses = [(int(m.group(1)), m.group(2)) for m in map(EPOCH_LINE.match, log_text.splitlines())
              if m]
    if [e for e, _ in losses] != list(range(1, epochs + 1)):
        return [f"logged epochs {[e for e, _ in losses]}, expected 1..{epochs}"]
    bad = [v for _, v in losses if not math.isfinite(float(v))]
    return [f"non-finite epoch loss {bad[0]}"] if bad else []


# ---- summarize ----------------------------------------------------------------

def clause_vector(words, raw: dict, aware: dict) -> np.ndarray:
    """Max-pool of concat(raw, aware) over the in-vocabulary words."""
    rows = [np.concatenate([raw[w], aware[w]]) for w in words if w in raw and w in aware]
    return np.max(np.stack(rows), axis=0)


def distance_matrix(vectors: np.ndarray) -> np.ndarray:
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    return np.clip(1.0 - unit @ unit.T, 0.0, 2.0)


def check_group(dist: np.ndarray, clusters, pruned, threshold: float) -> list[str]:
    """dist: distances between the group's clauses in group order. clusters:
    (members, head) with members as group indices; pruned: group indices."""
    problems = []
    final = [list(members) for members, _ in clusters] + [[p] for p in pruned]
    for members, head in clusters:
        if len(members) < 2:
            problems.append(f"kept cluster of size {len(members)}")
            continue
        block = dist[np.ix_(members, members)]
        worst = float(block.max())
        if worst >= threshold:
            problems.append(f"cluster pair at distance {worst:.6f} >= {threshold}")
        if head not in members:
            problems.append(f"head {head} is not a member")
            continue
        # head = argmin of the largest distance to the other members,
        # lowest index on a tie
        np.fill_diagonal(block, -np.inf)
        radius = dict(zip(members, block.max(axis=1).tolist()))
        best = min(radius.values())
        expected = min(m for m in members if radius[m] <= best + TIE_TOL)
        if head != expected:
            problems.append(f"head {head} (radius {radius[head]:.6f}), expected "
                            f"{expected} (radius {radius[expected]:.6f})")
    # complete-link distance between every two final clusters: the largest
    # distance from cluster i's members to each point, maximised per cluster
    label = np.empty(dist.shape[0], dtype=np.int64)
    for c, members in enumerate(final):
        label[members] = c
    order = np.argsort(label, kind="stable")
    starts = np.searchsorted(label[order], np.arange(len(final)))
    for i, members in enumerate(final):
        link = np.maximum.reduceat(dist[members].max(axis=0)[order], starts)
        link[i] = np.inf
        j = int(np.argmin(link))
        if link[j] < threshold:
            problems.append(f"clusters {final[i][:3]} and {final[j][:3]} could still "
                            f"merge at distance {link[j]:.6f}")
            break
    return problems


def group_entries(group: dict) -> list[dict]:
    """Every clause of a report group: cluster members, then pruned ones."""
    return [m for c in group["clusters"] for m in c["members"]] + group["pruned"]


def check_summary(report: dict, reviews, raw: dict, aware: dict,
                  threshold: float) -> tuple[list[str], dict]:
    """reviews: the inference corpus plan (workloads.Review). Returns the
    problems and review_id -> chosen clause text."""
    problems = []
    bad = {r.review_id for r in reviews if r.kind != "ok"}
    position = {r.review_id: n for n, r in enumerate(reviews)}
    by_id = {r.review_id: r for r in reviews}
    if report["processed"] + report["skipped"] != len(reviews):
        problems.append(f"processed {report['processed']} + skipped {report['skipped']} "
                        f"!= {len(reviews)} reviews")
    if report["skipped"] != len(bad):
        problems.append(f"skipped {report['skipped']}, planted bad reviews {len(bad)}")
    chosen: dict = {}
    for group in report["groups"]:
        entries = group_entries(group)
        for m in entries:
            rid = m["review_id"]
            if rid in chosen:
                problems.append(f"review {rid} appears more than once")
            chosen[rid] = m["clause_text"]
            r = by_id.get(rid)
            if r is None or r.kind != "ok":
                problems.append(f"review {rid} should not be in the report")
            elif r.product != group["product"]:
                problems.append(f"review {rid} of {r.product} in group {group['product']}")
            elif m["clause_text"] not in [r.clause_text(i) for i in range(len(r.clauses))]:
                problems.append(f"{m['clause_text']!r} is not a clause of {rid}")
        if problems:
            return problems, chosen
        order = sorted({m["review_id"] for m in entries}, key=position.get)
        index = {rid: i for i, rid in enumerate(order)}
        vectors = np.stack([clause_vector(chosen[rid].split(), raw, aware) for rid in order])
        clusters = []
        for c in group["clusters"]:
            members = [index[m["review_id"]] for m in c["members"]]
            if c["size"] != len(members):
                problems.append(f"cluster size {c['size']} != {len(members)} members")
            clusters.append((members, index.get(c["head"]["review_id"], -1)))
        problems += check_group(distance_matrix(vectors), clusters,
                                [index[m["review_id"]] for m in group["pruned"]], threshold)
    missing = sorted(set(position) - bad - set(chosen))
    if missing:
        problems.append(f"{len(missing)} processed reviews missing from the report, "
                        f"e.g. {missing[0]}")
    return problems, chosen


def gold_match(reviews, chosen: dict) -> tuple[float, float]:
    """(share of good reviews whose chosen clause is the planted cause,
    share a uniform random choice among their clauses would reach)."""
    good = [r for r in reviews if r.kind == "ok"]
    hits = sum(chosen.get(r.review_id) == r.clause_text(r.gold) for r in good)
    chance = sum(1.0 / len(r.clauses) for r in good) / len(good)
    return hits / len(good), chance


# ---- score-clauses ------------------------------------------------------------

def check_scores(lines, reviews, chosen: dict) -> list[str]:
    """lines: parsed JSON objects of score-clauses. Every good review gets
    one line per clause, scores in (0, 1), exactly one selected clause,
    which is the argmax (lowest index on a tie) and the clause summarize
    chose. Reviews without lines must be exactly the planted bad ones."""
    problems = []
    by_review: dict = {}
    for obj in lines:
        by_review.setdefault(obj["review_id"], []).append(obj)
    plan = {r.review_id: r for r in reviews}
    bad = {r.review_id for r in reviews if r.kind != "ok"}
    silent = set(plan) - set(by_review)
    if silent != bad:
        problems.append(f"reviews without lines: {len(silent)}, planted bad: {len(bad)}; "
                        f"{len(silent ^ bad)} differ")
    for rid, objs in by_review.items():
        r = plan.get(rid)
        if r is None:
            problems.append(f"lines for unknown review {rid}")
            continue
        indices = [o["clause_index"] for o in objs]
        if sorted(indices) != list(range(len(r.clauses))):
            problems.append(f"{rid}: clause indices {indices}, expected {len(r.clauses)}")
            continue
        scores = {o["clause_index"]: o["score"] for o in objs}
        if not all(0.0 < s < 1.0 for s in scores.values()):
            problems.append(f"{rid}: score outside (0, 1)")
        selected = [o["clause_index"] for o in objs if o["selected"]]
        best = max(scores.values())
        argmax = min(i for i, s in scores.items() if s == best)
        if selected != [argmax]:
            problems.append(f"{rid}: selected {selected}, argmax {argmax}")
        elif chosen.get(rid) != r.clause_text(argmax):
            problems.append(f"{rid}: selected {r.clause_text(argmax)!r}, summarize chose "
                            f"{chosen.get(rid)!r}")
    return problems
