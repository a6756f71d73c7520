"""Seeded inputs for the chain benchmark, with their planted structure.

The generator is the benchmark's own: the program under test only ever sees
the files written here. Every review is built from a template whose
dependency tree, clause spans and gold cause clause are known up front, so
the checkers compare the program's outputs against this plan rather than
against anything the program computed.

A review's main sentence reads "<subj> <cop> [really] <emotion word> because
the <topic> <verb> <tail>". Its clauses are the emotion clause and the
"because ..." clause, which is the gold cause. Some reviews add a one-clause
filler sentence before or after it. Each product has a few planted
(emotion, topic) issues, so cause clauses repeat within a
(product, emotion) group and cluster. One catalogue of products is drawn
per seed; the training and inference corpora review its first products.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

EMOTIONS = ("anger", "anticipation", "disgust", "fear", "joy",
            "sadness", "surprise", "trust")

EMOTION_WORDS = {
    "anger": ("furious", "angry", "livid"),
    "anticipation": ("eager", "hopeful", "expectant"),
    "disgust": ("disgusted", "revolted", "nauseated"),
    "fear": ("terrified", "afraid", "alarmed"),
    "joy": ("delighted", "thrilled", "overjoyed"),
    "sadness": ("miserable", "heartbroken", "gloomy"),
    "surprise": ("astonished", "stunned", "startled"),
    "trust": ("confident", "reassured", "assured"),
}
SECONDARY_EMOTIONS = {"alarmed": ("surprise", 0.45), "stunned": ("fear", 0.40)}

# topic -> two (verb, tail) variants of its cause clause
TOPICS = {
    "battery": (("died", "quickly"), ("drained", "overnight")),
    "screen": (("cracked", "instantly"), ("flickered", "constantly")),
    "shipping": (("arrived", "late"), ("dragged", "forever")),
    "packaging": (("tore", "easily"), ("crumpled", "badly")),
    "price": (("dropped", "suddenly"), ("doubled", "overnight")),
    "manual": (("confused", "everyone"), ("rambled", "endlessly")),
    "zipper": (("jammed", "repeatedly"), ("snapped", "immediately")),
    "motor": (("overheated", "fast"), ("stalled", "often")),
    "handle": (("loosened", "quickly"), ("wobbled", "noticeably")),
    "software": (("crashed", "daily"), ("lagged", "terribly")),
}
TOPIC_NAMES = tuple(sorted(TOPICS))
SUBJECTS = (("i", "was"), ("we", "were"), ("they", "were"))
FILLER_NOUNS = ("case", "box", "color", "design", "strap")
FILLER_ADJS = ("fine", "plain", "okay", "simple", "sturdy")
# share of reviews with a filler sentence; the count is fixed, so every seed
# gives a corpus with the same number of clauses, and the same work per step
FILLER_SHARE = 0.4


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload. `infer_reviews` = 0 means the chain's
    summarize and score-clauses read the training corpus itself."""

    name: str
    train_reviews: int
    train_products: int
    infer_reviews: int
    infer_products: int
    dim: int
    emotion_hidden: int
    cause_hidden: int
    emotion_epochs: int
    cause_epochs: int
    issues: tuple  # (low, high) planted issues per product, inclusive
    one_emotion: bool = False  # all issues of a product share one emotion
    vocab_size: int = 0  # raw table padded with random words up to this
    lexicon_size: int = 0  # lexicon padded with random entries up to this
    bad_share: float = 0.0  # share of inference reviews planted bad, per kind
    gold_check: bool = False  # trains long enough to find the cause clause


SPECS = {
    "reference-sizes": Spec(
        "reference-sizes", train_reviews=1, train_products=1,
        infer_reviews=0, infer_products=0, dim=300, emotion_hidden=256,
        cause_hidden=1024, emotion_epochs=2, cause_epochs=1, issues=(2, 2),
        vocab_size=3_000, lexicon_size=1_500),
    "dense-groups": Spec(
        "dense-groups", train_reviews=200, train_products=3,
        infer_reviews=600, infer_products=3, dim=16, emotion_hidden=32,
        cause_hidden=64, emotion_epochs=10, cause_epochs=1, issues=(2, 3),
        one_emotion=True, bad_share=0.03, gold_check=True),
}

OK, MISSING_PARSE, ALL_OOV = "ok", "missing_parse", "all_oov"


@dataclass
class Review:
    review_id: str
    product: str
    kind: str
    emotion: str | None
    sentences: list  # rows of (form, upos, conllu head (0 = root), deprel)
    clauses: list  # (sentence index, start, end) in the program's order
    gold: int | None = None  # index into clauses of the planted cause

    def clause_words(self, i: int) -> list[str]:
        sent, start, end = self.clauses[i]
        return [row[0] for row in self.sentences[sent][start:end + 1]]

    def clause_text(self, i: int) -> str:
        return " ".join(self.clause_words(i))

    def tokens(self) -> list[str]:
        return [row[0] for rows in self.sentences for row in rows]


def _main_sentence(rng, emotion, topic):
    """Rows and clause spans of the emotion sentence; the second span is
    the planted cause clause."""
    subj, cop = SUBJECTS[rng.integers(len(SUBJECTS))]
    words = EMOTION_WORDS[emotion]
    emo_word = words[rng.integers(len(words))]
    verb, tail = TOPICS[topic][rng.integers(2)]
    intro = [(subj, "PRON", "nsubj"), (cop, "AUX", "cop")]
    if rng.integers(2):
        intro.append(("really", "ADV", "advmod"))
    root = len(intro)  # 0-based position of the emotion adjective
    verb_at = root + 4
    tail_upos, tail_rel = ("PRON", "obj") if tail == "everyone" else ("ADV", "advmod")
    rows = [(form, upos, root + 1, rel) for form, upos, rel in intro]
    rows += [(emo_word, "ADJ", 0, "root"),
             ("because", "SCONJ", verb_at + 1, "mark"),
             ("the", "DET", root + 4, "det"),
             (topic, "NOUN", verb_at + 1, "nsubj"),
             (verb, "VERB", root + 1, "advcl"),
             (tail, tail_upos, verb_at + 1, tail_rel)]
    return rows, [(0, root), (root + 1, root + 5)]


def _filler_sentence(rng):
    kind = rng.integers(3)
    if kind == 0:
        noun = FILLER_NOUNS[rng.integers(len(FILLER_NOUNS))]
        adj = FILLER_ADJS[rng.integers(len(FILLER_ADJS))]
        rows = [("the", "DET", 2, "det"), (noun, "NOUN", 4, "nsubj"),
                ("is", "AUX", 4, "cop"), (adj, "ADJ", 0, "root")]
        return rows, (1, 3)  # the determiner hangs off the noun, not the root
    if kind == 1:
        return [("it", "PRON", 2, "nsubj"), ("works", "VERB", 0, "root")], (0, 1)
    rows = [("the", "DET", 2, "det"), ("box", "NOUN", 3, "nsubj"),
            ("arrived", "VERB", 0, "root"), ("today", "ADV", 3, "advmod")]
    return rows, (1, 3)


def _oov_sentence(rng):
    forms = [f"oov{int(x):06d}" for x in rng.integers(0, 10 ** 6, size=3)]
    rows = [(forms[0], "PRON", 3, "nsubj"), (forms[1], "AUX", 3, "cop"),
            (forms[2], "ADJ", 0, "root")]
    return rows, (0, 2)


def plant_issues(rng, n_products: int, issues, one_emotion: bool) -> list:
    """Per product, its (emotion, topic) issues: distinct topics, and
    distinct emotions unless one_emotion."""
    catalogue = []
    for _ in range(n_products):
        count = int(rng.integers(issues[0], issues[1] + 1))
        emos = ([rng.integers(len(EMOTIONS))] * count if one_emotion
                else rng.choice(len(EMOTIONS), size=count, replace=False))
        tops = rng.choice(len(TOPIC_NAMES), size=count, replace=False)
        catalogue.append([(EMOTIONS[e], TOPIC_NAMES[t]) for e, t in zip(emos, tops)])
    return catalogue


def generate_reviews(rng, n_reviews: int, product_issues, prefix: str,
                     bad_share: float = 0.0) -> list[Review]:
    """Reviews split evenly over the products; with bad_share > 0, that
    share of reviews (rounded, at least one) gets a missing parse and as many
    again get only out-of-vocabulary words. FILLER_SHARE of the others
    (rounded) get a filler sentence."""
    n_products = len(product_issues)
    kinds = [OK] * n_reviews
    if bad_share > 0:
        n_bad = max(1, round(bad_share * n_reviews))
        picks = rng.choice(n_reviews, size=2 * n_bad, replace=False)
        for i in picks[:n_bad]:
            kinds[i] = MISSING_PARSE
        for i in picks[n_bad:]:
            kinds[i] = ALL_OOV
    worded = [i for i in range(n_reviews) if kinds[i] != ALL_OOV]
    with_filler = set(rng.choice(worded, size=round(FILLER_SHARE * len(worded)),
                                 replace=False).tolist())
    reviews = []
    for n in range(n_reviews):
        prod = n * n_products // n_reviews
        review = Review(f"{prefix}{n:05d}", f"p{prod:02d}", kinds[n], None, [], [])
        if kinds[n] == ALL_OOV:
            rows, span = _oov_sentence(rng)
            review.sentences, review.clauses = [rows], [(0, *span)]
            reviews.append(review)
            continue
        emotion, topic = product_issues[prod][rng.integers(len(product_issues[prod]))]
        main_rows, main_spans = _main_sentence(rng, emotion, topic)
        parts = [(main_rows, None)]
        if n in with_filler:
            filler = _filler_sentence(rng)
            parts = [filler, parts[0]] if rng.random() < 0.5 else [parts[0], filler]
        review.emotion = emotion
        for s, (rows, span) in enumerate(parts):
            review.sentences.append(rows)
            if span is None:
                review.gold = len(review.clauses) + 1
                review.clauses += [(s, *sp) for sp in main_spans]
            else:
                review.clauses.append((s, *span))
        reviews.append(review)
    return reviews


def template_vocabulary() -> list[str]:
    vocab = {"because", "the", "really", "it", "works", "is", "box", "arrived", "today"}
    for pair in SUBJECTS:
        vocab.update(pair)
    for words in EMOTION_WORDS.values():
        vocab.update(words)
    for topic, variants in TOPICS.items():
        vocab.add(topic)
        for pair in variants:
            vocab.update(pair)
    vocab.update(FILLER_NOUNS, FILLER_ADJS)
    return sorted(vocab)


def make_table(rng, dim: int, vocab_size: int):
    """(words, vectors): template words, emotion words with a strong
    per-emotion direction, then random padding words up to vocab_size."""
    words = template_vocabulary()
    emotion_of = {w: EMOTIONS.index(e) for e, ws in EMOTION_WORDS.items() for w in ws}
    vectors = rng.normal(0.0, 0.8, size=(max(vocab_size, len(words)), dim))
    for i, w in enumerate(words):
        if w in emotion_of:
            vectors[i] = rng.normal(0.0, 0.3, dim)
            vectors[i, emotion_of[w]] += 2.0
    words += [f"pad{i:06d}" for i in range(len(vectors) - len(words))]
    return words, quantize(vectors)


def make_lexicon(rng, words, lexicon_size: int) -> list[tuple[str, str, float]]:
    """Rows for every planted emotion word, then random padding words with
    a random emotion each until lexicon_size distinct words are listed."""
    rows = []
    for emotion in EMOTIONS:
        for w in EMOTION_WORDS[emotion]:
            rows.append((w, emotion, round(float(rng.uniform(0.75, 0.98)), 3)))
            if w in SECONDARY_EMOTIONS:
                rows.append((w, *SECONDARY_EMOTIONS[w]))
    padding = [w for w in words if w.startswith("pad")]
    extra = max(0, lexicon_size - len({r[0] for r in rows}))
    for j in rng.choice(len(padding), size=min(extra, len(padding)), replace=False):
        rows.append((padding[j], EMOTIONS[rng.integers(len(EMOTIONS))],
                     round(float(rng.uniform(0.05, 1.0)), 3)))
    return rows


def lexicon_max_intensity(rows) -> dict:
    out: dict = {}
    for w, _, intensity in rows:
        out[w] = max(out.get(w, 0.0), intensity)
    return out


def quantize(vectors: np.ndarray) -> np.ndarray:
    """Round to 6 decimals, as word2vec text files are written. q / 1e6 and
    float("<q with 6 decimals>") are both the double nearest q * 1e-6, so
    the program reads back exactly these values."""
    q = np.round(vectors * 1e6)
    if np.abs(q).max() >= 10 ** 7:
        raise ValueError("table values must lie in (-10, 10)")
    return q / 1e6


def write_table(path, words, vectors) -> None:
    """Header "<count> <dim>", then "<word> <values>" with each value in
    fixed 6-decimal form. Formatting is vectorised: one text row of 300
    values through repr() would dominate the set-up time."""
    q = np.round(vectors * 1e6).astype(np.int64)
    n, dim = q.shape
    a = np.abs(q)
    chars = np.empty((n, dim, 10), dtype=np.uint8)  # sign, digit, '.', 6 digits, sep
    chars[..., 0] = ord("-")
    chars[..., 1] = ord("0") + a // 10 ** 6
    chars[..., 2] = ord(".")
    for k in range(6):
        chars[..., 3 + k] = ord("0") + (a // 10 ** (5 - k)) % 10
    chars[..., 9] = ord(" ")
    chars[:, -1, 9] = ord("\n")
    keep = np.ones(chars.shape, dtype=bool)
    keep[..., 0] = q < 0
    with open(path, "wb") as fh:
        fh.write(f"{n} {dim}\n".encode())
        for w, row, k in zip(words, chars.reshape(n, -1), keep.reshape(n, -1)):
            fh.write(w.encode() + b" " + row[k].tobytes())


def write_corpus(corpus_path, parses_path, reviews) -> None:
    with open(corpus_path, "w", encoding="utf-8") as corpus, \
            open(parses_path, "w", encoding="utf-8") as parses:
        for r in reviews:
            obj = {"review_id": r.review_id, "product_id": r.product,
                   "stars": 3, "text": " ".join(r.tokens()),
                   "parse_ids": [f"{r.review_id}.{s}" for s in range(len(r.sentences))]}
            if r.gold is not None:
                sent, start, end = r.clauses[r.gold]
                obj["gold_emotion"] = r.emotion
                obj["gold_cause"] = {"sentence_index": sent, "start": start, "end": end}
            corpus.write(json.dumps(obj, sort_keys=True) + "\n")
            if r.kind == MISSING_PARSE:
                continue
            for s, rows in enumerate(r.sentences):
                parses.write(f"# sent_id = {r.review_id}.{s}\n")
                for i, (form, upos, head, rel) in enumerate(rows, start=1):
                    parses.write(f"{i}\t{form}\t{form}\t{upos}\t_\t_\t{head}\t{rel}\t_\t_\n")
                parses.write("\n")


@dataclass
class Inputs:
    """Everything one workload's chain reads, and the plan the checkers use."""

    spec: Spec
    seed: int
    workdir: str
    words: list
    vectors: np.ndarray
    lexicon: list
    train: list
    infer: list
    paths: dict = field(default_factory=dict)


def generate(spec: Spec, seed: int, workdir: str) -> Inputs:
    """Write the workload's files into workdir. The same seed gives
    byte-identical files."""
    rng = np.random.default_rng([seed, 7])
    words, vectors = make_table(rng, spec.dim, spec.vocab_size)
    lexicon = make_lexicon(rng, words, spec.lexicon_size)
    catalogue = plant_issues(rng, max(spec.train_products, spec.infer_products),
                             spec.issues, spec.one_emotion)
    train = generate_reviews(rng, spec.train_reviews, catalogue[:spec.train_products], "t")
    infer = train
    if spec.infer_reviews:
        infer = generate_reviews(rng, spec.infer_reviews, catalogue[:spec.infer_products],
                                 "r", spec.bad_share)
    os.makedirs(workdir, exist_ok=True)
    paths = {name: os.path.join(workdir, name) for name in (
        "raw.txt", "lexicon.tsv", "train.jsonl", "train.conllu",
        "infer.jsonl", "infer.conllu", "aware.txt", "emotion.bin",
        "cause.bin", "report.json", "scores.jsonl")}
    write_table(paths["raw.txt"], words, vectors)
    with open(paths["lexicon.tsv"], "w", encoding="utf-8") as fh:
        for w, emotion, intensity in lexicon:
            fh.write(f"{w}\t{emotion}\t{intensity!r}\n")
    write_corpus(paths["train.jsonl"], paths["train.conllu"], train)
    if infer is train:
        paths["infer.jsonl"], paths["infer.conllu"] = paths["train.jsonl"], paths["train.conllu"]
    else:
        write_corpus(paths["infer.jsonl"], paths["infer.conllu"], infer)
    return Inputs(spec, seed, workdir, words, vectors, lexicon, train, infer, paths)
