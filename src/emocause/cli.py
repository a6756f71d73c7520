"""Command-line interface.

Subcommands: build-embeddings, extract-clauses, train-emotion, train-cause,
score-clauses, summarize, gen-synthetic, gradient-check. Exit codes:
0 success, 1 usage error (or a failed gradient check), 2 data error.
The ECPE_SEED environment variable supplies the default for --seed;
an explicit flag wins.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import cause_model, emotion_model, pipeline, synthetic
from .clauses import extract_clauses, parse_conllu
from .corpus import save_corpus
from .embeddings import (EMOTIONS, build_emotion_aware_table, load_emotion_lexicon,
                         load_word_embeddings, save_word_embeddings)
from .errors import DataError
from .nn import core

GRADIENT_TOLERANCE = 1e-4


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 means "data error" here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("ECPE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DataError(f"ECPE_SEED must be an integer, got {env!r}") from None
    return 0


def _checked(parse, ok, requirement: str):
    """An argparse type: parse the text, then reject values ok() refuses.
    argparse reports a ValueError from parse as an invalid value."""
    def check(text: str):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value
    check.__name__ = parse.__name__  # argparse names the type in its message
    return check


positive_int = _checked(int, lambda v: v > 0, "a positive integer")
embedding_dim = _checked(int, lambda v: v >= len(EMOTIONS),
                         f"at least {len(EMOTIONS)}, one axis per emotion")
positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0,
                          "a finite number > 0")
momentum = _checked(float, lambda v: 0.0 <= v < 1.0, "in [0, 1)")  # false for nan


def _add_seed(parser, help_text="rng seed (default: ECPE_SEED env var, else 0)"):
    parser.add_argument("--seed", type=int, default=None, help=help_text)


def _write_or_print(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_build_embeddings(args) -> int:
    table = load_word_embeddings(args.embeddings)
    lexicon = load_emotion_lexicon(args.lexicon)
    aware = build_emotion_aware_table(table, lexicon, k=args.top_k)
    save_word_embeddings(aware, args.output)
    print(f"wrote {len(aware)} emotion-aware vectors to {args.output}")
    return 0


def cmd_extract_clauses(args) -> int:
    with open(args.parses, encoding="utf-8") as fh:
        sentences = parse_conllu(fh.read())
    lines = []
    for sentence in sentences:
        clauses = extract_clauses(sentence)
        lines.append(json.dumps({
            "review_id": sentence.review_id,
            "sentence_index": sentence.sent_index,
            "clauses": [{"start": c.span.start, "end": c.span.end,
                         "verb": c.span.verb, "text": c.text}
                        for c in clauses],
        }, sort_keys=True))
    _write_or_print("\n".join(lines) + ("\n" if lines else ""), args.output)
    return 0


def _train(args, build_examples, train, save, what: str, gold: str) -> int:
    aware = load_word_embeddings(args.embeddings)
    examples = build_examples(*pipeline.load_reviews(args.corpus, args.parses))
    if not examples:
        raise DataError(f"no training examples with gold {gold}")
    rng = np.random.default_rng(_resolve_seed(args.seed))
    cfg = core.SgdConfig(learning_rate=args.lr, momentum=args.momentum)
    model, _trace = train(examples, aware, rng, epochs=args.epochs, cfg=cfg,
                          hidden=args.hidden, log_epochs=True)
    save(model, args.output)
    print(f"saved {what} model to {args.output}")
    return 0


def cmd_train_emotion(args) -> int:
    return _train(args, pipeline.build_emotion_examples, emotion_model.train_emotion,
                  emotion_model.save_emotion_model, "emotion", "emotion labels")


def cmd_train_cause(args) -> int:
    return _train(args, pipeline.build_cause_examples, cause_model.train_cause,
                  cause_model.save_cause_model, "cause", "cause spans")


def cmd_score_clauses(args) -> int:
    aware = load_word_embeddings(args.embeddings)
    emo = emotion_model.load_emotion_model(args.emotion_model, aware)
    scorer = cause_model.load_cause_model(args.cause_model, aware)
    records, sentences = pipeline.load_reviews(args.corpus, args.parses)
    results, skipped = pipeline.infer_corpus(records, sentences, emo, scorer)
    lines = []
    for record, result in results:
        for i, score in enumerate(result.scores):
            if score is None:
                continue
            lines.append(json.dumps({
                "review_id": record.review_id,
                "clause_index": i,
                "score": score,
                "selected": i == result.chosen,
            }, sort_keys=True))
    _write_or_print("\n".join(lines) + ("\n" if lines else ""), args.output)
    print(f"skipped {sum(skipped.values())} review(s): {pipeline.format_skips(skipped)}",
          file=sys.stderr)
    return 0


def cmd_summarize(args) -> int:
    cfg = pipeline.PipelineConfig(
        embeddings_path=args.embeddings,
        aware_path=args.aware,
        corpus_path=args.corpus,
        parses_path=args.parses,
        emotion_model_path=args.emotion_model,
        cause_model_path=args.cause_model,
        threshold=args.threshold,
    )
    report = pipeline.run_pipeline(cfg)
    _write_or_print(report.to_json(), args.output)
    if args.text_output:
        with open(args.text_output, "w", encoding="utf-8") as fh:
            fh.write(report.to_text())
    if args.dump_2d:
        with open(args.dump_2d, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(pipeline.dump_projection(report),
                                sort_keys=True, indent=2) + "\n")
    return 0


def cmd_gen_synthetic(args) -> int:
    seed = _resolve_seed(args.seed)
    records, conllu = synthetic.generate_synthetic_corpus(
        seed, n_products=args.products, n_reviews=args.reviews)
    os.makedirs(args.output_dir, exist_ok=True)
    corpus_path = os.path.join(args.output_dir, "corpus.jsonl")
    parses_path = os.path.join(args.output_dir, "parses.conllu")
    embeddings_path = os.path.join(args.output_dir, "embeddings.txt")
    lexicon_path = os.path.join(args.output_dir, "lexicon.tsv")
    save_corpus(records, corpus_path)
    with open(parses_path, "w", encoding="utf-8") as fh:
        fh.write(conllu)
    save_word_embeddings(synthetic.synthetic_embeddings(seed, dim=args.dim),
                         embeddings_path)
    synthetic.write_lexicon(synthetic.synthetic_lexicon_rows(seed), lexicon_path)
    print(f"wrote {len(records)} reviews, parses, embeddings and lexicon "
          f"to {args.output_dir}")
    return 0


def cmd_gradient_check(args) -> int:
    from . import checks
    seed = _resolve_seed(args.seed)
    worst = checks.run_all(seeds=range(seed, seed + 5))
    print(f"max relative error {worst:.3e}")
    return 0 if worst < GRADIENT_TOLERANCE else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="emocause",
                     description="Emotion-cause clause extraction and "
                                 "per-product review summarization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-embeddings", parents=[],
                       help="blend an embedding file with an emotion lexicon")
    p.add_argument("--embeddings", required=True, help="raw embedding file")
    p.add_argument("--lexicon", required=True, help="emotion intensity TSV")
    p.add_argument("--output", required=True, help="emotion-aware output file")
    p.add_argument("--top-k", type=positive_int, default=2,
                   help="emotion words blended per vocabulary word")
    p.set_defaults(func=cmd_build_embeddings)

    p = sub.add_parser("extract-clauses", help="segment CoNLL-U parses into clauses")
    p.add_argument("--parses", required=True, help="CoNLL-U file")
    p.add_argument("--output", help="output path (default: stdout)")
    p.set_defaults(func=cmd_extract_clauses)

    for name, model, what, func in (
            ("train-emotion", emotion_model, "emotion classifier", cmd_train_emotion),
            ("train-cause", cause_model, "cause-clause scorer", cmd_train_cause)):
        p = sub.add_parser(name, help=f"train the {what}")
        p.add_argument("--corpus", required=True)
        p.add_argument("--parses", required=True)
        p.add_argument("--embeddings", required=True, help="emotion-aware table")
        p.add_argument("--output", required=True, help="model file to write")
        p.add_argument("--epochs", type=positive_int, default=model.DEFAULT_EPOCHS)
        p.add_argument("--lr", type=positive_float, default=0.003)
        p.add_argument("--momentum", type=momentum, default=0.9)
        p.add_argument("--hidden", type=positive_int, default=model.DEFAULT_HIDDEN)
        _add_seed(p)
        p.set_defaults(func=func)

    p = sub.add_parser("score-clauses",
                       help="score every clause of every review")
    p.add_argument("--corpus", required=True)
    p.add_argument("--parses", required=True)
    p.add_argument("--embeddings", required=True, help="emotion-aware table")
    p.add_argument("--emotion-model", required=True)
    p.add_argument("--cause-model", required=True)
    p.add_argument("--output", help="output path (default: stdout)")
    p.set_defaults(func=cmd_score_clauses)

    p = sub.add_parser("summarize", help="run the full pipeline and report")
    p.add_argument("--corpus", required=True)
    p.add_argument("--parses", required=True)
    p.add_argument("--embeddings", required=True, help="raw table")
    p.add_argument("--aware", required=True, help="emotion-aware table")
    p.add_argument("--emotion-model", required=True)
    p.add_argument("--cause-model", required=True)
    p.add_argument("--output", help="JSON report path (default: stdout)")
    p.add_argument("--text-output", help="also write a text rendering here")
    p.add_argument("--threshold", type=positive_float, default=pipeline.DEFAULT_THRESHOLD,
                   help="complete-linkage merge threshold")
    p.add_argument("--dump-2d", help="write 2-D projections of member "
                                     "vectors to this path")
    _add_seed(p, help_text="accepted and ignored: inference uses no randomness")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("gen-synthetic", help="generate a synthetic corpus")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--products", type=positive_int, default=50)
    p.add_argument("--reviews", type=positive_int, default=1000)
    p.add_argument("--dim", type=embedding_dim, default=16, help="embedding dimension")
    _add_seed(p)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("gradient-check",
                       help="verify analytic gradients against finite differences")
    _add_seed(p)
    p.set_defaults(func=cmd_gradient_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
