"""Command-line interface.

Subcommands: build-embeddings, extract-clauses, train-emotion, train-cause,
score-clauses, summarize, gen-synthetic, gradient-check. Exit codes:
0 success, 1 usage error (or a failed gradient check), 2 data error.
The ECPE_SEED environment variable supplies the default for --seed;
an explicit flag wins.

Each stage of the method runs as its own process, so this module imports
only what every command needs; each cmd_* imports the modules it runs in
its own body, and the defaults that those modules own (--epochs, --hidden,
--threshold) are looked up there when the command runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import DataError
from .nn.serialize import atomic_open

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
    if env is None:
        return 0
    try:
        seed = int(env)
    except ValueError:
        raise DataError(f"ECPE_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise DataError(f"ECPE_SEED must be a non-negative integer, got {env!r}")
    return seed


def _checked(parse, ok, requirement):
    """An argparse type: parse the text, then reject values ok() refuses.
    requirement is the message's text, or a function that gives it.
    argparse reports a ValueError from parse as an invalid value."""
    def check(text: str):
        value = parse(text)
        if not ok(value):
            need = requirement() if callable(requirement) else requirement
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return value
    check.__name__ = parse.__name__  # argparse names the type in its message
    return check


def _emotion_count() -> int:
    # looked up only when --dim is given, so parsing imports no other module
    from .embeddings import EMOTIONS
    return len(EMOTIONS)


_non_negative_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
positive_int = _checked(int, lambda v: v > 0, "a positive integer")
embedding_dim = _checked(int, lambda v: v >= _emotion_count(),
                         lambda: f"at least {_emotion_count()}, one axis per emotion")
positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0,
                          "a finite number > 0")
momentum = _checked(float, lambda v: 0.0 <= v < 1.0, "in [0, 1)")  # false for nan
# The two directions' recurrent weights, 2 * 4H * H float64 values, take at
# most half of the bytes numpy can index, which leaves the other half for
# the input and output weights of any table narrower than 2**28 columns.
# A larger H would make numpy refuse the parameter vector.
MAX_HIDDEN = math.isqrt(np.iinfo(np.intp).max // 2 // (8 * 2 * 4))
hidden_size = _checked(int, lambda v: 0 < v <= MAX_HIDDEN,
                       f"a positive integer at most {MAX_HIDDEN}")


def _add_seed(parser, help_text="rng seed (default: ECPE_SEED env var, else 0)"):
    parser.add_argument("--seed", type=_non_negative_int, default=None, help=help_text)


def _write_or_print(text: str, path: str | None):
    """Write text to path through a temporary file renamed over it, so a
    failed write leaves any earlier file intact; print it when path is None."""
    if path:
        with atomic_open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_build_embeddings(args) -> int:
    from .embeddings import (build_emotion_aware_table, input_copy_path, load_emotion_lexicon,
                             load_word_embeddings, save_word_embeddings)
    # the copy of the raw table, for summarize (pipeline.load_tables)
    table = load_word_embeddings(args.embeddings, copy_to=input_copy_path(args.output))
    lexicon = load_emotion_lexicon(args.lexicon)
    aware = build_emotion_aware_table(table, lexicon, k=args.top_k)
    save_word_embeddings(aware, args.output)
    print(f"wrote {len(aware)} emotion-aware vectors to {args.output}")
    return 0


def cmd_extract_clauses(args) -> int:
    from .clauses import extract_clauses, parse_conllu
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


def _train(args, defaults, build_examples, train, what: str, gold: str) -> int:
    """defaults: the model's module, which owns its DEFAULT_EPOCHS and
    DEFAULT_HIDDEN."""
    from . import bilstm_mlp, pipeline
    from .embeddings import load_word_embeddings
    from .nn import core
    aware = load_word_embeddings(args.embeddings)
    examples = build_examples(*pipeline.load_reviews(args.corpus, args.parses))
    if not examples:
        raise DataError(f"no training examples with gold {gold}")
    rng = np.random.default_rng(_resolve_seed(args.seed))
    cfg = core.SgdConfig(learning_rate=args.lr, momentum=args.momentum)
    epochs = defaults.DEFAULT_EPOCHS if args.epochs is None else args.epochs
    hidden = defaults.DEFAULT_HIDDEN if args.hidden is None else args.hidden
    model, _trace = train(examples, aware, rng, epochs=epochs, cfg=cfg,
                          hidden=hidden, log_epochs=True)
    bilstm_mlp.save(model, args.output)
    print(f"saved {what} model to {args.output}")
    return 0


def cmd_train_emotion(args) -> int:
    from . import emotion_model, pipeline
    return _train(args, emotion_model, pipeline.build_emotion_examples,
                  emotion_model.train_emotion, "emotion", "emotion labels")


def cmd_train_cause(args) -> int:
    from . import cause_model, pipeline
    return _train(args, cause_model, pipeline.build_cause_examples,
                  cause_model.train_cause, "cause", "cause spans")


def cmd_score_clauses(args) -> int:
    from . import bilstm_mlp, cause_model, emotion_model, pipeline
    from .embeddings import load_word_embeddings
    aware = load_word_embeddings(args.embeddings)
    emo = bilstm_mlp.load(emotion_model.EmotionClassifier, args.emotion_model, aware)
    scorer = bilstm_mlp.load(cause_model.CauseScorer, args.cause_model, aware)
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
    from . import pipeline
    cfg = pipeline.PipelineConfig(
        embeddings_path=args.embeddings,
        aware_path=args.aware,
        corpus_path=args.corpus,
        parses_path=args.parses,
        emotion_model_path=args.emotion_model,
        cause_model_path=args.cause_model,
        threshold=(pipeline.DEFAULT_THRESHOLD if args.threshold is None
                   else args.threshold),
    )
    report = pipeline.run_pipeline(cfg)
    _write_or_print(report.to_json(), args.output)
    if args.text_output:
        _write_or_print(report.to_text(), args.text_output)
    if args.dump_2d:
        _write_or_print(json.dumps(pipeline.dump_projection(report),
                                   sort_keys=True, indent=2) + "\n", args.dump_2d)
    return 0


def cmd_gen_synthetic(args) -> int:
    from . import synthetic
    from .corpus import save_corpus
    from .embeddings import save_word_embeddings
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

    for name, what, func in (
            ("train-emotion", "emotion classifier", cmd_train_emotion),
            ("train-cause", "cause-clause scorer", cmd_train_cause)):
        p = sub.add_parser(name, help=f"train the {what}")
        p.add_argument("--corpus", required=True)
        p.add_argument("--parses", required=True)
        p.add_argument("--embeddings", required=True, help="emotion-aware table")
        p.add_argument("--output", required=True, help="model file to write")
        p.add_argument("--epochs", type=positive_int)
        p.add_argument("--lr", type=positive_float, default=0.003)
        p.add_argument("--momentum", type=momentum, default=0.9)
        p.add_argument("--hidden", type=hidden_size)
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
    p.add_argument("--threshold", type=positive_float,
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
    # bad input only: any other exception is a fault of the program and
    # propagates with its traceback
    except (DataError, OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
