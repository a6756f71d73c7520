"""Per-kernel timings: the LSTM kernels' time loop run once over both
directions (paired) against once per direction (apart); and, with --step,
whole training steps; with --save, the embedding table writer; and, with
--load, the embedding table reader.

    python3 tools/kernel_timings.py [--repeats N] [--small] [--step | --save | --load]

For each (T, H, B) shape it prints the median microseconds of one
both-directions call of the forward kernel over B sequences of T steps,
of the backward kernel over one of them (the backward runs one sequence
at a time, so only B = 1 shapes time it), and of the two together, with
the paired loop and with the loops apart, and the ratio of the pair's
times (above 1: the paired loop is faster). The loop form is chosen by
setting kernels.PAIR_BYTES, which otherwise pairs the loops up to H = 128;
the "paired" column says what that default chooses. Each form's backward
reads the outputs its own forward leaves, in that form's layout. The weights are cut
from a model's flat vector, so the paired recurrent weights are the same
strided view training uses. The input width is 16 below H = 256 and 300
from it, the dense-groups and reference-sizes widths. The two loop forms
alternate within every repeat, and BLAS runs on one thread. --small keeps
the shapes with H < 256, the last of them past the default bound; CI runs
them with --repeats 1 so that the script keeps working.

--step instead prints the median microseconds of one batch-size-1
training step, bilstm_mlp.loss_and_grads plus the momentum update
(Momentum.begin_step and end_step), as bilstm_mlp.train runs it: an
emotion step (T = 10, H = 32, d = 16) and two cause steps (T = 4, H = 64,
d = 16, one-hot emotion probabilities), each over a cycle of 16 random
sequences held as train holds them. The "cause" row teacher-forces every
sequence to one emotion, so no step catches an idle input block up; the
"cause-mix" row draws each sequence's emotion at random, as gold labels
mix them, so most steps catch their block up first.

--save instead prints the median seconds of embeddings.save_word_embeddings
on a seeded 3000 x 300 table (the reference-sizes table shape), text and
sidecar, and of the writer it replaced as the reference: each row joined
from the repr of its values, encoded, hashed and written. The two ways
alternate within every repeat, and their texts must be the same bytes.

--load instead prints the median seconds of embeddings.load_word_embeddings
on seeded 3000 x 300 tables: a table save_word_embeddings wrote, read
through its copy (a hit) and from its text, and a raw word2vec-style text
(six decimals, a trailing space on each row), read through the input copy
build-embeddings writes for it and from its text. The ways alternate
within every repeat, and each table must load to the same words and bits
both ways.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from emocause import bilstm_mlp, cause_model, emotion_model  # noqa: E402
from emocause.embeddings import (EmbeddingTable, load_word_embeddings,  # noqa: E402
                                 save_word_embeddings)
from emocause.nn import core, kernels  # noqa: E402

SHAPES = ((12, 32, 1), (6, 64, 1), (14, 32, 19), (12, 128, 1), (12, 192, 1), (20, 256, 1),
          (6, 1024, 1), (7, 1024, 3))
# (name, model class, T, H, one-hot block: None for the emotion model's one
# block, MIXED for a random one per sequence)
MIXED = -1
STEPS = (("emotion", emotion_model.EmotionClassifier, 10, 32, None),
         ("cause", cause_model.CauseScorer, 4, 64, 2),
         ("cause-mix", cause_model.CauseScorer, 4, 64, MIXED))
STEP_DIM = 16
TARGET_S = 0.02  # each timed batch of calls runs for about this long
SAVE_SHAPE = (3000, 300)


# kernels.PAIR_BYTES for each loop form
FORMS = {"paired": 1 << 62, "apart": 0}


class Case:
    """Random weights, inputs and gradient arrays for one shape."""

    def __init__(self, steps: int, hidden: int, batch: int, rng: np.random.Generator):
        dim = 16 if hidden < 256 else 300
        dims = (1, dim, hidden, 1, 1)
        self.m = bilstm_mlp.Weights.over(bilstm_mlp.draw(dims, rng), dims).bilstm
        self.grad = bilstm_mlp.Weights.over(np.zeros(bilstm_mlp.n_values(dims)), dims).bilstm
        self.lengths = [steps] * batch
        # each forward call starts from these pre-activations: the paired
        # loop turns its input into the gates in place, the loop per
        # direction a copy
        self.pre = rng.uniform(-1, 1, size=(steps, 4, batch, 2, hidden))
        self.zx = np.empty_like(self.pre)
        self.xs = rng.normal(size=(2, steps, dim))
        self.d_h_out = rng.normal(size=(steps, 2, hidden))
        # per loop form, the gates and cells of sequence 0 that its backward
        # reads, laid out as its forward leaves them
        self.runs = {form: [np.copy(a[..., 0, :, :]) for a in self.forward(form)[1:]]
                     for form in FORMS}

    def forward(self, form):
        kernels.PAIR_BYTES = FORMS[form]
        np.copyto(self.zx, self.pre)
        return kernels.lstm_forward_seq(self.zx, self.m.w_h, self.lengths)

    def backward(self, form):
        kernels.PAIR_BYTES = FORMS[form]
        kernels.lstm_backward_seq(self.m.w_h, self.xs, *self.runs[form], self.d_h_out,
                                  self.grad.w_x, self.grad.w_h, self.grad.bias, (1.0,))


def training_step(cls, steps: int, hidden: int, block, rng: np.random.Generator):
    """One training step of a new cls model, as a function of no arguments:
    each call runs the next of 16 random sequences of steps rows."""
    table = EmbeddingTable([f"w{i}" for i in range(64)], rng.normal(size=(64, STEP_DIM)))
    model = cls.init(table, rng, hidden=hidden)
    momentum = bilstm_mlp.Momentum(model, core.SgdConfig())
    held = []
    for _ in range(16):
        rows = table.vectors[rng.integers(len(table), size=steps)]
        target = int(rng.integers(max(2, cls.out_width)))
        j = int(rng.integers(cls.input_blocks)) if block == MIXED else block
        weights = np.ones((1, 1)) if j is None else np.eye(cls.input_blocks)[None, j]
        held.append((np.stack((rows, rows[::-1])), weights, target))
    cycle = itertools.cycle(held)

    def step():
        rows, weights, target = next(cycle)
        momentum.begin_step(weights)
        bilstm_mlp.loss_and_grads(model, rows, weights, target, True, rng, momentum.velocity)
        momentum.end_step()
    return step


def calls_per_batch(fn) -> int:
    start = time.perf_counter()
    fn()
    return max(1, int(TARGET_S / max(time.perf_counter() - start, 1e-6)))


def per_call_us(fn, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls * 1e6


def measure(case: Case, repeats: int, backward: bool) -> dict:
    """Median us per call of each kernel with each loop form, keyed
    (kernel, form), the ways alternating."""
    fns = {("fwd", form): functools.partial(case.forward, form) for form in FORMS}
    if backward:
        fns.update({("bwd", form): functools.partial(case.backward, form) for form in FORMS})
    calls = {way: calls_per_batch(fn) for way, fn in fns.items()}
    samples = {way: [] for way in fns}
    for r in range(repeats):
        for way in (list(fns) if r % 2 == 0 else list(fns)[::-1]):
            samples[way].append(per_call_us(fns[way], calls[way]))
    return {way: statistics.median(values) for way, values in samples.items()}


def repr_save(table: EmbeddingTable, path) -> None:
    """The text of save_word_embeddings as the per-value repr join wrote it."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for line in [f"{len(table)} {table.dim}\n"] + [
                word + " " + " ".join(map(repr, row)) + "\n"
                for word, row in zip(table.words, table.vectors.tolist())]:
            data = line.encode("utf-8")
            digest.update(data)
            fh.write(data)


def time_save(repeats: int, rng: np.random.Generator) -> None:
    words, dim = SAVE_SHAPE
    table = EmbeddingTable([f"w{i}" for i in range(words)], rng.normal(size=SAVE_SHAPE))
    ways = {"save_word_embeddings": save_word_embeddings, "repr join": repr_save}
    samples = {way: [] for way in ways}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {way: os.path.join(tmp, f"{i}.txt") for i, way in enumerate(ways)}
        for r in range(repeats):
            for way in (list(ways) if r % 2 == 0 else list(ways)[::-1]):
                start = time.perf_counter()
                ways[way](table, paths[way])
                samples[way].append(time.perf_counter() - start)
        texts = [open(path, "rb").read() for path in paths.values()]
    if texts[0] != texts[1]:
        raise SystemExit("save_word_embeddings and the repr join wrote different bytes")
    print(f"numpy {np.__version__}, {words} x {dim} table, {len(texts[0])} bytes of text")
    print(f"{'writer':<20} | {'median s':>8} {'ns/value':>8}")
    for way, values in samples.items():
        s = statistics.median(values)
        print(f"{way:<20} | {s:8.3f} {s / (words * dim) * 1e9:8.0f}")


def time_load(repeats: int, rng: np.random.Generator) -> None:
    words, dim = SAVE_SHAPE
    names = [f"w{i}" for i in range(words)]
    with tempfile.TemporaryDirectory() as tmp:
        saved, raw = os.path.join(tmp, "saved.txt"), os.path.join(tmp, "raw.txt")
        none, copy = os.path.join(tmp, "none.ecpe"), os.path.join(tmp, "raw.ecpe")
        save_word_embeddings(EmbeddingTable(names, rng.normal(size=SAVE_SHAPE)), saved)
        with open(raw, "w", encoding="utf-8") as fh:
            fh.write(f"{words} {dim}\n")
            for name, row in zip(names, rng.uniform(-1, 1, size=SAVE_SHAPE)):
                fh.write(name + " " + " ".join(f"{v:.6f}" for v in row) + " \n")
        load_word_embeddings(raw, none, copy_to=copy)
        ways = {"saved, copy": (saved, None), "saved, text": (saved, none),
                "raw, input copy": (raw, copy), "raw, text": (raw, none)}
        samples = {way: [] for way in ways}
        tables = {}
        for r in range(repeats):
            for way in (list(ways) if r % 2 == 0 else list(ways)[::-1]):
                start = time.perf_counter()
                tables[way] = load_word_embeddings(*ways[way])
                samples[way].append(time.perf_counter() - start)
        sizes = {way: os.path.getsize(path) for way, (path, _) in ways.items()}
    for a, b in (("saved, copy", "saved, text"), ("raw, input copy", "raw, text")):
        if (tables[a].words != tables[b].words
                or tables[a].vectors.tobytes() != tables[b].vectors.tobytes()):
            raise SystemExit(f"the table read as {a!r} and as {b!r} differ")
    print(f"numpy {np.__version__}, {words} x {dim} tables")
    print(f"{'table, read':<16} | {'text bytes':>10} {'median s':>8}")
    for way, values in samples.items():
        print(f"{way:<16} | {sizes[way]:10d} {statistics.median(values):8.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15, help="timed batches per way")
    parser.add_argument("--small", action="store_true", help="only the shapes with H < 256")
    parser.add_argument("--step", action="store_true",
                        help="time whole training steps instead of the kernels")
    parser.add_argument("--save", action="store_true",
                        help="time the embedding table writer instead of the kernels")
    parser.add_argument("--load", action="store_true",
                        help="time the embedding table reader instead of the kernels")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(0)
    if args.load:
        time_load(args.repeats, rng)
        return 0
    if args.save:
        time_save(args.repeats, rng)
        return 0
    if args.step:
        print(f"one BLAS thread, numpy {np.__version__}, d = {STEP_DIM}")
        print(f"{'step':<9} {'T':>3} {'H':>4} | {'median us':>9}")
        for name, cls, steps, hidden, block in STEPS:
            step = training_step(cls, steps, hidden, block, rng)
            calls = calls_per_batch(step)
            us = statistics.median(per_call_us(step, calls) for _ in range(args.repeats))
            print(f"{name:<9} {steps:3d} {hidden:4d} | {us:9.1f}")
        return 0
    default = kernels.PAIR_BYTES
    print(f"one BLAS thread, numpy {np.__version__}, kernels.PAIR_BYTES = {default}")
    print(f"{'T':>3} {'H':>5} {'B':>3} {'paired':>6} | {'fwd pair':>9} {'fwd apart':>9} | "
          f"{'bwd pair':>9} {'bwd apart':>9} | {'both pair':>9} {'both apart':>10} {'ratio':>6}")
    for steps, hidden, batch in SHAPES:
        if args.small and hidden >= 256:
            continue
        case = Case(steps, hidden, batch, rng)
        t = measure(case, args.repeats, backward=batch == 1)
        both = {form: sum(us for (_, f), us in t.items() if f == form) for form in FORMS}
        bwd = (f"{t['bwd', 'paired']:9.1f} {t['bwd', 'apart']:9.1f}" if batch == 1
               else f"{'-':>9} {'-':>9}")
        print(f"{steps:3d} {hidden:5d} {batch:3d} "
              f"{str(case.m.w_h.nbytes <= default):>6} | "
              f"{t['fwd', 'paired']:9.1f} {t['fwd', 'apart']:9.1f} | {bwd} | "
              f"{both['paired']:9.1f} {both['apart']:10.1f} {both['apart'] / both['paired']:6.2f}")
    kernels.PAIR_BYTES = default
    return 0


if __name__ == "__main__":
    sys.exit(main())
