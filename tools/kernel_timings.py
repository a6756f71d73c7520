"""Per-kernel timings: both LSTM directions in one kernel call (D = 2)
against one call per direction (two D = 1 calls); and, with --step, whole
training steps.

    python3 tools/kernel_timings.py [--repeats N] [--small] [--step]

For each (T, H, B) shape it prints the median microseconds of the forward
kernel over B sequences of T steps, of the backward kernel over one of
them (the backward runs one sequence at a time, so only B = 1 shapes time
it), and of the two together, for one D = 2 call and for two D = 1 calls,
and the ratio of the pair's times (above 1: one D = 2 call is faster).
The weights are cut from a model's flat vector, so the paired recurrent
weights are the same strided view training uses. The input width is 16
below H = 256 and 300 from it, the dense-groups and reference-sizes
widths. The two ways alternate within every repeat, and BLAS runs on one
thread. --small keeps the shapes with H <= 128, the ones the default
bound pairs; CI runs them with --repeats 1 so that the script keeps
working.

--step instead prints the median microseconds of one batch-size-1
training step, bilstm_mlp.loss_and_grads plus the momentum update
(Momentum.begin_step and end_step), as bilstm_mlp.train runs it: an
emotion step (T = 10, H = 32, d = 16) and two cause steps (T = 4, H = 64,
d = 16, one-hot emotion probabilities), each over a cycle of 16 random
sequences held as train holds them. The "cause" row teacher-forces every
sequence to one emotion, so no step catches an idle input block up; the
"cause-mix" row draws each sequence's emotion at random, as gold labels
mix them, so most steps catch their block up first.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from emocause import bilstm_mlp, cause_model, emotion_model  # noqa: E402
from emocause.embeddings import EmbeddingTable  # noqa: E402
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


def direction(out, e):
    """Direction e of the forward kernel's (hs, gates, cells): the direction
    axis comes right before the H axis in each."""
    return [a[..., e:e + 1, :] for a in out]


class Case:
    """Random weights, inputs and gradient arrays for one shape."""

    def __init__(self, steps: int, hidden: int, batch: int, rng: np.random.Generator):
        dim = 16 if hidden < 256 else 300
        dims = (1, dim, hidden, 1, 1)
        self.m = bilstm_mlp.Weights.over(bilstm_mlp.draw(dims, rng), dims).bilstm
        self.grad = bilstm_mlp.Weights.over(np.zeros(bilstm_mlp.n_values(dims)), dims).bilstm
        self.params = (self.m.forward, self.m.backward)
        self.grads = (self.grad.forward, self.grad.backward)
        self.lengths = [steps] * batch
        self.zx = rng.uniform(-1, 1, size=(steps, 4, batch, 2, hidden))
        # each direction's own input, as bilstm_run packs it for a D = 1 call
        self.zx_apart = [self.zx[..., e:e + 1, :].copy() for e in (0, 1)]
        self.xs = rng.normal(size=(2, steps, dim))
        self.d_h_out = rng.normal(size=(steps, 2, hidden))
        # the forward outputs the backward reads, gates and cells, for sequence 0
        out = kernels.lstm_forward_seq(self.zx.copy(), self.m.w_h, self.lengths)[1:]
        self.run = [a[..., 0, :, :].copy() for a in out]
        self.runs = [[a.copy() for a in direction(self.run, e)] for e in (0, 1)]

    def forward_paired(self):
        kernels.lstm_forward_seq(self.zx, self.m.w_h, self.lengths)

    def forward_apart(self):
        for e, p in enumerate(self.params):
            kernels.lstm_forward_seq(self.zx_apart[e], p.w_h[None], self.lengths)

    def backward_paired(self):
        kernels.lstm_backward_seq(self.m.w_h, self.xs, *self.run, self.d_h_out,
                                  self.grad.w_x, self.grad.w_h, self.grad.bias, (1.0,))

    def backward_apart(self):
        for e, (p, g) in enumerate(zip(self.params, self.grads)):
            kernels.lstm_backward_seq(p.w_h[None], self.xs[e:e + 1], *self.runs[e],
                                      self.d_h_out[:, e:e + 1], g.w_x[None], g.w_h[None],
                                      g.bias[None], (1.0,))


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
    """Median us per call of each way, the two ways alternating."""
    fns = {"fwd2": case.forward_paired, "fwd1": case.forward_apart}
    if backward:
        fns.update(bwd2=case.backward_paired, bwd1=case.backward_apart)
    calls = {key: calls_per_batch(fn) for key, fn in fns.items()}
    samples = {key: [] for key in fns}
    for r in range(repeats):
        keys = list(fns) if r % 2 == 0 else list(fns)[::-1]
        for key in keys:
            samples[key].append(per_call_us(fns[key], calls[key]))
    return {key: statistics.median(values) for key, values in samples.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15, help="timed batches per way")
    parser.add_argument("--small", action="store_true", help="only the shapes with H <= 128")
    parser.add_argument("--step", action="store_true",
                        help="time whole training steps instead of the kernels")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(0)
    if args.step:
        print(f"one BLAS thread, numpy {np.__version__}, d = {STEP_DIM}")
        print(f"{'step':<9} {'T':>3} {'H':>4} | {'median us':>9}")
        for name, cls, steps, hidden, block in STEPS:
            step = training_step(cls, steps, hidden, block, rng)
            calls = calls_per_batch(step)
            us = statistics.median(per_call_us(step, calls) for _ in range(args.repeats))
            print(f"{name:<9} {steps:3d} {hidden:4d} | {us:9.1f}")
        return 0
    print(f"one BLAS thread, numpy {np.__version__}, core.PAIR_BYTES = {core.PAIR_BYTES}")
    print(f"{'T':>3} {'H':>5} {'B':>3} {'paired':>6} | {'fwd D=2':>9} {'fwd 2xD=1':>9} | "
          f"{'bwd D=2':>9} {'bwd 2xD=1':>9} | {'pair D=2':>9} {'pair 2xD=1':>10} {'ratio':>6}")
    for steps, hidden, batch in SHAPES:
        if args.small and hidden > 128:
            continue
        t = measure(Case(steps, hidden, batch, rng), args.repeats, backward=batch == 1)
        both2 = t["fwd2"] + t.get("bwd2", 0.0)
        both1 = t["fwd1"] + t.get("bwd1", 0.0)
        bwd = (f"{t['bwd2']:9.1f} {t['bwd1']:9.1f}" if batch == 1 else f"{'-':>9} {'-':>9}")
        print(f"{steps:3d} {hidden:5d} {batch:3d} {str(core.paired(hidden)):>6} | "
              f"{t['fwd2']:9.1f} {t['fwd1']:9.1f} | {bwd} | {both2:9.1f} {both1:10.1f} "
              f"{both1 / both2:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
