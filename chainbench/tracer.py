"""Run one emocause command with the package's public functions wrapped in
span recorders.

    python3 chainbench/tracer.py SPANS.npz build-embeddings --embeddings ...

Every public function of the traced modules is replaced, in its own module
and in every module that imported it by name, with a wrapper that records
one span per call: name, start, end, parent span and, for the LSTM backward
kernel, its floating-point operations computed from the argument shapes.
Spans stay in memory and are written to SPANS.npz when the command ends.
The program's own files are not touched.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# module (under emocause) -> layer name used in the metrics
LAYERS = {
    "embeddings": "embeddings",
    "corpus": "corpus",
    "clauses": "clauses",
    "nn.kernels": "kernels",
    "nn.core": "core",
    "nn.serialize": "serialize",
    "emotion_model": "emotion_model",
    "cause_model": "cause_model",
    "clustering": "clustering",
    "pipeline": "pipeline",
    "cli": "cli",
}


def backward_flops(args) -> int:
    """Multiply-adds of lstm_backward_seq, counted as 2 flops each: per step
    the two outer products (4H x D and 4H x H) and the (H x 4H) recurrent
    product. Elementwise gate arithmetic is left out."""
    w_x, w_h, xs = args[0], args[1], args[2]
    steps, gates4, hidden = xs.shape[0], w_h.shape[0], w_h.shape[1]
    return 2 * steps * gates4 * (w_x.shape[1] + 2 * hidden)


WORK = {"kernels.lstm_backward_seq": backward_flops}


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.rows: list = []  # (name id, start ns, end ns, parent row, work)
        self.stack = [-1]

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        rows, stack, clock = self.rows, self.stack, time.perf_counter_ns
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = len(rows)
            rows.append(None)
            parent = stack[-1]
            stack.append(row)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows[row] = (name_id, start, end, parent,
                             work(args) if work is not None else 0)

        return traced

    def save(self, path: str) -> None:
        """Called once the command has returned, so every span is closed."""
        np.savez(path, names=np.array(self.names, dtype=str),
                 rows=np.array(self.rows, dtype=np.int64).reshape(-1, 5))


def instrument(recorder: Recorder) -> None:
    replaced = {}
    for module, layer in LAYERS.items():
        mod = importlib.import_module(f"emocause.{module}")
        for name, obj in list(vars(mod).items()):
            if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            wrapped = recorder.wrap(f"{layer}.{name}", obj)
            replaced[id(obj)] = wrapped
            setattr(mod, name, wrapped)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "emocause" or mod_name.startswith("emocause."):
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and getattr(mod, name) is not replaced[id(obj)]:
                    setattr(mod, name, replaced[id(obj)])


def main(argv) -> int:
    spans_path, command = argv[0], argv[1:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    recorder = Recorder()
    instrument(recorder)
    cli = sys.modules["emocause.cli"]
    try:
        return cli.main(command)
    finally:
        recorder.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
