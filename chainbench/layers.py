"""Per-layer metrics from the spans of a traced chain.

Spans come from tracer.py, one file per command. A layer is a module of the
program; its self time is the time its spans cover minus the time covered
by their direct child spans.
"""

from __future__ import annotations

import numpy as np

from tracer import LAYERS

NAME, START, END, PARENT, WORK = range(5)


class CommandSpans:
    def __init__(self, path: str, wall_s: float):
        data = np.load(path)
        self.names = [str(n) for n in data["names"]]
        self.rows = data["rows"]
        self.wall_s = wall_s
        self.dur = (self.rows[:, END] - self.rows[:, START]) * 1e-9

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.rows), dtype=bool)
        return self.rows[:, NAME] == self.names.index(name)

    def durations(self, name: str) -> np.ndarray:
        return self.dur[self._mask(name)]

    def work(self, name: str) -> int:
        return int(self.rows[self._mask(name), WORK].sum())

    def self_times(self) -> dict:
        child = np.zeros(len(self.rows))
        has_parent = self.rows[:, PARENT] >= 0
        np.add.at(child, self.rows[has_parent, PARENT], self.dur[has_parent])
        own = self.dur - child
        out = {}
        for i, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + float(own[self.rows[:, NAME] == i].sum())
        return out

    def untraced_s(self) -> float:
        """Wall time outside every span: interpreter start and imports."""
        roots = self.rows[:, PARENT] < 0
        return self.wall_s - float(self.dur[roots].sum())


def _total(spans, name, commands=None) -> float:
    return float(sum(s.durations(name).sum() for c, s in spans.items()
                     if commands is None or c in commands))


def _calls(spans, name, commands=None) -> int:
    return int(sum(len(s.durations(name)) for c, s in spans.items()
                   if commands is None or c in commands))


def _us(spans, name, q, commands=None) -> float:
    durs = np.concatenate([s.durations(name) for c, s in spans.items()
                           if commands is None or c in commands])
    return float(np.percentile(durs, q) * 1e6) if durs.size else 0.0


def layer_metrics(spans: dict, facts: dict) -> dict:
    """spans: command name -> CommandSpans. facts: numbers known outside
    the program (vocabulary size, clause counts, file sizes, report)."""
    m = {}
    load_s = _total(spans, "embeddings.load_word_embeddings")
    m["embeddings.load_s"] = (load_s, "s")
    m["embeddings.load_words_per_s"] = (
        _calls(spans, "embeddings.load_word_embeddings") * facts["vocab"] / load_s
        if load_s else 0.0, "words/s")
    m["embeddings.aware_build_s"] = (_total(spans, "embeddings.build_emotion_aware_table"), "s")
    m["embeddings.similarity_s"] = (_total(spans, "embeddings.build_similarity_matrix"), "s")
    m["embeddings.save_s"] = (_total(spans, "embeddings.save_word_embeddings"), "s")
    m["corpus.load_s"] = (_total(spans, "corpus.load_corpus"), "s")
    m["clauses.parse_s"] = (_total(spans, "clauses.parse_conllu"), "s")
    m["clauses.extract_s"] = (_total(spans, "clauses.extract_clauses"), "s")
    m["clauses.extract_calls"] = (_calls(spans, "clauses.extract_clauses"), "count")
    for key, fn in (("forward", "kernels.lstm_forward_seq"),
                    ("backward", "kernels.lstm_backward_seq")):
        m[f"kernels.{key}_calls"] = (_calls(spans, fn), "count")
        m[f"kernels.{key}_s"] = (_total(spans, fn), "s")
        m[f"kernels.{key}_us_p50"] = (_us(spans, fn, 50), "us")
        m[f"kernels.{key}_us_p99"] = (_us(spans, fn, 99), "us")
    backward_s = m["kernels.backward_s"][0]
    flops = sum(s.work("kernels.lstm_backward_seq") for s in spans.values())
    m["kernels.backward_gflop_per_s"] = (flops / backward_s / 1e9 if backward_s else 0.0,
                                         "GFLOP/s-computed")
    m["core.sgd_step_s"] = (_total(spans, "core.sgd_step"), "s")
    m["core.sgd_step_calls"] = (_calls(spans, "core.sgd_step"), "count")
    m["serialize.save_s"] = (_total(spans, "serialize.save_container"), "s")
    m["serialize.load_s"] = (_total(spans, "serialize.load_container"), "s")
    m["serialize.bytes_written"] = (facts["model_bytes"], "bytes")
    m["emotion_model.step_us_p50"] = (
        _us(spans, "emotion_model.loss_and_grads", 50, {"train-emotion"}), "us")
    m["emotion_model.forward_us_p50"] = (
        _us(spans, "emotion_model.forward_emotion", 50, {"summarize"}), "us")
    m["cause_model.step_us_p50"] = (
        _us(spans, "cause_model.loss_and_grads", 50, {"train-cause"}), "us")
    m["cause_model.inputs_s"] = (_total(spans, "cause_model.emotion_scaled_inputs"), "s")
    m["cause_model.select_s"] = (
        _total(spans, "cause_model.select_cause_clause", {"summarize"}), "s")
    score_calls = _calls(spans, "cause_model.score_clause", {"score-clauses"})
    m["cause_model.score_calls"] = (score_calls, "count")
    m["cause_model.score_calls_per_clause"] = (score_calls / facts["scorable_clauses"], "ratio")
    for key, fn in (("vectorize", "vectorize_clause"), ("link", "agglomerative_complete_link"),
                    ("head", "head_clause")):
        m[f"clustering.{key}_s"] = (_total(spans, f"clustering.{fn}", {"summarize"}), "s")
    m["clustering.max_group"] = (facts["max_group"], "count")
    m["pipeline.run_s"] = (_total(spans, "pipeline.run_pipeline"), "s")
    m["pipeline.load_tables_s"] = (_total(spans, "pipeline.load_tables"), "s")
    m["pipeline.build_examples_s"] = (_total(spans, "pipeline.build_emotion_examples")
                                      + _total(spans, "pipeline.build_cause_examples"), "s")
    m["pipeline.reviews_skipped"] = (facts["reviews_skipped"], "count")
    own: dict = {}
    for s in spans.values():
        for layer, t in s.self_times().items():
            own[layer] = own.get(layer, 0.0) + t
    for layer in LAYERS.values():
        m[f"{layer}.self_s"] = (own.get(layer, 0.0), "s")
    m["process.untraced_s"] = (sum(s.untraced_s() for s in spans.values()), "s")
    return m
