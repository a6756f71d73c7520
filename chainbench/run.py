"""Benchmark of the emocause command chain.

    python3 chainbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark generates the
workload's inputs from the seed, then runs build-embeddings, train-emotion,
train-cause, summarize and score-clauses, one emocause process per command,
in rounds: one, then more while the next should end within S seconds. The
inputs are generated again before every round, and setup_s is the median
time taken. It checks every output and prints, as its last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics of one traced round with
--trace 1.
See README.md for the workloads and the meaning of each metric.
"""

from __future__ import annotations

import os

# BLAS threads of the benchmark and of every command it starts
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# set-up runs before every round and repeats for at least this long, so that
# its samples spread over the run as the commands' do; setup_s is their median
SETUP_MIN_SECONDS = 0.25
THRESHOLD = 0.13  # summarize's default merge threshold
AWARE_SAMPLE = 200  # padded words whose aware vectors are recomputed
# a command still running this long after the benchmark started is killed,
# so that the benchmark itself ends within its 180-second limit
DEADLINE_S = 170
STARTED = time.monotonic()
COMMANDS = ("build-embeddings", "train-emotion", "train-cause", "summarize", "score-clauses")


def chain(spec: workloads.Spec, p: dict, seed: int) -> list[tuple[str, list[str]]]:
    train = ["--corpus", p["train.jsonl"], "--parses", p["train.conllu"],
             "--embeddings", p["aware.txt"], "--seed", str(seed)]
    models = ["--emotion-model", p["emotion.bin"], "--cause-model", p["cause.bin"]]
    infer = ["--corpus", p["infer.jsonl"], "--parses", p["infer.conllu"]]
    return [
        ("build-embeddings", ["--embeddings", p["raw.txt"], "--lexicon", p["lexicon.tsv"],
                              "--output", p["aware.txt"]]),
        ("train-emotion", train + ["--output", p["emotion.bin"], "--epochs",
                                   str(spec.emotion_epochs), "--hidden", str(spec.emotion_hidden)]),
        ("train-cause", train + ["--output", p["cause.bin"], "--epochs",
                                 str(spec.cause_epochs), "--hidden", str(spec.cause_hidden)]),
        ("summarize", infer + ["--embeddings", p["raw.txt"], "--aware", p["aware.txt"],
                               *models, "--output", p["report.json"], "--seed", str(seed)]),
        ("score-clauses", infer + ["--embeddings", p["aware.txt"], *models,
                                   "--output", p["scores.jsonl"]]),
    ]


class Command:
    """One finished emocause process, started through launch.py, which
    measures its wall time and peak resident set."""

    def __init__(self, name, args, workdir, env, spans_path=None):
        self.name = name
        self.log_path = os.path.join(workdir, f"{name}.log")
        report = os.path.join(workdir, f"{name}.usage")
        prog = ([sys.executable, os.path.join(HERE, "tracer.py"), spans_path] if spans_path
                else [sys.executable, "-m", "emocause.cli"])
        deadline = DEADLINE_S - (time.monotonic() - STARTED)
        with open(self.log_path, "w", encoding="utf-8") as log:
            launcher = subprocess.run(
                [sys.executable, "-S", os.path.join(HERE, "launch.py"), report, str(deadline)]
                + prog + [name] + args, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        if launcher.returncode != 0:
            self.wall_s, self.returncode, self.peak_rss_mb = 0.0, launcher.returncode, 0.0
            return
        with open(report, encoding="utf-8") as fh:
            wall_s, code, maxrss_kib = fh.read().split()
        self.wall_s, self.returncode = float(wall_s), int(code)
        self.peak_rss_mb = int(maxrss_kib) / 1024.0

    def log(self) -> str:
        with open(self.log_path, encoding="utf-8") as fh:
            return fh.read()


def run_round(steps, workdir, env, spans_dir=None) -> dict:
    done = {}
    for name, args in steps:
        spans = os.path.join(spans_dir, f"{name}.npz") if spans_dir else None
        cmd = Command(name, args, workdir, env, spans)
        done[name] = cmd
        if cmd.returncode != 0:
            break
    return done


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


OUTPUTS = ("aware.txt", "emotion.bin", "cause.bin", "report.json", "scores.jsonl")


def read_aware(path: str, wanted: set) -> tuple[tuple, dict, dict]:
    """Header, word -> row width, and word -> vector for the wanted words."""
    widths, vectors = {}, {}
    with open(path, encoding="utf-8") as fh:
        header = tuple(int(x) for x in fh.readline().split())
        for line in fh:
            word, _, rest = line.rstrip("\n").partition(" ")
            values = rest.split(" ")
            widths[word] = len(values)
            if word in wanted:
                vectors[word] = [float(x) for x in values]
    return header, widths, vectors


def check_outputs(inputs: workloads.Inputs, done: dict) -> tuple[list[str], dict]:
    """All checks on one round's outputs. Returns (problems, facts)."""
    spec, p = inputs.spec, inputs.paths
    raw = dict(zip(inputs.words, inputs.vectors))
    max_intensity = workloads.lexicon_max_intensity(inputs.lexicon)
    template = workloads.template_vocabulary()
    padded = inputs.words[len(template):]
    rng = np.random.default_rng([inputs.seed, 11])
    sample = template + [padded[i] for i in rng.choice(
        len(padded), size=min(AWARE_SAMPLE, len(padded)), replace=False)]
    header, widths, vectors = read_aware(p["aware.txt"], set(sample))
    problems = checks.check_aware_table(header, widths, vectors, raw, spec.dim, max_intensity)
    if problems:
        return problems, {}
    aware = {w: np.asarray(vectors[w]) for w in template}

    problems += checks.check_model_file(p["emotion.bin"], checks.KIND_EMOTION,
                                        spec.dim, spec.emotion_hidden)
    problems += checks.check_model_file(p["cause.bin"], checks.KIND_CAUSE,
                                        spec.dim, spec.cause_hidden)
    problems += checks.check_epoch_losses(done["train-emotion"].log(), spec.emotion_epochs)
    problems += checks.check_epoch_losses(done["train-cause"].log(), spec.cause_epochs)

    with open(p["report.json"], encoding="utf-8") as fh:
        report = json.load(fh)
    summary_problems, chosen = checks.check_summary(report, inputs.infer, raw, aware, THRESHOLD)
    problems += summary_problems
    with open(p["scores.jsonl"], encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    problems += checks.check_scores(lines, inputs.infer, chosen)
    facts = {"gold_match": None}
    if spec.gold_check:
        hit, chance = checks.gold_match(inputs.infer, chosen)
        facts["gold_match"] = (hit, chance)
        # halfway from chance to perfect
        if hit < (1.0 + chance) / 2.0:
            problems.append(f"planted cause chosen for {hit:.1%} of reviews; "
                            f"chance {chance:.1%}, need {(1 + chance) / 2:.1%}")
    good = [r for r in inputs.infer if r.kind == workloads.OK]
    sizes = sorted((sum(c["size"] for c in g["clusters"]) + len(g["pruned"])
                    for g in report["groups"]), reverse=True)
    planted = {r.review_id: r.emotion for r in good}
    in_planted_group = sum(planted.get(m["review_id"]) == g["emotion"]
                           for g in report["groups"] for m in checks.group_entries(g))
    facts.update(
        vocab=len(inputs.words),
        scorable_clauses=sum(len(r.clauses) for r in good),
        model_bytes=os.path.getsize(p["emotion.bin"]) + os.path.getsize(p["cause.bin"]),
        group_sizes=sizes,
        max_group=sizes[0] if sizes else 0,
        emotion_match=in_planted_group / len(good),
        reviews_skipped=report["skipped"],
    )
    return problems, facts


def end_to_end(spec, inputs, rounds, setup_times) -> dict:
    """Times are medians over rounds. Rates are work done per second over
    the whole run: the work of every round over the command's total wall
    time. One command's wall time falls into two modes, a third apart,
    from one process to the next, and the median of a few such samples
    jumps between the modes; the total over the run does not."""
    train_emotion = len(inputs.train) * spec.emotion_epochs
    train_cause = sum(len(r.clauses) for r in inputs.train) * spec.cause_epochs
    n_infer = len(inputs.infer)

    def med(fn):
        return statistics.median(fn(r) for r in rounds)

    def rate(work, name):
        return work * len(rounds) / sum(r[name].wall_s for r in rounds)

    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "chain_s": (med(lambda r: sum(c.wall_s for c in r.values())), "s"),
        "build_embeddings_words_per_s": (rate(len(inputs.words), "build-embeddings"), "words/s"),
        "train_emotion_steps_per_s": (rate(train_emotion, "train-emotion"), "steps/s"),
        "train_cause_steps_per_s": (rate(train_cause, "train-cause"), "steps/s"),
        "summarize_reviews_per_s": (rate(n_infer, "summarize"), "reviews/s"),
        "score_clauses_reviews_per_s": (rate(n_infer, "score-clauses"), "reviews/s"),
        "peak_rss_mb": (med(lambda r: max(c.peak_rss_mb for c in r.values())), "MB"),
    }


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    probe = subprocess.run([sys.executable, "-c",
                            "from emocause.nn import kernels; print(kernels.JIT_ENABLED)"],
                           env=child_env(), capture_output=True, text=True)
    return {"cores": os.cpu_count(), "blas": blas, "blas_threads": int(BLAS_THREADS),
            "numpy": np.__version__, "python": platform.python_version(),
            "jit_enabled": probe.stdout.strip() or "unknown", "commit": commit}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def set_up(spec, seed, workdir, times) -> workloads.Inputs:
    """Generate the inputs at least once and for SETUP_MIN_SECONDS, adding
    each time taken to `times`. The same seed rewrites the same bytes."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        inputs = workloads.generate(spec, seed, workdir)
        times.append(time.perf_counter() - began)
        if time.perf_counter() - start >= SETUP_MIN_SECONDS:
            return inputs


def measure(inputs, steps, seconds, env, setup_times, cpus) -> tuple[list, list, dict]:
    """Untimed checks interleave with the timed rounds: the first round is
    checked in full, every later one must reproduce its output files. The
    set-up runs again before every round after the first.

    Each round, with its set-up, runs pinned to one CPU, taking the CPUs in
    turn. Pinned, a command does not migrate while it starts up (unpinned,
    start-up varied by a third in wall time). On a shared host each CPU
    slows by up to a fifth for tens of seconds, independently of the other,
    so taking them in turn samples both slowdowns instead of one.
    Returns (rounds, problems, facts from the checks)."""
    rounds, problems, facts = [], [], {}
    start = time.perf_counter()
    while True:
        os.sched_setaffinity(0, {cpus[len(rounds) % len(cpus)]})
        if rounds:
            set_up(inputs.spec, inputs.seed, inputs.workdir, setup_times)
        done = run_round(steps, inputs.workdir, env)
        rounds.append(done)
        failed = [c for c in done.values() if c.returncode != 0]
        if failed:
            return rounds, [f"{failed[0].name} exited {failed[0].returncode}: "
                            f"{failed[0].log()[-500:]}"], facts
        digest = {name: file_digest(inputs.paths[name]) for name in OUTPUTS}
        if len(rounds) == 1:
            first = digest
            problems, facts = check_outputs(inputs, done)
            if problems:
                return rounds, problems, facts
        elif digest != first:
            changed = [n for n in OUTPUTS if digest[n] != first[n]]
            return rounds, [f"round {len(rounds)} changed {changed} for the same seed"], facts
        # another round starts only if it should end within `seconds`,
        # judged by this one's set-up and commands (its checks do not repeat)
        if (time.perf_counter() - start + SETUP_MIN_SECONDS
                + sum(c.wall_s for c in done.values()) > seconds):
            break
    facts["report_digest"] = first["report.json"]
    return rounds, problems, facts


def replay_summarize(inputs, steps, env, facts) -> tuple[dict, list]:
    """The report must not change when summarize runs again on the same
    inputs; a run of one round checks that here."""
    done = run_round([s for s in steps if s[0] == "summarize"], inputs.workdir, env)
    if done["summarize"].returncode != 0:
        return done, ["summarize replay failed"]
    if file_digest(inputs.paths["report.json"]) != facts["report_digest"]:
        return done, ["summarize report differs between two runs with the same seed"]
    return done, []


def traced_round(inputs, steps, env, facts, rounds) -> tuple[dict, list, dict]:
    spans_dir = os.path.join(HERE, "results", f"{inputs.spec.name}-{inputs.seed}-spans")
    os.makedirs(spans_dir, exist_ok=True)
    done = run_round(steps, inputs.workdir, env, spans_dir)
    bad = [c for c in done.values() if c.returncode != 0]
    if bad:
        return done, [f"traced {bad[0].name} exited {bad[0].returncode}"], {}
    if file_digest(inputs.paths["report.json"]) != facts["report_digest"]:
        return done, ["traced summarize report differs from the untraced one"], {}
    spans = {name: layers.CommandSpans(os.path.join(spans_dir, f"{name}.npz"), cmd.wall_s)
             for name, cmd in done.items()}
    metrics = layers.layer_metrics(spans, facts)
    plain = statistics.median(sum(c.wall_s for c in r.values()) for r in rounds)
    traced_s = sum(c.wall_s for c in done.values())
    metrics["trace.chain_s"] = (traced_s, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - plain) / plain, "%")
    return done, [], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "emocause", "cli.py")):
        print(f"error: no emocause sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    spec = workloads.SPECS[args.workload]
    workdir = os.path.join(HERE, "work", f"{spec.name}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    setup_times = []
    inputs = set_up(spec, args.seed, workdir, setup_times)
    steps = chain(spec, inputs.paths, args.seed)
    env = child_env()

    rounds, problems, facts = measure(inputs, steps, args.seconds, env, setup_times, cpus)
    extra = []
    if not problems and len(rounds) == 1:
        replay, problems = replay_summarize(inputs, steps, env, facts)
        extra.append(replay)
    metrics = {}
    if not problems:
        if args.trace:
            traced, problems, metrics = traced_round(inputs, steps, env, facts, rounds)
            extra.append(traced)
        else:
            metrics = end_to_end(spec, inputs, rounds, setup_times)

    # operations: every command started, and every review handed to
    # summarize or score-clauses
    def ops(cmd):
        return 1 + (len(inputs.infer) if cmd.name in ("summarize", "score-clauses") else 0)

    ran = [c for done in rounds + extra for c in done.values()]
    attempted = sum(ops(c) for c in ran)
    failed = sum(ops(c) for c in ran if c.returncode != 0)

    env_info = environment()
    record = {"workload": spec.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": len(rounds), "problems": problems,
              "environment": env_info, "setup_s": setup_times,
              "gold_match": facts.get("gold_match"),
              "emotion_match": facts.get("emotion_match"),
              "group_sizes": facts.get("group_sizes"),
              "per_command_s": {n: [r[n].wall_s for r in rounds if n in r] for n in COMMANDS},
              "per_command_rss_mb": {n: [r[n].peak_rss_mb for r in rounds if n in r]
                                     for n in COMMANDS},
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", f"{spec.name}-{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"problem: {problem}")
    print("environment: " + json.dumps(env_info, sort_keys=True))
    print(f"rounds: {len(rounds)}")
    for key, (value, unit) in metrics.items():
        print(f"{key}: {value:.6g} {unit}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": float(v), "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
