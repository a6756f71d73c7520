import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocause import bilstm_mlp, cause_model, cli, embeddings, emotion_model, pipeline
from emocause.cli import main
from emocause.corpus import load_corpus, save_corpus
from emocause.embeddings import load_word_embeddings
from emocause.errors import DataError
from emocause.nn import kernels

from helpers import (HUGE_NUMBERS, ODD_CHARACTERS, mutated_lines, run_cli_chain,
                     with_parses)

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("cli_chain")
    cfg = run_cli_chain(workdir, seed=1, products=2, reviews=16,
                        emotion_epochs=25, cause_epochs=10)
    return workdir, cfg


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["extract-clauses"]) == 1
        assert "--parses" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["summarize", "--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_top_level_help_lists_subcommands(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in ("build-embeddings", "extract-clauses", "train-emotion",
                     "train-cause", "score-clauses", "summarize",
                     "gen-synthetic", "gradient-check"):
            assert name in out

    @pytest.mark.parametrize("argv", [
        ["build-embeddings", "--embeddings", "e", "--lexicon", "l", "--output", "o",
         "--top-k", "0"],
        ["train-cause", "--corpus", "c", "--parses", "p", "--embeddings", "e",
         "--output", "o", "--epochs", "-3"],
        ["train-emotion", "--corpus", "c", "--parses", "p", "--embeddings", "e",
         "--output", "o", "--hidden", "0"],
        ["gen-synthetic", "--output-dir", "d", "--products", "0"],
        ["gen-synthetic", "--output-dir", "d", "--reviews", "0"],
    ], ids=["top-k", "epochs", "hidden", "products", "reviews"])
    def test_non_positive_int_flag_is_usage_error(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "usage:" in err and f"{argv[-2]}: must be a positive integer" in err

    TRAIN = ["train-cause", "--corpus", "c", "--parses", "p", "--embeddings", "e",
             "--output", "o"]
    SUMMARIZE = ["summarize", "--corpus", "c", "--parses", "p", "--embeddings", "e",
                 "--aware", "a", "--emotion-model", "m", "--cause-model", "m"]

    @pytest.mark.parametrize("argv", [
        ["gen-synthetic", "--output-dir", "d", "--dim", "2"],
        ["gen-synthetic", "--output-dir", "d", "--dim", "7"],
        TRAIN + ["--lr", "nan"],
        TRAIN + ["--lr", "inf"],
        TRAIN + ["--lr", "-1"],
        TRAIN + ["--lr", "0"],
        TRAIN + ["--momentum", "1.5"],
        TRAIN + ["--momentum", "1"],
        TRAIN + ["--momentum", "-0.1"],
        TRAIN + ["--momentum", "nan"],
        SUMMARIZE + ["--threshold", "-5"],
        SUMMARIZE + ["--threshold", "0"],
        SUMMARIZE + ["--threshold", "nan"],
        SUMMARIZE + ["--threshold", "inf"],
    ], ids=lambda argv: f"{argv[-2].lstrip('-')}={argv[-1]}")
    def test_out_of_range_flag_is_usage_error(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "usage:" in err and f"{argv[-2]}: must be" in err

    @pytest.mark.parametrize("hidden", ["1000000000", str(cli.MAX_HIDDEN + 1)])
    def test_hidden_numpy_cannot_index_is_usage_error(self, hidden, capsys):
        # rejected while parsing, so no parameter vector is ever allocated
        assert main(["train-emotion", "--corpus", "c", "--parses", "p", "--embeddings", "e",
                     "--output", "o", "--hidden", hidden]) == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "--hidden: must be a positive integer at most" in err

    @pytest.mark.parametrize("argv", [
        TRAIN,
        ["train-emotion", "--corpus", "c", "--parses", "p", "--embeddings", "e",
         "--output", "o"],
        ["gen-synthetic", "--output-dir", "d"],
        ["gradient-check"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_is_usage_error(self, argv, capsys):
        assert main(argv + ["--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "--seed: must be a non-negative integer, got -1" in err

    @pytest.mark.parametrize("value", ["-5", "x"])
    def test_bad_env_seed_is_data_error(self, value, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ECPE_SEED", value)
        assert main(["gen-synthetic", "--output-dir", str(tmp_path), "--products", "1",
                     "--reviews", "2"]) == 2
        assert "error: ECPE_SEED must be a" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_largest_hidden_parses(self):
        args = cli.build_parser().parse_args(self.TRAIN + ["--hidden", str(cli.MAX_HIDDEN)])
        assert args.hidden == cli.MAX_HIDDEN

    def test_data_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n", encoding="utf-8")
        code = main(["train-emotion", "--corpus", str(bad),
                     "--parses", str(bad), "--embeddings", str(bad),
                     "--output", str(tmp_path / "m.bin")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_embedding_dim_past_the_address_space_exits_two(self, tmp_path, capsys):
        table, lexicon = tmp_path / "v.txt", tmp_path / "lex.tsv"
        table.write_text(f"0 {2 ** 63}\n", encoding="utf-8")
        lexicon.write_text("glad\tjoy\t0.9\n", encoding="utf-8")
        code = main(["build-embeddings", "--embeddings", str(table), "--lexicon", str(lexicon),
                     "--output", str(tmp_path / "aware.txt")])
        assert code == 2
        assert f"{table}: bad header values" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["extract-clauses", "--parses",
                     str(tmp_path / "nope.conllu")]) == 2


class TestExtractClauses:
    def test_json_lines_shape(self, tmp_path, capsys):
        out = tmp_path / "clauses.jsonl"
        assert main(["extract-clauses", "--parses",
                     str(FIXTURES / "golden.conllu"), "--output", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 12
        first = json.loads(lines[0])
        assert set(first) == {"review_id", "sentence_index", "clauses"}
        assert set(first["clauses"][0]) == {"start", "end", "verb", "text"}

    def test_stdout_default(self, capsys):
        assert main(["extract-clauses", "--parses",
                     str(FIXTURES / "golden.conllu")]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 12


class TestGenSynthetic:
    def test_writes_four_files(self, tmp_path):
        assert main(["gen-synthetic", "--output-dir", str(tmp_path / "d"),
                     "--seed", "3", "--products", "2", "--reviews", "8"]) == 0
        for name in ("corpus.jsonl", "parses.conllu", "embeddings.txt",
                     "lexicon.tsv"):
            assert (tmp_path / "d" / name).exists()

    def test_byte_identical_per_seed(self, tmp_path):
        for d in ("a", "b"):
            assert main(["gen-synthetic", "--output-dir", str(tmp_path / d),
                         "--seed", "3", "--products", "2", "--reviews", "8"]) == 0
        for name in ("corpus.jsonl", "parses.conllu", "embeddings.txt",
                     "lexicon.tsv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_env_seed_and_flag_precedence(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ECPE_SEED", "5")
        assert main(["gen-synthetic", "--output-dir", str(tmp_path / "env"),
                     "--products", "2", "--reviews", "8"]) == 0
        monkeypatch.setenv("ECPE_SEED", "3")
        assert main(["gen-synthetic", "--output-dir", str(tmp_path / "flag"),
                     "--seed", "5", "--products", "2", "--reviews", "8"]) == 0
        monkeypatch.delenv("ECPE_SEED")
        assert main(["gen-synthetic", "--output-dir", str(tmp_path / "plain"),
                     "--seed", "5", "--products", "2", "--reviews", "8"]) == 0
        a = (tmp_path / "env" / "corpus.jsonl").read_bytes()
        b = (tmp_path / "flag" / "corpus.jsonl").read_bytes()
        c = (tmp_path / "plain" / "corpus.jsonl").read_bytes()
        assert a == b == c


class TestBuildEmbeddings:
    def test_output_loadable_same_vocab(self, chain):
        workdir, _cfg = chain
        aware = load_word_embeddings(workdir / "aware.txt")
        raw = load_word_embeddings(workdir / "embeddings.txt")
        assert set(aware.words) == set(raw.words)
        assert aware.dim == raw.dim


class TestTrainingCli:
    def test_epoch_loss_lines(self, tmp_path, capsys):
        assert main(["gen-synthetic", "--output-dir", str(tmp_path),
                     "--seed", "2", "--products", "2", "--reviews", "8"]) == 0
        assert main(["build-embeddings",
                     "--embeddings", str(tmp_path / "embeddings.txt"),
                     "--lexicon", str(tmp_path / "lexicon.tsv"),
                     "--output", str(tmp_path / "aware.txt")]) == 0
        capsys.readouterr()
        assert main(["train-emotion", "--corpus", str(tmp_path / "corpus.jsonl"),
                     "--parses", str(tmp_path / "parses.conllu"),
                     "--embeddings", str(tmp_path / "aware.txt"),
                     "--output", str(tmp_path / "m.bin"),
                     "--epochs", "3", "--hidden", "4", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        for n in (1, 2, 3):
            assert f"epoch {n} loss " in out

    def test_non_finite_loss_exits_two(self, chain, tmp_path, monkeypatch, capsys):
        _workdir, cfg = chain
        real = bilstm_mlp.loss_and_grads

        def nan_loss(*args, **kwargs):
            real(*args, **kwargs)
            return float("nan")

        monkeypatch.setattr(bilstm_mlp, "loss_and_grads", nan_loss)
        code = main(["train-emotion", "--corpus", cfg.corpus_path,
                     "--parses", cfg.parses_path, "--embeddings", cfg.aware_path,
                     "--output", str(tmp_path / "m.bin"),
                     "--epochs", "2", "--hidden", "4", "--seed", "0"])
        assert code == 2
        assert "epoch 1" in capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists()

    def test_malformed_corpus_field_exits_two(self, chain, tmp_path, capsys):
        _workdir, cfg = chain
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"review_id": "r0", "product_id": "p0", "stars": 3,
                                      "text": "ok", "parse_ids": 5}) + "\n", encoding="utf-8")
        code = main(["train-emotion", "--corpus", str(corpus), "--parses", cfg.parses_path,
                     "--embeddings", cfg.aware_path, "--output", str(tmp_path / "m.bin")])
        assert code == 2
        assert f"{corpus}:1: parse_ids must be a list of strings" in capsys.readouterr().err

    @pytest.mark.parametrize("command,module,train", [
        ("train-emotion", emotion_model, "train_emotion"),
        ("train-cause", cause_model, "train_cause"),
    ])
    def test_default_epochs_and_hidden_come_from_the_model(self, chain, tmp_path, monkeypatch,
                                                            command, module, train):
        _workdir, cfg = chain
        seen = {}

        def stop(*args, epochs, hidden, **kwargs):
            seen.update(epochs=epochs, hidden=hidden)
            raise DataError("stopped before training")

        monkeypatch.setattr(module, train, stop)
        assert main([command, "--corpus", cfg.corpus_path, "--parses", cfg.parses_path,
                     "--embeddings", cfg.aware_path, "--output", str(tmp_path / "m.bin")]) == 2
        assert seen == {"epochs": module.DEFAULT_EPOCHS, "hidden": module.DEFAULT_HIDDEN}

    def test_program_fault_propagates(self, chain, tmp_path, monkeypatch):
        # a ValueError from the code, not the input, is not a data error
        _workdir, cfg = chain

        def broken(*args):
            raise ValueError("kernel shape bug")

        monkeypatch.setattr(kernels, "lstm_forward_seq", broken)
        with pytest.raises(ValueError, match="kernel shape bug"):
            main(["train-emotion", "--corpus", cfg.corpus_path,
                  "--parses", cfg.parses_path, "--embeddings", cfg.aware_path,
                  "--output", str(tmp_path / "m.bin"), "--epochs", "1", "--hidden", "4"])

    def test_gold_review_without_parses_exits_two(self, chain, tmp_path, capsys):
        _workdir, cfg = chain
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({
            "review_id": "r0", "product_id": "p0", "stars": 3, "text": "ok", "parse_ids": [],
            "gold_emotion": "joy", "gold_cause": {"sentence_index": 0, "start": 1, "end": 1},
        }) + "\n", encoding="utf-8")
        code = main(["train-emotion", "--corpus", str(corpus), "--parses", cfg.parses_path,
                     "--embeddings", cfg.aware_path, "--output", str(tmp_path / "m.bin")])
        assert code == 2  # its gold_cause indexes a sentence it does not have
        assert (f"{corpus}:1: gold_cause sentence_index 0 is not an index into the 0 parse_ids"
                in capsys.readouterr().err)

    def test_deeply_nested_corpus_line_exits_two(self, chain, tmp_path, capsys):
        _workdir, cfg = chain
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("[" * 100_000 + "\n", encoding="utf-8")
        code = main(["train-emotion", "--corpus", str(corpus), "--parses", cfg.parses_path,
                     "--embeddings", cfg.aware_path, "--output", str(tmp_path / "m.bin")])
        assert code == 2
        assert f"{corpus}:1: invalid JSON" in capsys.readouterr().err

    def test_input_not_utf8_exits_two(self, chain, tmp_path, capsys):
        _workdir, cfg = chain
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(b'{"review_id": "r\xff"}\n')
        code = main(["train-emotion", "--corpus", str(corpus), "--parses", cfg.parses_path,
                     "--embeddings", cfg.aware_path, "--output", str(tmp_path / "m.bin")])
        assert code == 2
        assert "utf-8" in capsys.readouterr().err


class TestScoreClauses:
    def test_one_line_per_clause_with_selection(self, chain, tmp_path):
        workdir, cfg = chain
        out = tmp_path / "scores.jsonl"
        assert main(["score-clauses", "--corpus", cfg.corpus_path,
                     "--parses", cfg.parses_path,
                     "--embeddings", cfg.aware_path,
                     "--emotion-model", cfg.emotion_model_path,
                     "--cause-model", cfg.cause_model_path,
                     "--output", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows
        by_review = {}
        for row in rows:
            assert set(row) == {"review_id", "clause_index", "score", "selected"}
            assert 0.0 < row["score"] < 1.0
            by_review.setdefault(row["review_id"], []).append(row)
        for review_rows in by_review.values():
            assert sum(r["selected"] for r in review_rows) == 1
            best = max(review_rows, key=lambda r: r["score"])
            assert best["selected"]

    def test_reports_missing_parse_reviews(self, chain, tmp_path, capsys):
        _workdir, cfg = chain
        records = load_corpus(cfg.corpus_path)
        ghosts = [with_parses(r, ("ghost.0",)) for r in records[:3]]
        corpus = tmp_path / "partial.jsonl"
        save_corpus(ghosts + records[3:], corpus)
        out = tmp_path / "scores.jsonl"
        capsys.readouterr()
        assert main(["score-clauses", "--corpus", str(corpus),
                     "--parses", cfg.parses_path,
                     "--embeddings", cfg.aware_path,
                     "--emotion-model", cfg.emotion_model_path,
                     "--cause-model", cfg.cause_model_path,
                     "--output", str(out)]) == 0
        err = capsys.readouterr().err
        assert "skipped 3 review(s): missing_parse 3, all_oov 0, no_clause 0" in err
        scored = {json.loads(line)["review_id"] for line in out.read_text().splitlines()}
        assert scored == {r.review_id for r in records[3:]}


class TestSummarize:
    def test_writes_all_outputs(self, chain, tmp_path):
        _workdir, cfg = chain
        report = tmp_path / "report.json"
        text = tmp_path / "report.txt"
        points = tmp_path / "points.json"
        assert main(["summarize", "--corpus", cfg.corpus_path,
                     "--parses", cfg.parses_path,
                     "--embeddings", cfg.embeddings_path,
                     "--aware", cfg.aware_path,
                     "--emotion-model", cfg.emotion_model_path,
                     "--cause-model", cfg.cause_model_path,
                     "--output", str(report), "--text-output", str(text),
                     "--dump-2d", str(points)]) == 0
        obj = json.loads(report.read_text())
        assert obj["processed"] + obj["skipped"] == 16
        assert "reviews processed" in text.read_text()
        proj = json.loads(points.read_text())
        for group in proj:
            for point in group["points"]:
                assert set(point) == {"review_id", "clause_text", "x", "y"}

    def test_report_is_the_same_through_the_input_copy_and_follows_an_edit(
            self, chain, tmp_path, monkeypatch):
        # build-embeddings left a copy of the raw table next to aware.txt;
        # the raw text is read as text only when that copy is missing or
        # stale, and the report never depends on which
        workdir, _cfg = chain
        shutil.copytree(workdir, tmp_path, dirs_exist_ok=True)
        raw, copy = tmp_path / "embeddings.txt", tmp_path / "aware.txt.raw.ecpe"
        argv = ["summarize", "--corpus", str(tmp_path / "corpus.jsonl"),
                "--parses", str(tmp_path / "parses.conllu"), "--embeddings", str(raw),
                "--aware", str(tmp_path / "aware.txt"),
                "--emotion-model", str(tmp_path / "emotion.bin"),
                "--cause-model", str(tmp_path / "cause.bin")]
        text_reads = []

        def counted(*args, **kwargs):
            text_reads.append(args[0].name)
            return io.TextIOWrapper(*args, **kwargs)

        monkeypatch.setattr(embeddings, "TextIOWrapper", counted)

        def report(name):
            text_reads.clear()
            assert main(argv + ["--output", str(tmp_path / name)]) == 0
            return (tmp_path / name).read_bytes(), text_reads[:]

        copied = copy.read_bytes()
        present, reads = report("present.json")
        assert reads == []
        copy.unlink()
        assert report("deleted.json") == (present, [str(raw)])
        # a raw vector edited after the build: the copy is stale
        copy.write_bytes(copied)
        lines = raw.read_text(encoding="utf-8").splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.startswith("cracked "))
        lines[row] = "cracked " + " ".join(["1000", "-1000"] * 6) + "\n"
        raw.write_text("".join(lines), encoding="utf-8")
        stale = report("stale.json")
        assert stale[1] == [str(raw)]
        copy.unlink()
        assert report("edited.json") == stale
        assert stale[0] != present

    def test_lone_surrogate_in_corpus_exits_two(self, chain, tmp_path, capsys):
        # the escape decodes to a lone surrogate, which the UTF-8 text
        # report could not encode
        _workdir, cfg = chain
        lines = Path(cfg.corpus_path).read_text(encoding="utf-8").splitlines()
        obj = json.loads(lines[1])
        obj["product_id"] = "p00\udc80"
        lines[1] = json.dumps(obj)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["summarize", "--corpus", str(corpus), "--parses", cfg.parses_path,
                     "--embeddings", cfg.embeddings_path, "--aware", cfg.aware_path,
                     "--emotion-model", cfg.emotion_model_path,
                     "--cause-model", cfg.cause_model_path,
                     "--output", str(tmp_path / "report.json"),
                     "--text-output", str(tmp_path / "report.txt")])
        assert code == 2
        assert f"{corpus}:2: product_id is not valid UTF-8" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]

    def test_default_threshold_comes_from_the_pipeline(self, chain, monkeypatch):
        _workdir, cfg = chain
        seen = []

        def stop(config):
            seen.append(config.threshold)
            raise DataError("stopped before inference")

        monkeypatch.setattr(pipeline, "run_pipeline", stop)
        assert main(["summarize", "--corpus", cfg.corpus_path, "--parses", cfg.parses_path,
                     "--embeddings", cfg.embeddings_path, "--aware", cfg.aware_path,
                     "--emotion-model", cfg.emotion_model_path,
                     "--cause-model", cfg.cause_model_path]) == 2
        assert seen == [pipeline.DEFAULT_THRESHOLD]


class TestReportWrites:
    def test_failed_write_leaves_the_earlier_report(self, tmp_path):
        out = tmp_path / "report.json"
        out.write_text("earlier report\n", encoding="utf-8")
        # a lone surrogate cannot be encoded, so the write fails past its
        # first buffer
        with pytest.raises(UnicodeEncodeError):
            cli._write_or_print("x" * 100_000 + "\udc80", str(out))
        assert out.read_text(encoding="utf-8") == "earlier report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


class TestGradientCheckCommand:
    def test_prints_error_and_exits_zero(self, capsys):
        assert main(["gradient-check", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out


# Runs one command in a fresh interpreter, then prints its exit code and
# the emocause modules it imported.
MODULES_SCRIPT = """
import json, sys
from emocause.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("emocause."))]))
"""


def modules_of(argv) -> set:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", MODULES_SCRIPT, *argv], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return {m.removeprefix("emocause.") for m in modules}


@pytest.fixture(scope="module")
def command_modules(chain, tmp_path_factory):
    """Subcommand -> the emocause modules one run of it imports."""
    workdir, cfg = chain
    out = tmp_path_factory.mktemp("imports")
    reviews = ["--corpus", cfg.corpus_path, "--parses", cfg.parses_path]
    models = ["--emotion-model", cfg.emotion_model_path, "--cause-model", cfg.cause_model_path]
    train = reviews + ["--embeddings", cfg.aware_path, "--epochs", "1", "--hidden", "2",
                       "--seed", "0"]
    commands = {
        "build-embeddings": ["--embeddings", cfg.embeddings_path,
                             "--lexicon", str(workdir / "lexicon.tsv"),
                             "--output", str(out / "aware.txt")],
        "extract-clauses": ["--parses", cfg.parses_path, "--output", str(out / "clauses.jsonl")],
        "train-emotion": train + ["--output", str(out / "emotion.bin")],
        "train-cause": train + ["--output", str(out / "cause.bin")],
        "score-clauses": reviews + models + ["--embeddings", cfg.aware_path,
                                             "--output", str(out / "scores.jsonl")],
        "summarize": reviews + models + ["--embeddings", cfg.embeddings_path,
                                         "--aware", cfg.aware_path,
                                         "--output", str(out / "report.json")],
        "gen-synthetic": ["--output-dir", str(out / "synthetic"), "--products", "1",
                          "--reviews", "2", "--seed", "0"],
        "gradient-check": ["--seed", "0"],
    }
    return {name: modules_of([name] + argv) for name, argv in commands.items()}


class TestCommandImports:
    """Each command imports only the modules it runs, so a stage's process
    does not pay for the others' imports."""

    BASE = {"cli", "errors", "nn", "nn.serialize"}

    def test_every_subcommand_is_run(self, command_modules):
        parser = cli.build_parser()
        subcommands = next(a for a in parser._actions if a.dest == "command").choices
        assert set(command_modules) == set(subcommands)

    def test_build_embeddings_loads_the_table_modules_only(self, command_modules):
        assert command_modules["build-embeddings"] == self.BASE | {"embeddings"}

    def test_extract_clauses_loads_no_model_module(self, command_modules):
        assert command_modules["extract-clauses"] == self.BASE | {"clauses"}

    TRAINING = BASE | {"bilstm_mlp", "clauses", "corpus", "embeddings", "nn.core", "nn.kernels",
                       "pipeline"}

    @pytest.mark.parametrize("command,model", [("train-emotion", "emotion_model"),
                                               ("train-cause", "cause_model")])
    def test_training_loads_its_own_model_only(self, command_modules, command, model):
        assert command_modules[command] == self.TRAINING | {model}

    @pytest.mark.parametrize("module,command", [("checks", "gradient-check"),
                                                ("synthetic", "gen-synthetic")])
    def test_one_command_loads(self, command_modules, module, command):
        assert {c for c, modules in command_modules.items() if module in modules} == {command}


# any text an environment variable can hold: no NUL, no lone surrogate
ENV_TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                          blacklist_characters="\x00"))


@settings(max_examples=200, deadline=1000)
@given(st.one_of(ENV_TEXT, st.integers().map(str),
                 st.sampled_from(HUGE_NUMBERS + ODD_CHARACTERS)))
def test_any_env_seed_resolves_or_raises_data_error(value):
    with mock.patch.dict(os.environ, {"ECPE_SEED": value}):
        try:
            seed = cli._resolve_seed(None)
        except DataError:
            return
    assert isinstance(seed, int) and seed >= 0


PARSES = (FIXTURES / "golden.conllu").read_bytes()
TABLE = ("4 3\nfurious 0.9 0.1 0\nglad 0 1 0.2\nbattery 0.3 0.3 0.3\n"
         "zipper -1 0.5 2\n").encode("utf-8")


@pytest.fixture(scope="module")
def mutated_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("mutated")
    (d / "lexicon.tsv").write_text("furious\tanger\t0.9\nglad\tjoy\t0.7\n", encoding="utf-8")
    return d


# in process: any exception but the CLI's input errors propagates and fails
# the test
@settings(max_examples=60, deadline=1000)
@given(data=st.data())
def test_extract_clauses_exits_zero_or_two_on_any_parse_bytes(mutated_dir, data):
    parses = mutated_dir / "parses.conllu"
    parses.write_bytes(data.draw(mutated_lines(PARSES)))
    assert main(["extract-clauses", "--parses", str(parses),
                 "--output", str(mutated_dir / "clauses.jsonl")]) in (0, 2)


def test_the_unmutated_table_builds(mutated_dir):
    (mutated_dir / "good.txt").write_bytes(TABLE)
    assert main(["build-embeddings", "--embeddings", str(mutated_dir / "good.txt"),
                 "--lexicon", str(mutated_dir / "lexicon.tsv"),
                 "--output", str(mutated_dir / "good-aware.txt")]) == 0


@settings(max_examples=60, deadline=1000)
@given(data=st.data())
def test_build_embeddings_exits_zero_or_two_on_any_table_bytes(mutated_dir, data):
    table = mutated_dir / "table.txt"
    table.write_bytes(data.draw(mutated_lines(TABLE)))
    assert main(["build-embeddings", "--embeddings", str(table),
                 "--lexicon", str(mutated_dir / "lexicon.tsv"),
                 "--output", str(mutated_dir / "aware.txt")]) in (0, 2)


@settings(max_examples=100, deadline=1000)
@given(data=st.data())
def test_train_emotion_exits_zero_or_two_on_any_corpus_bytes(chain, mutated_dir, data):
    _, cfg = chain
    corpus = mutated_dir / "corpus.jsonl"
    corpus.write_bytes(data.draw(mutated_lines(Path(cfg.corpus_path).read_bytes())))
    assert main(["train-emotion", "--corpus", str(corpus), "--parses", cfg.parses_path,
                 "--embeddings", cfg.aware_path, "--output", str(mutated_dir / "emotion.bin"),
                 "--epochs", "1", "--hidden", "4"]) in (0, 2)


@settings(max_examples=100, deadline=1000)
@given(data=st.data(), which=st.sampled_from(["emotion", "cause"]))
def test_score_clauses_exits_zero_or_two_on_any_model_bytes(chain, mutated_dir, data, which):
    _, cfg = chain
    models = {"emotion": cfg.emotion_model_path, "cause": cfg.cause_model_path}
    mutated = mutated_dir / f"{which}.bin"
    mutated.write_bytes(data.draw(mutated_lines(Path(models[which]).read_bytes())))
    models[which] = str(mutated)
    assert main(["score-clauses", "--corpus", cfg.corpus_path, "--parses", cfg.parses_path,
                 "--embeddings", cfg.aware_path, "--emotion-model", models["emotion"],
                 "--cause-model", models["cause"],
                 "--output", str(mutated_dir / "scores.jsonl")]) in (0, 2)
