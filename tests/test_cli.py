import argparse
import contextlib
import errno
import hashlib
import json
import os
import re
import sys
import threading
import warnings
import zlib
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from xlingmap.cli import main
from xlingmap.embed_io import (
    EmbeddingTable,
    load_embeddings,
    load_matrix,
    save_embeddings,
    save_frequencies,
    save_matrix,
)
from xlingmap.evaluation import SyntheticSpec, synth_generate
from xlingmap.models import ModelConfig
from xlingmap.sampling import SamplerConfig
from xlingmap.training import (
    CHECKPOINT_MAGIC,
    TrainConfig,
    encoder_from_checkpoint,
    read_checkpoint,
    write_checkpoint,
)

from conftest import as_table, random_table


def write_tables(tmp_path, n=30, d=6):
    src = random_table(n, d, seed=1, prefix="s")
    tgt = random_table(n, d, seed=2, prefix="t")
    sp = tmp_path / "src.vec"
    tp = tmp_path / "tgt.vec"
    save_embeddings(src, sp)
    save_embeddings(tgt, tp)
    return sp, tp, src, tgt


def train_args(sp, tp, out, **extra):
    args = [
        "train", "--src", str(sp), "--tgt", str(tp), "--out", str(out),
        "--mode", "aae", "--k", "4", "--T", "2", "--n", "8",
        "--max-steps", "5", "--eval-every", "5", "--checkpoint-every", "5",
        "--seed", "7",
    ]
    for k, v in extra.items():
        args += [f"--{k.replace('_', '-')}", str(v)]
    return args


# Every flag each command accepts, and the top level's.
FLAGS = {
    None: ["--help", "--version"],
    "train": ["--src", "--tgt", "--src-freq", "--tgt-freq", "--out", "--mode",
              "--preset", "--k", "--T", "--n", "--lr-gen", "--lr-disc",
              "--lambda-r", "--lambda-a", "--lambda-c", "--max-steps",
              "--eval-every", "--checkpoint-every", "--seed",
              "--subsample-threshold", "--subsample-formula", "--dropout",
              "--leaky-slope", "--normalize"],
    "resume": ["--src", "--tgt", "--src-freq", "--tgt-freq", "--out",
               "--checkpoint", "--max-steps"],
    "map": ["--checkpoint", "--src", "--out"],
    "nn": ["--checkpoint", "--src", "--tgt", "--words", "--k"],
    "eval": ["--checkpoint", "--src", "--tgt", "--dict", "--k", "--out"],
    "synth": ["--out", "--dim", "--source-size", "--target-size", "--components",
              "--means-scale", "--cov-scale", "--noise", "--zipf", "--seed"],
}


@pytest.mark.parametrize("command", FLAGS, ids=lambda c: c or "top")
def test_help_exits_0_and_lists_every_flag(capsys, monkeypatch, command):
    # a command given first builds its subparser alone; top-level help, and
    # so an option ahead of the command, builds every command's
    built, add_parser = [], argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    argv = [command, "--help"] if command else ["--help"]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert built == ([command] if command else list(FLAGS)[1:])
    if command:
        built.clear()
        with pytest.raises(SystemExit):
            main(["--help", command])
        assert built == list(FLAGS)[1:]
        capsys.readouterr()
    want = set(FLAGS[command]) | ({"--help"} if command else set())
    assert set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", out)) == want
    if command is None:  # every command, with its help line
        for name, line in [("train", "train a mapping"),
                           ("resume", "resume from a checkpoint"),
                           ("map", "map a source table through a checkpoint"),
                           ("nn", "k-best target neighbors for query words"),
                           ("eval", "dictionary precision@k"),
                           ("synth", "generate a synthetic benchmark")]:
            assert re.search(rf"^    {name} +{re.escape(line)}$", out, re.M), name


def test_missing_required_flag_exits_1(capsys):
    assert main(["train", "--tgt", "x.vec", "--out", "o"]) == 1
    assert capsys.readouterr().err == (
        "error: the following arguments are required: --src\n")
    required = {
        "train": "--src, --tgt, --out",
        "resume": "--src, --tgt, --out, --checkpoint",
        "map": "--checkpoint, --src, --out",
        "nn": "--checkpoint, --src, --tgt, --words",
        "eval": "--checkpoint, --src, --tgt, --dict",
        "synth": "--out",
    }
    for command, flags in required.items():
        # an unknown option ahead of the command is reported after these
        for argv in ([command], ["-x", command]):
            assert main(argv) == 1
            assert capsys.readouterr().err == (
                f"error: the following arguments are required: {flags}\n")
    # --checkpoint takes a text matrix too: there is no second mapping flag
    given = ["--checkpoint", "c", "--src", "s", "--tgt", "t", "--dict", "d"]
    assert main(["eval", "--encoder-matrix", "m.txt", *given]) == 1
    assert capsys.readouterr().err == (
        "error: unrecognized arguments: --encoder-matrix m.txt\n")


def test_unknown_command_exits_1(capsys):
    # how argparse quotes the choices differs between Python versions
    names = r"\W+".join(["train", "resume", "map", "nn", "eval", "synth"])
    for argv in (["frobnicate"], ["frobnicate", "--src", "x"], ["frobnicate", "nn"]):
        assert main(argv) == 1
        assert re.fullmatch(r"error: argument command: invalid choice: '?frobnicate'? "
                            rf"\(choose from \W*{names}\W*\)\n", capsys.readouterr().err)


def test_train_writes_artifacts(tmp_path, capsys):
    sp, tp, _, _ = write_tables(tmp_path)
    out = tmp_path / "run"
    assert main(train_args(sp, tp, out)) == 0
    assert (out / "manifest.json").exists()
    assert (out / "checkpoint_final.xlaae").exists()
    records = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
    assert len([r for r in records if r["type"] == "step"]) == 5
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert "sha256" in manifest["inputs"]["src"]


def diverged_train(tmp_path, capsys, *extra):
    """Train on small synth tables with ``--lr-gen 1e300``: exit code,
    stderr, the metrics records and the run directory. Asserts that numpy
    warned nothing."""
    synth = tmp_path / "synth"
    assert main(["synth", "--out", str(synth), "--dim", "6", "--source-size", "40",
                 "--target-size", "40", "--noise", "0", "--seed", "1"]) == 0
    out = tmp_path / "run"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["train", "--src", str(synth / "src.vec"), "--tgt",
                   str(synth / "tgt.vec"), "--out", str(out), "--k", "4", "--T", "2",
                   "--n", "8", "--lr-gen", "1e300", "--seed", "1", *extra])
    # the overflow warns nothing: the failure line is all that stderr holds
    assert [str(w.message) for w in caught] == []
    records = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
    return rc, capsys.readouterr().err, records, out


def test_numeric_failure_exits_2_with_error_record_and_diagnostic(tmp_path, capsys):
    rc, err, records, out = diverged_train(tmp_path, capsys)
    assert rc == 2
    message = "non-finite gradient in parameter 'encoder.weight'"
    assert err == f"numeric failure: {message}\n"
    assert records[-1] == {"type": "error", "step": 1, "message": message}
    assert (out / "checkpoint_diagnostic.xlaae").exists()
    assert not (out / "checkpoint_final.xlaae").exists()


def test_non_finite_eval_record_exits_2(tmp_path, capsys):
    # step 1's gradients are finite, but its weight maps the eval rows to
    # values whose spread overflows
    rc, err, records, out = diverged_train(tmp_path, capsys, "--max-steps", "1",
                                           "--eval-every", "1")
    assert rc == 2
    assert [r["type"] for r in records] == ["step", "error"]
    message = records[-1]["message"]
    assert records[-1] == {"type": "error", "step": 1, "message": message}
    assert re.fullmatch(re.escape("non-finite metric at step 1: {'type': 'eval', 'step': 1, ")
                        + ".*'collapse_std': inf.*", message)
    assert err == f"numeric failure: {message}\n"
    assert (out / "checkpoint_diagnostic.xlaae").exists()
    assert not (out / "checkpoint_final.xlaae").exists()


def readme_record_keys():
    """The keys of each record type of the metrics log, as the "Metrics
    log" bullets of README.md name them: ``type`` and ``step``, and the
    names that open each bullet under the record type's own."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("- **Metrics log**", 1)[1].split("\n- **", 1)[0]
    common = re.search(r"Every record has `(\w+)` and `(\w+)`", section).groups()
    keys = {}
    for kind, body in re.findall(r'^  - `"type": "(\w+)"`(.*?)(?=^  - |\Z)', section,
                                 re.M | re.S):
        opening = re.findall(r"^    - ((?:`\w+`, )*`\w+`):", body, re.M)
        keys[kind] = {*common, *re.findall(r"\w+", " ".join(opening))}
    return keys


def test_log_records_carry_exactly_the_readme_keys(tmp_path, capsys):
    keys = readme_record_keys()
    assert sorted(keys) == ["error", "eval", "step"]
    sp, tp, _, _ = write_tables(tmp_path)
    assert main(train_args(sp, tp, tmp_path / "logged", eval_every=2)) == 0
    records = [json.loads(line) for line in
               (tmp_path / "logged" / "metrics.jsonl").read_text().splitlines()]
    assert [r["type"] for r in records] == ["step", "step", "eval"] * 2 + ["step"]
    # an error record in place of a step record, and of an eval record
    for run, extra in (("gradient", []), ("eval", ["--max-steps", "1", "--eval-every", "1"])):
        rc, _, logged, _ = diverged_train(tmp_path / run, capsys, *extra)
        assert rc == 2 and logged[-1]["type"] == "error"
        records += logged
    for record in records:
        assert set(record) == keys[record["type"]], record["type"]


def test_train_rejects_model_settings_before_manifest(tmp_path, capsys):
    sp, tp, _, _ = write_tables(tmp_path)
    for flag, value, fragment in (("leaky_slope", 1.5, "leaky slope"),
                                  ("dropout", 1.0, "dropout rate")):
        out = tmp_path / f"run-{flag}"
        assert main(train_args(sp, tp, out, **{flag: value})) == 1
        assert fragment in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


def with_zero_row(table, row, path):
    """Save ``table`` to ``path`` with its row ``row`` set to zero."""
    matrix = table.matrix.copy()
    matrix[row] = 0.0
    save_embeddings(EmbeddingTable(table.vocab, matrix), path)
    return path


def test_aae_refuses_a_zero_row_before_step_1(tmp_path, capsys):
    # a cosine is undefined on a zero row: train and resume check the source
    # table when λr or λc is above 0 (a zero source row maps to a zero row of
    # e_hat) and the target table when λc is; gan, (0, 1, 0), takes either
    sp, tp, src, tgt = write_tables(tmp_path)
    zeroed = {"src": with_zero_row(src, 3, tmp_path / "zeroed-src.vec"),
              "tgt": with_zero_row(tgt, 3, tmp_path / "zeroed-tgt.vec")}
    messages = {flag: f"error: zero row {table.vocab.tokens[3]!r} in the {where} table\n"
                for flag, table, where in (("src", src, "source"), ("tgt", tgt, "target"))}
    for tag, weights, refused in (
            ("aae", {}, ("src", "tgt")),
            ("no-cos", {"lambda_c": 0.0}, ("src",)),
            ("no-recon-no-cos", {"lambda_r": 0.0, "lambda_c": 0.0}, ()),
            ("gan", {"mode": "gan"}, ())):
        assert main(train_args(sp, tp, tmp_path / tag, **weights)) == 0
        ckpt = tmp_path / tag / "checkpoint_final.xlaae"
        for flag in ("src", "tgt"):
            paths = {"src": sp, "tgt": tp, flag: zeroed[flag]}
            out = tmp_path / f"{tag}-{flag}"
            for command, argv in (
                    ("train", train_args(paths["src"], paths["tgt"], out / "train", **weights)),
                    ("resume", ["resume", "--checkpoint", str(ckpt), "--src", str(paths["src"]),
                                "--tgt", str(paths["tgt"]), "--out", str(out / "resume"),
                                "--max-steps", "10"])):
                capsys.readouterr()
                if flag in refused:
                    assert main(argv) == 1, (tag, flag, command)
                    assert capsys.readouterr() == ("", messages[flag])
                    assert not out.exists()
                else:
                    assert main(argv) == 0, (tag, flag, command)
                    assert (out / command / "checkpoint_final.xlaae").exists()


def test_train_twice_same_seed_identical_checkpoints(tmp_path, parses):
    sp, tp, _, _ = write_tables(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(train_args(sp, tp, out1)) == 0
    assert main(train_args(sp, tp, out2)) == 0
    # the second run reads both tables from their sidecars
    assert parses == ["src.vec", "tgt.vec"]
    a = (out1 / "checkpoint_final.xlaae").read_bytes()
    b = (out2 / "checkpoint_final.xlaae").read_bytes()
    assert a == b


def test_train_reads_one_count_per_table_row(tmp_path):
    # reversed frequency files with a line for a token not in the table give
    # the checkpoints of synth's own files: the counts follow the table rows
    synth = tmp_path / "synth"
    assert main(["synth", "--out", str(synth), "--dim", "6", "--source-size", "40",
                 "--target-size", "40", "--noise", "0", "--seed", "1"]) == 0
    for name in ("src", "tgt"):
        lines = (synth / f"{name}.freq").read_text(encoding="utf-8").splitlines()
        (tmp_path / f"{name}.freq").write_text(
            "\n".join(["zz\t123", *reversed(lines)]) + "\n", encoding="utf-8")
    runs = {"own": synth, "reversed": tmp_path, "none": None}
    for run, where in runs.items():
        freq = {} if where is None else {"src_freq": where / "src.freq",
                                         "tgt_freq": where / "tgt.freq"}
        assert main(train_args(synth / "src.vec", synth / "tgt.vec", tmp_path / run,
                               max_steps=4, checkpoint_every=2, **freq)) == 0
    for name in ("checkpoint_00000002.xlaae", "checkpoint_final.xlaae"):
        own, rev, none = ((tmp_path / run / name).read_bytes() for run in runs)
        assert own == rev
        assert own != none


def test_train_dim_mismatch_exits_1(tmp_path, capsys):
    sp, tp, _, _ = write_tables(tmp_path)
    other = random_table(10, 4, seed=3, prefix="t")
    bad = tmp_path / "bad.vec"
    save_embeddings(other, bad)
    assert main(train_args(sp, tp, tmp_path / "run", max_steps=1)) == 0
    ckpt = str(tmp_path / "run" / "checkpoint_final.xlaae")
    resume = ["resume", "--src", str(sp), "--tgt", str(bad), "--out",
              str(tmp_path / "resumed"), "--checkpoint", ckpt]
    for argv in (train_args(sp, bad, tmp_path / "out"), resume):
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: embedding dims (src 6, tgt 4) do not match model dim 6\n")


def test_resume_continues(tmp_path, capsys, parses):
    sp, tp, _, _ = write_tables(tmp_path)
    out1 = tmp_path / "r1"
    assert main(train_args(sp, tp, out1)) == 0
    out2 = tmp_path / "r2"
    rc = main([
        "resume", "--checkpoint", str(out1 / "checkpoint_final.xlaae"),
        "--src", str(sp), "--tgt", str(tp), "--out", str(out2),
        "--max-steps", "10",
    ])
    assert rc == 0
    header, _ = read_checkpoint(out2 / "checkpoint_final.xlaae")
    assert header["step"] == 10

    # the resumed half matches an uninterrupted 10-step run
    out3 = tmp_path / "r3"
    assert main(train_args(sp, tp, out3, max_steps=10)) == 0
    resumed = (out2 / "checkpoint_final.xlaae").read_bytes()
    straight = (out3 / "checkpoint_final.xlaae").read_bytes()
    assert resumed == straight
    # resume and the second train read the tables from their sidecars
    assert parses == ["src.vec", "tgt.vec"]
    # a step budget not beyond the checkpoint's step is refused
    capsys.readouterr()
    assert main(["resume", "--checkpoint", str(out2 / "checkpoint_final.xlaae"),
                 "--src", str(sp), "--tgt", str(tp), "--out", str(tmp_path / "r4"),
                 "--max-steps", "10"]) == 1
    assert capsys.readouterr() == ("", "error: --max-steps 10 not beyond checkpoint "
                                       "step 10\n")
    assert not (tmp_path / "r4").exists()


def test_resume_repeats_normalize(tmp_path):
    # --normalize is a config field: the checkpoint records it and resume
    # normalizes the tables again, so the resumed run is the uninterrupted one
    sp, tp, _, _ = write_tables(tmp_path)
    straight = tmp_path / "straight"
    assert main([*train_args(sp, tp, straight, max_steps=20, eval_every=10,
                             checkpoint_every=10), "--normalize"]) == 0
    assert main(["resume", "--checkpoint", str(straight / "checkpoint_00000010.xlaae"),
                 "--src", str(sp), "--tgt", str(tp), "--out", str(tmp_path / "resumed")]) == 0
    final = (straight / "checkpoint_final.xlaae").read_bytes()
    assert (tmp_path / "resumed" / "checkpoint_final.xlaae").read_bytes() == final
    assert read_checkpoint(straight / "checkpoint_final.xlaae")[0]["config"]["normalize"]


def test_normalize_refuses_a_zero_row_after_settings_and_dimensions(tmp_path, capsys):
    # Trainer normalizes, after the config's checks and its own dimension
    # check; resume of a --normalize run refuses a zero row as train does,
    # in gan mode too, which otherwise takes one
    sp, tp, src, _ = write_tables(tmp_path)
    zeroed = with_zero_row(src, 3, tmp_path / "zeroed.vec")
    other = tmp_path / "d4.vec"
    save_embeddings(random_table(10, 4, seed=3, prefix="t"), other)
    assert main([*train_args(sp, tp, tmp_path / "run", mode="gan"), "--normalize"]) == 0
    zero_row = f"error: zero row {src.vocab.tokens[3]!r} in the source table\n"
    out = tmp_path / "out"
    for argv, message in (
            ([*train_args(zeroed, tp, out, n=1), "--normalize"],
             "error: batch size must be >= 2 (batch norm)\n"),
            ([*train_args(zeroed, other, out), "--normalize"],
             "error: embedding dims (src 6, tgt 4) do not match model dim 6\n"),
            ([*train_args(zeroed, tp, out, mode="gan"), "--normalize"], zero_row),
            (["resume", "--checkpoint", str(tmp_path / "run" / "checkpoint_final.xlaae"),
              "--src", str(zeroed), "--tgt", str(tp), "--out", str(out),
              "--max-steps", "10"], zero_row)):
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr() == ("", message)
        assert not out.exists()


def test_map_identity_checkpoint_round_trips(tmp_path):
    sp, tp, src, _ = write_tables(tmp_path)
    out = tmp_path / "run"
    assert main(train_args(sp, tp, out, max_steps=1)) == 0

    # force the encoder weight to the identity, then map
    from xlingmap.training import Trainer, encoder_from_checkpoint

    ckpt = out / "checkpoint_final.xlaae"
    tgt_table = load_embeddings(tp)
    tr = Trainer.resume(ckpt, src, tgt_table)
    tr.encoder.weight.value[...] = np.eye(6)
    ident = tmp_path / "ident.xlaae"
    tr.save_checkpoint(ident)

    mapped_path = tmp_path / "mapped.vec"
    assert main(["map", "--checkpoint", str(ident), "--src", str(sp),
                 "--out", str(mapped_path)]) == 0
    mapped = load_embeddings(mapped_path)
    assert mapped.vocab.tokens == src.vocab.tokens
    assert np.max(np.abs(mapped.matrix - src.matrix)) < 1e-15


def test_nn_output_format_and_unknown_word(tmp_path, capsys):
    sp, tp, src, tgt = write_tables(tmp_path)
    out = tmp_path / "run"
    assert main(train_args(sp, tp, out, max_steps=1)) == 0
    ckpt = out / "checkpoint_final.xlaae"
    rc = main(["nn", "--checkpoint", str(ckpt), "--src", str(sp),
               "--tgt", str(tp), "--words", "s0,notaword,s1", "--k", "3"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "notaword" in captured.err
    lines = [l for l in captured.out.splitlines() if "\t" in l]
    assert len(lines) == 6  # two answered words x k=3
    word, rank, token, sim = lines[0].split("\t")
    assert word == "s0" and rank == "1"
    assert token in tgt.vocab
    float(sim)


def test_nn_all_unknown_exits_1(tmp_path, capsys):
    sp, tp, _, _ = write_tables(tmp_path)
    out = tmp_path / "run"
    assert main(train_args(sp, tp, out, max_steps=1)) == 0
    rc = main(["nn", "--checkpoint", str(out / "checkpoint_final.xlaae"),
               "--src", str(sp), "--tgt", str(tp), "--words", "zzz"])
    assert rc == 1


def test_synth_eval_oracle_pipeline(tmp_path, capsys):
    synth_dir = tmp_path / "synth"
    rc = main(["synth", "--out", str(synth_dir), "--dim", "6",
               "--source-size", "40", "--target-size", "40",
               "--noise", "0", "--seed", "9"])
    assert rc == 0
    for name in ("src.vec", "tgt.vec", "src.freq", "tgt.freq", "truth.dict", "map.txt"):
        assert (synth_dir / name).exists()
    capsys.readouterr()

    written = tmp_path / "report.json"
    rc = main(["eval", "--checkpoint", str(synth_dir / "map.txt"),
               "--src", str(synth_dir / "src.vec"),
               "--tgt", str(synth_dir / "tgt.vec"),
               "--dict", str(synth_dir / "truth.dict"), "--k", "3",
               "--out", str(written)])
    assert rc == 0
    printed = capsys.readouterr().out
    # --out writes the bytes eval prints
    assert written.read_text(encoding="utf-8") == printed
    report = json.loads(printed)
    assert set(report) == {"precision", "resolvable", "unresolvable"}
    assert set(report["precision"]) == {"p@1", "p@2", "p@3"}
    assert report["precision"]["p@1"] == 1.0
    assert report["resolvable"] == 40


def test_synth_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["synth", "--out", str(d), "--dim", "4",
                     "--source-size", "10", "--target-size", "10",
                     "--seed", "3"]) == 0
    for name in ("src.vec", "tgt.vec", "src.freq", "tgt.freq", "truth.dict", "map.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_eval_unresolvable_dictionary_exits_1(tmp_path, capsys):
    sp, tp, _, _ = write_tables(tmp_path)
    out = tmp_path / "run"
    assert main(train_args(sp, tp, out, max_steps=1)) == 0
    dict_path = tmp_path / "bad.dict"
    # no resolvable entry, no entry at all, and a line without its tab
    for text, message in (("nosuch\tword\n", "no resolvable dictionary entries"),
                          ("", f"{dict_path}: empty dictionary"),
                          ("s0 t0\n", f"{dict_path}:1: expected 'src<TAB>tgt'")):
        dict_path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(out / "checkpoint_final.xlaae"),
                   "--src", str(sp), "--tgt", str(tp),
                   "--dict", str(dict_path), "--k", "2"])
        assert rc == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def synth_eval_args(tmp_path, k):
    synth_dir = tmp_path / "synth"
    if not synth_dir.exists():
        assert main(["synth", "--out", str(synth_dir), "--dim", "6",
                     "--source-size", "40", "--target-size", "30",
                     "--noise", "0", "--seed", "9"]) == 0
    return ["eval", "--checkpoint", str(synth_dir / "map.txt"),
            "--src", str(synth_dir / "src.vec"), "--tgt", str(synth_dir / "tgt.vec"),
            "--dict", str(synth_dir / "truth.dict"), "--k", str(k)]


def test_eval_k_outside_table_exits_1(tmp_path, capsys):
    for k in (0, 31, 400):
        args = synth_eval_args(tmp_path, k)
        capsys.readouterr()
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: k={k} outside [1, 30]\n"
        assert captured.out == ""


def test_overflowing_mapping_exits_1(tmp_path, capsys):
    # the map scaled by 1e300 maps each row to finite values whose norm
    # overflows: the query row is rejected, where its similarities would
    # all read 0 and rank the targets by row order
    args = synth_eval_args(tmp_path, 3)
    synth = tmp_path / "synth"
    scaled = tmp_path / "scaled.txt"
    save_matrix(load_matrix(synth / "map.txt") * 1e300, scaled)
    assert main(["train", "--src", str(synth / "src.vec"), "--tgt", str(synth / "tgt.vec"),
                 "--out", str(tmp_path / "run"), "--k", "4", "--T", "2", "--n", "8",
                 "--max-steps", "1"]) == 0
    ckpt = tmp_path / "scaled.xlaae"
    header, arrays = read_checkpoint(tmp_path / "run" / "checkpoint_final.xlaae")
    arrays["encoder.weight"] = load_matrix(scaled)
    write_checkpoint(ckpt, header, arrays)
    at = args.index("--checkpoint")
    for argv in (args[:at + 1] + [str(scaled)] + args[at + 2:],
                 args[:at + 1] + [str(ckpt)] + args[at + 2:],
                 ["nn", "--checkpoint", str(ckpt), "--src", str(synth / "src.vec"),
                  "--tgt", str(synth / "tgt.vec"), "--words", "s0001", "--k", "3"]):
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr() == ("", "error: query row 's0001' has a norm that "
                                           "is not finite\n")


def test_mapping_that_overflows_a_value_exits_1(tmp_path, capsys):
    # mapped rows are a table, which holds finite values only: a value that
    # the mapping takes beyond the float range fails nn and eval as it fails map
    sp, tp, src, _ = write_tables(tmp_path)
    row = int(np.argmax(np.abs(src.matrix).max(axis=1)))
    assert np.abs(src.matrix[row]).max() > 2.0  # mapped beyond 2e308
    scaled = tmp_path / "scaled.txt"
    save_matrix(1e308 * np.eye(6), scaled)
    dict_path = tmp_path / "d.dict"
    dict_path.write_text(f"{src.vocab.tokens[row]}\tt0\n", encoding="utf-8")
    # the error names the first row that overflows: map maps every row, nn
    # and eval the query word's alone
    with np.errstate(over="ignore"):
        overflowing = np.flatnonzero(np.isinf(1e308 * src.matrix).any(axis=1))
    first = overflowing[0]
    assert overflowing.size > 1
    common = ["--checkpoint", str(scaled), "--src", str(sp)]
    for argv, word in (
            (["map", *common, "--out", str(tmp_path / "mapped.vec")], first),
            (["nn", *common, "--tgt", str(tp), "--words", src.vocab.tokens[row]], row),
            (["eval", *common, "--tgt", str(tp), "--dict", str(dict_path), "--k", "1"], row)):
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: embedding matrix contains non-finite "
                                           f"values in row {src.vocab.tokens[word]!r}\n")


def test_zero_source_row_names_its_word(tmp_path, capsys):
    # a zero --src row maps to a zero query row, on which no cosine is defined
    args = synth_eval_args(tmp_path, 3)
    synth = tmp_path / "synth"
    zeroed = with_zero_row(load_embeddings(synth / "src.vec"), 1, tmp_path / "zeroed.vec")
    assert main(["train", "--src", str(synth / "src.vec"), "--tgt", str(synth / "tgt.vec"),
                 "--out", str(tmp_path / "run"), "--k", "4", "--T", "2", "--n", "8",
                 "--max-steps", "1"]) == 0
    at = args.index("--src")
    for argv in (args[:at + 1] + [str(zeroed)] + args[at + 2:],
                 ["nn", "--checkpoint", str(tmp_path / "run" / "checkpoint_final.xlaae"),
                  "--src", str(zeroed), "--tgt", str(synth / "tgt.vec"),
                  "--words", "s0001,s0002", "--k", "3"]):
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: zero row 's0002' in the queries\n")


def test_zero_target_row_ranks_last(tmp_path, capsys):
    # gan trains on a zero --tgt row, and nn and eval with its mapping rank
    # that row last, with similarity nan
    args = synth_eval_args(tmp_path, 30)
    synth = tmp_path / "synth"
    zeroed = str(with_zero_row(load_embeddings(synth / "tgt.vec"), 4, tmp_path / "zeroed.vec"))
    assert main(["train", "--mode", "gan", "--src", str(synth / "src.vec"), "--tgt", zeroed,
                 "--out", str(tmp_path / "run"), "--k", "4", "--T", "2", "--n", "8",
                 "--max-steps", "1"]) == 0
    capsys.readouterr()
    assert main(["nn", "--checkpoint", str(tmp_path / "run" / "checkpoint_final.xlaae"),
                 "--src", str(synth / "src.vec"), "--tgt", zeroed,
                 "--words", "s0001,s0002", "--k", "30"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    for word in ("s0001", "s0002"):
        lines = [line.split("\t") for line in out.splitlines() if line.startswith(word)]
        assert len(lines) == 30 and lines[-1][2:] == ["t0005", "nan"]
        assert "nan" not in [line[3] for line in lines[:-1]]
    # through the true map every entry ranks its target first, but s0005,
    # whose zero target ranks 30th of 30
    at = args.index("--tgt")
    assert main(args[:at + 1] + [zeroed] + args[at + 2:]) == 0
    out, err = capsys.readouterr()
    precision = json.loads(out)["precision"]
    assert err == "" and precision["p@1"] == precision["p@29"] == 29 / 30
    assert precision["p@30"] == 1.0


def test_eval_and_nn_rank_once(tmp_path, capsys, monkeypatch):
    from xlingmap import cli, evaluation

    calls = []

    def counting(queries, *args):
        calls.append(len(queries.vocab))
        return real(queries, *args)

    real = evaluation.knn
    monkeypatch.setattr(evaluation, "knn", counting)
    monkeypatch.setattr(cli, "knn", counting)
    args = synth_eval_args(tmp_path, 10)
    capsys.readouterr()
    assert main(args) == 0
    report = json.loads(capsys.readouterr().out)
    assert calls == [30]  # every resolvable entry in one ranking
    values = [report["precision"][f"p@{k}"] for k in range(1, 11)]
    assert len(report["precision"]) == 10 and values == sorted(values)
    assert (report["resolvable"], report["unresolvable"]) == (30, 0)

    sp, tp, _, tgt = write_tables(tmp_path)
    out = tmp_path / "run"
    assert main(train_args(sp, tp, out, max_steps=1)) == 0
    listings = {}
    for k in (100, 5):
        calls.clear()
        capsys.readouterr()
        assert main(["nn", "--checkpoint", str(out / "checkpoint_final.xlaae"),
                     "--src", str(sp), "--tgt", str(tp), "--words", "s0,zzz,s1,s2",
                     "--k", str(k)]) == 0
        assert calls == [3]
        listings[k] = {}
        for line in capsys.readouterr().out.splitlines():
            listings[k].setdefault(line.split("\t")[0], []).append(line)
    # a k above the table size lists every target once, and --k 5 selects
    # the first 5 of that listing
    full, top = listings[100], listings[5]
    assert list(full) == list(top) == ["s0", "s1", "s2"]
    for word, lines in full.items():
        assert sorted(line.split("\t")[2] for line in lines) == sorted(tgt.vocab.tokens)
        assert top[word] == lines[:5]


def test_map_then_nn_consistency(tmp_path, capsys):
    sp, tp, src, _ = write_tables(tmp_path)
    out = tmp_path / "run"
    assert main(train_args(sp, tp, out, max_steps=3)) == 0
    ckpt = out / "checkpoint_final.xlaae"

    mapped_path = tmp_path / "mapped.vec"
    assert main(["map", "--checkpoint", str(ckpt), "--src", str(sp),
                 "--out", str(mapped_path)]) == 0
    capsys.readouterr()
    assert main(["nn", "--checkpoint", str(ckpt), "--src", str(sp),
                 "--tgt", str(tp), "--words", "s3", "--k", "1"]) == 0
    line = [l for l in capsys.readouterr().out.splitlines() if "\t" in l][0]
    _, _, nn_token, nn_sim = line.split("\t")

    # querying the mapped table directly against tgt agrees with cmd_nn
    from xlingmap.evaluation import knn

    mapped = load_embeddings(mapped_path)
    tgt_table = load_embeddings(tp)
    rows, sims = knn(as_table(mapped.matrix[[mapped.vocab.index("s3")]]), tgt_table, 1)
    assert tgt_table.vocab.tokens[rows[0, 0]] == nn_token
    assert abs(sims[0, 0] - float(nn_sim)) < 1e-6


@pytest.mark.parametrize("shape_flag, block_dim, depth", [
    ([], 40, 4),
    (["--T", "2"], 40, 2),
    (["--k", "8"], 8, 4),
], ids=["preset only", "--T 2", "--k 8"])
def test_preset_flag(tmp_path, shape_flag, block_dim, depth):
    # the preset fills only the shape flags that are left out
    src = random_table(20, 40, seed=4, prefix="s")
    tgt = random_table(20, 40, seed=5, prefix="t")
    sp, tp = tmp_path / "s.vec", tmp_path / "t.vec"
    save_embeddings(src, sp)
    save_embeddings(tgt, tp)
    out = tmp_path / "run"
    rc = main(["train", "--src", str(sp), "--tgt", str(tp), "--out", str(out),
               "--preset", "de-en", *shape_flag, "--n", "8", "--max-steps", "1",
               "--eval-every", "5", "--checkpoint-every", "5"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    header, _ = read_checkpoint(out / "checkpoint_final.xlaae")
    # and every field no flag sets keeps the configs' default
    want = replace(TrainConfig(model=ModelConfig(dim=40, block_dim=block_dim, depth=depth)),
                   batch_size=8, max_steps=1, eval_every=5, checkpoint_every=5)
    for config in (manifest["config"], header["config"]):
        assert config == want.to_dict()


def test_eval_maps_only_dictionary_source_rows(tmp_path, capsys, monkeypatch):
    from xlingmap import cli
    from xlingmap.evaluation import BilingualDictionary, precision_at_k

    sp, tp, src, tgt = write_tables(tmp_path)
    weight = np.linalg.qr(np.random.default_rng(5).normal(size=(6, 6)))[0]
    matrix_path = tmp_path / "w.txt"
    save_matrix(weight, matrix_path)
    # s3 twice (two targets), s7 without a resolvable target, two unknown words
    dict_path = tmp_path / "d.dict"
    dict_path.write_text("s3\tt3\ns3\tt4\ns7\tnosuch\ns1\tt9\nzz\tt1\ns12\tt12\n"
                         "yy\tt2\n", encoding="utf-8")
    seen = []

    def recording(mapping, src_table, tgt_table, dictionary, k):
        seen.append((mapping, src_table))
        return precision_at_k(mapping, src_table, tgt_table, dictionary, k)

    monkeypatch.setattr(cli, "precision_at_k", recording)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(matrix_path), "--src", str(sp),
                 "--tgt", str(tp), "--dict", str(dict_path), "--k", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    ((mapping, held),) = seen
    assert sorted(held.vocab.tokens) == ["s1", "s12", "s3", "s7"]
    rows = [src.vocab.index(w) for w in held.vocab.tokens]
    assert np.allclose(held.matrix @ mapping, src.matrix[rows] @ weight,
                       rtol=0, atol=1e-14)
    # the report of the whole table, as the command computed it before
    full = precision_at_k(weight, src, tgt,
                          BilingualDictionary.load(dict_path), 5)
    assert report == full
    assert (full["resolvable"], full["unresolvable"]) == (3, 3)


def fields_at_default(config):
    """Names of the fields of a config dataclass, nested configs included,
    that hold their default value."""
    names = []
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            names += [f"{f.name}.{n}" for n in fields_at_default(value)]
        elif value == f.default:
            names.append(f.name)
    return names


# A value off the config's default for each flag of ``train`` that sets a
# config field (``--normalize`` takes none), and the flags that set none.
TRAIN_CONFIG_FLAGS = {
    "--normalize": [], "--mode": ["gan"], "--k": ["5"], "--T": ["3"], "--n": ["6"],
    "--lr-gen": ["0.002"], "--lr-disc": ["0.02"], "--lambda-r": ["0.5"],
    "--lambda-a": ["0.25"], "--lambda-c": ["2.0"], "--max-steps": ["3"],
    "--eval-every": ["2"], "--checkpoint-every": ["2"], "--seed": ["11"],
    "--subsample-threshold": ["0.001"], "--subsample-formula": ["paper"],
    "--dropout": ["0.2"], "--leaky-slope": ["0.05"],
}
TRAIN_INPUT_FLAGS = ["--src", "--tgt", "--src-freq", "--tgt-freq", "--out", "--preset"]


def recorded_config(out):
    """The config of the run in ``out``: the manifest's, which must be the
    final checkpoint header's."""
    manifest = json.loads((out / "manifest.json").read_text())
    header, _ = read_checkpoint(out / "checkpoint_final.xlaae")
    assert header["config"] == manifest["config"]
    return TrainConfig.from_dict(manifest["config"])


@pytest.mark.parametrize("case", ["every flag", "defaults"])
def test_every_train_config_field_has_a_flag(tmp_path, case):
    sp, tp, _, _ = write_tables(tmp_path)
    out = tmp_path / "run"
    want = TrainConfig(
        model=ModelConfig(dim=6, block_dim=5, depth=3, leaky_slope=0.05,
                          dropout_rate=0.2),
        mode="gan", lambda_r=0.5, lambda_a=0.25, lambda_c=2.0, batch_size=6,
        lr_gen=0.002, lr_disc=0.02, max_steps=3, eval_every=2,
        checkpoint_every=2, seed=11,
        sampler=SamplerConfig(subsample_threshold=0.001, formula="paper"),
        normalize=True,
    )
    flags = [a for flag, value in TRAIN_CONFIG_FLAGS.items() for a in [flag, *value]]
    # a field this test leaves at its default is one no flag is shown to reach
    assert fields_at_default(want) == []
    if case == "defaults":
        # a flag left out leaves its field at the config's default
        want = replace(TrainConfig(model=ModelConfig(dim=6)), max_steps=1)
        flags = ["--max-steps", "1"]
    assert main(["train", "--src", str(sp), "--tgt", str(tp), "--out", str(out),
                 *flags]) == 0
    assert recorded_config(out) == want


def test_every_train_flag_but_the_inputs_sets_the_recorded_config(tmp_path):
    # the converse: a flag of train that the config does not record would be
    # a setting that resume cannot repeat
    assert sorted(TRAIN_CONFIG_FLAGS) == sorted(set(FLAGS["train"]) - set(TRAIN_INPUT_FLAGS))
    sp, tp, _, _ = write_tables(tmp_path)

    def config(name, *flags):  # a flag given twice takes its last value
        out = tmp_path / name
        assert main(["train", "--src", str(sp), "--tgt", str(tp), "--out", str(out),
                     "--k", "4", "--T", "2", "--n", "8", "--max-steps", "1",
                     *flags]) == 0
        return recorded_config(out).to_dict()

    base = config("base")
    for i, (flag, value) in enumerate(TRAIN_CONFIG_FLAGS.items()):
        assert config(f"run{i}", flag, *value) != base, flag


@pytest.mark.parametrize("case", ["every flag", "defaults"])
def test_every_synth_spec_field_has_a_flag(tmp_path, case):
    spec = SyntheticSpec(dim=5, source_size=30, target_size=25, components=3,
                         means_scale=2.0, cov_scale=0.5, noise_sigma=0.1,
                         zipf_exponent=1.5, seed=4)
    flags = ["--dim", "5", "--source-size", "30", "--target-size", "25",
             "--components", "3", "--means-scale", "2.0", "--cov-scale", "0.5",
             "--noise", "0.1", "--zipf", "1.5", "--seed", "4"]
    assert fields_at_default(spec) == []
    if case == "defaults":
        spec, flags = SyntheticSpec(), []
    out = tmp_path / "cli"
    assert main(["synth", "--out", str(out), *flags]) == 0
    data = synth_generate(spec)
    ref = tmp_path / "ref"
    ref.mkdir()
    save_embeddings(data.src, ref / "src.vec")
    save_embeddings(data.tgt, ref / "tgt.vec")
    save_frequencies(data.src.vocab, data.src_freq, ref / "src.freq")
    save_frequencies(data.tgt.vocab, data.tgt_freq, ref / "tgt.freq")
    data.truth.save(ref / "truth.dict")
    save_matrix(data.map_matrix, ref / "map.txt")
    for name in ("src.vec", "tgt.vec", "src.freq", "tgt.freq", "truth.dict", "map.txt"):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


# The flag of each float config field, by command. Of the infinities, a
# subsample threshold of +inf (no word subsampled) and a Zipf exponent of +inf
# (every count but the first 1) are usable.
FLOAT_FLAGS = {
    "train": {"lambda_r": "--lambda-r", "lambda_a": "--lambda-a",
              "lambda_c": "--lambda-c", "lr_gen": "--lr-gen", "lr_disc": "--lr-disc",
              "subsample_threshold": "--subsample-threshold",
              "leaky_slope": "--leaky-slope", "dropout_rate": "--dropout"},
    "synth": {"means_scale": "--means-scale", "cov_scale": "--cov-scale",
              "noise_sigma": "--noise", "zipf_exponent": "--zipf"},
}
USABLE_INF = {"subsample_threshold", "zipf_exponent"}


@pytest.mark.parametrize("name", [
    f.name for config in (TrainConfig, ModelConfig, SamplerConfig, SyntheticSpec)
    for f in fields(config) if f.type in (float, "float")])
def test_nan_or_unusable_infinite_setting_exits_1_before_writing(tmp_path, capsys, name):
    sp, tp, _, _ = write_tables(tmp_path)
    command = "train" if name in FLOAT_FLAGS["train"] else "synth"
    for value in ("nan", "inf", "-inf"):
        out = tmp_path / value
        argv = (train_args(sp, tp, out, max_steps=1) if command == "train" else
                ["synth", "--out", str(out), "--dim", "4", "--source-size", "20",
                 "--target-size", "20"])
        capsys.readouterr()
        rc = main([*argv, f"{FLOAT_FLAGS[command][name]}={value}"])
        captured = capsys.readouterr()
        if value == "inf" and name in USABLE_INF:
            assert rc == 0, captured.err
        else:
            assert rc == 1, value
            assert captured.out == "" and re.fullmatch(r"error: [^\n]+\n", captured.err)
            assert not out.exists()


@pytest.mark.parametrize("zipf", ["1000", "-9.9", "-10", "-50", "-1000"])
def test_synth_zipf_counts_beyond_the_floats_or_int64(tmp_path, capsys, zipf):
    # r ** 1000 overflows the floats from r = 3 on, which counts as --zipf inf
    # does; the last of 20 counts, 1e6 * 20 ** -zipf, fits int64 at -9.9 and
    # not at -10, and 3 ** -1000 underflows to 0
    out = tmp_path / "out"
    capsys.readouterr()
    rc = main(["synth", "--out", str(out), "--dim", "3", "--source-size", "20",
               "--target-size", "20", f"--zipf={zipf}"])
    captured = capsys.readouterr()
    if float(zipf) <= -10:
        assert rc == 1 and captured == ("", f"error: zipf exponent {float(zipf)} gives "
                                            "counts beyond int64 at 20 words\n")
        assert not out.exists()
        return
    assert rc == 0
    counts = [int(line.split("\t")[1]) for line in
              (out / "src.freq").read_text().splitlines()]
    assert counts == ([10**6] + [1] * 19 if zipf == "1000" else
                      [round(1e6 / r ** -9.9) for r in range(1, 21)])


@pytest.fixture(scope="module")
def mismatch_inputs(tmp_path_factory):
    """A d = 6 checkpoint and encoder matrix (a text matrix file), d = 6
    tables, d = 4 tables with the same words, a dictionary between the
    tables, and mappings that are not square: a 2 x 3 text matrix, and
    checkpoints whose encoder weight is 6 x 4 or a vector of 6."""
    tmp_path = tmp_path_factory.mktemp("mismatch")
    sp, tp, _, _ = write_tables(tmp_path)
    assert main(train_args(sp, tp, tmp_path / "run", max_steps=1)) == 0
    checkpoint = tmp_path / "run" / "checkpoint_final.xlaae"
    save_matrix(np.eye(6), tmp_path / "w.txt")
    save_matrix(np.eye(2, 3), tmp_path / "wide.txt")
    header, arrays = read_checkpoint(checkpoint)
    for name, weight in (("wide", arrays["encoder.weight"][:, :4]), ("flat", np.ones(6))):
        write_checkpoint(tmp_path / f"{name}.xlaae", header,
                         {**arrays, "encoder.weight": weight})
    for name, prefix in (("src4", "s"), ("tgt4", "t")):
        save_embeddings(random_table(10, 4, seed=3, prefix=prefix),
                        tmp_path / f"{name}.vec")
    (tmp_path / "d.dict").write_text("s0\tt0\ns1\tt1\n", encoding="utf-8")
    return {"src": str(sp), "tgt": str(tp), "src4": str(tmp_path / "src4.vec"),
            "tgt4": str(tmp_path / "tgt4.vec"), "checkpoint": str(checkpoint),
            "encoder-matrix": str(tmp_path / "w.txt"),
            "wide-matrix": str(tmp_path / "wide.txt"),
            "wide-checkpoint": str(tmp_path / "wide.xlaae"),
            "flat-checkpoint": str(tmp_path / "flat.xlaae"),
            "dict": str(tmp_path / "d.dict"), "out": str(tmp_path / "mapped.vec")}


def mapping_command(paths, command, mapping):
    """``command`` on the tables and dictionary of ``paths``, with the
    mapping file ``paths[mapping]`` as --checkpoint (either kind of mapping
    file is given so); ``map`` and ``eval`` write ``paths["out"]``."""
    extra = {"map": ["--src", paths["src"], "--out", paths["out"]],
             "nn": ["--src", paths["src"], "--tgt", paths["tgt"], "--words", "s0"],
             "eval": ["--src", paths["src"], "--tgt", paths["tgt"],
                      "--dict", paths["dict"], "--k", "2", "--out", paths["out"]]}[command]
    return [command, "--checkpoint", paths[mapping], *extra]


@pytest.mark.parametrize("command, mapping, bad", [
    (command, mapping, bad)
    for mapping in ("checkpoint", "encoder-matrix")
    for command, bad in (("map", "src"), ("nn", "src"), ("nn", "tgt"),
                         ("eval", "src"), ("eval", "tgt"))
])
def test_table_of_another_dimension_than_the_mapping_exits_1(
        mismatch_inputs, capsys, command, mapping, bad):
    paths = {**mismatch_inputs, bad: mismatch_inputs[f"{bad}4"]}
    capsys.readouterr()
    assert main(mapping_command(paths, command, mapping)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: dimension mismatch: --{bad} has d=4, the mapping d=6\n"
    assert captured.out == ""
    assert not Path(paths["out"]).exists()


@pytest.mark.parametrize("command", ["map", "nn", "eval"])
@pytest.mark.parametrize("mapping, shape", [("wide-matrix", (2, 3)),
                                            ("wide-checkpoint", (6, 4)),
                                            ("flat-checkpoint", (6,))],
                         ids=["wide-matrix", "wide-checkpoint", "flat-checkpoint"])
def test_non_square_mapping_exits_1_naming_its_file(mismatch_inputs, capsys, command,
                                                    mapping, shape):
    capsys.readouterr()
    assert main(mapping_command(mismatch_inputs, command, mapping)) == 1
    assert capsys.readouterr() == ("", f"error: {mismatch_inputs[mapping]}: mapping weight "
                                       f"has shape {shape}, not square\n")
    assert not Path(mismatch_inputs["out"]).exists()


# -- table sidecars -------------------------------------------------------------


@pytest.fixture(scope="module")
def sidecar_checkpoint(tmp_path_factory):
    """A checkpoint for the d = 6 tables of ``write_tables``."""
    tmp_path = tmp_path_factory.mktemp("sidecar")
    sp, tp, _, _ = write_tables(tmp_path)
    assert main(train_args(sp, tp, tmp_path / "run", max_steps=3)) == 0
    return str(tmp_path / "run" / "checkpoint_final.xlaae")


@pytest.fixture
def parses(monkeypatch):
    """Names of the table files the commands parse, in order; a table read
    from its sidecar is not parsed."""
    from xlingmap import cli

    names = []

    def recording(path):
        names.append(Path(path).name)
        return load_embeddings(path)

    monkeypatch.setattr(cli, "load_embeddings", recording)
    return names


def table_commands(checkpoint, sp, tp, tmp_path):
    dict_path = tmp_path / "d.dict"
    dict_path.write_text("s0\tt0\ns1\tt1\ns2\tt5\ns3\tt3\nzz\tt2\n", encoding="utf-8")
    common = ["--checkpoint", checkpoint, "--src", str(sp)]
    return {
        "nn": ["nn", *common, "--tgt", str(tp), "--words", "s0,s3,s7", "--k", "5"],
        "eval": ["eval", *common, "--tgt", str(tp), "--dict", str(dict_path), "--k", "3"],
        "map": ["map", *common, "--out", str(tmp_path / "mapped.vec")],
    }


def run_command(capsys, argv):
    """Exit code, stdout and stderr of one command, plus the bytes of the
    file it writes to ``--out``."""
    capsys.readouterr()
    rc = main(argv)
    out, err = capsys.readouterr()
    written = Path(argv[argv.index("--out") + 1]).read_bytes() if "--out" in argv else None
    return rc, out, err, written


@pytest.mark.parametrize("command", ["map", "nn", "eval"])
def test_checkpoint_and_its_weight_as_a_text_matrix_give_the_same_bytes(
        tmp_path, capsys, sidecar_checkpoint, command):
    # --checkpoint tells the two kinds of file apart by the checkpoint's
    # magic bytes
    sp, tp, _, _ = write_tables(tmp_path)
    matrix = tmp_path / "w.txt"
    save_matrix(read_checkpoint(sidecar_checkpoint)[1]["encoder.weight"], matrix)
    argv = table_commands(sidecar_checkpoint, sp, tp, tmp_path)[command]
    want = run_command(capsys, argv)
    assert want[0] == 0 and want[2] == ""
    at = argv.index("--checkpoint") + 1
    assert run_command(capsys, [*argv[:at], str(matrix), *argv[at + 1:]]) == want


def test_unreadable_mapping_or_table_exits_1_naming_its_file(tmp_path, capsys,
                                                           sidecar_checkpoint):
    # a header is not trusted for the allocation: a file of S bytes holds at
    # most S // 2 values; a checkpoint with damaged magic bytes is read as a
    # text matrix, whose header is not UTF-8; and a whole checkpoint must
    # hold a JSON header and the encoder's weight, and no encoder bias
    sp, _, _, _ = write_tables(tmp_path)
    # a pipe has no size to bound the allocation by: a shape that cannot be
    # allocated (43.7 TiB) is refused; and a pipe, which cannot seek back,
    # gets the row errors a file gets
    pipes = {tmp_path / f"{name}.pipe": payload for name, payload in [
        ("src", b"1000000000000 6\ns0 1 0 0 0 0 0\n"),
        ("bad", b"2 6\ns0 1 0 0 0 0 x\ns1 1 0 0 0 0 0\n"),
        ("short", b"3 6\ns0 1 0 0 0 0 0\ns1 1 0 0 0 0 0\n")]}
    for pipe in pipes:
        os.mkfifo(pipe)

    def feed():  # each open waits for the case that reads its pipe
        for pipe, payload in pipes.items():
            with contextlib.suppress(BrokenPipeError), open(pipe, "wb") as fh:
                fh.write(payload)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    not_json, unweighted, biased = (tmp_path / f"{name}.xlaae"
                                    for name in ("not_json", "unweighted", "biased"))
    payload = CHECKPOINT_MAGIC + (8).to_bytes(8, "little") + b"not json"
    not_json.write_bytes(payload + hashlib.sha256(payload).digest())
    header, arrays = read_checkpoint(sidecar_checkpoint)
    write_checkpoint(unweighted, header,
                     {k: v for k, v in arrays.items() if k != "encoder.weight"})
    write_checkpoint(biased, header, {**arrays, "encoder.enc_bias": np.zeros(6)})
    tall = tmp_path / "tall.vec"
    tall.write_text("1000000000000 6\ns0 1 0 0 0 0 0\n", encoding="utf-8")
    wide = tmp_path / "wide.txt"
    wide.write_text("1 1000000000000\n1 0\n", encoding="utf-8")
    damaged = tmp_path / "damaged.xlaae"
    damaged.write_bytes(b"1\xff 2\n" + Path(sidecar_checkpoint).read_bytes()[8:])
    out = tmp_path / "mapped.vec"
    huge, bad, short = pipes
    for mapping, src, message in [
        (sidecar_checkpoint, tall, f"{tall}: header declares 1000000000000 rows, found 1"),
        (wide, sp, f"{wide}: header declares 1 x 1000000000000 values, "
                   "more than its 20 bytes hold"),
        (damaged, sp, f"{damaged}:1: non-integer header fields"),
        (not_json, sp, f"{not_json}: unreadable header: Expecting value: line 1 column 1 "
                       "(char 0)"),
        (unweighted, sp, f"{unweighted}: checkpoint has no encoder weight"),
        (biased, sp, f"{biased}: encoder bias is not supported"),
        (sidecar_checkpoint, huge, f"{huge}: header declares 1000000000000 x 6 values, "
                                   "more than memory holds"),
        (sidecar_checkpoint, bad, f"{bad}:2: unparseable value"),
        (sidecar_checkpoint, short, f"{short}: header declares 3 rows, found 2"),
    ]:
        capsys.readouterr()
        assert main(["map", "--checkpoint", str(mapping), "--src", str(src),
                     "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()
    writer.join(timeout=10)
    assert not writer.is_alive()


def test_main_without_argv_reads_sys_argv(tmp_path, capsys, monkeypatch,
                                          sidecar_checkpoint):
    # the console script calls main() with no arguments
    sp, tp, _, _ = write_tables(tmp_path)
    argv = table_commands(sidecar_checkpoint, sp, tp, tmp_path)["nn"]
    assert main(argv) == 0
    want = capsys.readouterr()
    assert len(want.out.splitlines()) == 3 * 5
    monkeypatch.setattr(sys, "argv", ["xlingmap", *argv])
    assert main() == 0
    assert capsys.readouterr() == want


def crlf_copy(path, out):
    """Write ``path`` to ``out`` with every line ending in CRLF, and every
    second row with its one trailing space between the CR and the LF (a
    space before the CR would leave " \\r" as one more field, which the
    format rejects)."""
    lines = path.read_bytes().split(b"\n")[:-1]
    rows = [row + (b"\r" if i % 2 else b"\r ") for i, row in enumerate(lines[1:])]
    out.write_bytes(b"\n".join([lines[0] + b"\r", *rows]) + b"\n")
    return out


def test_nn_without_query_words_exits_1_before_reading_anything(
        tmp_path, capsys, parses, sidecar_checkpoint):
    sp, tp, _, _ = write_tables(tmp_path)
    argv = table_commands(sidecar_checkpoint, sp, tp, tmp_path)["nn"]
    for words in (",", "", ",,"):
        # with the checkpoint, and with a checkpoint file that is missing
        for checkpoint in (sidecar_checkpoint, str(tmp_path / "missing.xlaae")):
            argv[argv.index("--words") + 1] = words
            argv[argv.index("--checkpoint") + 1] = checkpoint
            assert run_command(capsys, argv) == (1, "", "error: no query words given\n",
                                                 None)
    assert parses == [] and list(tmp_path.glob("*.xlcache*")) == []


def age(path):
    """Set ``path``'s mtime an hour back, so that its next write gets another
    timestamp even where the filesystem clock is coarse: the sidecar relies
    on timestamps telling two writes apart."""
    mtime = os.stat(path).st_mtime_ns - 3600 * 10**9
    os.utime(path, ns=(mtime, mtime))


@pytest.mark.parametrize("command", ["nn", "eval", "map"])
def test_warm_command_reads_the_sidecars_and_gives_the_same_bytes(
        tmp_path, capsys, parses, sidecar_checkpoint, command):
    sp, tp, _, _ = write_tables(tmp_path)
    argv = table_commands(sidecar_checkpoint, sp, tp, tmp_path)[command]
    names = ["src.vec"] if command == "map" else ["src.vec", "tgt.vec"]
    cold = run_command(capsys, argv)
    assert cold[0] == 0 and parses == names
    assert sorted(p.name for p in tmp_path.glob("*.xlcache*")) == [
        f"{name}.xlcache" for name in names]
    parses.clear()
    assert run_command(capsys, argv) == cold
    assert parses == []
    # CRLF copies of the tables give the same bytes
    cs, ct = crlf_copy(sp, tmp_path / "crlf-src.vec"), crlf_copy(tp, tmp_path / "crlf-tgt.vec")
    assert cs.read_bytes().count(b"\r \n") == 15
    crlf = table_commands(sidecar_checkpoint, cs, ct, tmp_path)[command]
    assert run_command(capsys, crlf) == cold


def test_sidecar_table_is_the_parsed_table(tmp_path, parses):
    from xlingmap.cli import _load_table

    sp, _, _, _ = write_tables(tmp_path)
    cold, warm = _load_table(sp), _load_table(sp)
    assert parses == ["src.vec"]
    want = load_embeddings(sp)
    for table in (cold, warm):
        assert table.vocab.tokens == want.vocab.tokens
        assert table.matrix.dtype == np.float64
        assert table.matrix.tobytes() == want.matrix.tobytes()
        assert not table.matrix.flags.writeable


def test_rewrite_of_the_same_size_is_parsed_again(tmp_path, capsys, parses,
                                                  sidecar_checkpoint):
    sp, tp, _, _ = write_tables(tmp_path)
    age(sp)
    argv = table_commands(sidecar_checkpoint, sp, tp, tmp_path)["nn"]
    assert run_command(capsys, argv)[0] == 0
    # the same bytes with the rows of s1 and s2 swapped, written in place
    lines = sp.read_bytes().splitlines(keepends=True)
    lines[2], lines[3] = lines[3], lines[2]
    before = os.stat(sp)
    sp.write_bytes(b"".join(lines))
    assert (os.stat(sp).st_ino, os.stat(sp).st_size) == (before.st_ino, before.st_size)
    parses.clear()
    got = run_command(capsys, argv)
    assert parses == ["src.vec"]
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    (fresh / "src.vec").write_bytes(sp.read_bytes())
    want = run_command(capsys, table_commands(sidecar_checkpoint, fresh / "src.vec",
                                              tp, fresh)["nn"])
    assert got == want


def test_map_onto_its_own_src_is_parsed_again(tmp_path, capsys, parses,
                                              sidecar_checkpoint):
    sp, _, _, _ = write_tables(tmp_path)
    age(sp)
    ref = tmp_path / "ref.vec"
    ref.write_bytes(sp.read_bytes())
    weight = encoder_from_checkpoint(sidecar_checkpoint)
    for _ in range(2):
        assert main(["map", "--checkpoint", sidecar_checkpoint, "--src", str(sp),
                     "--out", str(sp)]) == 0
        table = load_embeddings(ref)
        save_embeddings(EmbeddingTable(table.vocab, table.matrix @ weight), ref)
    assert parses == ["src.vec", "src.vec"]
    assert sp.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("damage", ["truncated", "bit flip", "foreign magic"])
def test_damaged_sidecar_is_ignored_and_replaced(tmp_path, capsys, parses,
                                                 sidecar_checkpoint, damage):
    sp, tp, _, _ = write_tables(tmp_path)
    argv = table_commands(sidecar_checkpoint, sp, tp, tmp_path)["nn"]
    cold = run_command(capsys, argv)
    sidecar = tmp_path / "src.vec.xlcache"
    good = sidecar.read_bytes()
    sidecar.write_bytes({"truncated": good[:-1],
                         "bit flip": good[:-1] + bytes([good[-1] ^ 1]),
                         "foreign magic": b"X" + good[1:]}[damage])
    parses.clear()
    assert run_command(capsys, argv) == cold
    assert parses == ["src.vec"]
    assert sidecar.read_bytes() == good


def test_no_damaged_sidecar_is_read(tmp_path):
    from xlingmap.cli import _file_key, _load_table, _read_sidecar

    sp, _, _, _ = write_tables(tmp_path, n=5, d=3)
    _load_table(sp)
    sidecar = tmp_path / "src.vec.xlcache"
    good = sidecar.read_bytes()
    key = _file_key(sp)
    assert _read_sidecar(sidecar, key) is not None
    for i in range(len(good)):
        sidecar.write_bytes(good[:i] + bytes([good[i] ^ 1 << i % 8]) + good[i + 1:])
        assert _read_sidecar(sidecar, key) is None, f"flip in byte {i}"
    # a header claiming more rows than the file holds is refused before the
    # matrix is allocated
    magic, header, rest = good.split(b"\n", 2)
    fields = header.split()
    fields[-4] = b"%d" % 10**12
    sidecar.write_bytes(b"\n".join([magic, b" ".join(fields), rest]))
    assert _read_sidecar(sidecar, key) is None


def test_malformed_table_names_its_line_and_leaves_no_sidecar(tmp_path, capsys,
                                                              sidecar_checkpoint):
    sp, tp, _, _ = write_tables(tmp_path)
    good = sp.read_bytes()
    lines = good.splitlines(keepends=True)
    lines[2] = b"s1" + b" oops" * 6 + b"\n"
    bad = b"".join(lines)
    argv = table_commands(sidecar_checkpoint, sp, tp, tmp_path)["nn"]
    sidecar = tmp_path / "src.vec.xlcache"

    def fails_at_line_3():
        rc, out, err, _ = run_command(capsys, argv)
        return (rc, out, err.split(": ")[:2]) == (1, "", ["error", f"{sp}:3"])

    sp.write_bytes(bad)
    assert fails_at_line_3() and not sidecar.exists()
    # a table with a sidecar, rewritten malformed
    sp.write_bytes(good)
    assert run_command(capsys, argv)[0] == 0 and sidecar.exists()
    sp.write_bytes(bad)
    assert fails_at_line_3()


@pytest.mark.parametrize("failure", ["write", "replace"])
def test_failed_sidecar_write_leaves_no_file(tmp_path, capsys, monkeypatch, parses,
                                             sidecar_checkpoint, failure):
    from xlingmap import cli

    def no_space(*args):
        raise OSError(errno.ENOSPC, "No space left on device")

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(bytes(data)[:7])
            no_space()

    def opening(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return FullDisk(fh) if "w" in mode else fh

    if failure == "write":
        monkeypatch.setattr(cli, "open", opening, raising=False)
    else:
        monkeypatch.setattr(cli.os, "replace", no_space)
    sp, tp, _, _ = write_tables(tmp_path)
    argv = table_commands(sidecar_checkpoint, sp, tp, tmp_path)["nn"]
    first = run_command(capsys, argv)
    assert first[0] == 0 and first[2] == ""
    assert run_command(capsys, argv) == first
    assert parses == ["src.vec", "tgt.vec"] * 2
    assert list(tmp_path.glob("*.xlcache*")) == []


# -- sidecars of several checksummed blocks ----------------------------------------


@pytest.fixture(scope="module")
def blocks_inputs(tmp_path_factory):
    """600 x 40 tables (three 64 KB blocks of rows each in a sidecar) and a
    checkpoint for them."""
    tmp_path = tmp_path_factory.mktemp("blocks")
    src, tgt = random_table(600, 40, seed=1, prefix="s"), random_table(600, 40, seed=2,
                                                                      prefix="t")
    save_embeddings(src, tmp_path / "src.vec")
    save_embeddings(tgt, tmp_path / "tgt.vec")
    assert main(train_args(tmp_path / "src.vec", tmp_path / "tgt.vec", tmp_path / "run",
                           max_steps=1)) == 0
    return tmp_path


def blocks_commands(inputs, tmp_path):
    """Fresh copies of the tables of ``blocks_inputs`` in ``tmp_path``, and
    ``nn``, ``eval`` and ``map`` on them: ``nn`` reads only the first and
    the last block of ``--src``."""
    for name in ("src.vec", "tgt.vec"):
        (tmp_path / name).write_bytes((inputs / name).read_bytes())
    dict_path = tmp_path / "d.dict"
    dict_path.write_text("s1\tt1\ns300\tt300\ns590\tt2\nzz\tt3\ns1\tt7\n", encoding="utf-8")
    common = ["--checkpoint", str(inputs / "run" / "checkpoint_final.xlaae"),
              "--src", str(tmp_path / "src.vec")]
    tables = [*common, "--tgt", str(tmp_path / "tgt.vec")]
    return {
        "nn": ["nn", *tables, "--words", "s5,s450,zz", "--k", "4"],
        "eval": ["eval", *tables, "--dict", str(dict_path), "--k", "3"],
        "map": ["map", *common, "--out", str(tmp_path / "mapped.vec")],
    }


def format1_sidecar(path) -> bytes:
    """The sidecar of ``path`` in the first format: one crc32 over the tokens
    and the whole matrix."""
    from xlingmap.cli import _file_key

    table = load_embeddings(path)
    tokens = "\n".join(table.vocab.tokens).encode()
    header = [*_file_key(path), *table.matrix.shape, len(tokens),
              zlib.crc32(table.matrix, zlib.crc32(tokens))]
    return (b"xlingmap table sidecar 1\n" + " ".join(map(str, header)).encode() + b"\n"
            + tokens + table.matrix.astype("<f8").tobytes())


def format2_sidecar(path) -> bytes:
    """The sidecar of ``path`` in the second format: a crc32 per block of
    rows, but no padding and no row norms."""
    from xlingmap.cli import _block_rows, _file_key

    table = load_embeddings(path)
    tokens = "\n".join(table.vocab.tokens).encode()
    matrix = table.matrix.astype("<f8").tobytes()
    size = 8 * table.dim * _block_rows(table.dim)
    crcs = np.array([zlib.crc32(matrix[i:i + size]) for i in range(0, len(matrix), size)],
                    dtype="<u4").tobytes()
    header = [*_file_key(path), *table.matrix.shape, len(tokens),
              zlib.crc32(crcs, zlib.crc32(tokens))]
    return (b"xlingmap table sidecar 2\n" + " ".join(map(str, header)).encode() + b"\n"
            + tokens + crcs + matrix)


def flip_in_block(sidecar, block, rows=600, dim=40):
    """Flip one bit in the middle of the ``block``-th block of matrix rows."""
    from xlingmap.cli import _block_rows

    data = bytearray(sidecar.read_bytes())
    size = 8 * dim * _block_rows(dim)
    assert -(-rows // _block_rows(dim)) == 3
    data[len(data) - 8 * rows * dim + block * size + size // 2] ^= 0x04
    sidecar.write_bytes(bytes(data))


@pytest.mark.parametrize("command", ["nn", "eval", "map"])
def test_commands_give_the_same_bytes_with_and_without_sidecars(
        tmp_path, capsys, parses, blocks_inputs, command):
    argv = blocks_commands(blocks_inputs, tmp_path)[command]
    names = ["src.vec"] if command == "map" else ["src.vec", "tgt.vec"]
    sidecar = tmp_path / "src.vec.xlcache"
    cold = run_command(capsys, argv)
    assert cold[0] == 0 and parses == names
    good = sidecar.read_bytes()
    assert good.startswith(b"xlingmap table sidecar 3\n")
    parses.clear()
    assert run_command(capsys, argv) == cold and parses == []
    # a sidecar of an earlier format is refused and replaced
    for earlier in (format1_sidecar, format2_sidecar):
        sidecar.write_bytes(earlier(tmp_path / "src.vec"))
        parses.clear()
        assert run_command(capsys, argv) == cold and parses == ["src.vec"]
        assert sidecar.read_bytes() == good


def test_damage_is_caught_by_the_first_command_that_reads_its_block(
        tmp_path, capsys, parses, blocks_inputs):
    commands = blocks_commands(blocks_inputs, tmp_path)
    sidecar = tmp_path / "src.vec.xlcache"
    nn = run_command(capsys, commands["nn"])
    mapped = run_command(capsys, commands["map"])
    good = sidecar.read_bytes()
    parses.clear()
    # block 1 holds no query word: nn neither reads it nor notices
    flip_in_block(sidecar, 1)
    damaged = sidecar.read_bytes()
    assert run_command(capsys, commands["nn"]) == nn
    assert parses == [] and sidecar.read_bytes() == damaged
    # map reads every block: it parses the text and writes the sidecar again
    assert run_command(capsys, commands["map"]) == mapped
    assert parses == ["src.vec"] and sidecar.read_bytes() == good
    parses.clear()
    # block 2 holds s450
    flip_in_block(sidecar, 2)
    assert run_command(capsys, commands["nn"]) == nn
    assert parses == ["src.vec"] and sidecar.read_bytes() == good


def test_nn_duplicate_and_missing_words(tmp_path, capsys, monkeypatch, blocks_inputs):
    from xlingmap import cli
    from xlingmap.evaluation import knn

    argv = blocks_commands(blocks_inputs, tmp_path)["nn"]
    at = argv.index("--words") + 1
    weight = encoder_from_checkpoint(argv[argv.index("--checkpoint") + 1])
    src, tgt = load_embeddings(tmp_path / "src.vec"), load_embeddings(tmp_path / "tgt.vec")
    asked = ["s450", "zz", "s5", "s450", "yy", "s5"]
    distinct = ["s450", "s5"]
    rows, sims = knn(as_table(src.matrix[[src.vocab.index(w) for w in distinct]] @ weight),
                     tgt, 4)
    lines = {w: "".join(f"{w}\t{rank}\t{tgt.vocab.tokens[r]}\t{s:.6f}\n"
                        for rank, (r, s) in enumerate(zip(top, top_sims), start=1))
             for w, top, top_sims in zip(distinct, rows, sims)}
    # a repeated word prints its lines again, from the one ranking of each word
    want = (0, "".join(lines[w] for w in ["s450", "s5", "s450", "s5"]),
            "warning: 'zz' not in source vocabulary\n"
            "warning: 'yy' not in source vocabulary\n", None)
    none = (1, "", "warning: 'zz' not in source vocabulary\n"
                   "warning: 'yy' not in source vocabulary\n", None)
    ranked = []

    def recording(queries, *rest):
        ranked.append(queries.vocab.tokens)
        return knn(queries, *rest)

    monkeypatch.setattr(cli, "knn", recording)
    for words, expected, queries in ((asked, want, [tuple(distinct)]),
                                     (["zz", "yy"], none, [])):
        argv[at] = ",".join(words)
        for _ in ("cold", "warm"):
            (tmp_path / "src.vec.xlcache").unlink(missing_ok=True)
            ranked.clear()
            assert run_command(capsys, argv) == expected
            assert ranked == queries


def test_whole_read_equals_the_read_of_every_row(tmp_path, parses):
    from xlingmap.cli import _load_table

    sp = tmp_path / "src.vec"
    save_embeddings(random_table(600, 40, seed=1, prefix="s"), sp)
    want = load_embeddings(sp)
    tokens = list(want.vocab.tokens)
    backwards = [*tokens[::-1], "zz", *tokens[:5]]
    # parsed, then from the sidecar
    got = [_load_table(sp, backwards), _load_table(sp, backwards), _load_table(sp),
           _load_table(sp, tokens)]
    assert parses == ["src.vec"]
    for table, order in zip(got, [tokens[::-1], tokens[::-1], tokens, tokens]):
        assert list(table.vocab.tokens) == order
        rows = [want.vocab.index(w) for w in order]
        assert table.matrix.tobytes() == want.matrix[rows].tobytes()
        assert not table.matrix.flags.writeable
    assert _load_table(sp, ["zz"]) is None and parses == ["src.vec"]


def test_a_partial_read_checks_every_block_it_reads(tmp_path, monkeypatch):
    from xlingmap import cli

    monkeypatch.setattr(cli, "_SIDECAR_BLOCK_BYTES", 48)  # two rows of three values
    sp = tmp_path / "src.vec"
    save_embeddings(random_table(9, 3, seed=1, prefix="s"), sp)
    cli._load_table(sp)
    sidecar = tmp_path / "src.vec.xlcache"
    good = sidecar.read_bytes()
    key = cli._file_key(sp)
    words = ["s7", "s1", "s6"]  # the rows of blocks 0 and 3 of 5
    want = cli._read_sidecar(sidecar, key, words)
    assert list(want.vocab.tokens) == words
    matrix_at = len(good) - 8 * 9 * 3
    for i in range(len(good)):
        sidecar.write_bytes(good[:i] + bytes([good[i] ^ 1 << i % 8]) + good[i + 1:])
        assert cli._read_sidecar(sidecar, key) is None, f"flip in byte {i}"
        got = cli._read_sidecar(sidecar, key, words)
        if i >= matrix_at and (i - matrix_at) // 48 in (1, 2, 4):
            assert got.vocab.tokens == want.vocab.tokens, f"flip in byte {i}"
            assert got.matrix.tobytes() == want.matrix.tobytes(), f"flip in byte {i}"
        else:
            assert got is None, f"flip in byte {i}"


def test_the_sidecar_stores_the_row_norms_bitwise(tmp_path):
    from xlingmap.cli import _file_key, _load_table, _read_sidecar
    from xlingmap.layers import _row_norms

    sp = tmp_path / "src.vec"
    save_embeddings(random_table(600, 40, seed=1, prefix="s"), sp)
    _load_table(sp)
    sidecar = tmp_path / "src.vec.xlcache"
    want = _row_norms(load_embeddings(sp).matrix)
    # the norms lie just before the matrix, at the end of the file
    data = sidecar.read_bytes()
    norms_at = len(data) - 8 * 600 * 40 - 8 * 600
    assert np.frombuffer(data, "<f8", 600, norms_at).tobytes() == want.tobytes()
    key = _file_key(sp)
    assert _read_sidecar(sidecar, key).row_norms().tobytes() == want.tobytes()
    partial = _read_sidecar(sidecar, key, ["s450", "s5"])
    assert partial.row_norms().tobytes() == want[[450, 5]].tobytes()


def test_a_whole_read_maps_the_sidecar_in_place(tmp_path):
    import mmap

    from xlingmap.cli import _load_table

    sp = tmp_path / "src.vec"
    save_embeddings(random_table(600, 40, seed=1, prefix="s"), sp)
    _load_table(sp)
    table = _load_table(sp)
    for array in (table.matrix, table.row_norms()):
        assert not array.flags.writeable and array.flags.c_contiguous
        assert array.ctypes.data % 64 == 0
        # the array is a view of the mapped file, not a copy of it
        base = array
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(getattr(base, "obj", base), mmap.mmap)  # maybe in a memoryview


def test_a_mapped_table_outlives_the_replacement_of_its_sidecar(tmp_path, capsys,
                                                                 sidecar_checkpoint):
    from xlingmap.cli import _load_table

    sp, _, _, _ = write_tables(tmp_path)
    age(sp)
    _load_table(sp)
    table = _load_table(sp)
    matrix, norms = table.matrix.copy(), table.row_norms().copy()
    sidecar = tmp_path / "src.vec.xlcache"
    before = os.stat(sidecar).st_ino
    # another command parses the rewritten file and replaces the sidecar
    save_embeddings(random_table(30, 6, seed=9, prefix="s"), sp)
    assert main(["map", "--checkpoint", sidecar_checkpoint, "--src", str(sp),
                 "--out", str(tmp_path / "mapped.vec")]) == 0
    assert os.stat(sidecar).st_ino != before
    assert _load_table(sp).matrix.tobytes() != matrix.tobytes()
    assert table.matrix.tobytes() == matrix.tobytes()
    assert table.row_norms().tobytes() == norms.tobytes()
