import hashlib
import json
import math
import os
import re

import numpy as np
import pytest

from xlingmap import training
from xlingmap.cli import main
from xlingmap.embed_io import save_embeddings
from xlingmap.models import ModelConfig
from xlingmap.numerics import Rng
from xlingmap.optim import NonFiniteGradient
from xlingmap.sampling import SamplerConfig
from xlingmap.training import (
    CheckpointError,
    NonFiniteMetric,
    TrainConfig,
    Trainer,
    encoder_from_checkpoint,
    read_checkpoint,
    write_checkpoint,
)

from conftest import FixedRng, grad_check, random_table


def tiny_cfg(**over):
    base = dict(
        model=ModelConfig(dim=6, block_dim=4, depth=2),
        mode="aae",
        batch_size=8,
        max_steps=20,
        eval_every=10,
        checkpoint_every=10,
        seed=3,
    )
    base.update(over)
    return TrainConfig(**base)


@pytest.fixture(autouse=True)
def small_eval(monkeypatch):
    # the periodic evaluation draws 16 rows per side in these tests
    monkeypatch.setattr(training, "EVAL_SIZE", 16)


def metrics_tuple(m):
    d = dict(m)
    d.pop("wall_time")
    return tuple(sorted(d.items()))


def finite(m):
    return all(math.isfinite(v) for k, v in m.items() if k not in ("type", "step"))


@pytest.fixture
def tables():
    return random_table(30, 6, seed=1, prefix="s"), random_table(30, 6, seed=2, prefix="t")


def test_first_step_losses_are_ln2(tables):
    src, tgt = tables
    for mode in ("gan", "aae"):
        tr = Trainer(tiny_cfg(mode=mode), src, tgt)
        m = tr.step()
        assert abs(m["loss_adv"] - math.log(2)) < 1e-9
        assert abs(m["disc_bce"] - math.log(2)) < 1e-9
        assert abs(m["monitor_bce"] - math.log(2)) < 1e-9


def test_aae_first_step_lgr_zero_without_adv_terms(tables):
    src, tgt = tables
    tr = Trainer(tiny_cfg(lambda_a=0.0, lambda_c=0.0), src, tgt)
    m = tr.step()
    assert abs(m["loss_total"]) < 1e-9


def test_gan_ignores_reconstruction_weights(tables):
    src, tgt = tables
    runs = []
    # the adversarial weight too: gan follows the adversarial loss alone
    for lr_weight, la_weight, lc_weight in ((1.0, 1.0, 1.0), (17.0, 3.0, 0.25)):
        tr = Trainer(tiny_cfg(mode="gan", lambda_r=lr_weight, lambda_a=la_weight,
                              lambda_c=lc_weight), src, tgt)
        runs.append([metrics_tuple(tr.step()) for _ in range(5)])
    assert runs[0] == runs[1]


def test_aae_with_weights_0_1_0_is_gan(tables):
    # gan is aae with the weights (0, 1, 0): the same arrays, bit for bit, and
    # the same step records, the two skipped terms reading 0 in both
    src, tgt = tables
    runs = []
    for cfg in (tiny_cfg(mode="gan"), tiny_cfg(lambda_r=0.0, lambda_c=0.0)):
        tr = Trainer(cfg, src, tgt)
        runs.append(([metrics_tuple(tr.step()) for _ in range(20)], tr._state()))
    (gan_records, gan_state), (aae_records, aae_state) = runs
    assert aae_records == gan_records
    assert dict(gan_records[-1])["loss_recon"] == dict(gan_records[-1])["loss_cos"] == 0.0
    assert list(aae_state) == list(gan_state)
    for name, value in gan_state.items():
        assert aae_state[name].tobytes() == value.tobytes(), name


def test_fixed_seed_runs_bit_identical(tables):
    src, tgt = tables

    def run():
        tr = Trainer(tiny_cfg(), src, tgt)
        return [metrics_tuple(tr.step()) for _ in range(10)]

    assert run() == run()


def test_discriminator_update_leaves_encoder_untouched(tables):
    src, tgt = tables
    tr = Trainer(tiny_cfg(), src, tgt)
    tr.step()
    w_before = tr.encoder.weight.value.copy()
    d_before = [p.value.copy() for p in tr.d_train.params()]
    n = tr.cfg.batch_size
    from xlingmap.sampling import sample_batch

    f = sample_batch(tr.src_cum, src, n, tr.rngs["sample_src"])
    e = sample_batch(tr.tgt_cum, tgt, n, tr.rngs["sample_tgt"])
    # the joint pass only computes gradients; the discriminator's step
    # moves its own parameters alone
    training._joint_pass(tr.cfg, tr.encoder, tr.d_train, f, e, tr.rngs["dropout_train"])
    tr.opt_disc.step()
    assert np.array_equal(tr.encoder.weight.value, w_before)
    changed = any(
        not np.array_equal(p.value, b) for p, b in zip(tr.d_train.params(), d_before)
    )
    assert changed


def test_monitor_never_influences_generator(tables):
    src, tgt = tables
    tr1 = Trainer(tiny_cfg(seed=9), src, tgt)
    tr2 = Trainer(tiny_cfg(seed=9), src, tgt)
    # cripple the second run's monitor; generator metrics must not change
    for p in tr2.d_monitor.params():
        p.value[...] = 0.0
    for _ in range(5):
        m1 = tr1.step()
        m2 = tr2.step()
        assert m1["loss_total"] == m2["loss_total"]
        assert m1["loss_adv"] == m2["loss_adv"]
        assert m1["disc_bce"] == m2["disc_bce"]
        assert np.array_equal(tr1.encoder.weight.value, tr2.encoder.weight.value)


def test_pure_autoencoder_loss_nonincreasing_and_zero_from_orthogonal(tables):
    src, tgt = tables
    tr = Trainer(tiny_cfg(lambda_a=0.0, lambda_c=0.0, max_steps=200), src, tgt)
    losses = [tr.step()["loss_recon"] for _ in range(200)]
    # orthogonal init makes reconstruction exact at step 1; afterwards Adam's
    # eps-normalized updates amplify roundoff noise, so the loss hovers at the
    # optimizer noise floor instead of exactly 0
    assert losses[0] < 1e-9
    assert all(l < 1e-5 for l in losses)

    # break orthogonality: the loss trend over fresh random batches must be
    # downward (per-step values are batch-noisy, so compare windowed means)
    tr2 = Trainer(tiny_cfg(lambda_a=0.0, lambda_c=0.0, max_steps=200, seed=5), src, tgt)
    tr2.encoder.weight.value[...] += np.random.default_rng(0).normal(size=(6, 6)) * 0.4
    losses2 = [tr2.step()["loss_recon"] for _ in range(200)]
    assert np.mean(losses2[-50:]) < 0.7 * np.mean(losses2[:50])


def test_metrics_finite_over_many_steps(tables):
    src, tgt = tables
    for seed in range(3):
        tr = Trainer(tiny_cfg(seed=seed, max_steps=1000), src, tgt)
        for _ in range(100):
            m = tr.step()
            assert finite(m)


def test_aae_composite_gradient_via_trainer_math(tables):
    # d(loss_total)/dW of the generator pass Trainer.step calls, with the
    # training discriminator in the loop under a frozen dropout mask; each
    # zero weight skips its own term's path
    from xlingmap.training import _joint_pass

    src, tgt = tables
    for mode, (lr_weight, la_weight, lc_weight) in (
            ("aae", (0.7, 1.3, 0.4)), ("gan", (0.7, 1.3, 0.4)), ("aae", (0.0, 1.3, 0.4)),
            ("aae", (0.7, 0.0, 0.4)), ("aae", (0.7, 1.3, 0.0))):
        cfg = tiny_cfg(mode=mode, lambda_r=lr_weight, lambda_a=la_weight, lambda_c=lc_weight)
        tr = Trainer(cfg, src, tgt)
        n, k = cfg.batch_size, cfg.model.block_dim
        data = Rng(1)
        f = data.normal((n, 6))
        e = data.normal((n, 6))
        tr.d_train.output.value[...] = data.normal((k, 1)) * 0.5
        tr.d_train.output_bias.value[...] = 0.1
        mask = FixedRng(data.uniform((2 * n, k)))

        def run(vec):
            tr.encoder.weight.value[...] = vec.reshape(6, 6)
            return _joint_pass(cfg, tr.encoder, tr.d_train, f, e, mask)

        w0 = tr.encoder.weight.value.ravel().copy()
        assert grad_check(lambda v: run(v)[1]["loss_total"],
                          lambda v: run(v)[3].ravel(), w0, eps=1e-5) < 1e-4, cfg.weights


def test_checkpoint_save_load_save_byte_identical(tables, tmp_path):
    src, tgt = tables
    tr = Trainer(tiny_cfg(), src, tgt)
    for _ in range(7):
        tr.step()
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    tr.save_checkpoint(p1)
    Trainer.resume(p1, src, tgt).save_checkpoint(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_detects_tampering(tables, tmp_path):
    src, tgt = tables
    tr = Trainer(tiny_cfg(), src, tgt)
    tr.step()
    path = tmp_path / "c.ckpt"
    tr.save_checkpoint(path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="digest"):
        read_checkpoint(path)


def test_checkpoint_detects_truncation(tables, tmp_path):
    src, tgt = tables
    tr = Trainer(tiny_cfg(), src, tgt)
    path = tmp_path / "t.ckpt"
    tr.save_checkpoint(path)
    path.write_bytes(path.read_bytes()[:50])
    with pytest.raises(CheckpointError):
        read_checkpoint(path)


def test_checkpoint_rejects_version_mismatch(tmp_path):
    path = tmp_path / "v.ckpt"
    write_checkpoint(path, {"config": {}, "step": 0}, {"x": np.ones((2, 2))})
    blob = path.read_bytes()
    # rewrite with a bumped version by hand
    import hashlib
    import struct

    import xlingmap.training as t

    header = {"config": {}, "step": 0, "format_version": 99, "arrays": []}
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    payload = t.CHECKPOINT_MAGIC + struct.pack("<Q", len(hjson)) + hjson
    path.write_bytes(payload + hashlib.sha256(payload).digest())
    with pytest.raises(CheckpointError, match="version"):
        read_checkpoint(path)


def test_checkpoint_reader_errors_and_arrays(tmp_path):
    # the arrays come back equal, writeable and with memory of their own;
    # each parse error keeps its message, reached with a valid digest
    arrays = {"w": np.arange(6.0).reshape(2, 3), "s": np.array([2.5]),
              "e": np.zeros((0, 4))}
    path = tmp_path / "c.ckpt"
    write_checkpoint(path, {"step": 3}, arrays)
    header, back = read_checkpoint(path)
    assert header["step"] == 3 and list(back) == list(arrays)
    for name, want in arrays.items():
        got = back[name]
        assert got.shape == want.shape and np.array_equal(got, want)
        assert got.dtype == np.float64 and got.flags.owndata and got.flags.writeable
    # with names, only those arrays are decoded
    header, back = read_checkpoint(path, {"s", "absent"})
    assert header["step"] == 3 and list(back) == ["s"]
    assert np.array_equal(back["s"], arrays["s"]) and back["s"].flags.owndata
    payload = path.read_bytes()[:-32]
    for body, message in [(payload[:-8], "truncated checkpoint"),
                          (payload[:12], "truncated checkpoint"),
                          (payload + b"\0", "trailing bytes after arrays"),
                          (b"XLAAE002" + payload[8:], "bad magic bytes")]:
        path.write_bytes(body + hashlib.sha256(body).digest())
        for names in (None, {"w"}):
            with pytest.raises(CheckpointError, match=f": {message}$"):
                read_checkpoint(path, names)


def test_encoder_read_detects_damage_in_other_arrays(tables, tmp_path):
    # encoder_from_checkpoint decodes only the encoder weight, but the digest
    # still covers every array
    src, tgt = tables
    path = tmp_path / "e.ckpt"
    Trainer(tiny_cfg(), src, tgt).save_checkpoint(path)
    header, arrays = read_checkpoint(path)
    last = arrays[header["arrays"][-1]]
    assert header["arrays"][0] == "encoder.weight" and last.size
    blob = bytearray(path.read_bytes())
    blob[-32 - last.nbytes // 2] ^= 0x10  # inside the last array's values
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="digest"):
        encoder_from_checkpoint(path)


def test_resume_matches_uninterrupted_run(tables, tmp_path):
    src, tgt = tables
    cfg = tiny_cfg(max_steps=40, eval_every=10)

    tr_full = Trainer(cfg, src, tgt)
    full = []
    for i in range(40):
        full.append(metrics_tuple(tr_full.step()))
        if tr_full.step_count % 10 == 0:
            full.append(tuple(sorted(tr_full.evaluate().items())))

    tr_a = Trainer(cfg, src, tgt)
    part = []
    for i in range(20):
        part.append(metrics_tuple(tr_a.step()))
        if tr_a.step_count % 10 == 0:
            part.append(tuple(sorted(tr_a.evaluate().items())))
    ckpt = tmp_path / "mid.ckpt"
    tr_a.save_checkpoint(ckpt)

    tr_b = Trainer.resume(ckpt, src, tgt)
    assert tr_b.step_count == 20
    for i in range(20):
        part.append(metrics_tuple(tr_b.step()))
        if tr_b.step_count % 10 == 0:
            part.append(tuple(sorted(tr_b.evaluate().items())))

    assert part == full


def test_run_writes_metrics_and_checkpoints(tables, tmp_path):
    src, tgt = tables
    cfg = tiny_cfg(max_steps=10, eval_every=5, checkpoint_every=5)
    tr = Trainer(cfg, src, tgt)
    final = tr.run(out_dir=tmp_path)
    assert final == tmp_path / "checkpoint_final.xlaae"
    assert final.exists()
    assert (tmp_path / "checkpoint_00000005.xlaae").exists()
    records = [json.loads(l) for l in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    steps = [r for r in records if r["type"] == "step"]
    evals = [r for r in records if r["type"] == "eval"]
    assert len(steps) == 10
    assert [r["step"] for r in evals] == [5, 10]
    assert all(np.isfinite(r["loss_total"]) for r in steps)


def test_run_max_steps_one(tables, tmp_path):
    src, tgt = tables
    tr = Trainer(tiny_cfg(max_steps=1, eval_every=5, checkpoint_every=5), src, tgt)
    tr.run(out_dir=tmp_path)
    records = [json.loads(l) for l in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert len([r for r in records if r["type"] == "step"]) == 1


def test_non_finite_metric_halts_with_diagnostic(tables, tmp_path):
    src, tgt = tables
    tr = Trainer(tiny_cfg(max_steps=50), src, tgt)
    tr.step()
    tr.encoder.weight.value[...] = np.nan
    with pytest.raises(NonFiniteGradient):
        tr.run(out_dir=tmp_path)
    assert (tmp_path / "checkpoint_diagnostic.xlaae").exists()


def test_a_row_mapped_to_zero_is_a_numeric_failure(tables, tmp_path):
    # the cosine terms check no batch: a W that maps a row to zero gives a
    # NaN reconstruction gradient, which halts the run like any numeric failure
    src, tgt = tables
    tr = Trainer(tiny_cfg(max_steps=5, lambda_a=0.0, lambda_c=0.0), src, tgt)
    tr.encoder.weight.value[...] = 0.0
    with pytest.raises(NonFiniteGradient, match="encoder.weight"):
        tr.run(out_dir=tmp_path)
    records = [json.loads(l) for l in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert records[-1]["type"] == "error"
    assert read_checkpoint(tmp_path / "checkpoint_diagnostic.xlaae")[0]["step"] == 0
    assert not (tmp_path / "checkpoint_final.xlaae").exists()


def test_non_finite_step_record_halts_with_diagnostic(tables, tmp_path, monkeypatch):
    # every gradient is finite; only the step record's own check can stop it
    src, tgt = tables
    monkeypatch.setattr(training, "collapse_metric", lambda rows: (math.nan, 1.0))
    tr = Trainer(tiny_cfg(max_steps=50), src, tgt)
    with pytest.raises(NonFiniteMetric) as err:
        tr.run(out_dir=tmp_path)
    assert err.value.step == 1
    assert "'collapse_cos': nan" in str(err.value)
    records = [json.loads(l) for l in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert records == [{"type": "error", "step": 1, "message": str(err.value)}]
    assert read_checkpoint(tmp_path / "checkpoint_diagnostic.xlaae")[0]["step"] == 1
    assert not (tmp_path / "checkpoint_final.xlaae").exists()


def test_trainer_validates_dimensions(tables):
    src, tgt = tables
    bad = tiny_cfg(model=ModelConfig(dim=9, block_dim=4, depth=2))
    with pytest.raises(ValueError, match="dim"):
        Trainer(bad, src, tgt)


def test_frequency_tables_feed_sampler(tables):
    src, tgt = tables
    tr = Trainer(tiny_cfg(), src, tgt, src_freq=np.full(len(src.vocab), 5))
    m = tr.step()
    assert finite(m)


def test_encoder_and_monitor_rebuild_from_checkpoint(tables, tmp_path):
    src, tgt = tables
    tr = Trainer(tiny_cfg(), src, tgt)
    for _ in range(3):
        tr.step()
    path = tmp_path / "r.ckpt"
    tr.save_checkpoint(path)

    assert np.array_equal(encoder_from_checkpoint(path), tr.encoder.weight.value)
    assert read_checkpoint(path)[0]["step"] == 3

    # the monitor, running statistics included, scores like the original
    mon = Trainer.resume(path, src, tgt).d_monitor
    x = np.random.default_rng(0).normal(size=(4, 6))
    assert np.array_equal(mon.forward(x, training=False),
                          tr.d_monitor.forward(x, training=False))


def test_checkpoint_array_layout(tables, tmp_path):
    # names and order of the arrays fix the XLAAE001 layout
    src, tgt = tables
    cfg = tiny_cfg(model=ModelConfig(dim=6, block_dim=4, depth=1))
    path = tmp_path / "layout.ckpt"
    Trainer(cfg, src, tgt).save_checkpoint(path)
    header, arrays = read_checkpoint(path)
    disc = [f"{d}.{a}" for d in ("disc_train", "disc_monitor") for a in (
        "input.weight", "block0.weight", "block0.bn.gamma", "block0.bn.beta",
        "output.weight", "output.bias")]
    params = ["encoder.weight"] + disc
    norms = [f"{d}.block0.bn.{s}" for d in ("disc_train", "disc_monitor")
             for s in ("running_mean", "running_var")]
    adam = [f"adam.{label}.{m}.{name}" for label, names in (
        ("gen", params[:1]), ("disc", disc[:6]), ("monitor", disc[6:]))
        for m in ("m", "v") for name in names]
    assert header["arrays"] == params + norms + adam
    assert list(arrays) == header["arrays"]


def _rewrite_header(path, config_fields=(), **model_fields):
    header, arrays = read_checkpoint(path)
    for key in ("format_version", "arrays"):
        del header[key]
    header["config"].update(config_fields)
    header["config"]["model"].update(model_fields)
    write_checkpoint(path, header, arrays)


def test_checkpoint_with_encoder_bias_true_rejected(tables, tmp_path):
    # checkpoints that carry the setting predate the step scheme, so False
    # no longer resumes either
    src, tgt = tables
    path = tmp_path / "biased.ckpt"
    for value in (True, False):
        Trainer(tiny_cfg(), src, tgt).save_checkpoint(path)
        _rewrite_header(path, encoder_bias=value)
        with pytest.raises(CheckpointError, match="encoder_bias"):
            Trainer.resume(path, src, tgt)


def test_checkpoint_with_other_fixed_setting_rejected(tables, tmp_path):
    src, tgt = tables
    path = tmp_path / "other.ckpt"
    for key, config_fields, model_fields in (("eval_size", {"eval_size": 128}, {}),
                                             ("bn_eps", (), {"bn_eps": 1e-3}),
                                             ("bn_momentum", (), {"bn_momentum": 0.2})):
        Trainer(tiny_cfg(), src, tgt).save_checkpoint(path)
        _rewrite_header(path, config_fields, **model_fields)
        with pytest.raises(CheckpointError, match=f"unexpected keyword argument '{key}'"):
            Trainer.resume(path, src, tgt)


def _drop(arrays, name):
    del arrays[name]


def _first_entry(arrays, name):
    arrays[name] = arrays[name][:1]


def _flatten(arrays, name):
    arrays[name] = arrays[name].ravel()


@pytest.mark.parametrize("name, damage", [
    ("disc_train.block1.weight", _drop),
    ("disc_monitor.block0.bn.running_var", _drop),
    ("adam.disc.m.disc_train.output.bias", _drop),
    ("disc_train.block0.bn.running_mean", _first_entry),
    ("adam.gen.v.encoder.weight", _flatten),
])
def test_resume_rejects_missing_or_misshaped_array(tables, tmp_path, capsys, name, damage):
    src, tgt = tables
    tr = Trainer(tiny_cfg(), src, tgt)
    tr.step()
    path = tmp_path / "damaged.ckpt"
    tr.save_checkpoint(path)
    header, arrays = read_checkpoint(path)
    for key in ("format_version", "arrays"):
        del header[key]
    damage(arrays, name)
    write_checkpoint(path, header, arrays)
    with pytest.raises(CheckpointError, match=re.escape(repr(name))):
        Trainer.resume(path, src, tgt)

    sp, tp = tmp_path / "src.vec", tmp_path / "tgt.vec"
    save_embeddings(src, sp)
    save_embeddings(tgt, tp)
    out = tmp_path / "resumed"
    assert main(["resume", "--checkpoint", str(path), "--src", str(sp),
                 "--tgt", str(tp), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(name) in err
    assert not out.exists()


def _without(*path):
    def damage(header):
        section = header
        for key in path[:-1]:
            section = section[key]
        del section[path[-1]]
    return damage


def _scheme(value):
    def damage(header):
        header["step_scheme"] = value
    return damage


@pytest.mark.parametrize("damage, message", [
    (_without("adam_steps"), "missing 'adam_steps'"),
    (_without("adam_steps", "monitor"), "missing 'adam_steps.monitor'"),
    (_without("rng", "streams"), "missing 'rng.streams'"),
    (_without("rng", "streams", "dropout_train"), "missing 'rng.streams.dropout_train'"),
    (_without("step"), "missing 'step'"),
    (_without("config", "model"), "missing 'config.model'"),
    (_without("config", "sampler"), "missing 'config.sampler'"),
    (_without("config"), "missing 'config'"),
    (_without("step_scheme"), "step scheme None"),
    (_scheme("separate-generator-pass/v0"), "step scheme 'separate-generator-pass/v0'"),
])
def test_resume_rejects_incomplete_or_foreign_header(tables, tmp_path, capsys, damage,
                                                     message):
    src, tgt = tables
    tr = Trainer(tiny_cfg(), src, tgt)
    tr.step()
    path = tmp_path / "damaged.ckpt"
    tr.save_checkpoint(path)
    header, arrays = read_checkpoint(path)
    for key in ("format_version", "arrays"):
        del header[key]
    damage(header)
    write_checkpoint(path, header, arrays)
    with pytest.raises(CheckpointError, match=re.escape(message)):
        Trainer.resume(path, src, tgt)

    sp, tp = tmp_path / "src.vec", tmp_path / "tgt.vec"
    save_embeddings(src, sp)
    save_embeddings(tgt, tp)
    out = tmp_path / "resumed"
    assert main(["resume", "--checkpoint", str(path), "--src", str(sp),
                 "--tgt", str(tp), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_commands_read_checkpoint_of_older_step_scheme(tables, tmp_path, capsys):
    # resume refuses a checkpoint without the current step scheme, but the
    # encoder it holds still maps
    src, tgt = tables
    tr = Trainer(tiny_cfg(), src, tgt)
    tr.step()
    path = tmp_path / "old.ckpt"
    tr.save_checkpoint(path)
    header, arrays = read_checkpoint(path)
    for key in ("format_version", "arrays", "step_scheme"):
        del header[key]
    write_checkpoint(path, header, arrays)
    sp, tp = tmp_path / "src.vec", tmp_path / "tgt.vec"
    save_embeddings(src, sp)
    save_embeddings(tgt, tp)
    assert np.array_equal(encoder_from_checkpoint(path), tr.encoder.weight.value)
    assert main(["map", "--checkpoint", str(path), "--src", str(sp),
                 "--out", str(tmp_path / "mapped.vec")]) == 0
    assert main(["nn", "--checkpoint", str(path), "--src", str(sp), "--tgt", str(tp),
                 "--words", src.vocab.tokens[0], "--k", "2"]) == 0


def test_checkpoint_write_failure_keeps_previous(tables, tmp_path, monkeypatch):
    src, tgt = tables
    tr = Trainer(tiny_cfg(), src, tgt)
    path = tmp_path / "c.ckpt"
    tr.save_checkpoint(path)
    previous = path.read_bytes()
    tr.step()

    def failing_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk full"):
        tr.save_checkpoint(path)
    assert read_checkpoint(path)[0]["step"] == 0
    assert path.read_bytes() == previous
    assert [p.name for p in tmp_path.iterdir()] == ["c.ckpt"]


def test_config_round_trip():
    cfg = tiny_cfg(sampler=SamplerConfig(subsample_threshold=1e-4, formula="paper"))
    back = TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back == cfg


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_cfg(mode="other")
    with pytest.raises(ValueError):
        tiny_cfg(batch_size=1)
    with pytest.raises(ValueError):
        tiny_cfg(lambda_r=-0.5)
    with pytest.raises(ValueError):
        tiny_cfg(max_steps=0)


def _drift_from_truth(mode, seed, steps, batch_size, block_dim):
    """Train from the true map Q on noise-free synthetic data without the
    cosine penalty; returns |W - Q| / |Q| and the monitor's held-out
    accuracy at the end."""
    from xlingmap.evaluation import SyntheticSpec, synth_generate

    d = synth_generate(SyntheticSpec(dim=16, noise_sigma=0.0, seed=seed))
    cfg = TrainConfig(model=ModelConfig(dim=16, block_dim=block_dim, depth=4), mode=mode,
                      lambda_c=0.0, batch_size=batch_size, max_steps=steps, seed=seed)
    tr = Trainer(cfg, d.src, d.tgt, d.src_freq, d.tgt_freq)
    tr.encoder.weight.value[...] = d.map_matrix
    for _ in range(steps):
        tr.step()
    drift = np.linalg.norm(tr.encoder.weight.value - d.map_matrix) / np.linalg.norm(
        d.map_matrix)
    return drift, tr.evaluate()["monitor_accuracy"]


# Started at Q, the generator must stay there: both players read one forward
# of the joint batch, so Q is a fixed point in expectation. Over seeds 1-5,
# 300 aae steps (n = 64, k = 16) drifted 0.056-0.080 with monitor accuracy
# 0.51-0.59; a separate generator-only forward drifted 0.14-0.42 with 0.64-0.92.
def test_training_started_at_true_map_stays_there(monkeypatch):
    monkeypatch.setattr(training, "EVAL_SIZE", 256)
    drift, accuracy = _drift_from_truth("aae", 1, 300, 64, 16)
    assert drift < 0.1
    assert accuracy <= 0.7


# Seeds 1-5, 1,500 steps at n = 256, k = 40: aae drifted 0.041-0.048 with
# monitor accuracy 0.49-0.55, gan 0.067-0.081 with 0.52-0.62.
@pytest.mark.slow
@pytest.mark.parametrize("mode", ["aae", "gan"])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_training_started_at_true_map_stays_there_across_seeds(monkeypatch, mode, seed):
    monkeypatch.setattr(training, "EVAL_SIZE", 256)
    drift, accuracy = _drift_from_truth(mode, seed, 1500, 256, 40)
    assert drift < 0.1
    assert accuracy <= 0.7
