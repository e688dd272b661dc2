"""Training loops for the two adversarial procedures, plus metrics logging
and bit-exact checkpointing.

``aae`` mode minimizes a weighted sum of reconstruction through the tied
decoder, the adversarial loss and a latent cosine penalty against target
samples; ``gan`` mode is its weights (0, 1, 0). In both modes the training
discriminator and a structurally identical monitoring discriminator are
updated on the same batches every step; the monitor never influences the
generator and exists purely as an over/underfitting probe.

Each record of the metrics log is a plain dict, built once: ``step``
returns the ``step`` record, ``evaluate`` the ``eval`` record, each checked
to hold finite values, and ``run`` writes them as it receives them, and an
``error`` record before it re-raises a numeric failure (the README's
"Metrics log" lists every field).

``TrainConfig`` and ``Trainer.__init__`` are the one gate for what training
reads, and the step code checks none of it again: a batch that still fails,
such as a row a singular W maps to zero, is a numeric failure. Checkpoints
capture the config (so resume repeats its ``normalize``), parameters,
batch-norm running statistics, optimizer moments, every RNG substream and
the step counter, so a restored run continues exactly the trajectory of an
uninterrupted one.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .embed_io import EmbeddingTable, normalize_rows
from .evaluation import collapse_metric, distribution_match_report, monitor_accuracy
from .layers import adversarial_loss, bce_loss, cosine_dissim_loss
from .models import Discriminator, EncoderDecoder, ModelConfig, build_models
from .numerics import RNG_ALGORITHM, Rng
from .optim import Adam, NonFiniteGradient
from .sampling import SamplerConfig, build_adjusted, sample_batch

CHECKPOINT_MAGIC = b"XLAAE001"
CHECKPOINT_VERSION = 1
# The training step a checkpoint continues (one joint-batch discriminator
# pass, 16-bit dropout masks); resume refuses any other trajectory.
STEP_SCHEME = "joint-batch/u16-dropout/v1"

TRAIN_MODES = ("gan", "aae")

# Source and target rows drawn for each periodic evaluation.
EVAL_SIZE = 256


class CheckpointError(ValueError):
    pass


def _field(header: dict, *keys: str):
    """``header[k0][k1]...``, or :class:`CheckpointError` naming the missing key."""
    value = header
    for i, key in enumerate(keys):
        if not isinstance(value, dict) or key not in value:
            raise CheckpointError(f"checkpoint header missing {'.'.join(keys[:i + 1])!r}")
        value = value[key]
    return value


class NonFiniteMetric(RuntimeError):
    def __init__(self, step: int, detail: str):
        super().__init__(f"non-finite metric at step {step}: {detail}")
        self.step = step


def _checked(record: dict) -> dict:
    """``record``; :class:`NonFiniteMetric` if a value other than its
    ``type`` and ``step`` is not finite."""
    if not all(math.isfinite(v) for k, v in record.items() if k not in ("type", "step")):
        raise NonFiniteMetric(record["step"], repr(record))
    return record


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    mode: str = "aae"
    lambda_r: float = 1.0
    lambda_a: float = 1.0
    lambda_c: float = 1.0
    batch_size: int = 256
    lr_gen: float = 0.001
    lr_disc: float = 0.01
    max_steps: int = 50000
    eval_every: int = 1000
    checkpoint_every: int = 10000
    seed: int = 0
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    normalize: bool = False  # unit-normalize both tables' rows first

    def __post_init__(self):
        if self.mode not in TRAIN_MODES:
            raise ValueError(f"mode must be one of {TRAIN_MODES}, got {self.mode!r}")
        # a comparison with NaN is false: each range check refuses NaN
        if not all(0.0 <= w < math.inf for w in (self.lambda_r, self.lambda_a,
                                                  self.lambda_c)):
            raise ValueError("loss weights must be finite and >= 0")
        if self.batch_size < 2:
            raise ValueError("batch size must be >= 2 (batch norm)")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.eval_every < 1 or self.checkpoint_every < 1:
            raise ValueError("eval/checkpoint intervals must be >= 1")
        if not (0.0 < self.lr_gen < math.inf and 0.0 < self.lr_disc < math.inf):
            raise ValueError("learning rates must be positive and finite")

    @property
    def weights(self) -> tuple:
        """(λr, λa, λc) of the generator's objective: (0, 1, 0) in ``gan``."""
        return (0.0, 1.0, 0.0) if self.mode == "gan" else (
            self.lambda_r, self.lambda_a, self.lambda_c)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        try:
            d["model"] = ModelConfig(**d["model"])
            d["sampler"] = SamplerConfig(**d["sampler"])
            return cls(**d)
        except TypeError as err:
            raise CheckpointError(f"checkpoint config: {err}") from None


def _joint_pass(cfg: TrainConfig, encoder: EncoderDecoder, disc: Discriminator,
                f: np.ndarray, e: np.ndarray, rng):
    """One training-mode forward of ``disc`` on the joint batch
    ``[e; f @ W]`` (target rows positive, mapped source rows negative) and
    one fused backward that serves both players: the BCE gradient lands in
    ``disc``'s ``Param.grad`` and the generator descends the same function,
    its adversarial loss read off the mapped rows.

    Batch norm normalizes the two classes together. Normalizing them
    separately hands the discriminator a degenerate shortcut (batch-level
    statistics differ between the classes even when individual rows
    overlap), which produces runaway discriminator wins and garbage
    generator gradients. The generator descends λr·``loss_recon`` +
    λa·``loss_adv`` + λc·``loss_cos`` under ``cfg.weights``; a term of weight
    0 is not computed and reads 0. Returns (the joint batch, loss values,
    disc BCE, encoder weight gradient).
    """
    lambda_r, lambda_a, lambda_c = cfg.weights
    n = e.shape[0]
    joint = np.vstack([e, encoder.encode(f)])
    e_hat = joint[n:]
    p = disc.forward(joint, rng)
    disc_bce, grad_bce = bce_loss(p[:n], p[n:])
    losses = dict.fromkeys(("loss_recon", "loss_adv", "loss_cos"), 0.0)
    channels = [grad_bce]
    if lambda_a:
        losses["loss_adv"], grad_adv = adversarial_loss(p[n:])
        channels.append(np.vstack([np.zeros_like(grad_adv), lambda_a * grad_adv]))
    grad_from_disc = disc.backward(np.stack(channels))
    terms = []  # each computed term, weighted, and its gradient w.r.t. e_hat
    if lambda_r:
        losses["loss_recon"], grad_recon = cosine_dissim_loss(f, encoder.decode(e_hat))
        grad_recon = lambda_r * grad_recon
        terms.append((lambda_r * losses["loss_recon"], grad_recon @ encoder.weight.value))
    if lambda_a:
        terms.append((lambda_a * losses["loss_adv"], grad_from_disc[n:]))
    if lambda_c:
        losses["loss_cos"], grad_from_cos = cosine_dissim_loss(e, e_hat)
        terms.append((lambda_c * losses["loss_cos"], lambda_c * grad_from_cos))
    # added in that order from the first term: a sum from 0 turns -0.0 into +0.0
    values, grads = zip(*terms) if terms else ((0.0,), (np.zeros_like(e_hat),))
    losses["loss_total"] = sum(values[1:], values[0])
    grad_w = f.T @ sum(grads[1:], grads[0])
    if lambda_r:  # the tied weight's second use, in the decoder
        grad_w = grad_recon.T @ e_hat + grad_w
    return joint, losses, disc_bce, grad_w


def _counts(counts, table: EmbeddingTable, side: str) -> np.ndarray:
    """``counts`` if it holds one non-negative integer count per row of
    ``table``, in table order; ones (uniform sampling) if it is ``None``;
    else a ``ValueError`` naming ``side``."""
    if counts is None:
        return np.ones(len(table.vocab), dtype=np.int64)
    counts = np.asarray(counts)
    if counts.shape != (len(table.vocab),):
        raise ValueError(f"{side} counts have shape {counts.shape}, not one per "
                         f"row of the {side} table ({len(table.vocab)})")
    if not np.issubdtype(counts.dtype, np.integer):
        raise ValueError(f"{side} counts are {counts.dtype}, not integers")
    if counts.min() < 0:
        row = int(np.argmin(counts >= 0))
        raise ValueError(f"negative {side} count {counts[row]} for "
                         f"{table.vocab.tokens[row]!r}")
    return counts


class Trainer:
    """Owns the models, optimizers, samplers and RNG substreams of one run."""

    STREAMS = ("sample_src", "sample_tgt", "dropout_train", "dropout_monitor", "eval")

    def __init__(self, cfg: TrainConfig, src: EmbeddingTable, tgt: EmbeddingTable,
                 src_freq=None, tgt_freq=None):
        if src.dim != cfg.model.dim or tgt.dim != cfg.model.dim:
            raise ValueError(
                f"embedding dims (src {src.dim}, tgt {tgt.dim}) do not match "
                f"model dim {cfg.model.dim}"
            )
        if cfg.normalize:
            src = normalize_rows(src, "the source table")
            tgt = normalize_rows(tgt, "the target table")
        lambda_r, _, lambda_c = cfg.weights  # a cosine is undefined on a zero row:
        if lambda_r or lambda_c:  # a zero source row maps to a zero row of e_hat
            src.row_norms("the source table")
        if lambda_c:
            tgt.row_norms("the target table")
        self.cfg = cfg
        self.src = src
        self.tgt = tgt
        self.src_cum = build_adjusted(_counts(src_freq, src, "source"), cfg.sampler)
        self.tgt_cum = build_adjusted(_counts(tgt_freq, tgt, "target"), cfg.sampler)

        root = Rng(cfg.seed)
        self.rngs = {name: root.substream(name) for name in self.STREAMS}
        self.encoder, self.d_train, self.d_monitor = build_models(
            cfg.model, root.substream("init")
        )
        self.opt_gen = Adam(self.encoder.params(), cfg.lr_gen)
        self.opt_disc = Adam(self.d_train.params(), cfg.lr_disc)
        self.opt_monitor = Adam(self.d_monitor.params(), cfg.lr_disc)
        self.step_count = 0

    # -- single training steps -------------------------------------------

    # numpy's floating-point warnings are silenced: what overflows shows as
    # NonFiniteGradient from Adam, or as NonFiniteMetric from the record
    @np.errstate(all="ignore")
    def step(self) -> dict:
        """Both players from one joint-batch pass, then the monitor. Returns
        the step record; raises :class:`NonFiniteMetric` unless every value
        but its ``type`` and ``step`` is finite."""
        t0 = time.perf_counter()
        n = self.cfg.batch_size
        f = sample_batch(self.src_cum, self.src, n, self.rngs["sample_src"])
        e = sample_batch(self.tgt_cum, self.tgt, n, self.rngs["sample_tgt"])
        joint, losses, disc_bce, grad_w = _joint_pass(
            self.cfg, self.encoder, self.d_train, f, e, self.rngs["dropout_train"]
        )
        collapse_cos, collapse_std = collapse_metric(joint[n:])
        self.encoder.weight.grad[...] = grad_w
        self.opt_gen.step()
        self.opt_disc.step()
        p = self.d_monitor.forward(joint, self.rngs["dropout_monitor"])
        monitor_bce, grad = bce_loss(p[:n], p[n:])
        self.d_monitor.backward(grad)
        self.opt_monitor.step()
        self.step_count += 1
        return _checked({
            "type": "step",
            "step": self.step_count,
            **losses,
            "disc_bce": disc_bce,
            "monitor_bce": monitor_bce,
            "monitor_acc": monitor_accuracy(p[:n], p[n:]),
            "collapse_cos": collapse_cos,
            "collapse_std": collapse_std,
            "wall_time": time.perf_counter() - t0,
        })

    # -- evaluation --------------------------------------------------------

    @np.errstate(all="ignore")
    def evaluate(self) -> dict:
        """Frozen-model evaluation on fresh draws from the eval substream.
        Returns the eval record, checked like the step record."""
        rng = self.rngs["eval"]
        f = sample_batch(self.src_cum, self.src, EVAL_SIZE, rng)
        e = sample_batch(self.tgt_cum, self.tgt, EVAL_SIZE, rng)
        return _checked({"type": "eval", "step": self.step_count,
                         **distribution_match_report(self.encoder.encode(f), e,
                                                     self.d_monitor)})

    # -- the outer loop ------------------------------------------------------

    def run(self, out_dir, on_record=None) -> Path:
        """Run to ``max_steps``, appending step records and periodic
        evaluation records to ``out_dir/metrics.jsonl`` and writing
        checkpoints there. Returns the final checkpoint path."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "metrics.jsonl", "a", encoding="utf-8") as metrics_fh:

            def emit(record: dict) -> None:
                metrics_fh.write(json.dumps(record, sort_keys=True) + "\n")
                if on_record is not None:
                    on_record(record)

            while self.step_count < self.cfg.max_steps:
                try:
                    emit(self.step())
                    if self.step_count % self.cfg.eval_every == 0:
                        emit(self.evaluate())
                        metrics_fh.flush()
                except (NonFiniteMetric, NonFiniteGradient) as err:
                    emit({"type": "error", "step": self.step_count, "message": str(err)})
                    metrics_fh.flush()
                    self.save_checkpoint(out / "checkpoint_diagnostic.xlaae")
                    raise
                s = self.step_count
                if s % self.cfg.checkpoint_every == 0:
                    self.save_checkpoint(out / f"checkpoint_{s:08d}.xlaae")
            final = out / "checkpoint_final.xlaae"
            self.save_checkpoint(final)
            return final

    # -- checkpointing -----------------------------------------------------

    def _optimizers(self):
        return (("gen", self.opt_gen), ("disc", self.opt_disc),
                ("monitor", self.opt_monitor))

    def _state(self) -> dict:
        """Every array a checkpoint holds, by name, in file order: the
        parameters, the batch-norm running statistics, then the Adam
        moments. The values are the live arrays the run updates in place."""
        state = {}
        for _, opt in self._optimizers():
            for p in opt.params:
                state[p.name] = p.value
        for disc in (self.d_train, self.d_monitor):
            for i, (mean, var) in enumerate(disc.running):
                state[f"{disc.name}.block{i}.bn.running_mean"] = mean
                state[f"{disc.name}.block{i}.bn.running_var"] = var
        for label, opt in self._optimizers():
            for moment, bufs in (("m", opt.m), ("v", opt.v)):
                for name, buf in bufs.items():
                    state[f"adam.{label}.{moment}.{name}"] = buf
        return state

    def save_checkpoint(self, path) -> None:
        header = {
            "config": self.cfg.to_dict(),
            "step_scheme": STEP_SCHEME,
            "step": self.step_count,
            "rng": {
                "algorithm": RNG_ALGORITHM,
                "seed": self.cfg.seed,
                "streams": {n: self.rngs[n].get_state() for n in self.STREAMS},
            },
            "adam_steps": {label: opt.t for label, opt in self._optimizers()},
        }
        write_checkpoint(path, header, self._state())

    @classmethod
    def resume(cls, path, src: EmbeddingTable, tgt: EmbeddingTable,
               src_freq=None, tgt_freq=None) -> "Trainer":
        """Rebuild a trainer from a checkpoint; continues bit-identically
        given the same embedding and frequency inputs. Only checkpoints of
        this ``STEP_SCHEME`` resume."""
        header, arrays = read_checkpoint(path)
        if header.get("step_scheme") != STEP_SCHEME:
            raise CheckpointError(
                f"{path}: step scheme {header.get('step_scheme')!r} is not "
                f"{STEP_SCHEME!r}; resume cannot continue it (map, nn and eval can)")
        for key in ("model", "sampler"):
            _field(header, "config", key)
        cfg = TrainConfig.from_dict(header["config"])
        trainer = cls(cfg, src, tgt, src_freq, tgt_freq)
        trainer._restore(header, arrays)
        return trainer

    def _restore(self, header: dict, arrays: dict) -> None:
        for name, live in self._state().items():
            if name not in arrays:
                raise CheckpointError(f"checkpoint missing array {name!r}")
            if arrays[name].shape != live.shape:
                raise CheckpointError(
                    f"shape mismatch for {name!r}: checkpoint "
                    f"{arrays[name].shape} vs model {live.shape}"
                )
            live[...] = arrays[name]
        for label, opt in self._optimizers():
            opt.t = int(_field(header, "adam_steps", label))
        for name in self.STREAMS:
            self.rngs[name].set_state(_field(header, "rng", "streams", name))
        self.step_count = int(_field(header, "step"))


# -- checkpoint container format -------------------------------------------
#
# magic "XLAAE001"
# u64le header_length, then UTF-8 JSON header (configs, step counter, rng
#   algorithm id and substream states, adam step counters, array directory)
# for each name in the directory, in order:
#   u64le name_length, name bytes, u32le ndim, ndim x u64le dims,
#   row-major IEEE-754 float64 little-endian payload
# sha256 digest (32 bytes) of everything before it


def write_checkpoint(path, header: dict, arrays: dict) -> None:
    names = list(arrays.keys())
    header = dict(header)
    header["format_version"] = CHECKPOINT_VERSION
    header["arrays"] = names
    chunks = [CHECKPOINT_MAGIC]
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    chunks.append(struct.pack("<Q", len(hjson)))
    chunks.append(hjson)
    for name in names:
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        nb = name.encode("utf-8")
        chunks.append(struct.pack("<Q", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<I", arr.ndim))
        for d in arr.shape:
            chunks.append(struct.pack("<Q", d))
        chunks.append(arr.tobytes(order="C"))
    payload = b"".join(chunks)
    digest = hashlib.sha256(payload).digest()
    # Write beside the target and rename over it, so a crash leaves either
    # the previous checkpoint or the complete new one at ``path``.
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.write(digest)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_checkpoint(path, names=None):
    """Parse and verify a checkpoint; returns (header, arrays), each array
    writeable and owning its memory. With ``names``, only the arrays of
    those names are decoded; the digest covers the whole file and every
    directory entry is still walked."""
    data = Path(path).read_bytes()
    end = len(data) - 32  # where the payload's SHA-256 digest begins
    if end < len(CHECKPOINT_MAGIC) + 8:
        raise CheckpointError(f"{path}: truncated checkpoint")
    if not data.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(f"{path}: bad magic bytes")
    if hashlib.sha256(memoryview(data)[:end]).digest() != data[end:]:
        raise CheckpointError(f"{path}: digest mismatch (corrupt checkpoint)")

    offset = len(CHECKPOINT_MAGIC)

    def take(size: int) -> int:
        """Where the next ``size`` bytes begin; ``offset`` moves past them."""
        nonlocal offset
        if offset + size > end:
            raise CheckpointError(f"{path}: truncated checkpoint")
        offset += size
        return offset - size

    (hlen,) = struct.unpack_from("<Q", data, take(8))
    try:
        header = json.loads(data[take(hlen):offset].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CheckpointError(f"{path}: unreadable header: {err}") from None
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: format version {header.get('format_version')!r} "
            f"unsupported (expected {CHECKPOINT_VERSION})"
        )
    arrays = {}
    for _ in header.get("arrays", []):
        (nlen,) = struct.unpack_from("<Q", data, take(8))
        name = data[take(nlen):offset].decode("utf-8")
        (ndim,) = struct.unpack_from("<I", data, take(4))
        dims = struct.unpack_from(f"<{ndim}Q", data, take(8 * ndim))
        count = math.prod(dims)
        at = take(8 * count)
        if names is None or name in names:
            arrays[name] = np.frombuffer(data, "<f8", count, at).reshape(
                dims).astype(np.float64)
    if offset != end:
        raise CheckpointError(f"{path}: trailing bytes after arrays")
    return header, arrays


def encoder_from_checkpoint(path) -> np.ndarray:
    """The mapping weight W (``encoder.weight``) of a checkpoint."""
    arrays = read_checkpoint(path, {"encoder.weight", "encoder.enc_bias"})[1]
    if "encoder.weight" not in arrays:
        raise CheckpointError(f"{path}: checkpoint has no encoder weight")
    if "encoder.enc_bias" in arrays:
        raise CheckpointError(f"{path}: encoder bias is not supported")
    return arrays["encoder.weight"]
