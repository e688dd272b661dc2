"""Per-layer metrics derived from a traced run's spans.

Training metrics are per step: totals over the spans inside
``Trainer.step`` divided by the number of steps. CLI metrics are per pass,
one call each of ``eval``, ``nn`` and ``map``: for each command, the total
over the spans under the benchmark's ``bench.cli.<command>`` regions
divided by the number of its calls, summed over the commands. Times marked
"self" exclude the time of traced child spans.
"""
from __future__ import annotations

import os

from tracer import SpanTree, Tracer
from workloads import BATCH, DICT_ENTRIES

STEP = "training.Trainer.step"
CLI_ROOTS = ("bench.cli.eval", "bench.cli.nn", "bench.cli.map")
DISC = {"models.Discriminator.forward", "models.Discriminator.backward"}
ADAM = {"optim.Adam.step", "optim.Adam.zero_grad"}
ENCODER = {"models.EncoderDecoder.encode", "models.EncoderDecoder.encode_backward",
           "models.EncoderDecoder.decode", "models.EncoderDecoder.decode_backward"}
LOSSES = {f"layers.{f}" for f in (
    "cosine_dissim_loss", "cosine_dissim_grads", "adversarial_loss",
    "adversarial_loss_grad", "bce_loss", "bce_loss_grads", "bce_grad_positive",
    "bce_grad_negative", "combined_encoder_loss")}

# name -> unit, in the order BENCHMARK.json lists them.
UNITS = {
    "models.disc.gen_pass_ms": "ms",
    "models.disc.update_ms": "ms",
    "layers.resblock.forward_ms": "ms",
    "layers.resblock.backward_ms": "ms",
    "layers.batchnorm.forward_ms": "ms",
    "layers.batchnorm.backward_ms": "ms",
    "layers.dropout.forward_ms": "ms",
    "numerics.rng.uniform_ms": "ms",
    "models.disc.forward_calls_per_step": "count",
    "models.disc.rows_per_step": "count",
    "numerics.rng.draws_per_step": "count",
    "layers.resblock.gemm_flops_per_step": "computed_flop",
    "sampling.sample_batch_ms": "ms",
    "optim.adam.gen_ms": "ms",
    "optim.adam.disc_ms": "ms",
    "models.encoder_ms": "ms",
    "layers.loss_ms": "ms",
    "evaluation.collapse_ms": "ms",
    "training.step_self_ms": "ms",
    "training.evaluate_ms": "ms",
    "training.checkpoint_write_ms": "ms",
    "training.checkpoint_bytes": "bytes",
    "evaluation.precision_at_k_ms": "ms",
    "evaluation.knn_ms": "ms",
    "evaluation.knn_calls": "count",
    "evaluation.rankings_per_entry": "count",
    "cli.self_ms": "ms",
    "embed_io.load_ms": "ms",
    "embed_io.load_mb_per_s": "MB/s",
    "embed_io.save_ms": "ms",
    "embed_io.save_mb_per_s": "MB/s",
    "embed_io.loads_per_run": "count",
    "models.map_rows_ms": "ms",
    "training.checkpoint_read_ms": "ms",
}

# Metrics that must repeat exactly for one seed.
COUNTS = [name for name, unit in UNITS.items() if unit not in ("ms", "MB/s")]


def _file_mb(tree: SpanTree, idx) -> float:
    return sum(os.path.getsize(tree.attrs[i]["path"]) for i in idx) / 1e6


def compute(tracer: Tracer, checkpoint_bytes: int) -> dict:
    """Every per-layer metric of one traced run, as ``{name: value}``."""
    t = SpanTree(tracer, scope=STEP)
    steps = len(t.select({STEP}))

    def step_ms(names, self_time=False, **filters):
        return 1e3 * t.total(t.select(names, in_scope=True, **filters), self_time) / steps

    def mean_ms(name):
        idx = t.select({name}, roots={"bench.train"})
        return 1e3 * t.total(idx) / len(idx)

    fwd = t.select({"models.Discriminator.forward"}, in_scope=True)
    blocks_f = t.select({"layers.ResBlock.forward"}, in_scope=True)
    blocks_b = t.select({"layers.ResBlock.backward"}, in_scope=True)
    flops = sum(2 * a["rows"] * a["k"] ** 2 for a in (t.attrs[i] for i in blocks_f))
    flops += sum(4 * a["rows"] * a["k"] ** 2 for a in (t.attrs[i] for i in blocks_b))
    draws = t.select({"numerics.Rng.uniform", "numerics.Rng.normal"}, in_scope=True)

    calls = {root: len(t.select({root})) for root in CLI_ROOTS}

    def per_pass(names, roots=CLI_ROOTS, self_time=False, count=False):
        """Per-call total (or count) under each command, summed over them."""
        out = 0.0
        for root in roots:
            idx = t.select(names, roots={root})
            out += (len(idx) if count else t.total(idx, self_time)) / calls[root]
        return out

    ev = ("bench.cli.eval",)
    knn_calls = per_pass({"evaluation.knn"}, ev, count=True)
    loads = t.select({"embed_io.load_embeddings"}, roots=CLI_ROOTS)
    saves = t.select({"embed_io.save_embeddings"}, roots=CLI_ROOTS)

    out = {
        "models.disc.gen_pass_ms": step_ms(DISC, parent=STEP, rows=BATCH),
        "models.disc.update_ms": step_ms(DISC, parent=STEP, rows=2 * BATCH),
        "layers.resblock.forward_ms": step_ms({"layers.ResBlock.forward"}, True),
        "layers.resblock.backward_ms": step_ms({"layers.ResBlock.backward"}, True),
        "layers.batchnorm.forward_ms": step_ms({"layers.BatchNorm.forward"}, True),
        "layers.batchnorm.backward_ms": step_ms({"layers.BatchNorm.backward"}, True),
        "layers.dropout.forward_ms": step_ms({"layers.Dropout.forward"}, True),
        "numerics.rng.uniform_ms": step_ms({"numerics.Rng.uniform"}, True),
        "models.disc.forward_calls_per_step": len(fwd) / steps,
        "models.disc.rows_per_step": t.attr_sum(fwd, "rows") / steps,
        "numerics.rng.draws_per_step": t.attr_sum(draws, "draws") / steps,
        "layers.resblock.gemm_flops_per_step": flops / steps,
        "sampling.sample_batch_ms": step_ms({"sampling.sample_batch"}),
        "optim.adam.gen_ms": step_ms(ADAM, role="gen"),
        "optim.adam.disc_ms": step_ms(ADAM, role="disc") + step_ms(ADAM, role="monitor"),
        "models.encoder_ms": step_ms(ENCODER),
        "layers.loss_ms": step_ms(LOSSES, True),
        "evaluation.collapse_ms": step_ms({"evaluation.collapse_metric"}),
        "training.step_self_ms": step_ms({STEP}, True),
        "training.evaluate_ms": mean_ms("training.Trainer.evaluate"),
        "training.checkpoint_write_ms": mean_ms("training.Trainer.save_checkpoint"),
        "training.checkpoint_bytes": checkpoint_bytes,
        "evaluation.precision_at_k_ms": 1e3 * per_pass({"evaluation.precision_at_k"}, ev),
        "evaluation.knn_ms": 1e3 * per_pass({"evaluation.knn"}, ev),
        "evaluation.knn_calls": knn_calls,
        "evaluation.rankings_per_entry": knn_calls / DICT_ENTRIES,
        "cli.self_ms": 1e3 * per_pass({"cli.main"}, ev, self_time=True),
        "embed_io.load_ms": 1e3 * per_pass({"embed_io.load_embeddings"}),
        "embed_io.load_mb_per_s": _file_mb(t, loads) / t.total(loads),
        "embed_io.save_ms": 1e3 * per_pass({"embed_io.save_embeddings"}),
        "embed_io.save_mb_per_s": _file_mb(t, saves) / t.total(saves),
        "embed_io.loads_per_run": per_pass({"embed_io.load_embeddings"}, count=True),
        "models.map_rows_ms": 1e3 * per_pass({"models.EncoderDecoder.map_rows"}),
        "training.checkpoint_read_ms": 1e3 * per_pass({"training.read_checkpoint"}),
    }
    if list(out) != list(UNITS):
        raise RuntimeError("per-layer metrics out of step with UNITS")
    return out
