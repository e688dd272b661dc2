"""Command-line entry point.

Subcommands: ``train`` and ``resume`` drive the training loop, ``map``
transforms a whole embedding table through a trained mapping, ``nn`` prints
k-best target neighbors for query words, ``eval`` computes dictionary
precision@k, and ``synth`` generates a synthetic benchmark with known ground
truth. ``map``, ``nn`` and ``eval`` read the mapping from ``--checkpoint``: a
checkpoint if the file opens with its magic bytes, else a text matrix.
Flags named like config fields have no defaults or choices of their own: the
configs supply them, and ``--preset`` fills only a ``--k``/``--T`` left out.
Each command is one entry of ``_COMMANDS`` (help line, flag builder,
handler), and the parser is built for the invoked command only: its name,
help line and flags (every command's name and help line when an option
comes first, as in top-level help, or the command is unknown). Every command
reads its embedding tables through ``_load_table``: a table file parsed once
is read again from its binary sidecar ``<file>.xlcache``, mapped read-only,
for as long as the file is unchanged. The sidecar carries a checksum per
block of rows and the rows' norms; a whole table is the mapped sidecar
itself, and ``nn`` and ``eval`` check and copy only the blocks of the
``--src`` rows they rank: those of the query words, or of the dictionary's
source words.

Exit codes: 0 success, 1 usage or validation error, 2 numeric failure during
training. ``XLINGMAP_THREADS`` caps BLAS threads (default 1, keeping runs
bit-reproducible).
"""
from __future__ import annotations

import os

_threads = os.environ.get("XLINGMAP_THREADS", "1")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, _threads)

import argparse
import contextlib
import hashlib
import json
import mmap
import stat
import sys
import time
import zlib
from dataclasses import fields, replace
from itertools import compress, count
from pathlib import Path

import numpy as np

from . import __version__
from .embed_io import (
    EmbeddingTable,
    Vocabulary,
    load_embeddings,
    load_frequencies,
    load_matrix,
    save_embeddings,
    save_frequencies,
    save_matrix,
)
from .evaluation import (
    BilingualDictionary,
    SyntheticSpec,
    knn,
    precision_at_k,
    synth_generate,
)
from .models import ModelConfig, PRESETS
from .optim import NonFiniteGradient
from .sampling import SUBSAMPLE_FORMULAS, SamplerConfig
from .training import (
    CHECKPOINT_MAGIC,
    TRAIN_MODES,
    NonFiniteMetric,
    TrainConfig,
    Trainer,
    encoder_from_checkpoint,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _config(cls, args, **given):
    """Build the config dataclass ``cls`` from the flags named like its
    fields that were given (not ``None``); ``given`` supplies the fields no
    flag sets, and the dataclass every other default."""
    flags = {f.name: getattr(args, f.name) for f in fields(cls) if f.name not in given}
    return cls(**{name: v for name, v in flags.items() if v is not None}, **given)


# A sidecar is this line, then "dev ino size mtime_ns ctime_ns rows dim
# token_bytes crc32" (the table file's stat key, the sizes, and the crc32 of
# the bytes from the tokens to the matrix, 10 digits wide), then the tokens
# joined by "\n", one little-endian uint32 crc32 per block of matrix rows,
# zero bytes up to a multiple of 64, the row norms and the matrix as
# little-endian float64: aligned arrays over the read-only mapped file.
_SIDECAR_MAGIC = b"xlingmap table sidecar 3\n"
# Matrix bytes per checksummed block, rounded down to whole rows (at least
# one): a command checks only the blocks of the rows it uses.
_SIDECAR_BLOCK_BYTES = 1 << 16


def _file_key(path):
    """The stat key of ``path`` if it is a regular file, else ``None``."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    if not stat.S_ISREG(st.st_mode):
        return None
    return [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]


def _block_rows(dim: int) -> int:
    return max(1, _SIDECAR_BLOCK_BYTES // (8 * dim))


def _block_crcs(matrix, blocks) -> list:
    """The crc32 of each of the ``blocks`` (indices) of the C-contiguous
    ``matrix``: ``_block_rows`` whole rows each, the last maybe fewer."""
    view = memoryview(matrix).cast("B")
    size = 8 * matrix.shape[1] * _block_rows(matrix.shape[1])
    return [zlib.crc32(view[b * size:(b + 1) * size]) for b in blocks]


def _held(tokens, words):
    """The words of ``words`` that ``tokens`` holds, each at its first
    occurrence, and their indices in ``tokens``: only the words are indexed."""
    wanted = dict.fromkeys(words)
    index = {tokens[i]: i for i in compress(count(), map(wanted.__contains__, tokens))}
    held = [w for w in wanted if w in index]
    return held, [index[w] for w in held]


def _read_sidecar(sidecar: Path, key, words=None):
    """The table in ``sidecar`` if it was written under ``key``, is whole
    (the sizes and the crc32 of the bytes from the tokens to the matrix
    match) and passes the table checks; else ``None``. With ``words``, the table of those of them
    it holds, in first-occurrence order, or ``()`` if it holds none. The
    file is mapped read-only and checked in place, block by block against
    its crc32: a whole read checks every block and adopts the mapped matrix
    and norms, a partial read checks the blocks of its rows and copies
    those rows."""
    try:
        with open(sidecar, "rb") as fh:
            if fh.readline(len(_SIDECAR_MAGIC)) != _SIDECAR_MAGIC:
                return None
            *got, rows, dim, token_bytes, crc = map(int, fh.readline(256).split())
            if got != key or rows < 1 or dim < 1 or token_bytes < 1:
                return None
            start, blocks = fh.tell(), -(-rows // _block_rows(dim))
            norms_at = -(-(start + token_bytes + 4 * blocks) // 64) * 64
            base = norms_at + 8 * rows  # where the matrix begins
            if os.fstat(fh.fileno()).st_size != base + 8 * rows * dim:
                return None
            data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        if zlib.crc32(memoryview(data)[start:base]) != crc:
            return None
        tokens = data[start:start + token_bytes].decode().split("\n")
        if len(tokens) != rows:
            return None
        crcs = np.frombuffer(data, "<u4", blocks, start + token_bytes)
        norms = np.frombuffer(data, "<f8", rows, norms_at)
        matrix = np.frombuffer(data, "<f8", rows * dim, base).reshape(rows, dim)
        if words is None:
            held, picked, blocks = tokens, slice(None), range(blocks)
        else:
            held, picked = _held(tokens, words)
            if not held:
                return ()
            blocks = sorted({row // _block_rows(dim) for row in picked})
        if _block_crcs(matrix, blocks) != crcs[blocks].tolist():
            return None
        return EmbeddingTable(Vocabulary(held), matrix[picked], norms[picked])
    except (OSError, ValueError):
        return None


def _write_sidecar(sidecar: Path, key, table: EmbeddingTable) -> None:
    """Write ``table`` to ``sidecar`` under ``key`` through a temporary file
    moved into place. A sidecar only saves time, so a failed write leaves
    no file behind and is not an error."""
    tokens = "\n".join(table.vocab.tokens).encode()
    matrix = np.ascontiguousarray(table.matrix, dtype="<f8")
    blocks = range(-(-len(matrix) // _block_rows(table.dim)))
    body = tokens + np.array(_block_crcs(matrix, blocks), dtype="<u4").tobytes()
    head = _SIDECAR_MAGIC + " ".join(map(str, [*key, *matrix.shape, len(tokens)])).encode()
    norms = table.row_norms().astype("<f8").tobytes()
    # the header ends in the 12 bytes " %010d\n", so the padding is known first
    body += bytes(-(len(head) + 12 + len(body)) % 64) + norms
    tmp = sidecar.with_name(f"{sidecar.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(head + b" %010d\n" % zlib.crc32(body) + body)
            fh.write(matrix)
        os.replace(tmp, sidecar)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _load_table(path, words=None):
    """``load_embeddings(path)``, or with ``words``, the table of those of
    them that the file holds, in first-occurrence order (``None`` if it
    holds none). Read from the sidecar ``<path>.xlcache`` when that was
    written from the file as it is now. Otherwise the whole file is parsed,
    and if it is a regular file whose stat key did not change during the
    parse, its table goes to the sidecar. A file rewritten since gets a new
    key (size, mtime or ctime), as long as the filesystem's timestamps tell
    two writes apart."""
    path = Path(path)
    sidecar = path.with_name(path.name + ".xlcache")
    key = _file_key(path)
    table = _read_sidecar(sidecar, key, words) if key else None
    if table is None:
        table = load_embeddings(path)
        if key and _file_key(path) == key:
            _write_sidecar(sidecar, key, table)
        if words is not None:
            held, rows = _held(table.vocab.tokens, words)
            table = EmbeddingTable(Vocabulary(held), table.matrix[rows]) if held else ()
    return table or None


def _load_inputs(args, **tables):
    """The mapping weight W of ``--checkpoint`` (a checkpoint if the file opens
    with its magic bytes, else a text matrix), square, then the table of each
    flag in ``tables`` (``_load_table`` of its path and the words given), each
    of W's dimension."""
    with open(args.checkpoint, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
    load = encoder_from_checkpoint if magic == CHECKPOINT_MAGIC else load_matrix
    weight = load(args.checkpoint)
    if weight.ndim != 2 or weight.shape[0] != weight.shape[1]:
        raise UsageError(f"{args.checkpoint}: mapping weight has shape {weight.shape}, "
                         "not square")
    loaded = [_load_table(getattr(args, name), words) for name, words in tables.items()]
    for name, table in zip(tables, loaded):
        if table is not None and table.dim != len(weight):
            raise UsageError(f"dimension mismatch: --{name} has d={table.dim}, "
                             f"the mapping d={len(weight)}")
    return [weight, *loaded]


def _load_pair(args):
    src, tgt = _load_table(args.src), _load_table(args.tgt)
    return src, tgt, *(load_frequencies(path, table.vocab) if path else None
                       for path, table in ((args.src_freq, src), (args.tgt_freq, tgt)))


def _print_progress(record: dict) -> None:
    if record["type"] == "eval":
        print(
            f"step {record['step']}: collapse={record['collapse_cos']:.3f} "
            f"cov_err={record['cov_frobenius_error']:.3f} "
            f"monitor_acc={record['monitor_accuracy']:.3f}"
        )


def _run(trainer: Trainer, args, command: str) -> int:
    """The tail of ``train`` and ``resume``, once their tables are accepted:
    write ``manifest.json`` under ``--out``, run there, print the final line."""
    inputs = {k: getattr(args, k) for k in ("src", "tgt", "src_freq", "tgt_freq")
              if getattr(args, k)}
    manifest = {
        "command": command,
        "version": __version__,
        "seed": trainer.cfg.seed,
        "config": trainer.cfg.to_dict(),
        "inputs": {k: {"path": str(v), "sha256": _sha256_file(v)}
                   for k, v in inputs.items()},
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    final = trainer.run(out_dir=out, on_record=_print_progress)
    print(f"finished {trainer.step_count} steps; final checkpoint: {final}")
    return 0


def _run_flags(p) -> None:
    """The tables and output directory of ``train`` and ``resume``."""
    p.add_argument("--src", required=True, help="source embedding file")
    p.add_argument("--tgt", required=True, help="target embedding file")
    p.add_argument("--src-freq", help="source frequency TSV")
    p.add_argument("--tgt-freq", help="target frequency TSV")
    p.add_argument("--out", required=True, help="output directory")


def _train_flags(p) -> None:
    _run_flags(p)
    p.add_argument("--mode", choices=TRAIN_MODES)
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--k", type=int, dest="block_dim",
                   help="discriminator block width")
    p.add_argument("--T", type=int, dest="depth",
                   help="discriminator block count")
    p.add_argument("--n", type=int, dest="batch_size")
    p.add_argument("--lr-gen", type=float)
    p.add_argument("--lr-disc", type=float)
    p.add_argument("--lambda-r", type=float)
    p.add_argument("--lambda-a", type=float)
    p.add_argument("--lambda-c", type=float)
    p.add_argument("--max-steps", type=int)
    p.add_argument("--eval-every", type=int)
    p.add_argument("--checkpoint-every", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--subsample-threshold", type=float)
    p.add_argument("--subsample-formula", choices=SUBSAMPLE_FORMULAS,
                   dest="formula")
    p.add_argument("--dropout", type=float, dest="dropout_rate",
                   metavar="DROPOUT")
    p.add_argument("--leaky-slope", type=float)
    p.add_argument("--normalize", action="store_true",
                   help="unit-normalize embedding rows before training "
                        "(recorded in the checkpoint: resume repeats it)")


def _cmd_train(args) -> int:
    src, tgt, src_freq, tgt_freq = _load_pair(args)
    if args.preset:
        for name in ("block_dim", "depth"):  # a given --k or --T wins
            if getattr(args, name) is None:
                setattr(args, name, PRESETS[args.preset][name])
    cfg = _config(TrainConfig, args,
                  model=_config(ModelConfig, args, dim=src.dim),
                  sampler=_config(SamplerConfig, args))
    return _run(Trainer(cfg, src, tgt, src_freq, tgt_freq), args, "train")


def _resume_flags(p) -> None:
    _run_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--max-steps", type=int,
                   help="override the step budget stored in the checkpoint")


def _cmd_resume(args) -> int:
    src, tgt, src_freq, tgt_freq = _load_pair(args)
    trainer = Trainer.resume(args.checkpoint, src, tgt, src_freq, tgt_freq)
    if args.max_steps is not None:
        if args.max_steps <= trainer.step_count:
            raise UsageError(
                f"--max-steps {args.max_steps} not beyond checkpoint step "
                f"{trainer.step_count}"
            )
        trainer.cfg = replace(trainer.cfg, max_steps=args.max_steps)
    return _run(trainer, args, "resume")


def _mapping_flags(p, *tables) -> None:
    p.add_argument("--checkpoint", required=True,
                   help="checkpoint, or text matrix file of the mapping weight")
    for name in tables:
        p.add_argument(f"--{name}", required=True)


def _map_flags(p) -> None:
    _mapping_flags(p, "src")
    p.add_argument("--out", required=True, help="output embedding file")


# map, nn and eval silence numpy's floating-point warnings: rows that a
# mapping overflows fail a check (the table's, or knn's on the query rows),
# so that stderr holds only the error line
@np.errstate(all="ignore")
def _cmd_map(args) -> int:
    weight, src = _load_inputs(args, src=None)
    mapped = EmbeddingTable(src.vocab, src.matrix @ weight)
    save_embeddings(mapped, args.out)
    print(f"mapped {len(src.vocab)} embeddings -> {args.out}")
    return 0


def _nn_flags(p) -> None:
    _mapping_flags(p, "src", "tgt")
    p.add_argument("--words", required=True,
                   help="comma-separated source query words")
    p.add_argument("--k", type=int, default=10)


@np.errstate(all="ignore")
def _cmd_nn(args) -> int:
    words = [w for w in args.words.split(",") if w]
    if not words:
        raise UsageError("no query words given")
    # only the query words' rows of --src are read
    weight, src, tgt = _load_inputs(args, src=words, tgt=None)
    for word in words:
        if src is None or word not in src.vocab:
            print(f"warning: {word!r} not in source vocabulary", file=sys.stderr)
    if src is None:
        return 1
    # src holds each present word once, so each is mapped and ranked once
    rows, sims = knn(EmbeddingTable(src.vocab, src.matrix @ weight), tgt,
                     min(args.k, len(tgt.vocab)))
    for word in (w for w in words if w in src.vocab):
        i = src.vocab.index(word)
        for rank, (row, sim) in enumerate(zip(rows[i], sims[i]), start=1):
            print(f"{word}\t{rank}\t{tgt.vocab.tokens[row]}\t{sim:.6f}")
    return 0


def _eval_flags(p) -> None:
    _mapping_flags(p, "src", "tgt")
    p.add_argument("--dict", required=True, dest="dictionary")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", help="write the JSON report here as well")


@np.errstate(all="ignore")
def _cmd_eval(args) -> int:
    # only the dictionary's source words are ranked, so only their rows of
    # --src are read and mapped
    dictionary = BilingualDictionary.load(args.dictionary)
    weight, src, tgt = _load_inputs(args, src=dictionary.entries, tgt=None)
    if src is None:
        raise ValueError("no resolvable dictionary entries")
    text = json.dumps(precision_at_k(weight, src, tgt, dictionary, args.k), indent=2,
                      sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


def _synth_flags(p) -> None:
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--dim", type=int)
    p.add_argument("--source-size", type=int)
    p.add_argument("--target-size", type=int)
    p.add_argument("--components", type=int)
    p.add_argument("--means-scale", type=float)
    p.add_argument("--cov-scale", type=float)
    p.add_argument("--noise", type=float, dest="noise_sigma", metavar="NOISE")
    p.add_argument("--zipf", type=float, dest="zipf_exponent", metavar="ZIPF")
    p.add_argument("--seed", type=int)


def _cmd_synth(args) -> int:
    data = synth_generate(_config(SyntheticSpec, args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_embeddings(data.src, out / "src.vec")
    save_embeddings(data.tgt, out / "tgt.vec")
    save_frequencies(data.src.vocab, data.src_freq, out / "src.freq")
    save_frequencies(data.tgt.vocab, data.tgt_freq, out / "tgt.freq")
    data.truth.save(out / "truth.dict")
    save_matrix(data.map_matrix, out / "map.txt")
    print(f"wrote synthetic benchmark to {out}")
    return 0


# Each command's help line, the function adding its flags, and its handler.
_COMMANDS = {
    "train": ("train a mapping", _train_flags, _cmd_train),
    "resume": ("resume from a checkpoint", _resume_flags, _cmd_resume),
    "map": ("map a source table through a checkpoint", _map_flags, _cmd_map),
    "nn": ("k-best target neighbors for query words", _nn_flags, _cmd_nn),
    "eval": ("dictionary precision@k", _eval_flags, _cmd_eval),
    "synth": ("generate a synthetic benchmark", _synth_flags, _cmd_synth),
}


def _build_parser(argv) -> _Parser:
    """The parser of ``argv``'s command alone when it comes first, and of
    every command's name and help line otherwise (top-level help and errors
    list them all), with the flags of its command alone. No top-level option
    takes a value, so the command is the first argument not an option."""
    command = next((a for a in argv if not a.startswith("-")), None)
    parser = _Parser(prog="xlingmap", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    alone = argv[:1] == [command] and command in _COMMANDS
    for name in [command] if alone else _COMMANDS:
        p = sub.add_parser(name, help=_COMMANDS[name][0])
        if name == command:
            _COMMANDS[name][1](p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command][2](args)
    except (UsageError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (NonFiniteMetric, NonFiniteGradient) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
