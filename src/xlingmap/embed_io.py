"""Loading, validation and saving of embedding tables and word frequency
tables.

Embedding files use the plain-text format with a ``"<vocab_size> <dim>"``
header line followed by one ``"<token> <v1> ... <vd>"`` line per word,
single-space separated (one trailing space per row is accepted, as written
by word2vec and fastText), UTF-8, ``\\n`` line endings. Values are written with
17 significant digits, which round-trips IEEE-754 doubles exactly.
Frequency files are TSV: ``"<token>\\t<count>"`` per line.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np


class EmbedFormatError(ValueError):
    """Malformed embedding or frequency file; message carries the line number."""


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _has_whitespace(token: str) -> bool:
    return any(ch.isspace() for ch in token)


class Vocabulary:
    """Ordered set of unique, non-empty, whitespace-free tokens."""

    __slots__ = ("tokens", "_index")

    def __init__(self, tokens):
        tokens = tuple(tokens)
        if not tokens:
            raise ValueError("vocabulary must contain at least one token")
        index = {}
        for i, tok in enumerate(tokens):
            if not tok:
                raise ValueError(f"empty token at position {i}")
            if _has_whitespace(tok):
                raise ValueError(f"token {tok!r} contains whitespace")
            if tok in index:
                raise ValueError(f"duplicate token {tok!r}")
            index[tok] = i
        self.tokens = tokens
        self._index = index

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token) -> bool:
        return token in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.tokens == other.tokens

    def index(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise KeyError(f"token {token!r} not in vocabulary") from None


class EmbeddingTable:
    """A vocabulary plus one embedding row per token, immutable after build."""

    __slots__ = ("vocab", "matrix")

    def __init__(self, vocab: Vocabulary, matrix):
        matrix = np.array(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"embedding matrix must be 2-d, got {matrix.ndim}-d")
        if matrix.shape[0] != len(vocab):
            raise ValueError(
                f"row count {matrix.shape[0]} != vocabulary size {len(vocab)}"
            )
        if matrix.shape[1] < 1:
            raise ValueError("embedding dimension must be >= 1")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("embedding matrix contains non-finite values")
        matrix.setflags(write=False)
        self.vocab = vocab
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


class FrequencyTable:
    """Per-token counts paired with a vocabulary.

    Every vocabulary token gets a count: tokens missing from the source data
    receive a floor count of 1 so the sampler can assign every embedding a
    nonzero probability.
    """

    __slots__ = ("vocab", "counts", "total")

    def __init__(self, vocab: Vocabulary, counts: dict):
        full = {}
        for tok in vocab.tokens:
            c = counts.get(tok, 1)
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"count for {tok!r} is not an integer: {c!r}")
            if c < 0:
                raise ValueError(f"negative count for {tok!r}: {c}")
            full[tok] = c
        self.vocab = vocab
        self.counts = full
        self.total = sum(full.values())

    @classmethod
    def uniform(cls, vocab: Vocabulary) -> "FrequencyTable":
        return cls(vocab, {})


def load_embeddings(path) -> EmbeddingTable:
    """Parse an embedding file, validating header, dimensions and values."""
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise EmbedFormatError(f"{path}: empty file")
    header = lines[0].split(" ")
    if len(header) != 2:
        raise EmbedFormatError(f"{path}:1: header must be '<vocab_size> <dim>'")
    try:
        vocab_size, dim = int(header[0]), int(header[1])
    except ValueError:
        raise EmbedFormatError(f"{path}:1: non-integer header fields") from None
    if vocab_size < 1 or dim < 1:
        raise EmbedFormatError(f"{path}:1: header values must be positive")
    if len(lines) - 1 != vocab_size:
        raise EmbedFormatError(
            f"{path}: header declares {vocab_size} rows, found {len(lines) - 1}"
        )
    tokens = []
    matrix = np.empty((vocab_size, dim), dtype=np.float64)
    seen = set()
    for i, line in enumerate(lines[1:]):
        lineno = i + 2
        if "\t" in line:
            raise EmbedFormatError(f"{path}:{lineno}: tab in row")
        parts = line.split(" ")
        if len(parts) == dim + 2 and parts[-1] == "":
            parts.pop()  # the one trailing space word2vec and fastText write
        if len(parts) != dim + 1:
            raise EmbedFormatError(
                f"{path}:{lineno}: expected {dim} values, found {len(parts) - 1}"
            )
        token = parts[0]
        if not token:
            raise EmbedFormatError(f"{path}:{lineno}: empty token")
        if token in seen:
            raise EmbedFormatError(f"{path}:{lineno}: duplicate token {token!r}")
        seen.add(token)
        try:
            row = [float(v) for v in parts[1:]]
        except ValueError:
            raise EmbedFormatError(f"{path}:{lineno}: unparseable value") from None
        if not all(math.isfinite(v) for v in row):
            raise EmbedFormatError(f"{path}:{lineno}: non-finite value")
        tokens.append(token)
        matrix[i] = row
    return EmbeddingTable(Vocabulary(tokens), matrix)


def save_embeddings(table: EmbeddingTable, path) -> None:
    """Write a table in the embedding text format; round-trips exactly."""
    path = Path(path)
    rows = [f"{len(table.vocab)} {table.dim}"]
    for i, tok in enumerate(table.vocab.tokens):
        values = " ".join(_fmt(v) for v in table.matrix[i])
        rows.append(f"{tok} {values}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


def load_frequencies(path, vocab: Vocabulary) -> FrequencyTable:
    """Parse a TSV frequency file, restricted to ``vocab``.

    Vocabulary tokens missing from the file receive count 1.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise EmbedFormatError(f"{path}: empty frequency file")
    counts = {}
    for i, line in enumerate(lines):
        lineno = i + 1
        parts = line.split("\t")
        if len(parts) != 2:
            raise EmbedFormatError(f"{path}:{lineno}: expected 'token<TAB>count'")
        token, raw = parts
        try:
            count = int(raw)
        except ValueError:
            raise EmbedFormatError(
                f"{path}:{lineno}: non-integer count {raw!r}"
            ) from None
        if count < 0:
            raise EmbedFormatError(f"{path}:{lineno}: negative count {count}")
        if token not in vocab:
            continue
        if token in counts:
            raise EmbedFormatError(f"{path}:{lineno}: duplicate token {token!r}")
        counts[token] = count
    return FrequencyTable(vocab, counts)


def save_frequencies(freq: FrequencyTable, path) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for tok in freq.vocab.tokens:
            fh.write(f"{tok}\t{freq.counts[tok]}\n")


def normalize_rows(table: EmbeddingTable) -> EmbeddingTable:
    """Rescale every row to unit Euclidean norm; rejects zero rows."""
    norms = np.linalg.norm(table.matrix, axis=1)
    if np.any(norms == 0.0):
        bad = int(np.argmax(norms == 0.0))
        raise ValueError(
            f"cannot normalize zero row for token {table.vocab.tokens[bad]!r}"
        )
    return EmbeddingTable(table.vocab, table.matrix / norms[:, None])


def save_matrix(matrix, path) -> None:
    """Write a bare matrix as text: 'rows cols' header then value rows."""
    matrix = np.asarray(matrix, dtype=np.float64)
    rows = [f"{matrix.shape[0]} {matrix.shape[1]}"]
    for r in matrix:
        rows.append(" ".join(_fmt(v) for v in r))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


def load_matrix(path) -> np.ndarray:
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln]
    if not lines:
        raise EmbedFormatError(f"{path}: empty matrix file")
    try:
        nrows, ncols = (int(v) for v in lines[0].split(" "))
    except ValueError:
        raise EmbedFormatError(f"{path}:1: bad matrix header") from None
    if len(lines) - 1 != nrows:
        raise EmbedFormatError(f"{path}: expected {nrows} rows")
    out = np.empty((nrows, ncols), dtype=np.float64)
    for i, line in enumerate(lines[1:]):
        parts = line.split(" ")
        if len(parts) != ncols:
            raise EmbedFormatError(f"{path}:{i + 2}: expected {ncols} values")
        out[i] = [float(v) for v in parts]
    if not np.all(np.isfinite(out)):
        raise EmbedFormatError(f"{path}: non-finite value")
    return out
