"""Loading, validation and saving of embedding tables and word frequency
tables.

Embedding files use the plain-text format with a ``"<vocab_size> <dim>"``
header line followed by one ``"<token> <v1> ... <vd>"`` line per word,
single-space separated (one trailing space per row is accepted, as written
by word2vec and fastText), UTF-8, ``\\n`` line endings. Matrix files
(``save_matrix``) have a ``"<rows> <cols>"`` header and the same rows
without tokens. A value is an optional sign, then decimal digits with an
optional point and exponent, or ``inf``/``infinity``/``nan`` in any case
(read, then rejected as non-finite); underscores, non-ASCII digits and
non-ASCII whitespace are rejected, although ``float()`` takes them. Values
are written with 17 significant digits, which round-trips IEEE-754 doubles
exactly.

Both directions stream. The reader checks each line as it arrives and
parses the values of ``READ_BLOCK_ROWS`` rows with one numpy call into the
preallocated matrix, so it holds the matrix plus one block of text; the
writer formats one row at a time.

Frequency files are TSV: ``"<token>\\t<count>"`` per line.
"""
from __future__ import annotations

import itertools
import warnings
from pathlib import Path

import numpy as np


class EmbedFormatError(ValueError):
    """Malformed embedding or frequency file; message carries the line number."""


# Rows per numpy parse in the readers: about 1.8 MB of text at d = 300.
READ_BLOCK_ROWS = 256
# Whitespace that ``float()`` strips from a value's ends but that numpy's
# parse also takes as a separator inside it; a row holding any is checked
# field by field so that each field still gives exactly one value.
_EDGE_SPACE = ("\r", "\x0b", "\x0c")


def _count_lines(path) -> int:
    """The file's lines as the readers number them: each ``\\n`` ends one,
    and a last line without it counts too."""
    count, last = 0, b"\n"
    with open(path, "rb") as fh:
        # 64 KB stays below glibc's mmap threshold: freeing a larger buffer
        # raises the threshold, so later block-sized allocations land on the
        # heap, which keeps the memory after they are freed
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            count += chunk.count(b"\n")
            last = chunk[-1:]
    return count + (last != b"\n")


def _parse(text: str, count: int):
    """The ``count`` space-separated values of ``text`` in one numpy call,
    or ``None`` if it holds anything else. numpy < 2 only warns on
    unmatched text and returns the values before it, so the warning is
    raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(text, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    return values if values.size == count else None


def _read_rows(lines, path, out, tokens=None) -> None:
    """Fill ``out`` from ``lines``, the file's lines from line 2 on. A row is
    ``[<token> ]<v1> ... <vd>``, single-space separated, with one optional
    trailing space; ``tokens``, if given, receives the tokens. Each line is
    checked as it streams in; the values of ``READ_BLOCK_ROWS`` rows are
    parsed at once, and only a block that fails is parsed again row by row
    to name the line. Errors come in line order, as if read row by row."""
    rows, dim = out.shape
    lead = tokens is not None
    seen = set()
    block, done = [], 0

    def flush():
        nonlocal done
        values = _parse(" ".join(block), len(block) * dim)
        if values is None or not np.isfinite(values).all():
            for j, text in enumerate(block):
                row = _parse(text, dim)
                if row is None:
                    fail(done + j, "unparseable value")
                if not np.isfinite(row).all():
                    fail(done + j, "non-finite value")
            raise EmbedFormatError(
                f"{path}:{done + 2}-{done + len(block) + 1}: unparseable value"
            )
        out[done:done + len(block)] = values.reshape(len(block), dim)
        done += len(block)
        block.clear()

    def fail(i, message):
        if block and i == done + len(block):
            flush()  # the rows before this one come first
        raise EmbedFormatError(f"{path}:{i + 2}: {message}")

    for i, line in enumerate(itertools.islice(lines, rows)):
        line = line.rstrip("\n")
        if "\t" in line:
            fail(i, "tab in row")
        spaces = line.count(" ")
        if spaces == dim + lead and line.endswith(" "):
            line = line[:-1]  # the one trailing space word2vec and fastText write
            spaces -= 1
        if spaces != dim + lead - 1:
            fail(i, f"expected {dim} values, found {spaces + 1 - lead}")
        values = line
        if lead:
            token, values = line.split(" ", 1)
            if not token:
                fail(i, "empty token")
            if token in seen:
                fail(i, f"duplicate token {token!r}")
            seen.add(token)
            tokens.append(token)
        if any(ch in values for ch in _EDGE_SPACE) and not all(
            len(field.split()) == 1 for field in values.split(" ")
        ):
            fail(i, "unparseable value")
        block.append(values)
        if len(block) == READ_BLOCK_ROWS:
            flush()
    if block:
        flush()
    if done != rows:
        raise EmbedFormatError(f"{path}: file changed while it was read")


def _write_rows(path, header: str, matrix, tokens=None) -> None:
    """Stream ``header`` then one line per matrix row, after its token if
    ``tokens`` is given: one ``%`` format per row, 17 significant digits
    per value, which round-trips IEEE-754 doubles exactly."""
    row_format = " ".join(["%.17g"] * matrix.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for i, row in enumerate(matrix):
            values = row_format % tuple(row.tolist())
            fh.write(values if tokens is None else f"{tokens[i]} {values}")


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
    """A vocabulary plus one embedding row per token, immutable after build.

    A float64 array is adopted, not copied, and marked read-only: the caller
    hands over an array it no longer writes to.
    """

    __slots__ = ("vocab", "matrix")

    def __init__(self, vocab: Vocabulary, matrix):
        matrix = np.asarray(matrix, dtype=np.float64)
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
    line_count = _count_lines(path)
    if not line_count:
        raise EmbedFormatError(f"{path}: empty file")
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        header = fh.readline().rstrip("\n").split(" ")
        if len(header) != 2:
            raise EmbedFormatError(f"{path}:1: header must be '<vocab_size> <dim>'")
        try:
            vocab_size, dim = int(header[0]), int(header[1])
        except ValueError:
            raise EmbedFormatError(f"{path}:1: non-integer header fields") from None
        if vocab_size < 1 or dim < 1:
            raise EmbedFormatError(f"{path}:1: header values must be positive")
        if line_count - 1 != vocab_size:
            raise EmbedFormatError(
                f"{path}: header declares {vocab_size} rows, found {line_count - 1}"
            )
        tokens = []
        matrix = np.empty((vocab_size, dim), dtype=np.float64)
        _read_rows(fh, path, matrix, tokens)
    return EmbeddingTable(Vocabulary(tokens), matrix)


def save_embeddings(table: EmbeddingTable, path) -> None:
    """Write a table in the embedding text format; round-trips exactly."""
    _write_rows(path, f"{len(table.vocab)} {table.dim}", table.matrix,
                table.vocab.tokens)


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
    _write_rows(path, f"{matrix.shape[0]} {matrix.shape[1]}", matrix)


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by ``save_matrix``, with the embedding reader's
    row rules (no token)."""
    path = Path(path)
    line_count = _count_lines(path)
    if not line_count:
        raise EmbedFormatError(f"{path}: empty matrix file")
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        try:
            nrows, ncols = (int(v) for v in fh.readline().rstrip("\n").split(" "))
        except ValueError:
            raise EmbedFormatError(f"{path}:1: bad matrix header") from None
        if nrows < 1 or ncols < 1:
            raise EmbedFormatError(f"{path}:1: bad matrix header")
        if line_count - 1 != nrows:
            raise EmbedFormatError(
                f"{path}: expected {nrows} rows, found {line_count - 1}"
            )
        out = np.empty((nrows, ncols), dtype=np.float64)
        _read_rows(fh, path, out)
    return out
