import itertools
import math
import re

import numpy as np
import pytest

from xlingmap import embed_io
from xlingmap.embed_io import (
    EmbedFormatError,
    EmbeddingTable,
    Vocabulary,
    load_embeddings,
    load_frequencies,
    load_matrix,
    normalize_rows,
    save_embeddings,
    save_frequencies,
    save_matrix,
)
from xlingmap.models import ModelConfig
from xlingmap.training import TrainConfig, Trainer

from conftest import random_table


def test_vocabulary_invariants():
    v = Vocabulary(["a", "b", "c"])
    assert len(v) == 3
    for i, tok in enumerate(v.tokens):
        assert v.index(tok) == i
    with pytest.raises(ValueError):
        Vocabulary(["a", "a"])
    with pytest.raises(ValueError):
        Vocabulary(["a", ""])
    with pytest.raises(ValueError):
        Vocabulary(["a b"])
    with pytest.raises(ValueError):
        Vocabulary([])
    with pytest.raises(KeyError):
        v.index("d")


def test_load_literal_file(tmp_path):
    path = tmp_path / "e.vec"
    path.write_text("2 3\na 1 0 0\nb 0 1 0\n", encoding="utf-8")
    t = load_embeddings(path)
    assert len(t.vocab) == 2 and t.dim == 3
    assert np.array_equal(t.matrix, [[1, 0, 0], [0, 1, 0]])


def test_load_dimension_mismatch_reports_line(tmp_path):
    path = tmp_path / "e.vec"
    path.write_text("2 3\na 1 0\nb 0 1 0\n", encoding="utf-8")
    with pytest.raises(EmbedFormatError, match=":2:"):
        load_embeddings(path)


@pytest.mark.parametrize("content,fragment", [
    ("3 2\na 1 0\nb 0 1\n", "declares 3 rows"),
    ("1 2\na 1 0\nb 0 1\n", "declares 1 rows"),
    ("2 2\na 1 0\na 0 1\n", "duplicate"),
    ("1 2\na 1 nan\n", "non-finite"),
    ("1 2\na 1 inf\n", "non-finite"),
    ("1 2\na 1 x\n", "unparseable"),
    ("x 2\na 1 0\n", "non-integer"),
    # a header count is ASCII digits, though int() takes these
    ("+2 2\na 1 0\nb 0 1\n", "non-integer"),
    ("0_2 2\na 1 0\nb 0 1\n", "non-integer"),
    ("\u0662 2\na 1 0\nb 0 1\n", "non-integer"),
    (b"1\xff 2\na 1 0\n", "non-integer"),  # not UTF-8
    ("0 2\n", "positive"),
    ("1 2\na 1 0  \n", "found 4"),
    ("1 2\na 1 0\t\n", "tab"),
    ("1 2\na 1\t0\n", "tab"),
    ("1 2 \na 1 0 \n", "header"),
])
def test_load_rejects_malformed(tmp_path, content, fragment):
    path = tmp_path / "e.vec"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    with pytest.raises(EmbedFormatError, match=fragment):
        load_embeddings(path)


def test_load_word2vec_trailing_space(tmp_path):
    # word2vec -binary 0 and fastText end every row with one space
    path = tmp_path / "w2v.vec"
    path.write_text("3 2\na 1 0 \nb 0 1 \nc 0.5 -2\n", encoding="utf-8")
    t = load_embeddings(path)
    assert t.vocab.tokens == ("a", "b", "c")
    assert np.array_equal(t.matrix, [[1, 0], [0, 1], [0.5, -2]])


def test_save_one_word_table(tmp_path):
    t = EmbeddingTable(Vocabulary(["x"]), [[0.0, 0.0]])
    path = tmp_path / "one.vec"
    save_embeddings(t, path)
    assert path.read_text(encoding="utf-8") == "1 2\nx 0 0\n"


def test_round_trip_random_table(tmp_path):
    t = random_table(100, 7, seed=42)
    path = tmp_path / "r.vec"
    save_embeddings(t, path)
    back = load_embeddings(path)
    assert back.vocab.tokens == t.vocab.tokens
    assert np.array_equal(back.matrix, t.matrix)
    # byte-exact second save
    path2 = tmp_path / "r2.vec"
    save_embeddings(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_token_with_space_rejected_before_write():
    # whitespace-bearing tokens never make it into a table, so they can
    # never be written
    with pytest.raises(ValueError, match="whitespace"):
        Vocabulary(["has space"])
    with pytest.raises(ValueError, match="whitespace"):
        Vocabulary(["tab\there"])


def test_every_whitespace_character_rejected_in_tokens():
    # U+3000 is the last character that str.isspace() accepts
    spaces = [chr(i) for i in range(0x3001) if chr(i).isspace()]
    assert len(spaces) > 20 and "\u3000" in spaces
    for c in spaces:
        for tok in (c + "ab", "a" + c + "b", "ab" + c):
            with pytest.raises(ValueError) as err:
                Vocabulary(["x", tok])
            assert str(err.value) == f"token {tok!r} contains whitespace"
    # and every other character below U+3001 is accepted
    others = [chr(i) for i in range(0x3001) if not chr(i).isspace()]
    assert len(Vocabulary(["a" + c + "b" for c in others])) == len(others)


def first_token_error(tokens):
    """The error the token rule names first, read token by token."""
    seen = set()
    for i, tok in enumerate(tokens):
        if not tok:
            return f"empty token at position {i}"
        if any(c.isspace() for c in tok):
            return f"token {tok!r} contains whitespace"
        if tok in seen:
            return f"duplicate token {tok!r}"
        seen.add(tok)
    return None


def test_first_bad_token_is_named_whatever_the_order():
    good = [f"w{i}" for i in range(8)]
    bad = ["", "a\x1cb", "b\xa0c", "w1"]  # empty, two whitespaces, a duplicate
    for order in itertools.permutations(bad):
        for at in ([0, 3, 5, 9], [2, 4, 6, 11], [8, 9, 10, 11]):
            tokens = list(good)
            for i, tok in sorted(zip(at, order)):
                tokens.insert(i, tok)
            want = first_token_error(tokens)
            assert want is not None
            with pytest.raises(ValueError) as err:
                Vocabulary(tokens)
            assert str(err.value) == want
    # a whitespace token repeated is named for its whitespace
    with pytest.raises(ValueError, match=r"^token 'a\\x1cb' contains whitespace$"):
        Vocabulary(["x", "a\x1cb", "a\x1cb"])


@pytest.mark.parametrize("token, message", [
    (5, "token 5 is not a str"),
    (["x"], "token ['x'] is not a str"),
    (b"x", "token b'x' is not a str"),
    (None, "empty token at position 1"),
], ids=["int", "list", "bytes", "None"])
def test_token_that_is_not_a_str_raises_as_before(token, message):
    with pytest.raises(ValueError) as err:
        Vocabulary(["a", token])
    assert type(err.value) is ValueError and str(err.value) == message


def test_valid_vocabulary_checks_no_token_alone(monkeypatch):
    calls = []

    def counting(token, seen):
        calls.append(token)
        return original(token, seen)

    original = embed_io._token_error
    monkeypatch.setattr(embed_io, "_token_error", counting)
    tokens = [f"w{i}" for i in range(1000)] + ["é", "、", "a\x00b"]
    assert Vocabulary(tokens).tokens == tuple(tokens)
    assert calls == []
    with pytest.raises(ValueError, match="duplicate token 'w7'"):
        Vocabulary(tokens + ["w7"])
    assert len(calls) == len(tokens) + 1  # only a failure is looked for per token


def test_normalize_rows():
    t = EmbeddingTable(Vocabulary(["a", "b"]), [[3.0, 4.0], [0.0, 2.0]])
    n = normalize_rows(t)
    assert np.allclose(n.matrix[0], [0.6, 0.8])
    assert np.allclose(np.linalg.norm(n.matrix, axis=1), 1.0, atol=1e-12)


def test_normalize_idempotent():
    t = random_table(40, 5, seed=3)
    once = normalize_rows(t)
    twice = normalize_rows(once)
    assert np.max(np.abs(once.matrix - twice.matrix)) < 1e-12


def test_normalize_rejects_zero_row():
    t = EmbeddingTable(Vocabulary(["a", "b"]), [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="zero row 'b' in the table"):
        normalize_rows(t)


def test_load_frequencies_basic(tmp_path):
    # one count per table row, whatever the file's order; a line for a token
    # not in the table is skipped, and the largest int64 count loads
    vocab = Vocabulary(["a", "b", "c"])
    path = tmp_path / "f.tsv"
    path.write_text("c\t9223372036854775807\nzz\t5\nb\t1\na\t9\n", encoding="utf-8")
    f = load_frequencies(path, vocab)
    assert f.dtype == np.int64 and f.tolist() == [9, 1, 2**63 - 1]


def test_load_frequencies_floor_for_missing(tmp_path):
    vocab = Vocabulary(["a", "b", "c"])
    path = tmp_path / "f.tsv"
    path.write_text("a\t9\nb\t1\n", encoding="utf-8")
    f = load_frequencies(path, vocab)
    assert f[vocab.index("c")] == 1


@pytest.mark.parametrize("content", ["a\t-3\n", "a\t2.5\n", "a\tx\n", "a 3\n",
                                     "b\t1\na\t1\na\t2\n", "b\t1\na\t9223372036854775808\n",
                                     "b\t1\nzz\t-1\n"])
def test_load_frequencies_rejects_bad_counts(tmp_path, content):
    vocab = Vocabulary(["a", "b"])
    path = tmp_path / "f.tsv"
    path.write_text(content, encoding="utf-8")
    line = content.count("\n")  # the last line is the bad one
    with pytest.raises(EmbedFormatError, match=f"^{re.escape(str(path))}:{line}: "):
        load_frequencies(path, vocab)


@pytest.mark.parametrize("raw", ["1_000", " 12", "12 ", "+5", "\u0663", "\uff11\uff12",
                                 "\u00b2", "", "0x10", "-3", "-0"])
def test_load_frequencies_reads_a_count_of_ascii_digits_only(tmp_path, raw):
    # int() takes an underscore, spaces, a sign and the digits of other
    # scripts; "-N" is a negative count, the other spellings are not integers
    path = tmp_path / "f.tsv"
    path.write_text(f"b\t1\na\t{raw}\n", encoding="utf-8")
    error = f"negative count {raw}" if raw.startswith("-") else f"non-integer count {raw!r}"
    with pytest.raises(EmbedFormatError, match=f"^{re.escape(f'{path}:2: {error}')}$"):
        load_frequencies(path, Vocabulary(["a", "b"]))


def test_load_frequencies_reads_crlf_lines(tmp_path):
    path = tmp_path / "f.tsv"
    path.write_bytes(b"b\t1\r\na\t007\r\n")
    assert load_frequencies(path, Vocabulary(["a", "b"])).tolist() == [7, 1]


def test_load_frequencies_empty_file(tmp_path):
    path = tmp_path / "f.tsv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmbedFormatError, match="empty"):
        load_frequencies(path, Vocabulary(["a"]))


def test_frequency_save_load_identity(tmp_path):
    vocab = Vocabulary([f"w{i}" for i in range(20)])
    rng = np.random.default_rng(8)
    counts = rng.integers(0, 1000, 20)
    path = tmp_path / "f.tsv"
    save_frequencies(vocab, counts, path)
    back = load_frequencies(path, vocab)
    assert np.array_equal(back, counts)


def test_frequency_table_validates():
    # a count vector is checked where it enters training: integer counts,
    # none negative; each refusal names its side
    src, tgt = random_table(30, 6, seed=1, prefix="s"), random_table(30, 6, seed=2, prefix="t")
    cfg = TrainConfig(model=ModelConfig(dim=6, block_dim=4, depth=2))
    for side, table in (("source", src), ("target", tgt)):
        ones = np.ones(len(table.vocab), dtype=np.int64)
        negative = ones.copy()
        negative[3] = -2
        for counts, message in (
                (ones.astype(float), f"{side} counts are float64, not integers"),
                (ones.astype(bool), f"{side} counts are bool, not integers"),
                (negative, f"negative {side} count -2 for {table.vocab.tokens[3]!r}")):
            given = (counts, None) if side == "source" else (None, counts)
            with pytest.raises(ValueError, match=re.escape(message)):
                Trainer(cfg, src, tgt, *given)
    # a list of ints and an unsigned vector are counts too
    Trainer(cfg, src, tgt, [1] * 30, np.zeros(30, dtype=np.uint8))


def test_embedding_table_validates():
    with pytest.raises(ValueError, match="row count"):
        EmbeddingTable(Vocabulary(["a", "b"]), [[1.0, 2.0]])
    with pytest.raises(ValueError, match="non-finite values in row 'b'$"):
        EmbeddingTable(Vocabulary(["a", "b", "c"]), [[1.0, 2.0], [np.nan, 1.0], [np.inf, 0]])


def test_loaded_table_adopts_its_matrix(tmp_path, monkeypatch):
    # the table keeps the array it is given, read-only, instead of a copy
    given = []

    def recording_table(vocab, matrix):
        given.append(matrix)
        return EmbeddingTable(vocab, matrix)

    path = tmp_path / "r.vec"
    save_embeddings(random_table(20, 4, seed=5), path)
    monkeypatch.setattr(embed_io, "EmbeddingTable", recording_table)
    table = load_embeddings(path)
    assert len(given) == 1
    assert np.shares_memory(table.matrix, given[0])
    assert not table.matrix.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table.matrix[0, 0] = 1.0
    # other inputs are still converted to a float64 matrix of its own
    listed = EmbeddingTable(Vocabulary(["a"]), [[1, 2]])
    assert listed.matrix.dtype == np.float64 and not listed.matrix.flags.writeable


def test_matrix_text_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    m = rng.normal(size=(5, 3))
    path = tmp_path / "m.txt"
    save_matrix(m, path)
    assert np.array_equal(load_matrix(path), m)
    for bad in (np.zeros((2, 0)), np.zeros(3)):
        with pytest.raises(ValueError, match="2-d with columns"):
            save_matrix(bad, path)


@pytest.mark.parametrize("content,message", [
    # lines are numbered as they appear in the file: a blank line is a row
    ("3 2\n1 0\n\n0 1\n", "3: expected 2 values, found 1"),
    ("2 2\n1 0\n\n0 1\n", " header declares 2 rows, found 3"),
    ("2 2\n1 0\n0 x\n", "3: unparseable value"),
    ("2 2\n1 0\n0 inf\n", "3: non-finite value"),
    ("2 2\n1 0 1\n0 1\n", "2: expected 2 values, found 3"),
    ("2 2\n1\t0\n0 1\n", "2: tab in row"),
    ("2 2 \n1 0\n0 1\n", "1: header must be '<rows> <cols>'"),
    ("0 2\n", "1: header values must be positive"),
    ("x 2\n", "1: non-integer header fields"),
    # a header count is ASCII digits, though int() takes these
    ("+2 2\n1 0\n0 1\n", "1: non-integer header fields"),
    ("0_2 2\n1 0\n0 1\n", "1: non-integer header fields"),
    ("\u0662 2\n1 0\n0 1\n", "1: non-integer header fields"),
    (b"1\xff 2\n1 0\n", "1: non-integer header fields"),  # not UTF-8
])
def test_load_matrix_rejects_malformed(tmp_path, content, message):
    path = tmp_path / "m.txt"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    with pytest.raises(EmbedFormatError) as err:
        load_matrix(path)
    assert str(err.value) == f"{path}:{message}"


# -- equivalence with the per-value reader and writer they replace -----------

SPECIAL_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0, -1e-300,
    # exact ties at the 17th digit, rounded half-even
    1000000000000000.25, 1000000000000000.75, -1000000000000000.25,
    # where '%.17g' turns from exponent to fixed notation and back
    1e-4, 9.9999999999999991e-05, 99999999999999984.0, 1e17,
    # integer-valued
    1e16, 123456789.0, -42.0,
    # 10**k and its neighbours, where a decimal exponent is easy to misjudge
    *(math.nextafter(float(f"1e{k}"), to) for k in range(-4, 17)
      for to in (0.0, float(f"1e{k}"), math.inf)),
]


def reference_text(header, rows, tokens=None):
    """The file the per-value writer produced: ``format(v, ".17g")``."""
    lines = [header]
    for i, row in enumerate(rows):
        values = " ".join(format(v, ".17g") for v in row)
        lines.append(values if tokens is None else f"{tokens[i]} {values}")
    return "\n".join(lines) + "\n"


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


# table shapes by seed; the last two, one column and rows of many values,
# take more than one writer block
WRITER_SHAPES = [(50, 7), (50, 7), (50, 7), (embed_io.WRITE_BLOCK_VALUES + 5, 1),
                 (2 * (embed_io.WRITE_BLOCK_VALUES // 300) + 1, 300)]
# token prefixes: ASCII, 2- and 3-byte UTF-8, a NUL (which the writer
# carries as 0xFF), and a token longer than a value's 40-byte slot
TOKEN_PREFIXES = ("w", "ü", "слово", "語", "a\0b", "x" * 500)


def writer_kinds(rng, shape):
    """The kinds of values the writer is checked on, each of ``shape``."""
    sign = rng.choice([-1.0, 1.0], size=shape)
    patterns = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
    return [
        rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape),
        # log-uniform over the fixed-notation range and past both its ends
        sign * 10.0 ** rng.uniform(-6, 18, size=shape),
        # random 64-bit patterns
        np.where(np.isfinite(patterns), patterns, 1.5),
        np.zeros(shape),
        # the last four of the 17 digits all 0, the last nonzero one in the
        # lead digit or in group 1, 2 or 3 of four digits (5, 12345,
        # 9765625, 1220703125)
        sign * rng.choice([0.5, 1234.5, 2.0**-10, 2.0**-13, 3.0, 1e15], size=shape),
    ]


@pytest.mark.parametrize("seed", range(len(WRITER_SHAPES)))
def test_writer_matches_per_value_format(tmp_path, seed):
    rows, cols = WRITER_SHAPES[seed]
    rng = np.random.default_rng(seed)
    shape = (rows, cols)
    kinds = writer_kinds(rng, shape)
    m = np.choose(rng.choice(len(kinds), size=shape, p=[0.25, 0.35, 0.15, 0.1, 0.15]),
                  kinds)
    header = f"{rows} {cols}"
    tokens = [f"{TOKEN_PREFIXES[i % len(TOKEN_PREFIXES)]}{i}" for i in range(rows)]
    t = EmbeddingTable(Vocabulary(tokens), m)
    path = tmp_path / "t.vec"
    save_embeddings(t, path)
    assert path.read_bytes() == reference_text(
        header, t.matrix, t.vocab.tokens).encode("utf-8")
    # the reader gives float() of each field written, on the numpy running
    rows = [line.split(" ") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    want = bits([[float(v) for v in row[1:]] for row in rows]).tolist()
    assert bits(load_embeddings(path).matrix).tolist() == want
    save_matrix(m, path)
    assert path.read_bytes() == reference_text(header, m).encode("utf-8")
    assert bits(load_matrix(path)).tolist() == want


def test_writer_special_values(tmp_path):
    m = np.array([SPECIAL_VALUES, SPECIAL_VALUES[::-1]])
    header = f"2 {len(SPECIAL_VALUES)}"
    t = EmbeddingTable(Vocabulary(["a", "b"]), m)
    path = tmp_path / "s.vec"
    save_embeddings(t, path)
    assert path.read_bytes() == reference_text(
        header, m, ("a", "b")).encode("utf-8")
    assert bits(load_embeddings(path).matrix).tolist() == bits(m).tolist()
    save_matrix(m, path)
    assert path.read_bytes() == reference_text(header, m).encode("utf-8")
    assert bits(load_matrix(path)).tolist() == bits(m).tolist()


@pytest.mark.parametrize("text", [
    [format(v, ".17g") for v in SPECIAL_VALUES],
    [repr(v) for v in SPECIAL_VALUES],
    ["0.123456", "-1e-05", "0.5", "-0", "3", "+1.5", ".25", "-2.", "1E-3",
     "4.9406564584124654e-324", "1e-400", "0.30000000000000004"],
])
def test_reader_values_equal_float(tmp_path, text):
    # word2vec and fastText write short decimals; this writer, 17 digits
    path = tmp_path / "v.vec"
    rows = [text, text[::-1]]
    path.write_text(f"2 {len(text)}\n" + "".join(
        f"w{i} {' '.join(r)} \n" for i, r in enumerate(rows)), encoding="utf-8")
    want = [[float(v) for v in r] for r in rows]
    assert bits(load_embeddings(path).matrix).tolist() == bits(want).tolist()


# -- the block parse against numpy's float parse, which it stands in for -----

def float_parse(text, count):
    """numpy's float parse of a whole block, the reader's parse before the
    integer route."""
    try:
        values = np.fromstring(text, sep=" ")
    except ValueError:
        return None
    return values if values.size == count else None


def block_parse(raw, count):
    """The ``count`` values of the single-space-separated fields of ``raw``
    as the reader's block parse gives them: ``_parse_decimals``, or where
    it gives ``None``, the float parse; ``None`` if neither gives them."""
    text = b"\n" + raw + b"\n"
    buf = np.frombuffer(text, np.uint8)
    at = np.flatnonzero(buf < ord("0"))
    kind = buf[at]
    seps = np.flatnonzero((kind == ord(" ")) | (kind == ord("\n")))
    values = None
    if seps.size == count + 1:
        values = embed_io._parse_decimals(text, at, kind, seps[:-1], seps[1:],
                                          bytearray(text))
    return embed_io._fromstring(raw, count) if values is None else values


def assert_parses_as_float_parse(fields, block=1000):
    """``block_parse`` accepts each block of ``fields`` exactly when numpy's
    float parse does, and then gives the same doubles, bit for bit."""
    for start in range(0, len(fields), block):
        part = fields[start:start + block]
        text = " ".join(part)
        got = block_parse(text.encode(), len(part))
        want = float_parse(text, len(part))
        assert (got is None) == (want is None), text[:300]
        if want is not None:
            wrong = np.flatnonzero(bits(got) != bits(want))
            assert not wrong.size, [part[i] for i in wrong[:5]]


def assert_reads_as_float_parse(path, fields, width):
    """``load_matrix`` reads ``fields``, ``width`` to a row, as numpy's
    float parse reads each field on its own: the same doubles, or an error
    naming the first row where a field gives no single value or a
    non-finite one. (numpy reads a field of whitespace alone as -1.)"""
    rows = [fields[i:i + width] for i in range(0, len(fields), width)]
    path.write_text(f"{len(rows)} {width}\n" + "".join(" ".join(r) + "\n" for r in rows),
                    encoding="utf-8")
    want = [[float_parse(field, 1) if field.strip() else None for field in row]
            for row in rows]
    for i, row in enumerate(want):
        if any(v is None or not np.isfinite(v).all() for v in row):
            message = ("unparseable" if any(v is None for v in row) else "non-finite")
            with pytest.raises(EmbedFormatError, match=f":{i + 2}: {message} value$"):
                load_matrix(path)
            return
    assert bits(load_matrix(path)).tolist() == bits(want).reshape(len(rows), -1).tolist()


def decimal(mantissa, places, zeros=0):
    """``mantissa / 10**places`` written out exactly, then ``zeros`` zeros."""
    digits = str(abs(mantissa)).rjust(places + 1, "0")
    cut = len(digits) - places
    return f"{'-' * (mantissa < 0)}{digits[:cut]}.{digits[cut:]}{'0' * zeros}"


# each format, with the decimal exponents over which it writes the values
# in the form the integer route takes, with a mantissa below 2**63
VALUE_FORMATS = {"%r": (-4, 16), "%.17g": (-4, 16), "%.16g": (-4, 16),
                 "%.15g": (-4, 15), "%.18f": (-12, 1), "%.20f": (-14, -1)}


def formatted_doubles(rng, n, fmt):
    # nine in ten where the format takes the integer route, the rest from
    # 1e-30 to 1e30
    low, high = VALUE_FORMATS[fmt]
    e = np.where(rng.uniform(size=n) < 0.9, rng.integers(low, high, n),
                 rng.integers(-30, 30, n))
    x = rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 10.0, n) * 10.0 ** e
    return [fmt % v for v in x.tolist()]


def bit_patterns(rng, n):
    x = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64).tolist()
    return [repr(v) for v in x[::2]] + ["%.17g" % v for v in x[1::2]]


def midpoints(rng, n):
    """Exact midpoints between adjacent doubles, where ties go to the even
    one, with the decimals one unit in their last digit away; the midpoints
    around powers of two, where the ulp halves below; and 19-digit values
    just below powers of two."""
    fields = []
    for q, e, sign in zip(rng.integers(2**52, 2**53, n).tolist(),
                          rng.integers(-3, 7, n).tolist(),
                          rng.choice([-1, 1], n).tolist()):
        # (2q + 1) * 2**(e - 1) lies halfway from q * 2**e to (q + 1) * 2**e
        if e > 0:
            mid, places, zeros = (2 * q + 1) << (e - 1), 0, 1 + q % 2
        else:
            mid, places, zeros = (2 * q + 1) * 5 ** (1 - e), 1 - e, 0
        fields += [decimal(sign * m, places, zeros) for m in (mid - 1, mid, mid + 1)]
    for k in range(48, 63):
        for mid, low in (((1 << 54) - 1, k - 54), ((1 << 53) + 1, k - 53)):
            mid, places = (mid << low, 0) if low >= 0 else (mid * 5 ** -low, -low)
            fields += [decimal(m, places, places == 0) for m in (mid - 1, mid, mid + 1)]
        below = [math.ldexp(1.0, k) - math.ldexp(j, k - 53) for j in range(1, 4)]
        fields += ["%.19g" % v for v in below] + ["%.17g" % v for v in below]
    fields.append("9007199254740993.0")
    return fields


def wide_mantissas(rng, n):
    """Mantissas from 2**62 to 2**64, past the int64 limits where the
    integer parse clamps, with the point anywhere."""
    m = rng.integers(2**62, 2**64, n, dtype=np.uint64).tolist()
    places = rng.integers(1, 20, n).tolist()
    signs = rng.choice([-1, 1], n).tolist()
    fields = [decimal(v * s, p) for v, s, p in zip(m, signs, places)]
    return fields + [decimal(s * (2**63 + d), p) for s in (-1, 1)
                     for d in (-2, -1, 0, 1) for p in (1, 10, 19)]


def long_fractions(rng, n):
    # 22 digits after the point still take the integer route, 23 do not
    m = (rng.integers(1, 10**18, n) // 10 ** rng.integers(0, 17, n)).tolist()
    places = np.where(rng.uniform(size=n) < 0.9, rng.integers(21, 23, n), 23)
    return [decimal(v, p) for v, p in zip(m, places.tolist())]


@pytest.mark.parametrize("n", [10_000, pytest.param(1_000_000, marks=pytest.mark.slow)])
def test_block_parse_matches_float_parse(tmp_path, monkeypatch, n):
    rng = np.random.default_rng(n)
    kinds = [formatted_doubles(rng, n, fmt) for fmt in VALUE_FORMATS]
    kinds += [bit_patterns(rng, n), midpoints(rng, n // 3), wide_mantissas(rng, n),
              long_fractions(rng, n)]
    for fields in kinds:
        assert_parses_as_float_parse(fields)
    # blocks of every kind at once, with a tenth of the bit patterns and the
    # wide mantissas, so that most blocks take the integer route with a few
    # fields off it; also read from a file in pieces of about 100 fields
    kinds[-4], kinds[-2] = kinds[-4][::10], kinds[-2][::10]
    mixed = [field for fields in kinds for field in fields]
    rng.shuffle(mixed)
    assert_parses_as_float_parse(mixed)
    monkeypatch.setattr(embed_io, "READ_BYTES", 2000)
    part = [field for field in mixed[:len(mixed) // 10] if math.isfinite(float(field))]
    assert_reads_as_float_parse(tmp_path / "m.txt", part[:len(part) // 10 * 10], 10)


@pytest.mark.slow
def test_writer_matches_per_value_format_on_a_million_values(tmp_path):
    # each kind of the writer test alone, in 124 blocks of 81 whole rows
    rng = np.random.default_rng(1_000_000)
    shape = (10_000, 100)
    tokens = [f"{TOKEN_PREFIXES[i % len(TOKEN_PREFIXES)]}{i}" for i in range(shape[0])]
    path = tmp_path / "m.vec"
    for m in writer_kinds(rng, shape):
        save_embeddings(EmbeddingTable(Vocabulary(tokens), m), path)
        assert path.read_bytes() == reference_text("10000 100", m, tokens).encode("utf-8")
        save_matrix(m, path)
        assert path.read_bytes() == reference_text("10000 100", m).encode("utf-8")


# fields off the integer route, including what numpy's float parse rejects
ODD_FIELDS = ["-0.0", "-0", "+1.5", ".25", "-2.", "1E-3", "-", ".", "1.2.3", ".-5",
              "5-3", "0.0", "+0.00", "-.5", "+-1.5", "1.5e5", "inf", "-nan", "0x1p3",
              "1,5", "1.5,", "", "1.5\r", "\x0c2.5", "-0.5\x0b", "\r", "\x0b",
              "1.5\x0c2.5", "1\r.5", "1.5\x0c", "1.5 "]


@pytest.mark.parametrize("piece", [1 << 17, 8])
def test_block_parse_odd_fields(tmp_path, monkeypatch, piece):
    # and the reader, a row of them at a time, in one read and in reads
    # shorter than a row; a field holding a space is two fields in a file
    monkeypatch.setattr(embed_io, "READ_BYTES", piece)
    path = tmp_path / "m.txt"
    plain = [repr(v) for v in np.random.default_rng(5).normal(size=12).tolist()]
    for odd in ODD_FIELDS:
        for fields in ([odd], [odd, "1.5"], ["-1.5", odd], [odd] * 4 + plain,
                       plain[:5] + [odd] + plain[5:]):
            assert_parses_as_float_parse(fields, block=len(fields))
            if " " not in odd:
                assert_reads_as_float_parse(path, fields, len(fields))
    for a in ODD_FIELDS:
        for b in ODD_FIELDS:
            assert_parses_as_float_parse([a] + plain + [b], block=len(plain) + 2)
            if " " not in a + b:
                assert_reads_as_float_parse(path, [a] + plain + [b], len(plain) + 2)


def test_decimal_blocks_take_the_integer_route(tmp_path, monkeypatch):
    # a block of repr and '%.17g' values goes through the integer parse, and
    # numpy's float parse sees only the fields in exponent notation, never
    # the block: a silent fallback to it would still pass every other test
    rng = np.random.default_rng(11)
    m = rng.normal(size=(256, 300)) * np.where(rng.uniform(size=(256, 300)) < 0.01,
                                               1e-5, 1.0)
    rows = [[("%r" if i % 2 else "%.17g") % v for v in row]
            for i, row in enumerate(m.tolist())]
    path = tmp_path / "r.vec"
    path.write_text("256 300\n" + "".join(f"w{i} {' '.join(r)}\n"
                                         for i, r in enumerate(rows)), encoding="utf-8")
    real, calls = np.fromstring, []

    def counting_fromstring(text, dtype=float, sep=""):
        calls.append((np.dtype(dtype), text))
        return real(text, dtype=dtype, sep=sep)

    monkeypatch.setattr(embed_io.np, "fromstring", counting_fromstring)
    table = load_embeddings(path)
    want = [[float(v) for v in r] for r in rows]
    assert bits(table.matrix).tolist() == bits(want).tolist()
    exponents = sorted(v for r in rows for v in r if "e" in v)
    assert len(exponents) > 500
    parsed = sorted(field for dtype, text in calls if dtype == np.float64
                    for field in text.decode().split(","))
    assert parsed == exponents
    # and the integer parse saw every field, those as zeros
    assert sum(text.count(b" ") + 1 for dtype, text in calls
               if dtype == np.int64) == 256 * 300


# a bad row for each malformed-file case, and the message it must produce
MALFORMED_ROWS = {
    "count": ("x 1", "expected 2 values, found 1"),
    "two trailing spaces": ("x 1 0  ", "expected 2 values, found 4"),
    "tab": ("x 1\t0", "tab in row"),
    "duplicate": ("w0 1 0", "duplicate token 'w0'"),
    "CR in token": ("x\ry 1 0", "token 'x\\ry' contains whitespace"),
    "NBSP in token": ("x\xa0y 1 0", "token 'x\\xa0y' contains whitespace"),
    "unparseable": ("x 1 0x1", "unparseable value"),
    "empty field": ("x 1  ", "unparseable value"),
    "non-finite": ("x 1 -inf", "non-finite value"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ROWS))
@pytest.mark.parametrize("bad_row", [2, 3, 4, 5])
def test_block_parse_names_the_same_line(tmp_path, monkeypatch, case, bad_row):
    # rows 0-1, 2-3 and 4-5 are the first three reads at 18 bytes a read
    line, message = MALFORMED_ROWS[case]
    rows = [f"w{i} {i} 0.5" for i in range(7)]
    rows[bad_row] = line
    path = tmp_path / "e.vec"
    path.write_text("7 2\n" + "\n".join(rows) + "\n", encoding="utf-8")
    want = f"{path}:{bad_row + 2}: {message}"
    with pytest.raises(EmbedFormatError) as err:
        load_embeddings(path)
    assert str(err.value) == want
    monkeypatch.setattr(embed_io, "READ_BYTES", 18)
    with pytest.raises(EmbedFormatError) as err:
        load_embeddings(path)
    assert str(err.value) == want


@pytest.mark.parametrize("read_bytes", [18, embed_io.READ_BYTES])
def test_token_error_comes_in_line_order(tmp_path, monkeypatch, read_bytes):
    # a token with whitespace on line 2 is named ahead of a bad value on
    # line 4, as a row-by-row read meets them, whether one read holds both
    monkeypatch.setattr(embed_io, "READ_BYTES", read_bytes)
    path = tmp_path / "e.vec"
    path.write_text("3 2\na\xa0b 1 0\nw1 1 0\nw2 1 x\n", encoding="utf-8")
    with pytest.raises(EmbedFormatError) as err:
        load_embeddings(path)
    assert str(err.value) == f"{path}:2: token 'a\\xa0b' contains whitespace"

@pytest.mark.parametrize("block_rows", [2, 256])
def test_row_count_error_comes_before_row_errors(tmp_path, monkeypatch, block_rows):
    # the lines are only counted once something fails, but a wrong count is
    # still the error reported, ahead of a bad row it would otherwise be;
    # reads of about block_rows rows of 8 bytes
    monkeypatch.setattr(embed_io, "READ_BYTES", 8 * block_rows)
    path = tmp_path / "e.vec"
    # too many lines with a bad row 3, and too few with a bad row 2
    for rows in (["1 0", "1 0", "1 x", "0 1"], ["1 0", "1 x"]):
        path.write_text("3 2\n" + "".join(f"w{i} {row}\n" for i, row in enumerate(rows)),
                        encoding="utf-8")
        with pytest.raises(EmbedFormatError) as err:
            load_embeddings(path)
        assert str(err.value) == f"{path}: header declares 3 rows, found {len(rows)}"
        path.write_text("3 2\n" + "".join(f"{row}\n" for row in rows), encoding="utf-8")
        with pytest.raises(EmbedFormatError) as err:
            load_matrix(path)
        assert str(err.value) == f"{path}: header declares 3 rows, found {len(rows)}"
    # text after the declared rows, even one empty line, is a row too
    path.write_text("2 2\na 1 0\nb 0 1\n\n", encoding="utf-8")
    with pytest.raises(EmbedFormatError, match=r"declares 2 rows, found 3$"):
        load_embeddings(path)
    # as is undecodable text there, past the header's first decoded chunk
    rows = "".join(f"w{i} 1 0\n" for i in range(2000))
    path.write_bytes(f"2000 2\n{rows}".encode() + b"\xff\n")
    with pytest.raises(EmbedFormatError, match=r"declares 2000 rows, found 2001$"):
        load_embeddings(path)
    # with the right count, the bad row is reported
    path.write_text("3 2\na 1 0\nb 1 0\nc 1 x\n", encoding="utf-8")
    with pytest.raises(EmbedFormatError, match=r":4: unparseable value$"):
        load_embeddings(path)
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmbedFormatError, match=r": empty file$"):
        load_embeddings(path)
    with pytest.raises(EmbedFormatError, match=r": empty file$"):
        load_matrix(path)


def test_header_beyond_the_file_allocates_nothing(tmp_path):
    # a file of S bytes holds at most S // 2 values, each a digit and a
    # separator: a larger header is refused by its row count, or failing
    # that, by its size, before any allocation
    path = tmp_path / "e.vec"
    path.write_text("1000000000000 2\na 1 0\n", encoding="utf-8")
    with pytest.raises(EmbedFormatError) as err:
        load_embeddings(path)
    assert str(err.value) == f"{path}: header declares 1000000000000 rows, found 1"
    path.write_text("1000000000000 2\n1 0\n", encoding="utf-8")
    with pytest.raises(EmbedFormatError) as err:
        load_matrix(path)
    assert str(err.value) == f"{path}: header declares 1000000000000 rows, found 1"
    for load, text in ((load_embeddings, "1 1000000000000\na 1 0\n"),
                       (load_matrix, "1 1000000000000\n1 0\n")):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(EmbedFormatError) as err:
            load(path)
        assert str(err.value) == (f"{path}: header declares 1 x 1000000000000 values, "
                                  f"more than its {len(text)} bytes hold")
    # a file of exactly two bytes a value, its last line without a newline
    path.write_text("2 2\n1 0\n0 1", encoding="utf-8")
    assert np.array_equal(load_matrix(path), np.eye(2))


@pytest.mark.parametrize("block_rows", [2, 256])
def test_errors_come_in_line_order(tmp_path, monkeypatch, block_rows):
    # a bad value is reported before a structural error on a later line of
    # the same read, as a row-by-row reader would; reads of block_rows
    # rows of 6 bytes
    monkeypatch.setattr(embed_io, "READ_BYTES", 6 * block_rows)
    path = tmp_path / "e.vec"
    path.write_text("4 2\na 1 0\nb 1 x\nc\t1 0\nd 0 nan\n", encoding="utf-8")
    with pytest.raises(EmbedFormatError, match=r":3: unparseable value$"):
        load_embeddings(path)
    path.write_text("4 2\na 1 0\nb 1 nan\nc 1 x\nd 0 1\n", encoding="utf-8")
    with pytest.raises(EmbedFormatError, match=r":3: non-finite value$"):
        load_embeddings(path)
    # a value split by \f is found when its block is parsed, still first
    path.write_text("4 2\na 1 0\nb 1\x0c2 0\nc 1 0\nd\t1 0\n", encoding="utf-8")
    with pytest.raises(EmbedFormatError, match=r":3: unparseable value$"):
        load_embeddings(path)
    path.write_text("4 2\na 1 x\nb 1\x0c2 0\nc 1 0\nd\t1 0\n", encoding="utf-8")
    with pytest.raises(EmbedFormatError, match=r":2: unparseable value$"):
        load_embeddings(path)


EDGE_TOKENS = ["don't", "e.g.", "1.5", "-", "perché", "語", "w"]


@pytest.mark.parametrize("size", [1, 7, 64, embed_io.READ_BYTES])
def test_reader_at_read_edges(tmp_path, monkeypatch, size):
    # reads that split a row or are shorter than one, a last line without a
    # newline, tokens holding bytes below "0" or beyond ASCII, CRLF rows and
    # trailing spaces: all read as float() reads each field
    monkeypatch.setattr(embed_io, "READ_BYTES", size)
    rng = np.random.default_rng(7)
    rows, dim = 12, 5
    tokens = [f"{EDGE_TOKENS[i % len(EDGE_TOKENS)]}{i}" for i in range(rows)]
    fields = [[repr(v) for v in rng.normal(size=dim).tolist()] for _ in range(rows)]
    fields[3][1:4] = ["0.5", "1e-05", "-3"]
    want = bits([[float(v) for v in row] for row in fields]).tolist()
    path = tmp_path / "e.vec"
    for ending in ("\n", "\r\n", " \n", "\r \n"):
        for lead, load in ((True, load_embeddings), (False, load_matrix)):
            lines = [(f"{t} " if lead else "") + " ".join(row) + ending
                     for t, row in zip(tokens, fields)]
            for text in (f"{rows} {dim}\n" + "".join(lines),
                         f"{rows} {dim}\n" + "".join(lines)[:-1]):
                path.write_text(text, encoding="utf-8", newline="")
                got = load(path)
                if lead:
                    assert got.vocab.tokens == tuple(tokens)
                    got = got.matrix
                assert bits(got).tolist() == want, (ending, text[-3:])
    # lines are numbered as they appear in the file: a blank line is a row
    for text, message in (("3 2\n1 0\n\n0 1\n", ":3: expected 2 values, found 1"),
                          ("2 2\n1 0\n0 1\n\n", ": header declares 2 rows, found 3")):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(EmbedFormatError, match=f"{message}$"):
            load_matrix(path)
    # undecodable text in a token or a value raises as the text decoder did;
    # a bad row before it comes first, and a wrong row count before both
    for bad in (b"t\xff 1 0\n", b"t 1 0\xff\n", b"t 1 0.\xc3\n"):
        path.write_bytes(b"3 2\na 1 0\n" + bad + b"c 0 1\n")
        with pytest.raises(UnicodeDecodeError):
            load_embeddings(path)
        path.write_bytes(b"3 2\na 1 x\n" + bad + b"c 0 1\n")
        with pytest.raises(EmbedFormatError, match=r":2: unparseable value$"):
            load_embeddings(path)
        path.write_bytes(b"4 2\na 1 0\n" + bad + b"c 0 1\n")
        with pytest.raises(EmbedFormatError, match=r"declares 4 rows, found 3$"):
            load_embeddings(path)


@pytest.mark.parametrize("value", ["1_0", "\u0661", "1\u0660", "\uff11",
                                   "1\u00a0"])
def test_reader_rejects_what_only_float_accepted(tmp_path, value):
    # float() accepts underscores between digits, non-ASCII digits and
    # non-ASCII whitespace around a value; numpy's parse, and so this reader,
    # rejects them
    float(value)
    path = tmp_path / "e.vec"
    path.write_text(f"2 2\na 1 0\nb 0 {value}\n", encoding="utf-8")
    with pytest.raises(EmbedFormatError, match=r":3: unparseable value$"):
        load_embeddings(path)


def test_reader_keeps_ascii_whitespace_rules(tmp_path, monkeypatch):
    # float() strips \r, \v and \f around a value, which numpy's parse also
    # takes as separators: CRLF files load, a value split by them does not
    path = tmp_path / "e.vec"
    path.write_text("2 2\r\na 1 0\r\nb \x0c0 1\x0b\n", encoding="utf-8")
    assert np.array_equal(load_embeddings(path).matrix, [[1, 0], [0, 1]])
    for row in ("b 0 1\x0c2", "b 0 \x0c", "b \r 1\r2"):
        path.write_text(f"2 2\na 1 0\n{row}\n", encoding="utf-8")
        with pytest.raises(EmbedFormatError, match=r":3: unparseable value$"):
            load_embeddings(path)
    # nor is text after a value's digits, as in "0.5abc", in the float parse
    # or in the integer parse of the decimals without their points ("05abc");
    # reads of the first two rows
    monkeypatch.setattr(embed_io, "READ_BYTES", 24)
    real, seen = np.fromstring, []

    def recording(text, dtype=float, sep=""):
        seen.append((np.dtype(dtype), text))
        return real(text, dtype=dtype, sep=sep)

    monkeypatch.setattr(embed_io.np, "fromstring", recording)
    for rows in ("a 1 0\nb 1 0.5abc\nc 0 1\n", "a 1.5 0.25\nb 1.5 0.5abc\nc 0.5 1.5\n"):
        path.write_text("3 2\n" + rows, encoding="utf-8")
        with pytest.raises(EmbedFormatError, match=r":3: unparseable value$"):
            load_embeddings(path)
    assert (np.dtype(np.int64), b"15 025 15 05abc") in seen


def test_numpy_raises_on_unmatched_text():
    # the reader takes a ValueError from np.fromstring as the refusal of
    # text that is not all values: numpy 2 raises where numpy 1 only warned
    # and returned the values before that text
    with pytest.raises(ValueError):
        np.fromstring(b"1 0.5abc", sep=" ")
    with pytest.raises(ValueError):
        np.fromstring(b"15 05abc", dtype=np.int64, sep=" ")
