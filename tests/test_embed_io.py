import numpy as np
import pytest

from xlingmap.embed_io import (
    EmbedFormatError,
    EmbeddingTable,
    FrequencyTable,
    Vocabulary,
    load_embeddings,
    load_frequencies,
    load_matrix,
    normalize_rows,
    save_embeddings,
    save_frequencies,
    save_matrix,
)

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
    ("0 2\n", "positive"),
    ("1 2\na 1 0  \n", "found 4"),
    ("1 2\na 1 0\t\n", "tab"),
    ("1 2\na 1\t0\n", "tab"),
    ("1 2 \na 1 0 \n", "header"),
])
def test_load_rejects_malformed(tmp_path, content, fragment):
    path = tmp_path / "e.vec"
    path.write_text(content, encoding="utf-8")
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
    assert back.vocab == t.vocab
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
    with pytest.raises(ValueError, match="'b'"):
        normalize_rows(t)


def test_load_frequencies_basic(tmp_path):
    vocab = Vocabulary(["a", "b"])
    path = tmp_path / "f.tsv"
    path.write_text("a\t9\nb\t1\n", encoding="utf-8")
    f = load_frequencies(path, vocab)
    assert f.counts == {"a": 9, "b": 1}
    assert f.total == 10


def test_load_frequencies_floor_for_missing(tmp_path):
    vocab = Vocabulary(["a", "b", "c"])
    path = tmp_path / "f.tsv"
    path.write_text("a\t9\nb\t1\n", encoding="utf-8")
    f = load_frequencies(path, vocab)
    assert f.counts["c"] == 1
    assert f.total == 11


@pytest.mark.parametrize("content", ["a\t-3\n", "a\t2.5\n", "a\tx\n", "a 3\n"])
def test_load_frequencies_rejects_bad_counts(tmp_path, content):
    vocab = Vocabulary(["a"])
    path = tmp_path / "f.tsv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(EmbedFormatError):
        load_frequencies(path, vocab)


def test_load_frequencies_empty_file(tmp_path):
    path = tmp_path / "f.tsv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmbedFormatError, match="empty"):
        load_frequencies(path, Vocabulary(["a"]))


def test_frequency_save_load_identity(tmp_path):
    vocab = Vocabulary([f"w{i}" for i in range(20)])
    rng = np.random.default_rng(8)
    counts = {t: int(c) for t, c in zip(vocab.tokens, rng.integers(0, 1000, 20))}
    f = FrequencyTable(vocab, counts)
    path = tmp_path / "f.tsv"
    save_frequencies(f, path)
    back = load_frequencies(path, vocab)
    assert back.counts == f.counts
    assert back.total == f.total


def test_frequency_table_validates():
    vocab = Vocabulary(["a"])
    with pytest.raises(ValueError):
        FrequencyTable(vocab, {"a": -1})
    with pytest.raises(ValueError):
        FrequencyTable(vocab, {"a": 1.5})


def test_embedding_table_validates():
    with pytest.raises(ValueError, match="row count"):
        EmbeddingTable(Vocabulary(["a", "b"]), [[1.0, 2.0]])
    with pytest.raises(ValueError, match="non-finite"):
        EmbeddingTable(Vocabulary(["a"]), [[np.nan, 1.0]])


def test_matrix_text_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    m = rng.normal(size=(5, 3))
    path = tmp_path / "m.txt"
    save_matrix(m, path)
    assert np.array_equal(load_matrix(path), m)
