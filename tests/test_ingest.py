"""Corpus tokenization and the exploratory word-frequency estimator."""

import io
import re
import tracemalloc
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from structdist import (
    Corpus,
    RngStream,
    ValidationError,
    cells_from_generator,
    draw_multinomial,
    estimate_from_corpus,
    example_generator,
    limit_sdf,
    sup_distance,
    tokenize,
)
from structdist import ingest
from structdist.ingest import _texts, _words

_WORD = re.compile(r"[^\W_]+")  # the reference tokens: alphanumeric runs, underscore excluded

# Every ASCII code point, then code points where the byte table, the
# non-ASCII separator regex and str.split() could part from the reference:
# "_" (a \w that is no token character), the separators \x1c-\x1f and \x85
# that str.split() splits on, KELVIN SIGN (lowercases to ASCII "k"), dotted
# capital I (lowercases to two code points), sharp s, an accented letter,
# digits that are not ASCII, a right single quote, an em dash, an
# ideographic space and a lone surrogate.
_TEXT_ALPHABET = "".join(map(chr, range(128))) + "_\x1c\x1d\x1e\x1f\u212aİßé½²\u2019\u2014\u3000\x85\ud800"


def tokens_of(data) -> tuple[str, ...]:
    """The token sequence tokenize counts: the token lists of its pieces,
    concatenated in order."""
    return tuple(token for text in _texts(data) for token in _words(text))


def assert_tokens(data, expected):
    """data has exactly the tokens `expected`, in order, and tokenize counts
    them: the vocabulary in order of first occurrence, the counts and n. A
    file is read twice, from its start."""
    expected = tuple(expected)
    assert tokens_of(data) == expected
    if isinstance(data, io.IOBase):
        data.seek(0)
    corpus = tokenize(data)
    assert corpus == Corpus(Counter(expected))
    assert corpus.n == len(expected)


def outcome(data):
    """What tokenize makes of data: (vocabulary in order, counts, n), or the
    message of the ValidationError it raises."""
    try:
        corpus = tokenize(data)
    except ValidationError as e:
        return str(e)
    return list(corpus.vocab), corpus.counts.tolist(), corpus.n


# ---------- tokenization ----------

def test_tokenize_counts_and_vocab():
    corpus = tokenize("a b a")
    assert corpus.n == 3 and corpus.M == 2
    counts = {tok: int(corpus.counts[idx]) for tok, idx in corpus.vocab.items()}
    assert counts == {"a": 2, "b": 1}
    assert_tokens("a b a", ("a", "b", "a"))


def test_tokenize_lowercases_and_strips_punctuation():
    assert_tokens("A b, a!!!", ("a", "b", "a"))
    assert_tokens("ÉTÉ Été", ("été", "été"))
    assert_tokens("e-mail e mail", ("e", "mail", "e", "mail"))
    assert tokenize("__under__ under").M == 1  # underscores are separators


def test_tokenize_unicode_words():
    corpus = tokenize("café naïve café")
    assert corpus.M == 2 and corpus.n == 3


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet=st.sampled_from(_TEXT_ALPHABET), max_size=60))
def test_tokenize_gives_the_regex_tokens(text):
    expected = tuple(_WORD.findall(text.lower()))
    if not expected:
        with pytest.raises(ValidationError, match="empty corpus"):
            tokenize(text)
    else:
        assert_tokens(text, expected)


def test_every_code_point_splits_like_the_regex():
    text = "a".join(map(chr, range(0x110000)))  # each code point between two token characters
    assert_tokens(text, _WORD.findall(text.lower()))


def test_kelvin_sign_lowercases_to_an_ascii_token():
    assert_tokens("\u212a", ("k",))
    assert tokenize("\u212a k K").M == 1


@pytest.mark.parametrize("letters, seps", [
    ("abcdefghijklmnopqrstuvwxyz0123456789_", [" ", "\n", ", ", "; ", "-", "\t", "!! ", "\x1f"]),
    ("abcdeéèàüßİ\u212a½", [" ", "\n", "\u2019", " \u2014 ", "\u3000", "\x85", ", "]),
], ids=["ascii", "non-ascii"])
def test_zipf_corpus_splits_like_the_regex(letters, seps):
    rng = np.random.default_rng(5)
    vocab = ["".join(rng.choice(list(letters), rng.integers(1, 9))) for _ in range(500)]
    words = rng.zipf(1.2, 20000) % len(vocab)
    text = "".join(vocab[w] + seps[i % len(seps)] for i, w in enumerate(words)).upper()
    assert len(text.encode()) > ingest._CHUNK  # read in more than one chunk
    expected = _WORD.findall(text.lower())
    assert_tokens(text, expected)
    assert_tokens(text.encode(), expected)
    assert_tokens(io.BytesIO(text.encode()), expected)


def test_tokenize_accepts_bytes():
    """Bytes, str and a binary file give one corpus."""
    a = tokenize("héllo wörld".encode())
    b = tokenize("héllo wörld")
    assert tokens_of("héllo wörld".encode()) == tokens_of("héllo wörld") == ("héllo", "wörld")
    assert a == b and a.vocab == b.vocab
    np.testing.assert_array_equal(a.counts, b.counts)
    assert tokenize(io.BytesIO("héllo wörld".encode())) == b


def test_tokenize_rejects_empty():
    for data in ("!!! ??? ...", "", b"", b" \n\t ", io.BytesIO(b"")):
        with pytest.raises(ValidationError, match="empty corpus: no alphanumeric tokens found"):
            tokenize(data)


def test_tokenize_reports_bad_byte_offset():
    with pytest.raises(ValidationError, match="byte offset 3"):
        tokenize(b"caf\xe9 bad")  # latin-1 bytes are not valid utf-8


def test_corpus_counts_read_only():
    corpus = tokenize("x y x")
    with pytest.raises(ValueError):
        corpus.counts[0] = 5


# ---------- chunks ----------

# Pieces of text where a chunk cut could go wrong: a multi-byte character,
# \r\n, Greek capitals whose final sigma looks past "." but not past
# whitespace, a lone surrogate (str input only; in bytes it is invalid
# UTF-8) and a stretch with no whitespace.
_CHUNK_PIECES = [*_TEXT_ALPHABET, "\r\n", "é", "ΟΔΟΣ.", "ΑΣ.Β", "Σ", "Β", "wordwithoutspaces"]


@settings(max_examples=300, deadline=None)
@given(text=st.lists(st.sampled_from(_CHUNK_PIECES), max_size=40).map("".join), chunk=st.integers(1, 12),
       kind=st.sampled_from(["bytes", "str", "file"]))
@example(text="ΑΣ.Β ΟΔΟΣ. ΟΔΟΣ", chunk=3, kind="bytes")
@example(text="caf\u00e9 \u00e9t\u00e9\r\n\u00e9t\u00e9", chunk=1, kind="file")
def test_counts_do_not_depend_on_the_chunk_size(text, chunk, kind):
    """Down to one byte (one character for str) a chunk gives the vocabulary
    in order, the counts and n of the whole text, or the same error."""
    data = text if kind == "str" else text.encode("utf-8", "surrogatepass")
    whole = outcome(data)  # one chunk: the text is shorter than _CHUNK
    with patch.object(ingest, "_CHUNK", chunk):
        assert outcome(io.BytesIO(data) if kind == "file" else data) == whole
        if not isinstance(whole, str):
            assert tokens_of(data) == tuple(_WORD.findall(text.lower()))
    expected = Counter(_WORD.findall(text.lower()))
    if kind != "str" and "\ud800" in text:
        assert whole == f"invalid UTF-8 at byte offset {data.index(chr(0xd800).encode('utf-8', 'surrogatepass'))}"
    elif not expected:
        assert whole == "empty corpus: no alphanumeric tokens found"
    else:
        assert whole == (list(expected), list(expected.values()), sum(expected.values()))


@pytest.mark.parametrize("chunk", range(1, 20))
@pytest.mark.parametrize("data", [
    "caf\u00e9 \u00e9t\u00e9 \u00e9t\u00e9".encode(),  # two-byte characters at every cut
    "\u4e2d\u6587 \u2014 \U0001d400x\r\nx\r\n".encode(),  # three and four bytes, \r\n
    "ΑΣ.Β ΟΔΟΣ.\nΟΔΟΣ ΑΣ.ΒΑΣ".encode(),  # final sigma before "."
    b"x" * 45 + b" y\r\n" + b"x" * 45,  # stretches without whitespace: the carry grows
], ids=["two-byte", "long-chars-crlf", "final-sigma", "no-whitespace"])
def test_every_cut_counts_the_whole_text(chunk, data):
    expected = _WORD.findall(data.decode().lower())
    with patch.object(ingest, "_CHUNK", chunk):
        for source in (data, data.decode(), io.BytesIO(data)):
            assert_tokens(source, expected)


def test_final_sigma_is_lowered_in_its_context_across_cuts():
    """"ΑΣ.Β".lower() keeps σ, since Β follows past the "."; lowering "ΑΣ."
    and "Β" apart would give ς. A cut falls only after whitespace."""
    assert "ΑΣ.Β".lower() == "ασ.β" and "ΑΣ.".lower() + "Β".lower() == "ας.β"
    for chunk in range(1, 6):
        with patch.object(ingest, "_CHUNK", chunk):
            assert_tokens("ΑΣ.Β".encode(), ("ασ", "β"))
            assert_tokens("ΑΣ. Β", ("ας", "β"))


def test_a_lone_surrogate_in_str_input_separates_at_any_cut():
    for chunk in range(1, 8):
        with patch.object(ingest, "_CHUNK", chunk):
            assert_tokens("ab\ud800cd ef\ud800", ("ab", "cd", "ef"))


@pytest.mark.parametrize("chunk", [1, 7, 16, 1 << 16])
def test_invalid_utf8_in_a_later_chunk_names_the_absolute_offset(chunk):
    data = b"word " * 100 + b"caf\xe9 bad"
    with patch.object(ingest, "_CHUNK", chunk):
        for source in (data, io.BytesIO(data)):
            with pytest.raises(ValidationError, match="invalid UTF-8 at byte offset 503$"):
                tokenize(source)


def test_a_truncated_character_at_the_end_names_its_offset():
    with patch.object(ingest, "_CHUNK", 2):
        with pytest.raises(ValidationError, match="byte offset 4$"):
            tokenize(b"ab c\xc3")


def _peak_of_tokenize(data) -> int:
    tokenize(data[:100])  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        tokenize(data)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["bytes", "str"])
def test_text_joined_only_by_non_ascii_whitespace_is_read_chunk_by_chunk(kind):
    """250000 words joined only by U+3000 (ideographic space), with no ASCII
    whitespace, 18 chunks of characters or 26 of bytes, are cut after that
    space: tokenize peaks at a chunk's words and the counts, as on the same
    words joined by " ", not with the text's size (read whole, lowered and
    split, such a text peaked at 20 to 22 MB)."""
    words = [f"w{i % 500}" for i in range(250000)]
    data = [sep.join(words) for sep in ("\u3000", " ")]
    data = [text.encode() for text in data] if kind == "bytes" else data
    assert tokenize(data[0]) == tokenize(data[1]) == Corpus(Counter(words))
    peak, ascii_peak = map(_peak_of_tokenize, data)
    assert peak < 1.5 * ascii_peak and peak < 32 * ingest._CHUNK


def test_corpora_and_their_estimates_compare_by_value():
    a, b = tokenize("a b b c"), tokenize("a b b c")
    assert (a == b) is True
    assert (a == tokenize("a b c c")) is False
    assert (a == tokenize("b a b c")) is False  # the same counts, words in another order
    assert (a == tokenize("a b c b")) is True  # a corpus keeps counts, not the token order
    with pytest.raises(TypeError):
        hash(a)  # compared by value, so unhashable like the counts it holds
    assert (estimate_from_corpus(a, 3)[0] == estimate_from_corpus(b, 3)[0]) is True


def test_corpus_derives_vocab_counts_and_n_from_its_occurrences():
    corpus = Corpus({"b": 2, "a": 1})
    assert list(corpus.vocab.items()) == [("b", 0), ("a", 1)]  # first-occurrence order
    assert corpus.counts.tolist() == [2, 1] and corpus.counts.dtype == np.int64
    assert corpus.n == 3 and corpus.M == 2
    assert corpus == tokenize("b a b")
    # vocabulary, counts and n cannot be passed in, so they cannot disagree
    # with the occurrences (which give a: 2, b: 1 here)
    with pytest.raises(TypeError):
        Corpus({"a": 2, "b": 1}, {"a": 0, "b": 1}, [1, 2])
    with pytest.raises(ValidationError, match="at least once"):
        Corpus({"a": 2, "b": 0})


def test_corpus_vocab_and_counts_match_a_per_token_loop():
    rng = np.random.default_rng(11)
    words = np.array(["w%d" % i for i in range(300)])[rng.zipf(1.3, 5000) % 300]
    corpus = tokenize(" ".join(words))
    assert tokens_of(" ".join(words)) == tuple(words) and corpus.n == words.size
    vocab, counts = {}, []
    for w in words:
        if w not in vocab:
            vocab[w] = len(counts)
            counts.append(0)
        counts[vocab[w]] += 1
    assert list(corpus.vocab.items()) == list(vocab.items())
    np.testing.assert_array_equal(corpus.counts, counts)


# ---------- corpus estimator ----------

def test_single_group_collapses_to_unit_jump():
    est, diag = estimate_from_corpus(tokenize("a b a"), 1)
    np.testing.assert_array_equal(est.cdf.locations, [1.0])
    np.testing.assert_array_equal(est.cdf.masses, [1.0])
    assert diag["phantom_cells"] == 0
    assert diag["lambda_hat"] == pytest.approx(1.5)


def test_equal_frequencies_single_jump():
    est, _ = estimate_from_corpus(tokenize("a b c d"), 2)
    # every group holds total 2, scaled location (m/n)*2 = 1
    np.testing.assert_array_equal(est.cdf.locations, [1.0])


def test_groups_sort_counts_ascending():
    est, diag = estimate_from_corpus(tokenize("a b a"), 2)
    # sorted counts (1, 2), k=1: locations (2/3)*count
    np.testing.assert_allclose(est.cdf.locations, [2 / 3, 4 / 3])
    np.testing.assert_array_equal(est.cdf.masses, [0.5, 0.5])
    assert diag["k"] == 1 and diag["phantom_cells"] == 0


def test_padding_adds_phantom_cells_in_front():
    est, diag = estimate_from_corpus(tokenize("a b c b c c"), 2)
    # M=3 pads to 4; padded sorted counts (0, 1, 2, 3) group to (1, 5)
    assert diag["phantom_cells"] == 1
    np.testing.assert_allclose(est.cdf.locations, np.array([1.0, 5.0]) * 2 / 6)
    assert diag["n"] == 6 and diag["M"] == 3  # n untouched by padding


def test_phantom_padding_never_reaches_m():
    for m in (2, 3, 4, 5):
        corpus = tokenize("q w e r t y u")  # 7 singleton words
        if m > corpus.M:
            continue
        _, diag = estimate_from_corpus(corpus, m)
        assert diag["phantom_cells"] <= m - 1


def test_estimator_rejects_bad_m():
    corpus = tokenize("a b a")
    with pytest.raises(ValidationError):
        estimate_from_corpus(corpus, 0)
    with pytest.raises(ValidationError):
        estimate_from_corpus(corpus, 3)  # vocabulary only has 2 words


def test_diagnostics_carry_regime_and_caveat():
    _, diag = estimate_from_corpus(tokenize("a a a b b c"), 3)
    assert diag["regime"]["lambda_hat"] == pytest.approx(2.0)
    assert "exploratory" in diag["caveat"]


def test_synthetic_corpus_recovers_limit_cdf():
    """Round trip: sample a known cell model, serialize counts as a shuffled
    text, re-ingest, and check the grouped estimate tracks the known limit.

    The residual gap (~0.11 at this size) is dominated by never-observed
    words stretching the observed-vocabulary scale, not by the grouping.
    """
    gen = example_generator()
    cells = cells_from_generator(gen, 1000)
    vec = draw_multinomial(cells, 3000, RngStream(3).generator())
    words = [f"w{j}" for j in range(1000)]
    toks = np.repeat(np.arange(1000), vec.counts)
    RngStream(3, 999).generator().shuffle(toks)
    corpus = tokenize(" ".join(words[t] for t in toks))

    est, diag = estimate_from_corpus(corpus, 40)
    assert diag["M"] == 842          # zero-count words never reach the corpus
    assert diag["phantom_cells"] == 38
    d = sup_distance(est.cdf, limit_sdf(gen))
    assert d < 0.15
