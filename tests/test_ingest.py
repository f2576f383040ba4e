"""Corpus tokenization and the exploratory word-frequency estimator."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

_WORD = re.compile(r"[^\W_]+")  # the reference tokens: alphanumeric runs, underscore excluded

# Every ASCII code point, then code points where the byte table, the
# non-ASCII separator regex and str.split() could part from the reference:
# "_" (a \w that is no token character), the separators \x1c-\x1f and \x85
# that str.split() splits on, KELVIN SIGN (lowercases to ASCII "k"), dotted
# capital I (lowercases to two code points), sharp s, an accented letter,
# digits that are not ASCII, a right single quote, an em dash, an
# ideographic space and a lone surrogate.
_TEXT_ALPHABET = "".join(map(chr, range(128))) + "_\x1c\x1d\x1e\x1f\u212aİßé½²\u2019\u2014\u3000\x85\ud800"


# ---------- tokenization ----------

def test_tokenize_counts_and_vocab():
    corpus = tokenize("a b a")
    assert corpus.n == 3 and corpus.M == 2
    counts = {tok: int(corpus.counts[idx]) for tok, idx in corpus.vocab.items()}
    assert counts == {"a": 2, "b": 1}
    assert corpus.tokens == ("a", "b", "a")


def test_tokenize_lowercases_and_strips_punctuation():
    assert tokenize("A b, a!!!").tokens == ("a", "b", "a")
    assert tokenize("ÉTÉ Été").tokens == ("été", "été")
    assert tokenize("e-mail e mail").tokens == ("e", "mail", "e", "mail")
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
        assert tokenize(text).tokens == expected


def test_every_code_point_splits_like_the_regex():
    text = "a".join(map(chr, range(0x110000)))  # each code point between two token characters
    assert tokenize(text).tokens == tuple(_WORD.findall(text.lower()))


def test_kelvin_sign_lowercases_to_an_ascii_token():
    assert tokenize("\u212a").tokens == ("k",)
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
    corpus = tokenize(text)
    assert corpus.tokens == tuple(_WORD.findall(text.lower()))
    assert corpus == tokenize(text.encode())


def test_tokenize_accepts_bytes():
    a = tokenize("héllo wörld".encode())
    b = tokenize("héllo wörld")
    assert a.tokens == b.tokens and a.vocab == b.vocab
    np.testing.assert_array_equal(a.counts, b.counts)


def test_tokenize_rejects_empty():
    with pytest.raises(ValidationError, match="empty corpus"):
        tokenize("!!! ??? ...")


def test_tokenize_reports_bad_byte_offset():
    with pytest.raises(ValidationError, match="byte offset 3"):
        tokenize(b"caf\xe9 bad")  # latin-1 bytes are not valid utf-8


def test_corpus_counts_read_only():
    corpus = tokenize("x y x")
    with pytest.raises(ValueError):
        corpus.counts[0] = 5


def test_corpora_and_their_estimates_compare_by_value():
    a, b = tokenize("a b b c"), tokenize("a b b c")
    assert (a == b) is True
    assert (a == tokenize("a b c c")) is False
    assert (estimate_from_corpus(a, 3)[0] == estimate_from_corpus(b, 3)[0]) is True


def test_corpus_derives_vocab_and_counts_from_its_tokens():
    corpus = Corpus(("b", "a", "b"))
    assert corpus.vocab == {"b": 0, "a": 1}  # first-occurrence order
    assert corpus.counts.tolist() == [2, 1] and corpus.counts.dtype == np.int64
    assert corpus == tokenize("b a b")
    # vocabulary and counts can no longer be passed in, so they cannot
    # disagree with the tokens (the tokens give a: 2, b: 1 here)
    with pytest.raises(TypeError):
        Corpus(("a", "a", "b"), {"a": 0, "b": 1}, [1, 2])


def test_corpus_vocab_and_counts_match_a_per_token_loop():
    rng = np.random.default_rng(11)
    words = np.array(["w%d" % i for i in range(300)])[rng.zipf(1.3, 5000) % 300]
    corpus = tokenize(" ".join(words))
    vocab, counts = {}, []
    for w in corpus.tokens:
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
