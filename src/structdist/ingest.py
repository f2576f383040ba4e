"""Turn raw text into word-occurrence counts and estimate the structural
distribution of the scaled word probabilities.

The grouped estimator assumes groups of cells with comparable probabilities;
for a corpus the true probabilities are unknown, so groups are formed by
sorting the observed counts ascending. That proxy ordering makes the output
exploratory rather than a consistency-guaranteed estimate, and the
diagnostics say so. A Corpus holds only its tokens; the vocabulary and the
per-word counts are derived from them, so they cannot disagree.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .estimators import EstimatorOutput, check_regime, grouped_estimator
from .sampling import MULTINOMIAL, CountsVector

_WORD = re.compile(r"[^\W_]+", re.UNICODE)  # alphanumeric runs, underscore excluded


@dataclass(frozen=True)
class Corpus:
    """Tokenized text: the token sequence, and the first-occurrence
    vocabulary and per-word occurrence counts derived from it in one pass.
    Vocabulary and counts follow from the tokens, so two corpora compare
    equal when their tokens do."""

    tokens: tuple[str, ...]
    vocab: dict[str, int] = field(init=False, compare=False)  # word -> index, in order of first occurrence
    counts: np.ndarray = field(init=False, compare=False)  # int64, counts[vocab[w]] = occurrences of w

    def __post_init__(self):
        tokens = tuple(self.tokens)
        occurrences = Counter(tokens)  # keys in order of first occurrence
        counts = np.fromiter(occurrences.values(), dtype=np.int64, count=len(occurrences))
        counts.setflags(write=False)
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "vocab", {w: i for i, w in enumerate(occurrences)})
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return len(self.tokens)

    @property
    def M(self) -> int:
        return self.counts.size


def tokenize(data: bytes | str, lowercase: bool = True) -> Corpus:
    """Lowercase and split on non-alphanumeric runs; vocabulary indices are
    assigned in order of first occurrence.

    Bytes input must be valid UTF-8 (rejected with the offending byte
    offset); text with no alphanumeric content is rejected as empty.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ValidationError(f"invalid UTF-8 at byte offset {e.start}") from e
    else:
        text = data
    if lowercase:
        text = text.lower()
    tokens = _WORD.findall(text)
    if not tokens:
        raise ValidationError("empty corpus: no alphanumeric tokens found")
    return Corpus(tuple(tokens))


def estimate_from_corpus(corpus: Corpus, m: int) -> tuple[EstimatorOutput, dict]:
    """Grouped estimate of the structural CDF from a corpus, with m groups.

    Pads the vocabulary to a multiple of m with zero-count phantom cells
    (never-observed words; at most m-1 of them, n unchanged), sorts counts
    ascending, and groups contiguously. Diagnostics carry lambda_hat = n/M
    for the observed vocabulary, the padding size, the regime ratios
    (computed on the padded model), and the proxy-ordering caveat.
    """
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    if m > corpus.M:
        raise ValidationError(f"m={m} exceeds the vocabulary size M={corpus.M}")
    pad = (-corpus.M) % m
    padded = np.concatenate([np.zeros(pad, dtype=np.int64), np.sort(corpus.counts, kind="stable")])
    M_padded = corpus.M + pad
    est = grouped_estimator(CountsVector(MULTINOMIAL, padded, n=corpus.n), m)
    diagnostics = {
        "n": corpus.n,
        "M": corpus.M,
        "lambda_hat": corpus.n / corpus.M,
        "m": m,
        "k": M_padded // m,
        "phantom_cells": pad,
        "regime": check_regime(M_padded, corpus.n, m),
        "caveat": (
            "exploratory: groups use observed-frequency order as a proxy for the "
            "unknown probability order; no consistency claim for real corpora"
        ),
    }
    return est, diagnostics
