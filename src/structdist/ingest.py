"""Count the words of a text and estimate the structural distribution of
the scaled word probabilities.

The grouped estimator assumes groups of cells with comparable probabilities;
for a corpus the true probabilities are unknown, so groups are formed by
sorting the observed counts ascending. That proxy ordering makes the output
exploratory rather than a consistency-guaranteed estimate, and the
diagnostics say so. A Corpus holds only the word counts, in order of first
occurrence; the text is read in chunks and never held whole.
"""
from __future__ import annotations

import io
import re
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import InitVar, dataclass, field
from typing import BinaryIO

import numpy as np

from .errors import ValidationError
from .estimators import check_regime, grouped_estimator
from .sampling import MULTINOMIAL, CountsVector

# A token is a run of alphanumeric code points (str.isalnum()); every other
# code point separates tokens. The ASCII separators become spaces through one
# byte table on the UTF-8 text (bytes >= 0x80 pass through, so it stays valid
# UTF-8); the non-ASCII separators that are not whitespace then become
# spaces by one regex pass, which only text that is not ASCII needs, and
# str.split() splits on all whitespace.
_ASCII_SEPARATORS = bytes(c if c >= 128 or chr(c).isalnum() else 32 for c in range(256))
_OTHER_SEPARATOR = re.compile(r"[^\x00-\x7f\w\s]")

# The text is read and counted in chunks of _CHUNK bytes (characters for
# str input). A chunk is cut after its last ASCII whitespace character and
# the rest carried into the next: no token spans the cut, and lowering
# looks no further than whitespace for its context (Greek final sigma looks
# past ".", so a cut after "." could change it).
_CHUNK = 1 << 16
_SPACE = " \t\n\r\x0b\x0c"
_SPACE_BYTES = _SPACE.encode()


@dataclass(frozen=True, eq=False)
class Corpus:
    """The word counts of a text: built from a mapping of word to
    occurrences (at least 1 each) in order of first occurrence, from which
    the vocabulary, the counts and the token count n are derived, so they
    cannot disagree. Two corpora are equal when their words come in the
    same order with the same counts."""

    occurrences: InitVar[Mapping[str, int]]
    vocab: dict[str, int] = field(init=False)  # word -> index, in order of first occurrence
    counts: np.ndarray = field(init=False)  # int64, counts[vocab[w]] = occurrences of w
    n: int = field(init=False)  # number of tokens

    def __post_init__(self, occurrences):
        counts = np.fromiter(occurrences.values(), dtype=np.int64, count=len(occurrences))
        if not np.all(counts >= 1):
            raise ValidationError("every word of a corpus must occur at least once")
        counts.setflags(write=False)
        object.__setattr__(self, "vocab", dict(zip(occurrences, range(len(occurrences)))))
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", int(counts.sum()))

    def __eq__(self, other):
        if not isinstance(other, Corpus):
            return NotImplemented
        return list(self.vocab) == list(other.vocab) and np.array_equal(self.counts, other.counts)

    @property
    def M(self) -> int:
        return self.counts.size


def _pieces(chunks: Iterable, space) -> Iterable:
    """The text of `chunks` (bytes or str) in pieces that each end after an
    ASCII whitespace character in `space`, but the last; a stretch with no
    whitespace is carried whole into the next piece."""
    carry = []
    for chunk in chunks:
        cut = max(map(chunk.rfind, space)) + 1
        if cut:
            # the carried chunks are dropped before the piece is counted
            piece, carry = chunk[:0].join([*carry, chunk[:cut]]), [chunk[cut:]]
            yield piece
        else:
            carry.append(chunk)
    if carry:
        piece, carry = carry[0][:0].join(carry), None
        yield piece


def _words(text: str) -> list[str]:
    """The tokens of a piece of text, lowered."""
    # surrogatepass: str input may hold lone surrogates, which are separators
    text = text.lower().encode("utf-8", "surrogatepass").translate(_ASCII_SEPARATORS).decode("utf-8", "surrogatepass")
    return (text if text.isascii() else _OTHER_SEPARATOR.sub(" ", text)).split()


def _texts(data: bytes | str | BinaryIO) -> Iterable[str]:
    """The text of `data` in pieces cut after ASCII whitespace, decoded;
    bytes are read _CHUNK at a time and must be valid UTF-8."""
    if isinstance(data, str):
        yield from _pieces((data[i:i + _CHUNK] for i in range(0, len(data), _CHUNK)), _SPACE)
        return
    stream = io.BytesIO(data) if isinstance(data, bytes) else data
    offset = 0
    for piece in _pieces(iter(lambda: stream.read(_CHUNK), b""), _SPACE_BYTES):
        try:
            yield piece.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ValidationError(f"invalid UTF-8 at byte offset {offset + e.start}") from e
        offset += len(piece)


def tokenize(data: bytes | str | BinaryIO) -> Corpus:
    """Fold to lower case, split on runs of non-alphanumeric code points
    (the tokens of the regex [^\\W_]+ on the lowered text) and count the
    tokens; vocabulary indices are assigned in order of first occurrence.

    data is the text as bytes, as str, or as a binary file object read to
    its end. It is read and counted in chunks of _CHUNK (64 KiB) cut after
    ASCII whitespace, so memory is bounded by the vocabulary plus the
    longest stretch without whitespace; the counts are those of the whole
    text. Bytes must be valid UTF-8 (rejected with the offending byte
    offset in the whole input); text with no alphanumeric content is
    rejected as empty.
    """
    occurrences = Counter()  # keys in order of first occurrence
    for text in _texts(data):
        occurrences.update(_words(text))
    if not occurrences:
        raise ValidationError("empty corpus: no alphanumeric tokens found")
    return Corpus(occurrences)


def estimate_from_corpus(corpus: Corpus, m: int) -> tuple[CountsVector, dict]:
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
