"""Tokenization and tf-idf featurization of vulnerability descriptions.

Deliberately minimal text handling: lowercase, split on anything that is
not an ASCII letter or digit, drop single-character tokens, no stemming
and no stop-word removal. CVE descriptions carry their signal in raw
technical tokens ("smbv1", "ssl_context" -> "ssl", "context"), which
this keeps intact. The rule is ``TOKEN_RE.findall(text.lower())``.

ASCII text, nearly every description, takes an exact fast path: one
byte table maps ``A-Z`` to ``a-z``, keeps ``a-z0-9`` and turns every
other byte into a space, and the result is split on the spaces. Text
with any non-ASCII character keeps the regex, because ``str.lower`` can
make ASCII letters from other ones: the Kelvin sign lowers to ``k`` and
a dotted capital I to ``i`` plus a combining dot.

A document's tf-idf weight for vocabulary token ``t`` is its raw count
of ``t`` times the smoothed idf ``ln((1 + N) / (1 + df(t))) + 1``, where
``N`` is the number of documents the vocabulary was fitted on and
``df(t)`` the number of them holding ``t``; each document's weights are
then divided by their L2 norm. Out-of-vocabulary tokens are ignored, so
a document with no known token is the zero vector.

A corpus becomes a ``CsrMatrix``: compressed sparse rows,
where row ``i`` holds the ascending column ids
``indices[indptr[i]:indptr[i+1]]`` and their weights at the same
positions of ``data``. Memory is 16 bytes per stored weight plus 8 per
row, independent of the vocabulary size; a dense n-by-V matrix of
NVD-scale descriptions would not fit in memory at all. ``design_matrix``
works through ``BLOCK_TEXTS`` texts at a time, so its transients (the
column ids of every token, their sort and the per-cell term counts) are
held for one block only, and the matrix is the blocks' rows joined.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

TOKEN_RE = re.compile(r"[a-z0-9]{2,}")
# Texts featurized at a time: design_matrix's temporaries and predict_texts'
# scores are held for one block, never for the whole corpus.
BLOCK_TEXTS = 256
# The ASCII fast path's table: A-Z to a-z, a-z and 0-9 kept, any other byte a space.
_ASCII_FOLD = bytes(
    c + 32 if 65 <= c <= 90 else c if 97 <= c <= 122 or 48 <= c <= 57 else 32 for c in range(256)
)


class EmptyCorpus(ValueError):
    """A vocabulary cannot be fitted on zero documents."""


def _pieces(text: str) -> list[str]:
    """The tokens of ``text`` in order, and on the ASCII path also the
    single characters that ``tokenize`` drops."""
    if text.isascii():
        return text.encode("ascii").translate(_ASCII_FOLD).decode("ascii").split()
    return TOKEN_RE.findall(text.lower())


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric tokens of length >= 2."""
    return [piece for piece in _pieces(text) if len(piece) > 1]


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-column map plus the document frequencies behind idf.

    Every token is one ``tokenize`` can produce (``TOKEN_RE`` matches it
    whole), and the columns are exactly ``0 .. size-1``. ``idf[column]`` is
    the smoothed idf of the column's token, computed once, when the
    vocabulary is made. It takes no part in ``==`` or ``repr``, since the
    other fields determine it.
    """

    index: Mapping[str, int]
    document_frequency: Mapping[str, int]
    num_documents: int
    idf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, size = self.num_documents, self.size
        if type(n) is not int or n < 1:
            raise ValueError(f"num_documents {n!r} is not an int >= 1")
        idf = np.full(size, np.nan)
        for token, column in self.index.items():
            df = self.document_frequency[token]
            if type(token) is not str or type(df) is not int or not 1 <= df <= n:
                raise ValueError(f"token {token!r} has document frequency {df!r}, not in [1, {n}]")
            if type(column) is not int or not 0 <= column < size:
                raise ValueError(f"token {token!r} has column {column!r}, not in [0, {size})")
            # design_matrix looks up raw pieces, single characters included.
            if not TOKEN_RE.fullmatch(token):
                raise ValueError(f"token {token!r} is not a token tokenize can produce")
            # Smoothed idf; never zero, so every vocabulary token contributes.
            # math.log token by token, since np.log need not match it bit for bit.
            idf[column] = math.log((1 + n) / (1 + df)) + 1.0
        # Each token set one column in [0, size), so all are set only if no
        # two tokens share one.
        if np.isnan(idf).any():
            raise ValueError("two tokens share a column")
        object.__setattr__(self, "idf", idf)

    @property
    def size(self) -> int:
        return len(self.index)


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """Featurized documents as compressed sparse rows (see module docstring)."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    dim: int

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.indptr) - 1, self.dim

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes

    def __matmul__(self, dense: np.ndarray) -> np.ndarray:
        """This matrix times a dense (dim, k) matrix, as a dense (n, k) array.

        Each output cell sums its row's products in ascending column
        order, so the result does not depend on how many rows share the
        call.
        """
        n = self.shape[0]
        row_of = np.repeat(np.arange(n), np.diff(self.indptr))
        out = np.empty((n, dense.shape[1]))
        for j in range(dense.shape[1]):
            out[:, j] = np.bincount(row_of, weights=self.data * dense[self.indices, j], minlength=n)
        return out


def fit_vocabulary(corpus: Sequence[str], min_df: int = 1) -> Vocabulary:
    """Fit a vocabulary over a corpus of descriptions.

    Tokens must appear in at least ``min_df`` documents; columns are
    assigned in lexicographic token order so refitting the same corpus
    reproduces the identical vocabulary.
    """
    if not corpus:
        raise EmptyCorpus("cannot fit a vocabulary on an empty corpus")
    if not min_df >= 1:
        raise ValueError(f"min_df must be >= 1, got {min_df}")
    df: Counter[str] = Counter()
    for text in corpus:
        df.update(set(_pieces(text)))
    kept = sorted(token for token, count in df.items() if count >= min_df and len(token) > 1)
    return Vocabulary(
        index={token: col for col, token in enumerate(kept)},
        document_frequency={token: df[token] for token in kept},
        num_documents=len(corpus),
    )


def design_matrix(vocab: Vocabulary, texts: Sequence[str]) -> CsrMatrix:
    """tf-idf weights of every text (see module docstring), one CSR row per text in order.

    Built ``BLOCK_TEXTS`` texts at a time. A row depends only on its own
    text, so the arrays are the same, value and dtype, for any block size.
    """
    # An empty corpus still makes one, empty, block, which sets the dtypes.
    starts = range(0, len(texts) or 1, BLOCK_TEXTS)
    row_nnz, indices, data = zip(*(_block(vocab, texts[lo : lo + BLOCK_TEXTS]) for lo in starts))
    indptr = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(row_nnz), out=indptr[1:])
    # Rebinding frees each kind of block array once it is joined.
    indices = np.concatenate(indices)
    data = np.concatenate(data)
    return CsrMatrix(indptr=indptr, indices=indices, data=data, dim=vocab.size)


def _block(vocab: Vocabulary, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """How many weights each row stores, then the column ids and weights, of a block of texts."""
    get = vocab.index.get
    cols: list[int] = []
    lengths = []
    for text in texts:
        known = [col for col in map(get, _pieces(text)) if col is not None]
        cols.extend(known)
        lengths.append(len(known))
    n, dim = len(texts), vocab.size
    # One key per (row, column) cell; unique keys come back sorted by row,
    # then column, and their multiplicities are the term frequencies.
    keys = np.repeat(np.arange(n, dtype=np.int64), lengths) * dim + np.array(cols, dtype=np.int64)
    keys, tf = np.unique(keys, return_counts=True)
    row_of, col = np.divmod(keys, dim)
    weights = tf * vocab.idf[col]
    norms = np.sqrt(np.bincount(row_of, weights=weights * weights, minlength=n))
    weights /= norms[row_of]
    return np.bincount(row_of, minlength=n), col, weights
