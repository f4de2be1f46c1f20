"""Reference tf-idf featurizer: one document at a time, in plain Python.

Kept apart from the library's batch ``design_matrix`` as the oracle the
reference tests compare it with: raw term frequency times the smoothed
idf ``ln((1 + N) / (1 + df)) + 1``, L2-normalized, computed token by
token from the vocabulary's document frequencies. It tokenizes with its
own copy of the token rule, not with the library's ``tokenize``.
"""

import math
import re
from collections import Counter

from vulnrank.triage.features import Vocabulary

TOKEN_RULE = re.compile(r"[a-z0-9]{2,}")


def tokenize(text: str) -> list[str]:
    """The token rule as the regex states it: lowercase, then every run
    of two or more ASCII letters and digits."""
    return TOKEN_RULE.findall(text.lower())


def featurize(vocab: Vocabulary, text: str) -> dict[int, float]:
    """Column -> weight for one document; empty when no token is in the vocabulary."""
    tf = Counter(token for token in tokenize(text) if token in vocab.index)
    if not tf:
        return {}
    n = vocab.num_documents
    items = sorted(
        (vocab.index[token], count * (math.log((1 + n) / (1 + vocab.document_frequency[token])) + 1.0))
        for token, count in tf.items()
    )
    norm = math.sqrt(sum(weight * weight for _, weight in items))
    return {col: weight / norm for col, weight in items}
