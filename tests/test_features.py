"""Tokenizer, vocabulary fitting, and tf-idf featurization."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vulnrank.triage.features import (
    EmptyCorpus,
    Vocabulary,
    design_matrix,
    fit_vocabulary,
    tokenize,
)

from tfidf_reference import featurize, tokenize as reference_tokenize


def row(vocab, text) -> dict[int, float]:
    """Column -> weight of ``text``'s design-matrix row."""
    X = design_matrix(vocab, [text])
    return dict(zip(X.indices.tolist(), X.data.tolist()))


class TestTokenize:
    def test_plain_description(self):
        text = "allows remote attackers to execute arbitrary code"
        assert tokenize(text) == [
            "allows", "remote", "attackers", "to", "execute", "arbitrary", "code",
        ]

    def test_technical_tokens_split_and_kept(self):
        assert tokenize("SMBv1 server (MS17-010)!") == ["smbv1", "server", "ms17", "010"]

    def test_empty(self):
        assert tokenize("") == []

    def test_short_tokens_dropped(self):
        assert tokenize("a b& c2 x") == ["c2"]

    def test_underscore_splits(self):
        assert tokenize("ssl_context") == ["ssl", "context"]


# Text whose lowercase holds ASCII letters made from other characters
# (the dotted capital I lowers to "i" plus a combining dot, the Kelvin
# sign to "k"), fullwidth and other Unicode letters and digits the rule
# does not take, characters str.split treats as whitespace (file
# separator, NEL, no-break space), and pieces of one character.
TRICKY_TEXTS = [
    "\u0130", "\u0130nstall \u0130\u0130", "\u212a", "\u212a\u212aB \u212aey",
    "\uff21\uff11 \uff41\uff42", "caf\xe9 na\xefve \xb2\xb3 \u0663\u0664",
    "ab\x1ccd", "ab\x85cd", "ab\xa0cd",
    "", "a", "Z", "7", "_", " ", "\x00", "\x7f", "\xe9", "a b c", "x_y-z", "ab", "AB", "a1", "9z",
]


class TestTokenizeIdentity:
    """tokenize against the token rule as the regex states it, over any text."""

    @pytest.mark.parametrize("text", TRICKY_TEXTS)
    def test_tricky_text(self, text):
        assert tokenize(text) == reference_tokenize(text)

    def test_non_ascii_lowercase_keeps_its_ascii_letters(self):
        assert tokenize("\u0130nstall \u0130\u0130") == ["nstall"]
        assert tokenize("\u212a\u212aB \u212aey") == ["kkb", "key"]
        assert tokenize("\uff21\uff11 \uff41\uff42") == []
        assert tokenize("ab\x1ccd ab\x85cd ab\xa0cd") == ["ab", "cd"] * 3

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.text() | st.text(st.characters(max_codepoint=127)))
    @example("\x1c\x1d\x1e\x1f\x0b\x0c AbC")
    @example("\u2028\u2029\u3000x\u00a0yy")
    def test_matches_the_regex(self, text):
        assert tokenize(text) == reference_tokenize(text)


class TestFitVocabulary:
    def test_counting(self):
        vocab = fit_vocabulary(["aa bb", "bb cc"], min_df=1)
        assert set(vocab.index) == {"aa", "bb", "cc"}
        assert vocab.document_frequency == {"aa": 1, "bb": 2, "cc": 1}
        assert vocab.num_documents == 2

    def test_min_df_threshold(self):
        vocab = fit_vocabulary(["aa bb", "bb cc"], min_df=2)
        assert set(vocab.index) == {"bb"}

    def test_lexicographic_columns(self):
        vocab = fit_vocabulary(["zz yy xx"], min_df=1)
        assert vocab.index == {"xx": 0, "yy": 1, "zz": 2}

    def test_repeat_within_doc_counts_once_for_df(self):
        vocab = fit_vocabulary(["aa aa aa", "bb"], min_df=2)
        assert "aa" not in vocab.index

    def test_deterministic_rebuild(self):
        rng = random.Random(3)
        pool = [f"tok{n}" for n in range(60)]
        corpus = [" ".join(rng.choices(pool, k=12)) for _ in range(200)]
        assert fit_vocabulary(corpus, min_df=2) == fit_vocabulary(corpus, min_df=2)

    def test_invariants_on_random_corpora(self):
        rng = random.Random(31)
        pool = [f"tok{n}" for n in range(40)]
        for _ in range(20):
            corpus = [
                " ".join(rng.choices(pool, k=rng.randrange(1, 15)))
                for _ in range(rng.randrange(1, 50))
            ]
            vocab = fit_vocabulary(corpus, min_df=rng.choice((1, 2, 3)))
            # Columns are dense 0..V-1 and no df exceeds the corpus size.
            assert sorted(vocab.index.values()) == list(range(vocab.size))
            assert all(1 <= df <= vocab.num_documents for df in vocab.document_frequency.values())
            assert set(vocab.document_frequency) == set(vocab.index)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            fit_vocabulary([], min_df=1)

    def test_bad_min_df(self):
        with pytest.raises(ValueError):
            fit_vocabulary(["aa"], min_df=0)


class TestVocabulary:
    def test_idf_computed_once_per_column(self):
        vocab = fit_vocabulary(["alpha beta", "beta gamma", "beta beta delta"], min_df=1)
        for token, col in vocab.index.items():
            df = vocab.document_frequency[token]
            assert vocab.idf[col] == math.log(4 / (1 + df)) + 1.0
        assert vocab.idf.shape == (vocab.size,)
        assert "idf" not in repr(vocab)

    @pytest.mark.parametrize(
        "tokens, num_documents",
        [
            ({"aa": 1}, 0),
            ({"aa": 1}, -1),
            ({"aa": 1}, "3"),
            ({"aa": 1}, 2.0),
            ({"aa": 1}, True),
            ({"aa": 0}, 3),
            ({"aa": -1}, 3),
            ({"aa": 4}, 3),
            ({"aa": "1"}, 3),
            ({"aa": 1.0}, 3),
            ({"aa": True}, 3),
            ({7: 1}, 3),
            ({"Foo": 1}, 3),
            ({"a": 1}, 3),
            ({"a b": 1}, 3),
        ],
        ids=[
            "zero-documents", "negative-documents", "string-documents", "float-documents",
            "bool-documents", "zero-df", "negative-df", "df-above-documents", "string-df",
            "float-df", "bool-df", "int-token", "upper-case-token", "one-letter-token",
            "spaced-token",
        ],
    )
    def test_bad_counts_rejected(self, tokens, num_documents):
        with pytest.raises(ValueError):
            Vocabulary(
                index={token: col for col, token in enumerate(tokens)},
                document_frequency=tokens,
                num_documents=num_documents,
            )

    @pytest.mark.parametrize(
        "index",
        [{"aa": 0, "bb": 0}, {"aa": 5}, {"aa": -1}, {"aa": 1, "bb": 2}, {"aa": 0, "bb": 2},
         {"aa": 0.0}, {"aa": "0"}, {"aa": False}, {"aa": None}],
        ids=["shared", "beyond-size", "negative", "from-one", "gap", "float", "string", "bool",
             "none"],
    )
    def test_columns_must_be_range_of_size(self, index):
        with pytest.raises(ValueError):
            Vocabulary(index=index, document_frequency={token: 1 for token in index}, num_documents=2)

    def test_columns_in_any_order(self):
        vocab = Vocabulary(index={"bb": 1, "aa": 0, "cc": 2},
                           document_frequency={"aa": 1, "bb": 1, "cc": 2}, num_documents=2)
        assert vocab.idf.tolist() == [math.log(3 / 2) + 1] * 2 + [1.0]


class TestFeaturize:
    def toy_vocab(self):
        return fit_vocabulary(["alpha beta", "beta gamma", "beta beta delta"], min_df=1)

    def test_oov_only_gives_zero_vector(self):
        assert row(self.toy_vocab(), "omega sigma") == {}

    def test_single_known_token_is_unit(self):
        assert list(row(self.toy_vocab(), "alpha").values()) == [1.0]

    def test_hand_computed_weights(self):
        # Corpus: {alpha beta | beta gamma | beta beta delta}, N=3.
        # df(alpha)=1, df(beta)=3; idf = ln((1+N)/(1+df)) + 1.
        vocab = self.toy_vocab()
        weights = row(vocab, "alpha beta")
        idf_alpha = math.log(4 / 2) + 1
        idf_beta = math.log(4 / 4) + 1
        norm = math.sqrt(idf_alpha**2 + idf_beta**2)
        assert weights[vocab.index["alpha"]] == pytest.approx(idf_alpha / norm, abs=1e-9)
        assert weights[vocab.index["beta"]] == pytest.approx(idf_beta / norm, abs=1e-9)

    def test_tf_scales_before_normalization(self):
        # Two alphas to one beta: tf doubles alpha's weight pre-norm.
        vocab = self.toy_vocab()
        weights = row(vocab, "alpha alpha beta")
        idf_alpha = math.log(2) + 1
        norm = math.sqrt((2 * idf_alpha) ** 2 + 1.0)
        assert weights[vocab.index["alpha"]] == pytest.approx(2 * idf_alpha / norm, abs=1e-9)

    def test_norm_is_zero_or_one(self):
        rng = random.Random(5)
        pool = [f"tok{n}" for n in range(30)] + ["zzz-oov"]
        corpus = [" ".join(rng.choices(pool, k=8)) for _ in range(40)]
        vocab = fit_vocabulary(corpus[:30], min_df=2)
        for text in corpus + ["", "zz-unseen-token"]:
            norm = math.sqrt(sum(w * w for w in row(vocab, text).values()))
            assert norm == pytest.approx(1.0, abs=1e-12) or norm == 0.0

    def test_repetition_invariance(self):
        # Repeating a document rescales all tf counts; normalization
        # cancels it.
        vocab = self.toy_vocab()
        once = row(vocab, "alpha beta")
        thrice = row(vocab, " ".join(["alpha beta"] * 3))
        assert set(once) == set(thrice)
        for col in once:
            assert thrice[col] == pytest.approx(once[col], abs=1e-12)

    def test_design_matrix_rows_match_featurize(self):
        rng = random.Random(17)
        pool = [f"tok{n}" for n in range(25)]
        vocab = fit_vocabulary([" ".join(rng.choices(pool, k=9)) for _ in range(30)], min_df=2)
        texts = ["", "omega sigma", "tok3", "tok3 tok3 tok1 omega"] + [
            " ".join(rng.choices(pool + ["oov"], k=rng.randrange(0, 20))) for _ in range(40)
        ]
        X = design_matrix(vocab, texts)
        assert X.shape == (len(texts), vocab.size)
        assert X.indptr[0] == 0 and X.indptr[-1] == len(X.indices) == len(X.data)
        for row, text in enumerate(texts):
            lo, hi = X.indptr[row], X.indptr[row + 1]
            expected = featurize(vocab, text)
            assert X.indices[lo:hi].tolist() == sorted(expected)
            for col, weight in zip(X.indices[lo:hi].tolist(), X.data[lo:hi].tolist()):
                assert abs(weight - expected[col]) <= 1e-12

    def test_design_matrix_of_no_texts_or_no_vocabulary(self):
        assert design_matrix(self.toy_vocab(), []).shape == (0, 4)
        empty = fit_vocabulary(["aa", "bb"], min_df=2)
        X = design_matrix(empty, ["aa bb", ""])
        assert X.shape == (2, 0)
        assert X.indptr.tolist() == [0, 0, 0]

    def test_design_matrix_stays_sparse_at_scale(self):
        # ~2k documents over a vocabulary above 10^4 tokens: a dense
        # matrix would take 8 * n * V bytes (~170 MB); CSR may take only
        # its weights, column ids and row pointers.
        rng = np.random.default_rng(5)
        words = np.array([f"w{k}" for k in range(15_000)])
        texts = [" ".join(row) for row in words[rng.integers(0, len(words), size=(2_000, 60))]]
        vocab = fit_vocabulary(texts, min_df=1)
        assert vocab.size >= 10_000
        X = design_matrix(vocab, texts)
        nnz, n = len(X.data), X.shape[0]
        assert X.nbytes <= 20 * nnz + 8 * (n + 1)
