"""Tokenizer and similarity score, checked against a brute-force n-gram oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_wm.bleu import TokenizedText, bleu, bleu_of_texts, tokenize


def oracle_precision(reference, candidate, n):
    """Clipped n-gram precision by explicit multiset consumption."""
    def grams(tokens):
        return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]

    cand = grams(candidate)
    if not cand:
        return None
    pool = grams(reference)
    hits = 0
    for g in cand:
        if g in pool:
            pool.remove(g)
            hits += 1
    return hits / len(cand)


def oracle_bleu(reference, candidate):
    if len(candidate) == 0:
        return 0.0
    p1 = oracle_precision(reference, candidate, 1)
    p2 = oracle_precision(reference, candidate, 2)
    if p2 is None:
        p2 = 1.0 if len(reference) < 2 else 0.0
    if len(candidate) < len(reference):
        bp = math.exp(1 - len(reference) / len(candidate))
    else:
        bp = 1.0
    if p1 <= 0 or p2 <= 0:
        return 0.0
    return bp * math.exp(0.5 * math.log(p1) + 0.5 * math.log(p2))


class TestTokenize:
    def test_lowercases_and_strips_trailing_punctuation(self):
        assert tokenize("The cat SAT.").tokens == ("the", "cat", "sat")

    def test_empty_text(self):
        assert tokenize("").tokens == ()

    def test_punctuation_only_tokens_vanish(self):
        assert tokenize("-- ... !?").tokens == ()

    def test_interior_punctuation_kept(self):
        assert tokenize("don't re-do a.b").tokens == ("don't", "re-do", "a.b")

    def test_unicode_quotes_stripped(self):
        assert tokenize("“hello” —world—").tokens == ("hello", "world")

    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_idempotent_under_retokenization(self, text):
        once = tokenize(text)
        again = tokenize(" ".join(once.tokens))
        assert once == again

    def test_rejects_whitespace_token(self):
        with pytest.raises(ValueError, match="bad_token"):
            TokenizedText(tokens=("a b",))


class TestBleu:
    def test_identical_texts_score_exactly_one(self):
        t = tokenize("a sentence that survives editing intact")
        assert bleu(t, t).value == 1.0

    def test_hand_computed_shortened_candidate(self):
        ref = TokenizedText(("the", "cat", "sat", "down"))
        cand = TokenizedText(("the", "cat", "sat"))
        score = bleu(ref, cand)
        assert score.unigram_precision == 1.0
        assert score.bigram_precision == 1.0
        assert score.brevity_penalty == pytest.approx(math.exp(1 - 4 / 3), abs=1e-12)
        assert score.value == pytest.approx(0.7165, abs=1e-4)
        # equal lengths, p1 = 2/3, p2 = 1/2: the value is their geometric mean
        geo = bleu(TokenizedText(("a", "b", "c")), TokenizedText(("a", "b", "x")))
        assert geo.value == pytest.approx(math.sqrt((2 / 3) * 0.5), abs=1e-12)

    def test_disjoint_vocabulary_scores_zero(self):
        assert bleu(TokenizedText(("a", "b")), TokenizedText(("c", "d"))).value == 0.0

    def test_empty_candidate_scores_zero(self):
        assert bleu(tokenize("some reference"), tokenize("")).value == 0.0

    def test_single_identical_token(self):
        t = TokenizedText(("word",))
        assert bleu(t, t).value == 1.0

    def test_candidate_missing_bigrams_vs_longer_reference(self):
        score = bleu(TokenizedText(("a", "b")), TokenizedText(("a",)))
        assert score.bigram_precision == 0.0
        assert score.value == 0.0

    def test_text_level_helper(self):
        assert bleu_of_texts("Same text here.", "same text here").value == 1.0


class TestAgainstOracle:
    def test_precisions_match_brute_force_on_random_cases(self):
        rng = np.random.default_rng(42)
        vocab = ["a", "b", "c", "d", "e"]
        for _ in range(500):
            ref = tuple(rng.choice(vocab, size=rng.integers(1, 11)))
            cand = tuple(rng.choice(vocab, size=rng.integers(1, 11)))
            score = bleu(TokenizedText(ref), TokenizedText(cand))
            assert score.unigram_precision == pytest.approx(
                oracle_precision(ref, cand, 1), abs=1e-12)
            p2 = oracle_precision(ref, cand, 2)
            if p2 is not None:
                assert score.bigram_precision == pytest.approx(p2, abs=1e-12)
            assert score.value == pytest.approx(oracle_bleu(ref, cand), abs=1e-12)

    def test_oov_substitution_never_increases_score(self):
        rng = np.random.default_rng(7)
        vocab = ["a", "b", "c", "d"]
        for _ in range(300):
            ref = tuple(rng.choice(vocab, size=rng.integers(2, 10)))
            cand = list(rng.choice(vocab, size=rng.integers(2, 10)))
            before = bleu(TokenizedText(ref), TokenizedText(tuple(cand))).value
            cand[rng.integers(len(cand))] = "zzz-oov"
            after = bleu(TokenizedText(ref), TokenizedText(tuple(cand))).value
            assert after <= before + 1e-12

    def test_repeated_token_clipping(self):
        # candidate repeats one token; precision is capped by reference count
        ref = TokenizedText(("w", "w", "x"))
        cand = TokenizedText(("w",) * 5)
        score = bleu(ref, cand)
        assert score.unigram_precision == pytest.approx(2 / 5, abs=1e-12)
        assert score.unigram_precision <= 2 / 5
