"""Edit-similarity scoring between an original essay and its edited version.

Backs only the ``bleu`` command; ``simulate`` draws similarities from Beta
surrogates instead. No grader sees drafts, so none of it enters a decision.

The score is clipped unigram/bigram precision of the edited text against
the original, combined geometrically with equal weights and a brevity
penalty. Text is reduced to lowercase word tokens with boundary
punctuation stripped, so a pure grammar pass ("sat," -> "sat.") keeps the
similarity high.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class TokenizedText:
    tokens: tuple[str, ...]

    def __post_init__(self):
        for t in self.tokens:
            if not t or any(ch.isspace() for ch in t):
                raise ValueError(f"bad_token: {t!r}")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class BleuScore:
    value: float
    unigram_precision: float
    bigram_precision: float
    brevity_penalty: float


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _strip_boundary_punct(word: str) -> str:
    start, end = 0, len(word)
    while start < end and _is_punct(word[start]):
        start += 1
    while end > start and _is_punct(word[end - 1]):
        end -= 1
    return word[start:end]


def tokenize(text: str) -> TokenizedText:
    """Lowercase word tokens: split on whitespace, strip boundary punctuation.

    Interior punctuation (apostrophes, hyphens) is kept; tokens that are
    punctuation-only disappear. Empty text gives an empty token list.
    """
    tokens = []
    for raw in text.split():
        word = _strip_boundary_punct(raw).lower()
        if word:
            tokens.append(word)
    return TokenizedText(tokens=tuple(tokens))


def _ngram_counts(tokens: tuple[str, ...], n: int) -> Counter:
    if n == 1:
        return Counter(tokens)
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _clipped_precision(
    reference: tuple[str, ...], candidate: tuple[str, ...], n: int
) -> float:
    """Candidate n-gram precision, counts clipped per the reference."""
    cand_counts = _ngram_counts(candidate, n)
    total = sum(cand_counts.values())
    if total == 0:
        return 0.0
    ref_counts = _ngram_counts(reference, n)
    clipped = sum(min(c, ref_counts[g]) for g, c in cand_counts.items())
    return clipped / total


def bleu(reference: TokenizedText, candidate: TokenizedText) -> BleuScore:
    """Similarity of ``candidate`` against ``reference`` in [0, 1].

    Clipped unigram and bigram precisions are combined geometrically with
    weights (0.5, 0.5), ``exp(mean of log precisions)``. The brevity
    penalty ``exp(1 - |ref|/|cand|)`` applies when the candidate is shorter
    than the reference.

    Degenerate inputs: an empty candidate scores 0. When neither side has
    any bigram (both are single tokens), the bigram order is vacuous and
    counts as precision 1, so identical one-word texts still score 1.
    """
    ref = reference.tokens
    cand = candidate.tokens
    if len(cand) == 0:
        return BleuScore(0.0, 0.0, 0.0, 1.0)

    p1 = _clipped_precision(ref, cand, 1)
    if len(cand) < 2 and len(ref) < 2:
        p2 = 1.0
    else:
        p2 = _clipped_precision(ref, cand, 2)

    if len(cand) < len(ref):
        bp = math.exp(1.0 - len(ref) / len(cand))
    else:
        bp = 1.0

    if p1 <= 0.0 or p2 <= 0.0:
        value = 0.0
    else:
        value = bp * math.exp(0.5 * math.log(p1) + 0.5 * math.log(p2))
    return BleuScore(
        value=value, unigram_precision=p1, bigram_precision=p2, brevity_penalty=bp
    )


def bleu_of_texts(reference_text: str, candidate_text: str) -> BleuScore:
    return bleu(tokenize(reference_text), tokenize(candidate_text))
