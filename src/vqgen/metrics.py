"""Corpus-level generation metrics with multi-reference support: BLEU-1..4,
ROUGE-L, a reduced METEOR (exact + suffix-stem matching, no synonymy), and
plain consensus-weighted n-gram similarity (CIDEr).

All metrics run on one shared tokenization (lowercased, punctuation split).
Score conventions:
  bleu     -- corpus-level modified n-gram precision, clipped per n-gram by the
              maximum reference count, geometric mean over orders with zero
              precisions smoothed to 1e-9, brevity penalty against the
              closest-length reference (ties favor the shorter).
  rouge_l  -- per item the max over references of the LCS F-measure with
              beta^2 = 1.44, averaged over items.
  meteor   -- greedy two-pass alignment (exact first, then stemmed) that
              prefers chunk continuation; F-mean alpha = 0.9, penalty
              0.5 * (chunks/matches)^3; max over references, mean over items.
  cider    -- tf-idf n-gram cosine per order 1..4, idf over per-image
              reference documents, averaged over references and orders, x10.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .data import tokenize
from .model import write_atomically

BLEU_EPSILON = 1e-9
ROUGE_BETA_SQ = 1.2 * 1.2
METEOR_ALPHA = 0.9
METEOR_GAMMA = 0.5
CIDER_MAX_ORDER = 4

DEFAULT_NOTES = "bleu=epsilon_smoothed;rouge=L;meteor=exact+suffix_stem,no_synonymy;cider=plain"


class CorpusError(ValueError):
    """Evaluation corpus cannot support the requested metric."""


@dataclass
class EvalItem:
    candidate: list[str]
    references: list[list[str]]

    def __post_init__(self):
        if not self.references:
            raise CorpusError("every item needs at least one reference")


@dataclass
class EvalCorpus:
    items: list[EvalItem]

    @classmethod
    def from_strings(
        cls, candidates: Sequence[str], references: Sequence[Sequence[str]]
    ) -> "EvalCorpus":
        if len(candidates) != len(references):
            raise CorpusError("one reference list per candidate required")
        return cls(
            [
                EvalItem(candidate=tokenize(c), references=[tokenize(r) for r in refs])
                for c, refs in zip(candidates, references)
            ]
        )

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class MetricReport:
    bleu_1: float
    bleu_2: float
    bleu_3: float
    bleu_4: float
    rouge_l: float
    meteor: float
    cider: float
    items: int

    def to_text(self) -> str:
        lines = [f"items={self.items}"]
        for name in ("bleu_1", "bleu_2", "bleu_3", "bleu_4", "rouge_l", "meteor", "cider"):
            lines.append(f"{name}={getattr(self, name):.6f}")
        lines.append(f"notes={DEFAULT_NOTES}")
        return "\n".join(lines) + "\n"


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------


def _closest_ref_length(cand_len: int, refs: Sequence[Sequence[str]]) -> int:
    return min((abs(len(r) - cand_len), len(r)) for r in refs)[1]


def bleu(corpus: EvalCorpus, n: int) -> float:
    if n < 1:
        raise CorpusError("bleu order must be >= 1")
    numer = [0] * n
    denom = [0] * n
    cand_total = 0
    ref_total = 0
    for item in corpus.items:
        cand = item.candidate
        for k in range(1, n + 1):
            counts = _ngrams(cand, k)
            if not counts:
                continue
            max_ref: Counter = Counter()
            for ref in item.references:
                for gram, cnt in _ngrams(ref, k).items():
                    if cnt > max_ref[gram]:
                        max_ref[gram] = cnt
            numer[k - 1] += sum(min(cnt, max_ref[gram]) for gram, cnt in counts.items())
            denom[k - 1] += max(0, len(cand) - k + 1)
        cand_total += len(cand)
        ref_total += _closest_ref_length(len(cand), item.references)
    if cand_total == 0:
        return 0.0
    log_sum = 0.0
    for k in range(n):
        p = numer[k] / denom[k] if denom[k] > 0 else 0.0
        log_sum += math.log(p if p > 0 else BLEU_EPSILON)
    brevity = 1.0 if cand_total > ref_total else math.exp(1.0 - ref_total / cand_total)
    return brevity * math.exp(log_sum / n)


# ---------------------------------------------------------------------------
# ROUGE-L
# ---------------------------------------------------------------------------


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        cur = [0] * (len(b) + 1)
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[len(b)]


def _rouge_l_item(cand: Sequence[str], ref: Sequence[str]) -> float:
    lcs = _lcs_length(cand, ref)
    if lcs == 0:
        return 0.0
    recall = lcs / len(ref)
    precision = lcs / len(cand)
    return (1 + ROUGE_BETA_SQ) * recall * precision / (recall + ROUGE_BETA_SQ * precision)


def rouge_l(corpus: EvalCorpus) -> float:
    total = 0.0
    for item in corpus.items:
        if item.candidate:
            total += max(_rouge_l_item(item.candidate, ref) for ref in item.references)
    return total / len(corpus.items)


# ---------------------------------------------------------------------------
# METEOR (reduced)
# ---------------------------------------------------------------------------

_NO_UNDOUBLE = ("l", "s", "z")


def stem(word: str) -> str:
    """Suffix stripper: ing/ed/es/s with guards, undoubling final consonants."""
    w = word
    if len(w) > 4 and w.endswith("ing"):
        w = w[:-3]
    elif len(w) > 3 and w.endswith("ed"):
        w = w[:-2]
    elif len(w) > 3 and w.endswith("es"):
        w = w[:-2]
    elif len(w) > 3 and w.endswith("s") and not w.endswith("ss"):
        w = w[:-1]
    if len(w) > 2 and w[-1] == w[-2] and w[-1] not in _NO_UNDOUBLE and w[-1] not in "aeiou":
        w = w[:-1]
    return w


def _align(cand: Sequence[str], ref: Sequence[str]) -> list[tuple[int, int]]:
    """Greedy alignment: exact pass then stem pass, preferring chunk continuation."""
    pairs: dict[int, int] = {}
    used_ref: set[int] = set()
    for key in (lambda w: w, stem):
        ref_keys = [key(w) for w in ref]
        for i, word in enumerate(cand):
            if i in pairs:
                continue
            want = key(word)
            eligible = [j for j, rk in enumerate(ref_keys) if rk == want and j not in used_ref]
            if not eligible:
                continue
            prev_j = pairs.get(i - 1)
            if prev_j is not None and prev_j + 1 in eligible:
                j = prev_j + 1
            else:
                j = eligible[0]
            pairs[i] = j
            used_ref.add(j)
    return sorted(pairs.items())


def _count_chunks(pairs: list[tuple[int, int]]) -> int:
    chunks = 0
    prev = None
    for i, j in pairs:
        if prev is None or i != prev[0] + 1 or j != prev[1] + 1:
            chunks += 1
        prev = (i, j)
    return chunks


def _meteor_item(cand: Sequence[str], ref: Sequence[str]) -> float:
    pairs = _align(cand, ref)
    m = len(pairs)
    if m == 0:
        return 0.0
    precision = m / len(cand)
    recall = m / len(ref)
    f_mean = precision * recall / (METEOR_ALPHA * precision + (1 - METEOR_ALPHA) * recall)
    penalty = METEOR_GAMMA * (_count_chunks(pairs) / m) ** 3
    return f_mean * (1.0 - penalty)


def meteor_lite(corpus: EvalCorpus) -> float:
    total = 0.0
    for item in corpus.items:
        if item.candidate:
            total += max(_meteor_item(item.candidate, ref) for ref in item.references)
    return total / len(corpus.items)


# ---------------------------------------------------------------------------
# CIDEr
# ---------------------------------------------------------------------------


def _document_frequencies(corpus: EvalCorpus) -> list[Counter]:
    """Per order: number of items whose reference set contains each n-gram."""
    df = [Counter() for _ in range(CIDER_MAX_ORDER)]
    for item in corpus.items:
        for k in range(1, CIDER_MAX_ORDER + 1):
            present: set = set()
            for ref in item.references:
                present.update(_ngrams(ref, k).keys())
            for gram in present:
                df[k - 1][gram] += 1
    return df


def _tfidf_vector(tokens: Sequence[str], order: int, df: Counter, log_n: float) -> dict:
    vec = {}
    for gram, cnt in _ngrams(tokens, order).items():
        idf = log_n - math.log(max(1.0, df[gram]))
        vec[gram] = cnt * idf
    return vec


def _cosine(a: dict, b: dict) -> float:
    dot = sum(v * b[g] for g, v in a.items() if g in b)
    na = math.sqrt(sum(v * v for v in a.values()))
    nb = math.sqrt(sum(v * v for v in b.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def cider(corpus: EvalCorpus) -> float:
    if len(corpus.items) < 2:
        raise CorpusError("consensus idf needs at least two corpus items")
    df = _document_frequencies(corpus)
    log_n = math.log(len(corpus.items))
    total = 0.0
    for item in corpus.items:
        item_score = 0.0
        for k in range(1, CIDER_MAX_ORDER + 1):
            cand_vec = _tfidf_vector(item.candidate, k, df[k - 1], log_n)
            sim = 0.0
            for ref in item.references:
                sim += _cosine(cand_vec, _tfidf_vector(ref, k, df[k - 1], log_n))
            item_score += sim / len(item.references)
        total += 10.0 * item_score / CIDER_MAX_ORDER
    return total / len(corpus.items)


def evaluate_corpus(corpus: EvalCorpus) -> MetricReport:
    """All metrics on the shared tokenization, bundled into one report."""
    return MetricReport(
        bleu_1=bleu(corpus, 1),
        bleu_2=bleu(corpus, 2),
        bleu_3=bleu(corpus, 3),
        bleu_4=bleu(corpus, 4),
        rouge_l=rouge_l(corpus),
        meteor=meteor_lite(corpus),
        cider=cider(corpus),
        items=len(corpus.items),
    )


def write_report(path, report: MetricReport, meta: Optional[dict] = None) -> None:
    with write_atomically(path) as fh:
        if meta:
            fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write(report.to_text())
