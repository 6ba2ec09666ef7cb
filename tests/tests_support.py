"""Shared oracles for the test suite.

The metric oracles below are deliberately naive recounts (plain lists, loops,
and dicts) kept independent of the library implementations they check.
"""

import math
from functools import lru_cache

import numpy as np

from vqgen import model as md
from vqgen import multimodal as mm
from vqgen import numerics as nm
from vqgen import training as tr


def sum_all(x):
    """The scalar sum of a tensor's entries, recorded like a library op."""
    x = nm._as_tensor(x)
    return nm._record(x.data.sum(), (x,), lambda g: (np.full_like(x.data, float(g)),))


def full_rows_stage_loss(params, batch, special=md.SpecialTokens()):
    """`training.stage_loss` at dropout 0 with every row through the last
    layer: the full encode, then `take_rows` of the prediction rows."""
    x, allow, pred_rows, labels = tr._embed_batch(params, batch, special)
    b, r, d = x.shape
    states = md.encode_states(x, allow, params)
    pred_states = nm.take_rows(nm.reshape(states[-1], (b * r, d)), pred_rows)
    return nm.cross_entropy(md.decode_logits(pred_states, params), labels)


def finite_difference_subset(fn, param, n_checks=8, seed=0, h=1e-5):
    """Worst relative error between param.gradient and central differences.

    Probes a random subset of entries; caller must already have run the
    backward pass for the same forward function.
    """
    rng = np.random.default_rng(seed)
    flat = param.value.data.reshape(-1)
    gflat = param.gradient.reshape(-1)
    idx = rng.choice(flat.size, size=min(n_checks, flat.size), replace=False)
    worst = 0.0
    for i in idx:
        orig = flat[i]
        flat[i] = orig + h
        up = fn().item()
        flat[i] = orig - h
        down = fn().item()
        flat[i] = orig
        fd = (up - down) / (2 * h)
        err = abs(gflat[i] - fd) / max(1.0, abs(fd))
        worst = max(worst, err)
    return worst


def stack_regions(regions):
    """A VisualSequence from (features, box, relevance) triples, one per region,
    so that a test can draw each region's values in turn."""
    features, boxes, relevance = zip(*regions)
    return mm.VisualSequence(np.stack(features), np.stack(boxes), relevance)


# ---------------------------------------------------------------------------
# metric oracles: items are (candidate_tokens, [reference_tokens, ...]) pairs
# ---------------------------------------------------------------------------


def _gram_list(tokens, k):
    return [tuple(tokens[i : i + k]) for i in range(len(tokens) - k + 1)]


def oracle_bleu(items, n, eps=1e-9):
    numer = [0] * n
    denom = [0] * n
    cand_total = 0
    ref_total = 0
    for cand, refs in items:
        for k in range(1, n + 1):
            grams = _gram_list(cand, k)
            denom[k - 1] += len(grams)
            for g in set(grams):
                cnt = grams.count(g)
                best = max(_gram_list(ref, k).count(g) for ref in refs)
                numer[k - 1] += min(cnt, best)
        cand_total += len(cand)
        best_len = None
        for ref in refs:
            if best_len is None:
                best_len = len(ref)
                continue
            old = abs(best_len - len(cand))
            new = abs(len(ref) - len(cand))
            if new < old or (new == old and len(ref) < best_len):
                best_len = len(ref)
        ref_total += best_len
    if cand_total == 0:
        return 0.0
    acc = 1.0
    for k in range(n):
        p = numer[k] / denom[k] if denom[k] else 0.0
        acc *= (p if p > 0 else eps) ** (1.0 / n)
    bp = 1.0 if cand_total > ref_total else math.exp(1.0 - ref_total / cand_total)
    return bp * acc


def _lcs_recursive(a, b):
    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return rec(i - 1, j - 1) + 1
        return max(rec(i - 1, j), rec(i, j - 1))

    return rec(len(a), len(b))


def oracle_rouge_l(items, beta_sq=1.44):
    total = 0.0
    for cand, refs in items:
        best = 0.0
        for ref in refs:
            lcs = _lcs_recursive(tuple(cand), tuple(ref))
            if lcs == 0 or not cand or not ref:
                continue
            r = lcs / len(ref)
            p = lcs / len(cand)
            f = (1 + beta_sq) * r * p / (r + beta_sq * p)
            best = max(best, f)
        total += best
    return total / len(items)


def oracle_stem(word):
    w = word
    if len(w) > 4 and w.endswith("ing"):
        w = w[:-3]
    elif len(w) > 3 and w.endswith("ed"):
        w = w[:-2]
    elif len(w) > 3 and w.endswith("es"):
        w = w[:-2]
    elif len(w) > 3 and w.endswith("s") and not w.endswith("ss"):
        w = w[:-1]
    if len(w) > 2 and w[-1] == w[-2] and w[-1] not in "lsz" and w[-1] not in "aeiou":
        w = w[:-1]
    return w


def oracle_meteor(items, alpha=0.9, gamma=0.5):
    def align(cand, ref):
        pairs = {}
        used = set()
        for mode in ("exact", "stem"):
            for i in range(len(cand)):
                if i in pairs:
                    continue
                eligible = []
                for j in range(len(ref)):
                    if j in used:
                        continue
                    if mode == "exact":
                        ok = cand[i] == ref[j]
                    else:
                        ok = oracle_stem(cand[i]) == oracle_stem(ref[j])
                    if ok:
                        eligible.append(j)
                if not eligible:
                    continue
                if i - 1 in pairs and pairs[i - 1] + 1 in eligible:
                    pick = pairs[i - 1] + 1
                else:
                    pick = eligible[0]
                pairs[i] = pick
                used.add(pick)
        return sorted(pairs.items())

    def item_score(cand, ref):
        pairs = align(cand, ref)
        m = len(pairs)
        if m == 0:
            return 0.0
        chunks = 0
        prev = None
        for i, j in pairs:
            if prev is None or i != prev[0] + 1 or j != prev[1] + 1:
                chunks += 1
            prev = (i, j)
        p = m / len(cand)
        r = m / len(ref)
        f = p * r / (alpha * p + (1 - alpha) * r)
        return f * (1.0 - gamma * (chunks / m) ** 3)

    total = 0.0
    for cand, refs in items:
        if cand:
            total += max(item_score(cand, ref) for ref in refs)
    return total / len(items)


def oracle_cider(items, max_order=4):
    n_items = len(items)
    assert n_items >= 2
    total = 0.0
    for cand, refs in items:
        item_score = 0.0
        for k in range(1, max_order + 1):
            def weight(gram):
                df = 0
                for _, other_refs in items:
                    if any(gram in _gram_list(r, k) for r in other_refs):
                        df += 1
                return math.log(n_items) - math.log(max(1, df))

            def vec(tokens):
                grams = _gram_list(tokens, k)
                out = {}
                for g in dict.fromkeys(grams):
                    out[g] = grams.count(g) * weight(g)
                return out

            cv = vec(cand)
            sim = 0.0
            for ref in refs:
                rv = vec(ref)
                dot = sum(cv[g] * rv[g] for g in cv if g in rv)
                na = math.sqrt(sum(v * v for v in cv.values()))
                nb = math.sqrt(sum(v * v for v in rv.values()))
                sim += dot / (na * nb) if na > 0 and nb > 0 else 0.0
            item_score += sim / len(refs)
        total += 10.0 * item_score / max_order
    return total / n_items


def random_metric_items(seed, max_items=5, max_tokens=8, min_items=2):
    """Small random corpora for oracle-equivalence checks."""
    rng = np.random.default_rng(seed)
    vocab = ["the", "cat", "dog", "sat", "runs", "running", "red", "ball", "on", "?"]
    n = int(rng.integers(min_items, max_items + 1))
    items = []
    for _ in range(n):
        cand = [vocab[int(i)] for i in rng.integers(0, len(vocab), rng.integers(1, max_tokens + 1))]
        refs = [
            [vocab[int(i)] for i in rng.integers(0, len(vocab), rng.integers(1, max_tokens + 1))]
            for _ in range(int(rng.integers(1, 4)))
        ]
        items.append((cand, refs))
    return items
