"""Iterative mask-token decoding and the left-to-right attention mask.

Appending generated tokens must never disturb the representations of earlier
slots, so input rows attend only to input rows, and each appended row attends
to the input plus the already-generated rows up to itself. Each step reads the
next token at a [MASK] slot appended after input + prefix.

Because no row attends to a later one, the keys and values of the input and
of committed tokens are final once encoded. `generate` keeps them in a
`model.KVCache`: step 0 encodes input + [MASK] and caches the input rows;
every later step embeds and encodes only two rows, the token just committed
and the new [MASK], and caches the committed one. `next_token` without a
cache re-encodes the whole sequence; it is the independent oracle the cached
logits are tested against (equal within 1e-9). Each step runs under
`numerics.no_grad()` and checks its logits for non-finite values once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import model as md
from . import numerics as nm
from .multimodal import AssembledInput


@dataclass
class GenerationConfig:
    max_length: int = 24

    def __post_init__(self):
        if self.max_length < 1:
            raise ValueError("max_length must be >= 1")


@dataclass
class GenerationOutput:
    """Generated tokens (end-of-sequence excluded) and per-step decision logits."""

    tokens: list[int]
    step_logits: Optional[list[np.ndarray]] = None
    truncated: bool = False


def build_left_to_right_mask(n_input: int, n_target: int) -> np.ndarray:
    """Boolean (S, S) allow-matrix over an input block followed by target rows:
    input rows see only the input block; target row t sees input + targets <= t."""
    if n_input < 1:
        raise ValueError("n_input must be >= 1")
    if n_target < 0:
        raise ValueError("n_target must be >= 0")
    s = n_input + n_target
    allow = np.zeros((s, s), dtype=bool)
    allow[:, :n_input] = True
    allow[n_input:, n_input:] = np.tri(n_target, dtype=bool)
    return allow


def next_token(
    params: md.Parameters,
    input: AssembledInput,
    prefix: list[int],
    *,
    mask_id: int,
    cache: Optional[md.KVCache] = None,
) -> tuple[int, np.ndarray]:
    """Encode input + prefix + [MASK] and read the argmax token at the mask slot.

    Without a cache the whole sequence is encoded. With one, only the rows it
    does not hold yet are: it must be empty or hold the input plus the first
    0..len(prefix) prefix tokens, and afterwards holds input + prefix.
    Ties in the logits resolve to the lowest token id.
    """
    n_input = len(input)
    total = n_input + len(prefix) + 1
    if total > params.config.max_positions:
        raise nm.ShapeError(
            f"sequence of {total} slots exceeds max_positions {params.config.max_positions}"
        )
    past = len(cache) if cache is not None else 0
    if past and not n_input <= past < total:
        raise nm.StateError(f"cache holds {past} rows; expected {n_input}..{total - 1}")
    with nm.no_grad():
        ids = np.append(input.ids, [*prefix, mask_id])[None, past:]
        span = (0, 0) if past else input.visual_span  # a cache holds the region rows
        x = md.embed_rows(params, ids, np.arange(past, total)[None], input.regions[None], span)
        s_new = total - past
        allow = build_left_to_right_mask(n_input, len(prefix) + 1)[past:]
        states = md.encode_states(x, allow, params, cache=cache, keep=s_new - 1)
        mask_row = nm.reshape(nm.narrow(states[-1], 1, s_new - 1, 1), (1, x.shape[2]))
        logits = md.decode_logits(mask_row, params).data[0]
    # no_grad skipped the per-op checks; a non-finite value anywhere upstream
    # of the mask slot reaches its logits
    nm.check_finite(logits, "next_token")
    return int(np.argmax(logits)), logits


def generate(
    params: md.Parameters,
    input: AssembledInput,
    cfg: GenerationConfig,
    *,
    keep_logits: bool = False,
) -> GenerationOutput:
    """Greedy decode until [EOS] or max_length; deterministic given params/input."""
    special = md.SpecialTokens()
    tokens: list[int] = []
    logits_log: list[np.ndarray] = [] if keep_logits else None
    truncated = False
    cache = md.KVCache()
    for _ in range(cfg.max_length):
        tok, logits = next_token(params, input, tokens, mask_id=special.mask, cache=cache)
        if keep_logits:
            logits_log.append(logits)
        if tok == special.eos:
            break
        tokens.append(tok)
    else:
        truncated = True
    return GenerationOutput(tokens=tokens, step_logits=logits_log, truncated=truncated)
