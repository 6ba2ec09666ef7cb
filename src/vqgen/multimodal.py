"""Images as sequences: object regions, their embeddings, and the unified
input layout that puts them beside caption tokens."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

CAPTION_ONLY = "caption_only"
IMAGE_ONLY = "image_only"
IMAGE_PLUS_CAPTION = "image_plus_caption"
MODES = (CAPTION_ONLY, IMAGE_ONLY, IMAGE_PLUS_CAPTION)


class InputError(ValueError):
    """Arguments inconsistent with the requested input mode."""


@dataclass(frozen=True)
class VisualSequence:
    """Exactly the N regions of one image, ordered by non-increasing relevance:
    features (N, D_f), normalized boxes (N, 4) and detector scores (N,)."""

    features: np.ndarray
    boxes: np.ndarray
    relevance: np.ndarray

    def __post_init__(self):
        for name in ("features", "boxes", "relevance"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        n = len(self.features) if self.features.ndim == 2 else -1  # -1 matches no shape
        if self.boxes.shape != (n, 4) or self.relevance.shape != (n,):
            raise InputError(
                f"features {self.features.shape}, boxes {self.boxes.shape} and relevance "
                f"{self.relevance.shape} must be (N, D_f), (N, 4) and (N,)"
            )
        if not all(np.isfinite(a).all() for a in (self.features, self.boxes, self.relevance)):
            raise InputError("region features, boxes and relevance must be finite")
        if np.any(self.boxes < 0.0) or np.any(self.boxes > 1.0):
            raise InputError("box coordinates must be normalized to [0, 1]")
        if np.any(self.relevance[1:] > self.relevance[:-1]):
            raise InputError("regions must be ordered by non-increasing relevance")

    def __len__(self) -> int:
        return len(self.features)


@dataclass(frozen=True)
class AssembledInput:
    """Unified input sequence; slot i sits at position i.

    `ids` holds one token id per slot, 0 in the region slots. `regions` holds
    the (v1 - v0, object_dim) object embeddings of `visual_span`, or is (0,)
    for an input without regions.
    """

    ids: np.ndarray
    regions: np.ndarray
    visual_span: tuple[int, int]
    text_span: tuple[int, int]

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def positions(self) -> np.ndarray:
        return np.arange(len(self.ids))

    @property
    def slots(self) -> list:
        """The layout as one list: token ids as ints, region slots as vectors."""
        v0, v1 = self.visual_span
        ids = self.ids.tolist()
        return [*ids[:v0], *self.regions, *ids[v1:]]


def assemble_input(
    mode: str,
    visual: Optional[VisualSequence] = None,
    caption: Optional[Sequence[int]] = None,
    *,
    cls_id: int,
    sep_id: int,
) -> AssembledInput:
    """Lay out [CLS] / visual slots / [SEP] / caption tokens for the given mode.

    Visual slots carry raw object embeddings, each region's features then its
    box; projection into the model dimension happens later, inside the
    embedding step, so that the projection weights can be trained through it.
    """
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    needs_visual = mode in (IMAGE_ONLY, IMAGE_PLUS_CAPTION)
    needs_caption = mode in (CAPTION_ONLY, IMAGE_PLUS_CAPTION)
    if needs_visual and visual is None:
        raise InputError(f"mode {mode} requires a visual sequence")
    if needs_caption and caption is None:
        raise InputError(f"mode {mode} requires a caption")
    caption = [int(t) for t in caption] if needs_caption else []
    regions = np.concatenate([visual.features, visual.boxes], axis=1) if needs_visual else []
    sep = [int(sep_id)] if mode == IMAGE_PLUS_CAPTION else []
    ids = [int(cls_id), *[0] * len(regions), *sep, *caption]
    v1 = 1 + len(regions)
    return AssembledInput(
        ids=np.array(ids, dtype=np.int64),
        regions=np.asarray(regions, dtype=np.float64),
        visual_span=(1, v1) if needs_visual else (0, 0),
        text_span=(v1 + len(sep), len(ids)) if needs_caption else (0, 0),
    )
