"""Images as sequences: object regions, their embeddings, and the unified
input layout that puts them beside caption tokens."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

CAPTION_ONLY = "caption_only"
IMAGE_ONLY = "image_only"
IMAGE_PLUS_CAPTION = "image_plus_caption"
MODES = (CAPTION_ONLY, IMAGE_ONLY, IMAGE_PLUS_CAPTION)


class InputError(ValueError):
    """Arguments inconsistent with the requested input mode."""


@dataclass
class ObjectRegion:
    """One detected region: feature vector, normalized box, detector score."""

    features: np.ndarray
    box: np.ndarray
    relevance: float

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.box = np.asarray(self.box, dtype=np.float64)
        if self.features.ndim != 1:
            raise InputError("region features must be a flat vector")
        if self.box.shape != (4,):
            raise InputError(f"box must have 4 coordinates, got {self.box.shape}")
        if np.any(self.box < 0.0) or np.any(self.box > 1.0):
            raise InputError("box coordinates must be normalized to [0, 1]")

    @property
    def feature_dim(self) -> int:
        return self.features.shape[0]


@dataclass
class VisualSequence:
    """Exactly the N regions of one image, ordered by non-increasing relevance."""

    regions: list[ObjectRegion]

    def __post_init__(self):
        rel = [r.relevance for r in self.regions]
        if any(rel[i] < rel[i + 1] for i in range(len(rel) - 1)):
            raise InputError("regions must be ordered by non-increasing relevance")

    def __len__(self) -> int:
        return len(self.regions)


Slot = Union[int, np.ndarray]  # token id, or an object embedding vector


@dataclass
class AssembledInput:
    """Unified input sequence: token ids and region vectors with positions."""

    mode: str
    slots: list[Slot]
    positions: np.ndarray
    visual_span: tuple[int, int] = (0, 0)
    text_span: tuple[int, int] = (0, 0)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.int64)
        if len(self.slots) != self.positions.shape[0]:
            raise InputError("one position per slot required")

    def __len__(self) -> int:
        return len(self.slots)


def object_embedding(region: ObjectRegion) -> np.ndarray:
    """Concatenate the region's features and box into one vector."""
    return np.concatenate([region.features, region.box])


def assemble_input(
    mode: str,
    visual: Optional[VisualSequence] = None,
    caption: Optional[Sequence[int]] = None,
    *,
    cls_id: int,
    sep_id: int,
) -> AssembledInput:
    """Lay out [CLS] / visual slots / [SEP] / caption tokens for the given mode.

    Visual slots carry raw object embeddings; projection into the model
    dimension happens later, inside the embedding step, so that the projection
    weights can be trained through it.
    """
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    needs_visual = mode in (IMAGE_ONLY, IMAGE_PLUS_CAPTION)
    needs_caption = mode in (CAPTION_ONLY, IMAGE_PLUS_CAPTION)
    if needs_visual and visual is None:
        raise InputError(f"mode {mode} requires a visual sequence")
    if needs_caption and caption is None:
        raise InputError(f"mode {mode} requires a caption")
    caption = list(caption) if caption is not None else []

    slots: list[Slot] = [int(cls_id)]
    visual_span = (0, 0)
    text_span = (0, 0)
    if needs_visual:
        start = len(slots)
        for region in visual.regions:
            slots.append(object_embedding(region))
        visual_span = (start, len(slots))
    if mode == IMAGE_PLUS_CAPTION:
        slots.append(int(sep_id))
    if needs_caption:
        start = len(slots)
        slots.extend(int(t) for t in caption)
        text_span = (start, len(slots))

    return AssembledInput(
        mode=mode,
        slots=slots,
        positions=np.arange(len(slots)),
        visual_span=visual_span,
        text_span=text_span,
    )
