"""Cross-modal alignment probe: per-layer cosine between the mean region state
of an image-only input and the mean caption-token state of the matching
caption-only input. A pair's two inputs are encoded as one sequence of two
blocks that cannot see each other, each starting at position 0, so every row
gets the states it would get encoded alone.

The [CLS] row is left out of X_sim: it is the same token at the same position
in both inputs, so its cosine starts at exactly 1 and stays high whatever
either modality contributes. Even without it, X_sim measures how close the two
modalities sit as distributions, not whether individual pairs are grounded:
centring each modality on its own mean, or subtracting the value of
mismatched pairs, brings every model, trained or random, to about zero."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import model as md
from . import multimodal as mm
from . import numerics as nm

RANDOM_BASELINE_SEED = 424242


class ProbeError(ValueError):
    """Probe called on an empty or unusable input."""


@dataclass
class ProbeReport:
    model_label: str
    xsim: list[float]  # one value per encoder layer, layer 1 first
    items: int


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def xsim_per_layer(
    params: md.Parameters,
    paired_set: Sequence[tuple[mm.VisualSequence, Sequence[int]]],
    *,
    label: str = "model",
) -> ProbeReport:
    """Encode each pair once as `[image input | caption input]` under a
    block-diagonal mask; at every layer 1..num_layers, cosine between the mean
    of the image block's region rows (`visual_span`) and the mean of the
    caption block's token rows (`text_span`), averaged over pairs.

    A pair with no regions or no caption tokens has nothing to average and
    raises ProbeError.
    """
    if not paired_set:
        raise ProbeError("empty paired set")
    config = params.config
    special = md.SpecialTokens()
    sums = np.zeros(config.num_layers)
    for index, (visual, caption) in enumerate(paired_set):
        if len(visual) == 0 or len(caption) == 0:
            raise ProbeError(
                f"pair {index} has {len(visual)} regions and {len(caption)} caption tokens;"
                " both must be non-empty"
            )
        image_input = mm.assemble_input(
            mm.IMAGE_ONLY, visual=visual, cls_id=special.cls, sep_id=special.sep
        )
        caption_input = mm.assemble_input(
            mm.CAPTION_ONLY, caption=caption, cls_id=special.cls, sep_id=special.sep
        )
        n_img = len(image_input)
        allow = np.zeros((n_img + len(caption_input),) * 2, dtype=bool)
        allow[:n_img, :n_img] = allow[n_img:, n_img:] = True  # each block sees only itself
        ids = np.concatenate([image_input.ids, caption_input.ids])[None]
        positions = np.concatenate([image_input.positions, caption_input.positions])[None]
        (v0, v1), (t0, t1) = image_input.visual_span, caption_input.text_span
        with nm.no_grad():
            x = md.embed_rows(params, ids, positions, image_input.regions[None], (v0, v1))
            states = md.encode_states(x, allow, params)
        nm.check_finite(states[-1], "encode")  # the one check no_grad leaves
        for layer, state in enumerate(states[1:]):
            rows = state.data[0]
            image_mean = rows[v0:v1].mean(axis=0)
            sums[layer] += cosine(image_mean, rows[n_img + t0 : n_img + t1].mean(axis=0))
    values = sums / len(paired_set)
    return ProbeReport(model_label=label, xsim=[float(v) for v in values], items=len(paired_set))


def random_baseline(config: md.ModelConfig) -> md.Parameters:
    """The random-weights reference model used alongside trained checkpoints."""
    return md.init_parameters(config, RANDOM_BASELINE_SEED)


def write_probe_table(path, reports: Sequence[ProbeReport], meta: Optional[dict] = None) -> None:
    with md.write_atomically(path) as fh:
        if meta:
            fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write("layer_index\tmodel_label\txsim\n")
        for report in reports:
            for i, value in enumerate(report.xsim, start=1):
                fh.write(f"{i}\t{report.model_label}\t{value:.6f}\n")
