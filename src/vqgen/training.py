"""Staged training: caption-only, image-only over a frozen backbone, then
joint fine-tuning, plus the unfreeze and from-scratch ablations.

Teacher forcing runs in a single forward pass per item. A question's rows are
laid out as [input block | target rows y_1..y_T | prediction rows m_1..m_T+1]
where prediction row m_t holds the mask token at the same position id as y_t
and attends exactly what the generation loop's appended mask slot attends:
the input, the strictly-prior targets, and itself. Its logits are therefore
bit-equal to those of a step-by-step decode on the same prefix. The loss reads
only the prediction rows, so the last encoder layer computes only those; every
row of the layer below still gives them keys and values.

An item's questions share one input block: a batch row holds
[input | y^1, m^1 | y^2, m^2 | ...], one (y, m) block per question. Input rows
attend only to the input block, so their states do not depend on the
question; each question's rows see the input and their own block as above,
and no row of one question sees a row of another.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import data as dt
from . import generation as gen
from . import model as md
from . import multimodal as mm
from . import numerics as nm
from .numerics import OptimizerState, Tensor

STAGE1 = "stage1_caption_only"
STAGE2 = "stage2_image_only"
STAGE2_UNFREEZE = "stage2_unfreeze"
STAGE3 = "stage3_joint"
STAGE3_SCRATCH = "stage3_from_scratch"

STAGES = (STAGE1, STAGE2, STAGE2_UNFREEZE, STAGE3, STAGE3_SCRATCH)

STAGE_MODES = {
    STAGE1: mm.CAPTION_ONLY,
    STAGE2: mm.IMAGE_ONLY,
    STAGE2_UNFREEZE: mm.IMAGE_ONLY,
    STAGE3: mm.IMAGE_PLUS_CAPTION,
    STAGE3_SCRATCH: mm.IMAGE_PLUS_CAPTION,
}


class PrerequisiteError(RuntimeError):
    """A stage was started without the checkpoints its initialization needs."""


@dataclass
class TrainingExample:
    input: mm.AssembledInput
    target: list[int]


@dataclass
class Batch:
    examples: list[TrainingExample]

    def __len__(self) -> int:
        return len(self.examples)


@dataclass
class StagePlan:
    stage: str
    epochs: int = 5
    batch_size: int = 32  # paper-scale runs use 128
    base_lr: float = 1e-3  # 2e-5 only makes sense on top of pretrained weights
    warmup_fraction: float = 0.1
    seed: int = 0
    dropout: float = 0.1
    grad_clip: float = 1.0
    init_stage1: Union[str, Path, md.Parameters, None] = None
    init_stage2: Union[str, Path, md.Parameters, None] = None
    max_steps: Optional[int] = None
    dtype: str = "float64"  # float32 roughly halves step time at toy scale

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")
        if self.dtype not in ("float64", "float32"):
            raise ValueError(f"unknown dtype {self.dtype!r}")
        rules = {
            "epochs": (self.epochs >= 1, ">= 1"),
            "batch_size": (self.batch_size >= 1, ">= 1"),
            "max_steps": (self.max_steps is None or self.max_steps >= 1, "None or >= 1"),
            "base_lr": (math.isfinite(self.base_lr) and self.base_lr > 0, "finite and > 0"),
            "grad_clip": (math.isfinite(self.grad_clip) and self.grad_clip >= 0, "finite and >= 0"),
            "warmup_fraction": (0.0 <= self.warmup_fraction <= 1.0, "in [0, 1]"),
            "dropout": (0.0 <= self.dropout < 1.0, "in [0, 1)"),
        }
        for key, (ok, rule) in rules.items():
            if not ok:
                raise ValueError(f"{key}={getattr(self, key)!r} is out of range: must be {rule}")
        if self.stage in (STAGE2, STAGE2_UNFREEZE) and self.init_stage1 is None:
            raise PrerequisiteError(f"{self.stage} requires a stage-1 checkpoint")
        if self.stage == STAGE3:
            if self.init_stage1 is None or self.init_stage2 is None:
                raise PrerequisiteError("stage3_joint requires stage-1 and stage-2 checkpoints")
        # an init checkpoint the stage never reads is refused, not ignored
        if self.stage in (STAGE1, STAGE3_SCRATCH) and (self.init_stage1 or self.init_stage2):
            raise PrerequisiteError(f"{self.stage} must not receive init checkpoints")
        if self.stage in (STAGE2, STAGE2_UNFREEZE) and self.init_stage2:
            raise PrerequisiteError(f"{self.stage} must not receive a stage-2 checkpoint")


@dataclass
class LogRecord:
    step: int
    stage: str
    lr: float
    loss: float

    def to_line(self) -> str:
        return f"step={self.step}\tstage={self.stage}\tlr={self.lr:.8f}\tloss={self.loss:.8f}"


@dataclass
class StageResult:
    stage: str
    config: md.ModelConfig
    params: md.Parameters
    history: list[LogRecord] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.history[-1].loss if self.history else float("nan")


# ---------------------------------------------------------------------------
# examples and batches
# ---------------------------------------------------------------------------


def build_examples(corpus: dt.LoadedSplit, mode: str) -> list[TrainingExample]:
    """One example per (item, ground-truth question) pair. An item's examples
    share one input object, which `_embed_batch` lays out once."""
    out: list[TrainingExample] = []
    for item in corpus.items:
        inp = corpus.assemble(item, mode)
        for question in item.questions:
            out.append(TrainingExample(input=inp, target=dt.encode_text(question, corpus.vocab)))
    return out


def make_batches(corpus: dt.LoadedSplit, mode: str, batch_size: int, seed) -> list[Batch]:
    """Deterministically shuffled batches of `batch_size` examples. The items
    are shuffled, each item's examples stay together in question order, and
    the list is cut every `batch_size` examples, so an item may straddle two
    batches."""
    if not corpus.items:
        raise dt.FormatError("empty corpus")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.random.default_rng(seed).permutation(len(corpus.items))
    shuffled = build_examples(replace(corpus, items=[corpus.items[i] for i in order]), mode)
    return [Batch(shuffled[i : i + batch_size]) for i in range(0, len(shuffled), batch_size)]


# ---------------------------------------------------------------------------
# teacher forcing
# ---------------------------------------------------------------------------


def teacher_forcing_mask(n_input: int, n_target: int) -> np.ndarray:
    """Allow-matrix over [input | y_1..y_T | m_1..m_T+1] rows (see module doc)."""
    s = n_input + n_target
    allow = np.zeros((s + n_target + 1, s + n_target + 1), dtype=bool)
    allow[:s, :s] = gen.build_left_to_right_mask(n_input, n_target)
    allow[s:, :n_input] = True  # m_t sees the input,
    allow[s:, n_input:s] = np.tri(n_target + 1, n_target, -1, dtype=bool)  # y_1..y_t-1
    allow[s:, s:] = np.eye(n_target + 1, dtype=bool)  # and itself
    return allow


def teacher_forced_logits(params: md.Parameters, example: TrainingExample) -> Tensor:
    """Per-step next-token logits, shape (T+1, V); row t predicts y_t (last row EOS)."""
    return _batch_logits(params, Batch([example]))[0]


def sequence_log_prob(params: md.Parameters, example: TrainingExample) -> float:
    """Sum over steps of log P(y_t | input, y_<t), end token included."""
    with nm.no_grad():
        logits, labels = _batch_logits(params, Batch([example]))
        probs = nm.softmax_rows(logits).data
    nm.check_finite(logits, "sequence_log_prob")  # the one check no_grad leaves
    return float(sum(math.log(probs[t, y]) for t, y in enumerate(labels)))


def _embed_batch(
    params: md.Parameters, batch: Batch, special: md.SpecialTokens
) -> tuple[Tensor, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Teacher-forcing rows of a batch, one row block per run of consecutive
    examples that share an input (see module doc), padded once to the
    longest: the (G, R, d) embedding, the (G, R, R) allow mask, the (G, P)
    prediction rows of each block (padded with row 0), the indices into the
    flattened (G * P) prediction rows that put them in example order, and
    the labels they predict.

    Region slots occupy the same rows in every block of an image-mode batch
    (the assembled layout is uniform), so one projection covers them.
    """
    if not batch.examples:
        raise ValueError("empty batch")
    groups = [list(g) for _, g in itertools.groupby(batch.examples, key=lambda ex: id(ex.input))]
    r_max = max(len(g[0].input) + sum(2 * len(ex.target) + 1 for ex in g) for g in groups)
    ids = np.full((len(groups), r_max), special.pad, dtype=np.int64)
    positions = np.zeros((len(groups), r_max), dtype=np.int64)
    allow = np.zeros((len(groups), r_max, r_max), dtype=bool)
    allow[:, :, 0] = True  # real rows see slot 0 anyway; pad rows need one key
    p_max = max(sum(len(ex.target) + 1 for ex in g) for g in groups)
    out_rows = np.zeros((len(groups), p_max), dtype=np.int64)  # pad rows read row 0
    regions, layouts, order, labels = [], set(), [], []
    for b, group in enumerate(groups):
        inp = group[0].input
        n = len(inp)
        ids[b, :n] = inp.ids
        positions[b, :n] = inp.positions
        allow[b, :n, :n] = True
        r, p = n, 0
        for ex in group:
            t = len(ex.target)
            block = teacher_forcing_mask(n, t)[n:]
            rows = slice(r, r + 2 * t + 1)
            ids[b, rows] = [*ex.target] + [special.mask] * (t + 1)
            positions[b, rows] = [*range(n, n + t), *range(n, n + t + 1)]
            allow[b, rows, :n] = block[:, :n]
            allow[b, rows, rows] = block[:, n:]
            out_rows[b, p : p + t + 1] = range(r + t, rows.stop)
            order += range(b * p_max + p, b * p_max + p + t + 1)
            labels += [*ex.target, special.eos]
            r, p = rows.stop, p + t + 1
        regions.append(inp.regions)
        layouts.add((inp.visual_span, inp.regions.shape))
    if len(layouts) > 1:
        raise nm.ShapeError("mixed input layouts or region dims inside one batch")
    visual_span = batch.examples[0].input.visual_span
    x = md.embed_rows(params, ids, positions, np.stack(regions), visual_span)
    return x, allow, out_rows, np.asarray(order), np.asarray(labels)


def _batch_logits(
    params: md.Parameters,
    batch: Batch,
    special: md.SpecialTokens = md.SpecialTokens(),
    *,
    dropout: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> tuple[Tensor, np.ndarray]:
    """Logits at every prediction slot of the batch, example by example, and
    the labels they are scored against."""
    x, allow, out_rows, order, labels = _embed_batch(params, batch, special)
    states = md.encode_states(x, allow, params, dropout=dropout, rng=rng, out_rows=out_rows)
    pred_states = nm.take_rows(nm.reshape(states[-1], (-1, x.shape[2])), order)
    return md.decode_logits(pred_states, params), labels


def stage_loss(
    params: md.Parameters,
    batch: Batch,
    special: md.SpecialTokens = md.SpecialTokens(),
    *,
    dropout: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Mean next-token cross-entropy over every prediction slot in the batch."""
    return nm.cross_entropy(*_batch_logits(params, batch, special, dropout=dropout, rng=rng))


def next_token_accuracy(params: md.Parameters, examples: Sequence[TrainingExample]) -> float:
    """Fraction of teacher-forced steps whose argmax equals the ground truth."""
    hits = total = 0
    for ex in examples:
        with nm.no_grad():
            logits, labels = _batch_logits(params, Batch([ex]))
        nm.check_finite(logits, "next_token_accuracy")
        hits += int(np.sum(np.argmax(logits.data, axis=1) == labels))
        total += len(labels)
    return hits / total if total else 0.0


# ---------------------------------------------------------------------------
# stage runner
# ---------------------------------------------------------------------------


def _resolve_init(ref, expected_config: md.ModelConfig) -> md.Parameters:
    if isinstance(ref, md.Parameters):
        return ref
    if not Path(ref).exists():
        raise PrerequisiteError(f"init checkpoint not found: {ref}")
    config, params, _ = md.load_checkpoint(ref)
    if config != expected_config:
        raise md.ConfigError("init checkpoint config differs from the requested config")
    return params


def initialize_stage(plan: StagePlan, config: md.ModelConfig) -> md.Parameters:
    """Fresh weights plus per-stage copying and freezing, in the plan's dtype."""
    params = md.init_parameters(config, plan.seed)
    theta_names = [n for n in params.names() if n not in ("projection.weight", "projection.bias")]
    if plan.stage in (STAGE2, STAGE2_UNFREEZE, STAGE3):
        stage1 = _resolve_init(plan.init_stage1, config)
        params.copy_values_from(stage1, theta_names)
    if plan.stage == STAGE3:
        stage2 = _resolve_init(plan.init_stage2, config)
        params.copy_values_from(stage2, ["projection.weight", "projection.bias"])

    params.set_trainable(value=True)
    if plan.stage == STAGE1:
        params.set_trainable(["projection.weight", "projection.bias"], value=False)
    elif plan.stage == STAGE2:
        params.set_trainable(theta_names, value=False)
    params.astype(np.dtype(plan.dtype).type)
    return params


def run_stage(plan: StagePlan, corpus: dt.LoadedSplit, config: md.ModelConfig) -> StageResult:
    """Train one stage over the corpus; deterministic for a fixed seed. A
    step's `NumericError` is raised again with the stage, step and lr added."""
    corpus.check_model(config)
    mode = STAGE_MODES[plan.stage]
    params = initialize_stage(plan, config)
    special = corpus.vocab.special

    n_examples = sum(len(item.questions) for item in corpus.items)
    steps_per_epoch = math.ceil(n_examples / plan.batch_size)
    total_steps = plan.epochs * steps_per_epoch
    if plan.max_steps is not None:
        total_steps = min(total_steps, plan.max_steps)
    optimizer = OptimizerState(
        base_lr=plan.base_lr, total_steps=total_steps, warmup_fraction=plan.warmup_fraction
    )
    dropout_rng = np.random.default_rng([plan.seed, 515151])

    history: list[LogRecord] = []
    step = 0
    all_params = params.all()
    for epoch in range(plan.epochs):
        if step >= total_steps:
            break
        for batch in make_batches(corpus, mode, plan.batch_size, [plan.seed, 1000 + epoch]):
            if step >= total_steps:
                break
            try:
                loss = stage_loss(params, batch, special, dropout=plan.dropout, rng=dropout_rng)
                nm.backward_gradients(loss, all_params)
                if plan.grad_clip > 0:
                    nm.clip_gradients(all_params, plan.grad_clip)
                nm.adam_step(all_params, optimizer)
            except nm.NumericError as exc:
                raise nm.NumericError(
                    f"{exc} at stage={plan.stage} step={step + 1} "
                    f"lr={nm.lr_schedule(optimizer, step + 1):.3e}"
                ) from exc
            step += 1
            history.append(
                LogRecord(
                    step=step,
                    stage=plan.stage,
                    lr=nm.lr_schedule(optimizer, step),
                    loss=loss.item(),
                )
            )
    return StageResult(stage=plan.stage, config=config, params=params, history=history)


def write_training_log(path, result: StageResult, meta: Optional[dict] = None) -> None:
    with md.write_atomically(path) as fh:
        if meta:
            fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        for rec in result.history:
            fh.write(rec.to_line() + "\n")
