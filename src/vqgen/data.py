"""Word-level tokenizer, corpus/feature file formats, and the deterministic
synthetic multimodal corpus used in place of real detector features.

Corpus files are JSON lines (one record per line: id, caption, questions,
feature_ref), with '#'-prefixed metadata lines. Region features live in a
binary sidecar: magic "VFEA", u32 version, u32 image_count, u32 N, u32 D_f,
then per image N records of D_f f32 features, 4 f32 box coordinates and one
f32 relevance score, all little-endian.
"""

from __future__ import annotations

import json
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import multimodal as mm
from .model import SpecialTokens
from .multimodal import VisualSequence

FEATURE_MAGIC = b"VFEA"
FEATURE_VERSION = 1

SPECIAL_TOKEN_STRINGS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "[EOS]")


class FormatError(ValueError):
    """Malformed corpus or feature file."""


class MagicError(FormatError):
    """File does not start with the expected magic bytes."""


class TruncatedError(FormatError):
    """File ended before the declared payload."""


class DimensionError(FormatError):
    """Stored dimensions disagree with the expected configuration."""


class VocabError(ValueError):
    """Unknown id or malformed vocabulary operation."""


_TOKEN_RE = re.compile(r"[a-z0-9]+|[^a-z0-9\s]")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace and punctuation boundaries."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Vocabulary:
    token_to_id: dict[str, int]
    id_to_token: list[str]
    special: SpecialTokens = field(default_factory=SpecialTokens)

    def __len__(self) -> int:
        return len(self.id_to_token)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, self.special.unk)


def build_vocab(items: Sequence["CorpusItem"]) -> Vocabulary:
    """Frequency-sorted word vocabulary (lexicographic tie-break) after the specials."""
    if not items:
        raise FormatError("cannot build a vocabulary from an empty corpus")
    counts: dict[str, int] = {}
    for item in items:
        for text in [item.caption, *item.questions]:
            for tok in tokenize(text):
                counts[tok] = counts.get(tok, 0) + 1
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    id_to_token = list(SPECIAL_TOKEN_STRINGS) + [tok for tok, _ in ordered]
    token_to_id = {tok: i for i, tok in enumerate(id_to_token)}
    return Vocabulary(token_to_id=token_to_id, id_to_token=id_to_token)


def encode_text(text: str, vocab: Vocabulary) -> list[int]:
    return [vocab.id_of(tok) for tok in tokenize(text)]


def decode_text(ids: Sequence[int], vocab: Vocabulary) -> str:
    words = []
    for i in ids:
        if i < 0 or i >= len(vocab.id_to_token):
            raise VocabError(f"id {i} outside vocabulary of size {len(vocab.id_to_token)}")
        words.append(vocab.id_to_token[i])
    return " ".join(words)


# ---------------------------------------------------------------------------
# corpus records
# ---------------------------------------------------------------------------

_REQUIRED_FIELDS = ("id", "caption", "questions", "feature_ref")


@dataclass
class CorpusItem:
    id: str
    caption: str
    questions: list[str]
    feature_ref: str

    def __post_init__(self):
        if not self.questions:
            raise FormatError(f"item {self.id!r} has no questions")


def write_corpus(path, items: Sequence[CorpusItem], meta: Optional[dict] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if meta is not None:
            fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        for item in items:
            fh.write(
                json.dumps(
                    {
                        "id": item.id,
                        "caption": item.caption,
                        "questions": item.questions,
                        "feature_ref": item.feature_ref,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def load_corpus(path) -> list[CorpusItem]:
    """Parse a line-delimited corpus file, validating ids and required fields."""
    items: list[CorpusItem] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}:{lineno}: malformed record: {exc}") from exc
            if not isinstance(record, dict):
                raise FormatError(f"{path}:{lineno}: record must be a JSON object")
            for fname in _REQUIRED_FIELDS:
                if fname not in record:
                    raise FormatError(f"{path}:{lineno}: missing field {fname!r}")
            questions = record["questions"]
            if not isinstance(questions, list) or not all(isinstance(q, str) for q in questions):
                raise FormatError(f"{path}:{lineno}: questions must be a list of strings")
            if not isinstance(record["caption"], str):
                raise FormatError(f"{path}:{lineno}: caption must be a string")
            item_id = str(record["id"])
            if item_id in seen:
                raise FormatError(f"{path}:{lineno}: duplicate id {item_id!r}")
            seen.add(item_id)
            items.append(
                CorpusItem(
                    id=item_id,
                    caption=record["caption"],
                    questions=questions,
                    feature_ref=str(record["feature_ref"]),
                )
            )
    return items


# ---------------------------------------------------------------------------
# feature files
# ---------------------------------------------------------------------------


def write_features(path, sequences: Sequence[VisualSequence]) -> None:
    """Serialize per-image region sets in the binary feature format."""
    if not sequences:
        raise FormatError("no visual sequences to write")
    n, d_f = sequences[0].features.shape
    if any(seq.features.shape != (n, d_f) for seq in sequences):
        raise DimensionError("all images must carry the same region count and feature dimension")
    records = np.stack(
        [np.concatenate([s.features, s.boxes, s.relevance[:, None]], axis=1) for s in sequences]
    )
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<IIII", FEATURE_VERSION, len(sequences), n, d_f))
        fh.write(records.astype("<f4").tobytes())


def read_features(
    path,
    expected_regions: Optional[int] = None,
    expected_dim: Optional[int] = None,
) -> list[VisualSequence]:
    """Bit-exact read of the binary feature format; one VisualSequence per image."""
    with open(path, "rb") as fh:
        if fh.read(4) != FEATURE_MAGIC:
            raise MagicError(f"{path}: not a feature file")
        header = fh.read(16)
        if len(header) != 16:
            raise TruncatedError(f"{path}: feature file ended inside its header")
        version, count, n, d_f = struct.unpack("<IIII", header)
        if version != FEATURE_VERSION:
            raise FormatError(f"{path}: unsupported feature version {version}")
        if n == 0:  # every image would be empty, whatever count the header declares
            raise DimensionError(f"{path}: header declares 0 regions per image")
        if expected_regions is not None and n != expected_regions:
            raise DimensionError(f"{path}: {n} regions per image, expected {expected_regions}")
        if expected_dim is not None and d_f != expected_dim:
            raise DimensionError(f"{path}: feature dim {d_f}, expected {expected_dim}")
        payload = fh.read()
    declared = count * n * (d_f + 5) * 4
    if len(payload) < declared:
        raise TruncatedError(f"{path}: {len(payload)} payload bytes, header declares {declared}")
    if len(payload) > declared:
        raise FormatError(f"{path}: trailing bytes after declared payload")
    records = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(count, n, d_f + 5)
    try:
        return [VisualSequence(r[:, :d_f], r[:, d_f:-1], r[:, -1]) for r in records]
    except mm.InputError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def resolve_feature_ref(ref: str, base_dir) -> tuple[Path, int]:
    if "#" not in ref:
        raise FormatError(f"feature_ref {ref!r} must look like 'file#index'")
    name, _, idx = ref.rpartition("#")
    try:
        index = int(idx)
    except ValueError as exc:
        raise FormatError(f"feature_ref {ref!r} has a non-integer index") from exc
    return Path(base_dir) / name, index


class FeatureStore:
    """Lazy per-file cache resolving feature_ref strings to visual sequences."""

    def __init__(self, base_dir, expected_regions=None, expected_dim=None):
        self.base_dir = Path(base_dir)
        self.expected_regions = expected_regions
        self.expected_dim = expected_dim
        self._cache: dict[Path, list[VisualSequence]] = {}

    def get(self, ref: str) -> VisualSequence:
        path, index = resolve_feature_ref(ref, self.base_dir)
        if path not in self._cache:
            self._cache[path] = read_features(
                path, expected_regions=self.expected_regions, expected_dim=self.expected_dim
            )
        sequences = self._cache[path]
        if index < 0 or index >= len(sequences):
            raise FormatError(f"feature_ref {ref!r}: index outside file with {len(sequences)} images")
        return sequences[index]


# ---------------------------------------------------------------------------
# synthetic world
# ---------------------------------------------------------------------------

SHAPES = ("cube", "ball", "cone", "ring", "block", "disk")
COLORS = ("red", "blue", "green", "yellow", "black", "white")
SIZES = ("small", "big")

# detector-style features are large relative to text embeddings; this scale
# also makes a randomly-projected image visibly disrupt the encoder, which the
# alignment probe relies on to separate trained from untrained projections
FEATURE_SCALE = 60.0
NOISE_SIGMA = 0.1

CAPTION_TEMPLATES = (
    "a {s0} {c0} {sh0} next to a {s1} {c1} {sh1}",
    "the picture shows a {s0} {c0} {sh0} and a {c1} {sh1}",
    "there is a {s0} {c0} {sh0} near a {s1} {c1} {sh1}",
)

QUESTION_TEMPLATES = (
    "what color is the {sh0} ?",
    "is the {c0} {sh0} {s0} ?",
    "how big is the {c0} {sh0} ?",
    "what is next to the {s0} {sh0} ?",
    "where is the {c0} {sh0} ?",
)


@dataclass
class SynthObject:
    shape: int
    color: int
    size: int


@dataclass
class SynthWorld:
    """Seeded generator whose questions are answerable from the region features."""

    seed: int
    num_regions: int = 8
    feature_dim: int = 32

    def __post_init__(self):
        if self.num_regions < 1:
            raise DimensionError(f"num_regions must be >= 1, got {self.num_regions}")
        minimum = len(SHAPES) + len(COLORS) + len(SIZES) + 1
        if self.feature_dim < minimum:
            raise DimensionError(f"feature_dim must be >= {minimum} to encode attributes")

    def region_features(self, obj: SynthObject, relevance: float, rng) -> np.ndarray:
        """Attribute one-hots at detector-like scale, plus seeded noise."""
        f = np.zeros(self.feature_dim)
        f[obj.shape] = FEATURE_SCALE
        f[len(SHAPES) + obj.color] = FEATURE_SCALE
        f[len(SHAPES) + len(COLORS) + obj.size] = FEATURE_SCALE
        f[len(SHAPES) + len(COLORS) + len(SIZES)] = FEATURE_SCALE * relevance
        f += rng.normal(0.0, NOISE_SIGMA, size=self.feature_dim)
        return f

    def make_image(self, item_index: int, split: str, refs_per_item: int):
        """One synthetic image: (CorpusItem fields, VisualSequence)."""
        rng = np.random.default_rng([self.seed, _split_code(split), item_index])
        objects = [
            SynthObject(
                shape=int(rng.integers(len(SHAPES))),
                color=int(rng.integers(len(COLORS))),
                size=int(rng.integers(len(SIZES))),
            )
            for _ in range(self.num_regions)
        ]
        relevances = np.linspace(1.0, 0.2, self.num_regions)
        features, boxes = [], []
        for obj, rel in zip(objects, relevances):  # draws features, then box, per region
            features.append(self.region_features(obj, rel, rng))
            boxes.append(rng.random(4))
        main, second = objects[0], objects[1 % len(objects)]
        fills = dict(
            sh0=SHAPES[main.shape], c0=COLORS[main.color], s0=SIZES[main.size],
            sh1=SHAPES[second.shape], c1=COLORS[second.color], s1=SIZES[second.size],
        )
        caption = CAPTION_TEMPLATES[int(rng.integers(len(CAPTION_TEMPLATES)))].format(**fills)
        order = rng.permutation(len(QUESTION_TEMPLATES))[:refs_per_item]
        questions = [QUESTION_TEMPLATES[i].format(**fills) for i in sorted(order)]
        return caption, questions, VisualSequence(np.stack(features), np.stack(boxes), relevances)


def _split_code(split: str) -> int:
    return {"train": 0, "val": 1, "test": 2}[split]


def synth_dataset(
    out_dir,
    seed: int,
    n_train: int = 500,
    n_val: int = 100,
    n_test: int = 100,
    refs_per_item: int = 3,
    num_regions: int = 8,
    feature_dim: int = 32,
    meta: Optional[dict] = None,
) -> dict[str, Path]:
    """Write corpus + feature files for all three splits; pure function of seed."""
    if min(n_train, n_val, n_test, refs_per_item) < 1:
        raise FormatError("all synthetic counts must be >= 1")
    if refs_per_item > len(QUESTION_TEMPLATES):
        raise FormatError(f"refs_per_item above {len(QUESTION_TEMPLATES)} is not supported")
    world = SynthWorld(seed=seed, num_regions=num_regions, feature_dim=feature_dim)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    base_meta = {"seed": seed, "refs_per_item": refs_per_item,
                 "num_regions": num_regions, "feature_dim": feature_dim}
    if meta:
        base_meta.update(meta)
    for split, count in (("train", n_train), ("val", n_val), ("test", n_test)):
        items: list[CorpusItem] = []
        sequences: list[VisualSequence] = []
        for i in range(count):
            caption, questions, visual = world.make_image(i, split, refs_per_item)
            items.append(
                CorpusItem(
                    id=f"{split}-{i:05d}",
                    caption=caption,
                    questions=questions,
                    feature_ref=f"{split}.features#{i}",
                )
            )
            sequences.append(visual)
        corpus_path = out / f"{split}.jsonl"
        feature_path = out / f"{split}.features"
        write_corpus(corpus_path, items, meta={**base_meta, "split": split, "items": count})
        write_features(feature_path, sequences)
        written[split] = corpus_path
    return written


@dataclass
class LoadedSplit:
    """A corpus split resolved against its feature files and a vocabulary."""

    items: list[CorpusItem]
    vocab: Vocabulary
    features: FeatureStore

    def visual(self, item: CorpusItem) -> VisualSequence:
        return self.features.get(item.feature_ref)

    def assemble(self, item: CorpusItem, mode: str) -> mm.AssembledInput:
        """The item's model input in `mode`: its regions, its caption, or both."""
        caption = encode_text(item.caption, self.vocab) if mode != mm.IMAGE_ONLY else None
        visual = self.visual(item) if mode != mm.CAPTION_ONLY else None
        special = self.vocab.special
        return mm.assemble_input(
            mode, visual=visual, caption=caption, cls_id=special.cls, sep_id=special.sep
        )


def load_split(
    data_dir,
    split: str,
    *,
    vocab: Optional[Vocabulary] = None,
    expected_regions: Optional[int] = None,
    expected_dim: Optional[int] = None,
) -> LoadedSplit:
    """Load one split; the vocabulary defaults to one built from the train split."""
    data_dir = Path(data_dir)
    items = load_corpus(data_dir / f"{split}.jsonl")
    if vocab is None:
        train_items = items if split == "train" else load_corpus(data_dir / "train.jsonl")
        vocab = build_vocab(train_items)
    store = FeatureStore(data_dir, expected_regions=expected_regions, expected_dim=expected_dim)
    return LoadedSplit(items=items, vocab=vocab, features=store)
