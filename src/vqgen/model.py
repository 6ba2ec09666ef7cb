"""Transformer encoder with tied-embedding decoding head and checkpoint I/O.

One batched embedding, `embed_rows`, turns token ids and region vectors into
input rows; the single-sequence helpers call it with a batch of one.

The encoder is a stack of post-norm blocks (masked multi-head self-attention,
then a gelu feed-forward, each with residual + layer norm). The decoding head
is a feed-forward layer, a layer norm, and a matmul against the transposed
token-embedding table -- no separate output matrix exists.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import numerics as nm
from .multimodal import AssembledInput
from .numerics import Parameter, Tensor

MASKED_LOGIT = -1e9

CHECKPOINT_MAGIC = b"MGCK"
CHECKPOINT_VERSION = 1


class ConfigError(ValueError):
    """Invalid architecture configuration."""


class CheckpointError(ValueError):
    """Malformed or mismatched checkpoint file."""


def _parse_bool(raw, name: str) -> bool:
    """A boolean config value: `true`/`false`/`1`/`0` in any case, or a bool."""
    text = str(raw).lower()
    if text in ("true", "1"):
        return True
    if text in ("false", "0"):
        return False
    raise ConfigError(f"{name} must be one of true/false/1/0, got {raw!r}")


def _parse_int(raw, name: str) -> int:
    """An integer config value; anything `int()` rejects raises ConfigError."""
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class SpecialTokens:
    pad: int = 0
    unk: int = 1
    cls: int = 2
    sep: int = 3
    mask: int = 4
    eos: int = 5


@dataclass
class ModelConfig:
    num_layers: int = 4
    num_heads: int = 4
    model_dim: int = 128
    ffn_dim: int = 512
    vocab_size: int = 1000
    max_positions: int = 64
    feature_dim: int = 32
    boxes_dim: int = 4
    num_regions: int = 8
    use_type_embeddings: bool = False

    def __post_init__(self):
        for f in fields(self):
            if f.type == "int" and getattr(self, f.name) < 1:
                raise ConfigError(f"{f.name} must be at least 1, got {getattr(self, f.name)}")
        if self.model_dim % self.num_heads != 0:
            raise ConfigError(f"model_dim {self.model_dim} not divisible by {self.num_heads} heads")
        if self.boxes_dim != 4:
            raise ConfigError("boxes_dim is fixed at 4")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.num_heads

    @property
    def object_dim(self) -> int:
        return self.feature_dim + self.boxes_dim

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        kwargs = {}
        for f in fields(cls):
            if f.name in d:
                parse = _parse_bool if f.type == "bool" else _parse_int
                kwargs[f.name] = parse(d[f.name], f.name)
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**kwargs)


class Parameters:
    """All learnable weights, keyed by stable names in registration order."""

    def __init__(self, config: ModelConfig, store: dict[str, Parameter]):
        self.config = config
        self._store = store

    def __getitem__(self, name: str) -> Parameter:
        return self._store[name]

    def __contains__(self, name: str) -> bool:
        return name in self._store

    def all(self) -> list[Parameter]:
        return list(self._store.values())

    def names(self) -> list[str]:
        return list(self._store.keys())

    def set_trainable(self, names: Sequence[str] | None = None, *, value: bool = True) -> None:
        targets = self._store.keys() if names is None else names
        for n in targets:
            self._store[n].trainable = value

    def checksum(self, names: Optional[Sequence[str]] = None) -> str:
        """Hex digest over the raw bytes of the named tensors (all by default)."""
        h = hashlib.sha256()
        for n in names if names is not None else self._store.keys():
            h.update(n.encode())
            h.update(self._store[n].value.data.tobytes())
        return h.hexdigest()

    def copy_values_from(self, other: "Parameters", names: Sequence[str]) -> None:
        for n in names:
            src = other[n].value.data
            dst = self._store[n].value.data
            if src.shape != dst.shape:
                raise ConfigError(f"shape mismatch for {n}: {src.shape} vs {dst.shape}")
            dst[...] = src

    def astype(self, dtype) -> None:
        """Convert every tensor (and gradient buffer) to the given float dtype."""
        if dtype not in (np.float64, np.float32):
            raise ConfigError(f"unsupported parameter dtype {dtype}")
        for p in self._store.values():
            p.value.data = p.value.data.astype(dtype)
            p.gradient = p.gradient.astype(dtype)

    @property
    def dtype(self):
        return self._store["embeddings.token"].value.data.dtype


def _parameter_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, kind) in registration order; kind picks the initializer."""
    d, ffn, v = config.model_dim, config.ffn_dim, config.vocab_size
    out: list[tuple[str, tuple[int, ...], str]] = [
        ("embeddings.token", (v, d), "weight"),
        ("embeddings.position", (config.max_positions, d), "weight"),
    ]
    if config.use_type_embeddings:
        out.append(("embeddings.type", (2, d), "weight"))
    for i in range(config.num_layers):
        pre = f"layer{i}"
        out += [
            (f"{pre}.attn.wq", (d, d), "weight"),
            (f"{pre}.attn.bq", (d,), "bias"),
            (f"{pre}.attn.wk", (d, d), "weight"),
            (f"{pre}.attn.bk", (d,), "bias"),
            (f"{pre}.attn.wv", (d, d), "weight"),
            (f"{pre}.attn.bv", (d,), "bias"),
            (f"{pre}.attn.wo", (d, d), "weight"),
            (f"{pre}.attn.bo", (d,), "bias"),
            (f"{pre}.attn_norm.gain", (d,), "gain"),
            (f"{pre}.attn_norm.bias", (d,), "bias"),
            (f"{pre}.ffn.w1", (d, ffn), "weight"),
            (f"{pre}.ffn.b1", (ffn,), "bias"),
            (f"{pre}.ffn.w2", (ffn, d), "weight"),
            (f"{pre}.ffn.b2", (d,), "bias"),
            (f"{pre}.ffn_norm.gain", (d,), "gain"),
            (f"{pre}.ffn_norm.bias", (d,), "bias"),
        ]
    out += [
        ("head.dense_w", (d, d), "weight"),
        ("head.dense_b", (d,), "bias"),
        ("head.norm.gain", (d,), "gain"),
        ("head.norm.bias", (d,), "bias"),
        ("head.output_bias", (v,), "bias"),
        ("projection.weight", (config.object_dim, d), "weight"),
        ("projection.bias", (d,), "bias"),
    ]
    return out


def _truncated_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Normal(0, std) with resampling outside two standard deviations."""
    x = rng.normal(0.0, std, size=shape)
    bad = np.abs(x) > 2.0 * std
    while bad.any():
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2.0 * std
    return x


INIT_STD = 0.02


def init_parameters(config: ModelConfig, seed: int) -> Parameters:
    """Fresh weights: truncated normal(0, 0.02), norms at identity, zero biases."""
    rng = np.random.default_rng(seed)
    store: dict[str, Parameter] = {}
    for name, shape, kind in _parameter_shapes(config):
        if kind == "weight":
            data = _truncated_normal(rng, shape, INIT_STD)
        elif kind == "gain":
            data = np.ones(shape)
        else:
            data = np.zeros(shape)
        store[name] = Parameter(name, data.astype(nm.DEFAULT_DTYPE))
    return Parameters(config, store)


# ---------------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------------


def embed_rows(
    params: Parameters,
    ids: np.ndarray,
    positions: np.ndarray,
    regions: Optional[np.ndarray],
    visual_span: tuple[int, int],
) -> Tensor:
    """Embed a (B, S) batch of slots; shape (B, S, model_dim).

    Rows outside `visual_span` are token-embedding rows of `ids`; the rows
    inside it are the (B, v1 - v0, object_dim) `regions` projected through the
    cross-modal linear layer. Every row then gets its position row, and with
    type embeddings its type row (0 for regions, 1 for tokens).
    """
    config = params.config
    b, s = ids.shape
    if positions.size and positions.max() >= config.max_positions:
        raise nm.ShapeError(
            f"position {int(positions.max())} exceeds max_positions {config.max_positions}"
        )
    v0, v1 = visual_span
    content = nm.take_rows(params["embeddings.token"].value, ids)
    if v1 > v0:
        if regions.shape != (b, v1 - v0, config.object_dim):
            raise nm.ShapeError(
                f"regions are {regions.shape}, expected {(b, v1 - v0, config.object_dim)}"
            )
        vis = nm.affine(
            regions.astype(params.dtype),
            params["projection.weight"].value,
            params["projection.bias"].value,
        )
        content = nm.concat(
            [nm.narrow(content, 1, 0, v0), vis, nm.narrow(content, 1, v1, s - v1)], axis=1
        )
    out = nm.add(content, nm.take_rows(params["embeddings.position"].value, positions))
    if config.use_type_embeddings:
        types = np.ones((b, s), dtype=np.int64)
        types[:, v0:v1] = 0
        out = nm.add(out, nm.take_rows(params["embeddings.type"].value, types))
    return out


def embed_extended(
    input: AssembledInput,
    extra_tokens: Sequence[int],
    extra_positions: Sequence[int],
    params: Parameters,
) -> Tensor:
    """Embed an assembled input plus appended text tokens; shape (S, model_dim)."""
    ids = np.concatenate([input.ids, np.asarray(extra_tokens, dtype=np.int64)])
    positions = np.concatenate([input.positions, np.asarray(extra_positions, dtype=np.int64)])
    out = embed_rows(params, ids[None], positions[None], input.regions[None], input.visual_span)
    return nm.reshape(out, out.shape[1:])


def embed_sequence(input: AssembledInput, params: Parameters) -> Tensor:
    """Embed an assembled input; shape (S, model_dim)."""
    return embed_extended(input, [], [], params)


def additive_mask(allow: np.ndarray) -> np.ndarray:
    """Boolean allow-matrix to additive logit mask (0 where allowed, -1e9 where not)."""
    return np.where(allow, 0.0, MASKED_LOGIT)


def _dropout(x: Tensor, rate: float, rng: Optional[np.random.Generator]) -> Tensor:
    if rate <= 0.0:
        return x
    if rng is None:
        raise nm.StateError("dropout requires a random generator")
    keep = (rng.random(x.shape) >= rate).astype(x.data.dtype)
    keep /= 1.0 - rate
    return nm.mul(x, keep)


class KVCache:
    """Attention keys and values of rows already encoded, one pair per layer.

    Under the left-to-right mask a row never attends to a later one, so once a
    row is encoded its keys and values are final. `encode_states` reads them
    in place of re-encoding those rows and appends the new rows it is told to
    keep. Each array is (B, num_heads, rows cached, head_dim).
    """

    def __init__(self):
        self.keys: list[np.ndarray] = []
        self.values: list[np.ndarray] = []

    def __len__(self) -> int:
        return self.keys[0].shape[2] if self.keys else 0


def encode_states(
    x: Tensor,
    allow: np.ndarray,
    params: Parameters,
    *,
    dropout: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    cache: Optional[KVCache] = None,
    keep: Optional[int] = None,
) -> list[Tensor]:
    """Run the encoder stack on (B, S, d) input under a boolean allow mask.

    Returns num_layers+1 tensors; index 0 is the embedding input.

    With a `cache` holding P rows, `x` holds only the S new rows, which attend
    to the cached keys/values and to their own: `allow` is then (B, S, P + S).
    Afterwards the cache holds the keys and values of its P rows plus the
    first `keep` new rows (all by default). The cached rows are constants: no
    gradient flows back into them.
    """
    config = params.config
    b, s, d = x.shape
    past = len(cache) if cache is not None else 0
    if allow.ndim == 2:
        allow = allow[None, :, :]
    if allow.shape != (b, s, past + s) and allow.shape != (1, s, past + s):
        raise nm.ShapeError(f"mask shape {allow.shape} incompatible with input {(b, s)}")
    if keep is None:
        keep = s
    if not 0 <= keep <= s:
        raise nm.ShapeError(f"cannot keep {keep} of {s} new rows")
    mask_add = Tensor(additive_mask(allow)[:, None, :, :].astype(x.data.dtype))

    h_count, dh = config.num_heads, config.head_dim
    scale = 1.0 / math.sqrt(dh)
    states = [x]
    kept: list[tuple[np.ndarray, np.ndarray]] = []

    for i in range(config.num_layers):
        pre = f"layer{i}"
        q = nm.affine(x, params[f"{pre}.attn.wq"].value, params[f"{pre}.attn.bq"].value)
        k = nm.affine(x, params[f"{pre}.attn.wk"].value, params[f"{pre}.attn.bk"].value)
        v = nm.affine(x, params[f"{pre}.attn.wv"].value, params[f"{pre}.attn.bv"].value)
        q = nm.swapaxes(nm.reshape(q, (b, s, h_count, dh)), 1, 2)
        k = nm.swapaxes(nm.reshape(k, (b, s, h_count, dh)), 1, 2)
        v = nm.swapaxes(nm.reshape(v, (b, s, h_count, dh)), 1, 2)
        if past:
            k = nm.concat([Tensor(cache.keys[i]), k], axis=2)
            v = nm.concat([Tensor(cache.values[i]), v], axis=2)
        if cache is not None:
            kept.append((k.data[:, :, : past + keep], v.data[:, :, : past + keep]))
        scores = nm.add(nm.mul(nm.matmul(q, nm.transpose(k)), scale), mask_add)
        att = nm.softmax_rows(scores)
        ctx = nm.reshape(nm.swapaxes(nm.matmul(att, v), 1, 2), (b, s, d))
        ctx = nm.affine(ctx, params[f"{pre}.attn.wo"].value, params[f"{pre}.attn.bo"].value)
        ctx = _dropout(ctx, dropout, rng)
        x = nm.layer_norm(
            nm.add(x, ctx),
            params[f"{pre}.attn_norm.gain"].value,
            params[f"{pre}.attn_norm.bias"].value,
        )
        ff = nm.affine(x, params[f"{pre}.ffn.w1"].value, params[f"{pre}.ffn.b1"].value)
        ff = nm.gelu(ff)
        ff = nm.affine(ff, params[f"{pre}.ffn.w2"].value, params[f"{pre}.ffn.b2"].value)
        ff = _dropout(ff, dropout, rng)
        x = nm.layer_norm(
            nm.add(x, ff),
            params[f"{pre}.ffn_norm.gain"].value,
            params[f"{pre}.ffn_norm.bias"].value,
        )
        states.append(x)
    if cache is not None:
        cache.keys = [k for k, _ in kept]
        cache.values = [v for _, v in kept]
    return states


def encode(embedded: Tensor, mask, params: Parameters) -> list[Tensor]:
    """Encode one (S, d) sequence; returns the num_layers+1 per-layer outputs.

    `mask` is an AttentionMask or a plain (S, S) boolean allow-matrix.
    """
    allow = np.asarray(getattr(mask, "allow", mask), dtype=bool)
    s, d = embedded.shape
    if allow.shape != (s, s):
        raise nm.ShapeError(f"mask is {allow.shape}, expected ({s}, {s})")
    x = nm.reshape(embedded, (1, s, d))
    states = encode_states(x, allow, params)
    return [nm.reshape(st, (s, d)) for st in states]


def decode_logits(hidden: Tensor, params: Parameters) -> Tensor:
    """Head over (N, d) final-layer states: feed-forward, norm, tied-embedding
    matmul; shape (N, vocab_size)."""
    h = nm.gelu(nm.affine(hidden, params["head.dense_w"].value, params["head.dense_b"].value))
    h = nm.layer_norm(h, params["head.norm.gain"].value, params["head.norm.bias"].value)
    return nm.add(
        nm.matmul(h, nm.transpose(params["embeddings.token"].value)),
        params["head.output_bias"].value,
    )


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def _encode_kv(d: dict) -> bytes:
    lines = [f"{k}={v}" for k, v in d.items()]
    return "\n".join(lines).encode("utf-8")


def _decode_kv(raw: bytes) -> dict:
    out: dict[str, str] = {}
    text = raw.decode("utf-8")
    if not text:
        return out
    for line in text.split("\n"):
        if "=" not in line:
            raise CheckpointError(f"malformed config line: {line!r}")
        k, v = line.split("=", 1)
        out[k] = v
    return out


def save_checkpoint(path, config: ModelConfig, params: Parameters, extras: Optional[dict] = None):
    """Write the versioned binary checkpoint; tensors stored as little-endian f32."""
    meta = {str(k): str(v) for k, v in (extras or {}).items()}
    cfg = {k: ("true" if v is True else "false" if v is False else v) for k, v in config.to_dict().items()}
    cfg.update({f"x.{k}": v for k, v in meta.items()})
    blob = _encode_kv(cfg)
    names = params.names()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            data = params[name].value.data
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", data.ndim))
            for dim in data.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(data, dtype="<f4").tobytes())


def _read_exact(fh, n: int) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        raise CheckpointError("truncated checkpoint file")
    return raw


def load_checkpoint(path):
    """Read a checkpoint; returns (config, Parameters, extras dict)."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != CHECKPOINT_MAGIC:
            raise CheckpointError("bad checkpoint magic")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (cfg_len,) = struct.unpack("<I", _read_exact(fh, 4))
        kv = _decode_kv(_read_exact(fh, cfg_len))
        extras = {k[2:]: v for k, v in kv.items() if k.startswith("x.")}
        config = ModelConfig.from_dict({k: v for k, v in kv.items() if not k.startswith("x.")})
        (count,) = struct.unpack("<I", _read_exact(fh, 4))
        expected = _parameter_shapes(config)
        if count != len(expected):
            raise CheckpointError(f"{count} tensors in file, config implies {len(expected)}")
        store: dict[str, Parameter] = {}
        for exp_name, exp_shape, _ in expected:
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
            name = _read_exact(fh, name_len).decode("utf-8")
            if name != exp_name:
                raise CheckpointError(f"tensor {name!r} out of order, expected {exp_name!r}")
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1))
            shape = tuple(struct.unpack("<I", _read_exact(fh, 4))[0] for _ in range(ndim))
            if shape != exp_shape:
                raise CheckpointError(f"tensor {name!r} has shape {shape}, expected {exp_shape}")
            n_items = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(_read_exact(fh, 4 * n_items), dtype="<f4")
            store[name] = Parameter(name, data.astype(nm.DEFAULT_DTYPE).reshape(shape))
        if fh.read(1):
            raise CheckpointError("trailing bytes after the last tensor")
    return config, Parameters(config, store), extras
