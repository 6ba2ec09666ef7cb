"""A plain-numpy forward pass of the vqgen model, written from the model's
description rather than from its code, used to check the program's outputs.

Post-norm Transformer encoder: each layer is masked multi-head self-attention
then a gelu feed-forward, each followed by residual + layer norm. Token rows
are token-embedding + position rows; region rows are the object embedding
(features then box) through the cross-modal projection, plus the same position
rows. The head is dense + gelu, layer norm, then the transposed token table
(tied embeddings) plus an output bias.

Nothing here imports vqgen.model or vqgen.numerics: weights come by name from a
checkpoint file (read with the format's own description) or from a plain
dict of arrays.
"""

from __future__ import annotations

import math
import struct

import numpy as np

LAYER_NORM_EPS = 1e-12


def read_checkpoint_payloads(path) -> tuple[dict, dict]:
    """(config strings, {tensor name: (shape, raw little-endian f32 bytes)})
    from an MGCK checkpoint: magic, u32 version, u32-length key=value config
    block, u32 tensor count, then per tensor a u16-length name, u8 ndim, u32
    dims and the payload."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"MGCK":
        raise ValueError(f"{path}: not a checkpoint")
    (cfg_len,) = struct.unpack_from("<I", raw, 8)
    pos = 12 + cfg_len
    config = dict(line.split("=", 1) for line in raw[12:pos].decode().split("\n") if line)
    (count,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    tensors = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", raw, pos)
        name = raw[pos + 2 : pos + 2 + name_len].decode()
        pos += 2 + name_len
        ndim = raw[pos]
        shape = struct.unpack_from(f"<{ndim}I", raw, pos + 1)
        pos += 1 + 4 * ndim
        size = 4 * math.prod(shape)
        tensors[name] = (shape, raw[pos : pos + size])
        pos += size
    if pos != len(raw):
        raise ValueError(f"{path}: {len(raw) - pos} bytes after the last tensor")
    return config, tensors


def read_checkpoint(path) -> tuple[dict, dict]:
    """(config strings, {tensor name: float64 array})."""
    config, payloads = read_checkpoint_payloads(path)
    tensors = {
        name: np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(shape)
        for name, (shape, payload) in payloads.items()
    }
    return config, tensors


def read_regions(path) -> list[np.ndarray]:
    """Per image, an (N, D_f + 4) array of object embeddings (features, then box)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"VFEA":
        raise ValueError(f"{path}: not a feature file")
    _, count, n, d_f = struct.unpack_from("<IIII", raw, 4)
    records = np.frombuffer(raw, dtype="<f4", count=count * n * (d_f + 5), offset=20)
    records = records.astype(np.float64).reshape(count, n, d_f + 5)
    return [records[i, :, : d_f + 4] for i in range(count)]


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def _layer_norm(x, gain, bias):
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LAYER_NORM_EPS) * gain + bias


class ReferenceModel:
    """Forward pass over one sequence of rows; `w` maps tensor names to arrays."""

    def __init__(self, w: dict, num_heads: int):
        self.w = w
        self.num_heads = num_heads
        self.num_layers = sum(1 for name in w if name.endswith(".attn.wq"))

    @classmethod
    def from_checkpoint(cls, path) -> "ReferenceModel":
        config, tensors = read_checkpoint(path)
        return cls(tensors, int(config["num_heads"]))

    def embed(self, slots) -> np.ndarray:
        """Rows for slots that are token ids (int) or object embeddings (arrays);
        slot i sits at position i."""
        w = self.w
        rows = []
        for slot in slots:
            if isinstance(slot, (int, np.integer)):
                rows.append(w["embeddings.token"][slot])
            else:
                rows.append(np.asarray(slot) @ w["projection.weight"] + w["projection.bias"])
        x = np.stack(rows) + w["embeddings.position"][: len(slots)]
        if "embeddings.type" in w:
            is_text = [isinstance(s, (int, np.integer)) for s in slots]
            x = x + w["embeddings.type"][np.asarray(is_text, dtype=np.int64)]
        return x

    def encode(self, x: np.ndarray, allow: np.ndarray) -> list[np.ndarray]:
        """States after every layer, the embedding rows first."""
        w = self.w
        s, d = x.shape
        h = self.num_heads
        dh = d // h
        states = [x]
        for i in range(self.num_layers):
            p = f"layer{i}."

            def heads(name):
                y = x @ w[p + f"attn.w{name}"] + w[p + f"attn.b{name}"]
                return y.reshape(s, h, dh).transpose(1, 0, 2)

            q, k, v = heads("q"), heads("k"), heads("v")
            scores = np.where(allow, q @ k.transpose(0, 2, 1) / math.sqrt(dh), -np.inf)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            att = e / e.sum(axis=-1, keepdims=True)
            ctx = (att @ v).transpose(1, 0, 2).reshape(s, d)
            ctx = ctx @ w[p + "attn.wo"] + w[p + "attn.bo"]
            x = _layer_norm(x + ctx, w[p + "attn_norm.gain"], w[p + "attn_norm.bias"])
            ff = _gelu(x @ w[p + "ffn.w1"] + w[p + "ffn.b1"]) @ w[p + "ffn.w2"] + w[p + "ffn.b2"]
            x = _layer_norm(x + ff, w[p + "ffn_norm.gain"], w[p + "ffn_norm.bias"])
            states.append(x)
        return states

    def logits(self, rows: np.ndarray) -> np.ndarray:
        w = self.w
        hid = _gelu(rows @ w["head.dense_w"] + w["head.dense_b"])
        hid = _layer_norm(hid, w["head.norm.gain"], w["head.norm.bias"])
        return hid @ w["embeddings.token"].T + w["head.output_bias"]

    def next_token_logits(self, input_slots, prefix, mask_id: int) -> np.ndarray:
        """Logits at a [MASK] appended after input + prefix. Input rows see the
        input only; each appended row sees the input and appended rows up to itself."""
        slots = list(input_slots) + [int(t) for t in prefix] + [mask_id]
        n, s = len(input_slots), len(slots)
        allow = np.zeros((s, s), dtype=bool)
        allow[:, :n] = True
        allow[n:, n:] = np.tril(np.ones((s - n, s - n), dtype=bool))
        states = self.encode(self.embed(slots), allow)
        return self.logits(states[-1][-1:])[0]

    def sequence_nll(self, input_slots, target, mask_id: int, eos_id: int) -> list[float]:
        """-log P(y_t | input, y_<t) for every target token and the closing EOS."""
        out = []
        for t, label in enumerate(list(target) + [eos_id]):
            z = self.next_token_logits(input_slots, target[:t], mask_id)
            z = z - z.max()
            out.append(float(np.log(np.exp(z).sum()) - z[label]))
        return out

    def xsim(self, pairs, cls_id: int) -> list[float]:
        """Per layer, cosine of the image input's mean region row and the caption
        input's mean token row, each modality encoded alone, averaged over pairs."""
        sums = np.zeros(self.num_layers)
        for regions, caption in pairs:
            means = []
            for slots in ([cls_id, *regions], [cls_id, *caption]):
                allow = np.ones((len(slots), len(slots)), dtype=bool)
                states = self.encode(self.embed(slots), allow)
                means.append([st[1:].mean(axis=0) for st in states[1:]])
            for layer, (a, b) in enumerate(zip(*means)):
                na, nb = np.linalg.norm(a), np.linalg.norm(b)
                sums[layer] += 0.0 if na == 0.0 or nb == 0.0 else float(a @ b / (na * nb))
        return [float(v) for v in sums / len(pairs)]
