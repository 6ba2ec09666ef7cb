"""Per-layer self time and counts for one benchmark process.

The tracer wraps, from outside the program, the module-level functions vqgen
calls through module attributes (``nm.affine``, ``md.encode_states``,
``gen.next_token``, ``tr.stage_loss``, ...). A span's self time is its duration
minus the time of the spans it encloses, so the self times are disjoint.
Backward time is taken by wrapping the ``_vjp`` closure of each tensor a
wrapped op returns. Each numerics op is also charged, inclusive of the
finiteness check nested in it, to a model scope: the ``Parameter.id`` prefix of
the last parameter an op touched (``layer0.attn``, ``layer0.ffn``,
``layer0.norms``, ``embeddings``, ``projection``, ``head``), inherited by
parameter-less ops. The transposed token table is the tied output layer, so it
counts as ``head``.
"""

from __future__ import annotations

import math
import re
import time
from collections import defaultdict

import numpy as np

SHAPE_OPS = ("add", "mul", "reshape", "swapaxes", "transpose", "concat", "narrow")
COST_OPS = ("affine", "gelu", "layer_norm", "softmax_rows", "matmul", "take_rows", "cross_entropy")
NUM_LAYERS = 4  # the toy config the workloads run
SCOPES = (
    ["embeddings", "projection", "head"]
    + [f"layer{i}.{part}" for i in range(NUM_LAYERS) for part in ("attn", "ffn", "norms")]
)

# span key -> (module name, attribute); self time is reported as `<key>_ms`
SPANS = {
    "data.synth_dataset": ("data", "synth_dataset"),
    "data.load_split": ("data", "load_split"),
    "data.read_features": ("data", "read_features"),
    "multimodal.assemble_input": ("multimodal", "assemble_input"),
    "model.init_parameters": ("model", "init_parameters"),
    "model.save_checkpoint": ("model", "save_checkpoint"),
    "model.load_checkpoint": ("model", "load_checkpoint"),
    "model.dropout": ("model", "_dropout"),
    "numerics.check_finite": ("numerics", "_check_finite"),
    "numerics.backward_graph": ("numerics", "backward_gradients"),
    "numerics.adam_step": ("numerics", "adam_step"),
    "numerics.clip_gradients": ("numerics", "clip_gradients"),
    "training.run_stage": ("training", "run_stage"),
    "training.make_batches": ("training", "make_batches"),
    "training.embed_batch": ("training", "_embed_batch"),
    "training.stage_loss": ("training", "stage_loss"),
    "generation.generate": ("generation", "generate"),
    "generation.next_token": ("generation", "next_token"),
    "metrics.evaluate_corpus": ("metrics", "evaluate_corpus"),
    "metrics.cider": ("metrics", "cider"),
    "metrics.meteor_lite": ("metrics", "meteor_lite"),
    "probe.xsim_per_layer": ("probe", "xsim_per_layer"),
}
# model functions outside the ops: masks, slot loops, reshapes of plain arrays
GLUE = ("embed_extended", "embed_sequence", "encode", "encode_states", "decode_logits")
CLI_COMMANDS = ("train", "generate", "eval", "probe")


def _per_layer_names() -> list[tuple[str, str, str]]:
    """(metric name, unit, better) for every per-layer metric, in print order."""
    out = []
    for op in COST_OPS + ("shape_ops",):
        out += [(f"numerics.{op}.fwd_ms", "ms", "lower"), (f"numerics.{op}.bwd_ms", "ms", "lower")]
    for key in ("backward_graph", "adam_step", "clip_gradients", "check_finite"):
        out.append((f"numerics.{key}_ms", "ms", "lower"))
    out += [("numerics.ops", "count", "lower"), ("numerics.affine.gflop", "GFLOP", "lower")]
    for scope in SCOPES:
        out += [(f"model.{scope}.fwd_ms", "ms", "lower"), (f"model.{scope}.bwd_ms", "ms", "lower")]
    for key in ("save_checkpoint", "load_checkpoint", "init_parameters", "dropout", "glue"):
        out.append((f"model.{key}_ms", "ms", "lower"))
    for key in ("run_stage", "stage_loss", "embed_batch", "make_batches", "first_step"):
        out.append((f"training.{key}_ms", "ms", "lower"))
    out += [
        ("training.steps", "count", "higher"),
        ("training.examples", "count", "higher"),
        ("training.pad_row_fraction", "ratio", "lower"),
        ("generation.generate_ms", "ms", "lower"),
        ("generation.next_token_ms", "ms", "lower"),
        ("generation.token_steps", "count", "higher"),
        ("generation.truncated", "count", "lower"),
        ("generation.rows_encoded", "count", "lower"),
        ("generation.new_row_fraction", "ratio", "higher"),
        ("multimodal.assemble_input_ms", "ms", "lower"),
        ("data.synth_dataset_ms", "ms", "lower"),
        ("data.load_split_ms", "ms", "lower"),
        ("data.read_features_ms", "ms", "lower"),
        ("metrics.evaluate_corpus_ms", "ms", "lower"),
        ("metrics.cider_ms", "ms", "lower"),
        ("metrics.meteor_lite_ms", "ms", "lower"),
        ("probe.xsim_per_layer_ms", "ms", "lower"),
        ("probe.encodes", "count", "lower"),
    ]
    out += [(f"cli.{cmd}_ms", "ms", "lower") for cmd in CLI_COMMANDS]
    out += [("trace.coverage", "ratio", "higher"), ("trace.overhead", "ratio", "lower")]
    return out


PER_LAYER = _per_layer_names()
_LAYER_PART = re.compile(r"^(layer\d+)\.(attn|ffn|attn_norm|ffn_norm)\.")


def scope_of(param_id: str) -> str:
    m = _LAYER_PART.match(param_id)
    if m:
        part = m.group(2)
        return f"{m.group(1)}.{'norms' if part.endswith('_norm') else part}"
    return param_id.split(".", 1)[0]


class Tracer:
    """Installs wrappers on the vqgen modules while active (a context manager)."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> imported vqgen module
        self.self_s: dict[str, float] = defaultdict(float)  # disjoint self time per span
        self.scope_s: dict[str, float] = defaultdict(float)  # op time per model scope
        self.counts: dict[str, float] = defaultdict(float)
        self.first_steps: list[float] = []
        self._stack: list[list[float]] = []
        self._scope_keys = ("embeddings.fwd", "embeddings.bwd")
        self._saved: list[tuple[object, str, object]] = []
        self._in_generate = 0
        self._in_probe = 0
        self._first_step_start = None
        self._awaiting_first_step = False

    # -- installation ------------------------------------------------------

    def __enter__(self):
        nm = self.modules["numerics"]
        for name in COST_OPS + SHAPE_OPS:
            self._patch(nm, name, self._op(name, getattr(nm, name)))
        for key, (module, attr) in SPANS.items():
            mod = self.modules[module]
            self._patch(mod, attr, self._span(key, getattr(mod, attr), attr))
        md = self.modules["model"]
        for attr in GLUE:
            self._patch(md, attr, self._span("model.glue", getattr(md, attr), attr))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False

    def _patch(self, mod, attr, wrapper):
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    # -- spans ---------------------------------------------------------------

    def cli_span(self, command: str):
        """A span around one ``vqgen <command>`` call made by the benchmark."""
        return _Span(self, f"cli.{command}")

    def _span(self, key, fn, attr=None):
        stack, self_s, clock = self._stack, self.self_s, time.perf_counter
        before = getattr(self, f"_before_{attr}", None)
        after = getattr(self, f"_after_{attr}", None)

        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                self_s[key] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if after:
                after(args, token, out)
            return out

        return wrapper

    def _op(self, name, fn):
        metric = "shape_ops" if name in SHAPE_OPS else name
        fwd_key, bwd_key = f"numerics.{metric}.fwd", f"numerics.{metric}.bwd"
        stack, self_s, scope_s, counts, clock = (
            self._stack, self.self_s, self.scope_s, self.counts, time.perf_counter
        )
        tensor_type = self.modules["numerics"].Tensor
        is_affine = name == "affine"
        is_transpose = name == "transpose"
        scope_keys: dict[str, tuple[str, str]] = {}

        def timed_vjp(vjp, scope_bwd):
            def wrapper(g):
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return vjp(g)
                finally:
                    elapsed = clock() - t0
                    stack.pop()
                    self_s[bwd_key] += elapsed - frame[0]
                    scope_s[scope_bwd] += elapsed
                    if stack:
                        stack[-1][0] += elapsed

            return wrapper

        def wrapper(*args, **kwargs):
            for a in args:
                if type(a) is tensor_type and a.param is not None:
                    pid = a.param.id
                    keys = scope_keys.get(pid)
                    if keys is None:
                        scope = "head" if is_transpose and pid == "embeddings.token" else scope_of(pid)
                        keys = scope_keys[pid] = (scope + ".fwd", scope + ".bwd")
                    self._scope_keys = keys
            scope_fwd, scope_bwd = self._scope_keys
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                self_s[fwd_key] += elapsed - frame[0]
                scope_s[scope_fwd] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            counts["numerics.ops"] += 1
            if is_affine:
                x, w = args[0], args[1]
                rows = math.prod((x.shape if type(x) is tensor_type else np.shape(x))[:-1])
                counts["numerics.affine.gflop"] += 2e-9 * rows * w.shape[0] * w.shape[1]
            if out._vjp is not None:
                out._vjp = timed_vjp(out._vjp, scope_bwd)
            return out

        return wrapper

    # -- counting hooks: `_before_<attr>` returns a token for `_after_<attr>` --

    def _before_run_stage(self, args):
        self._awaiting_first_step = True

    def _after_run_stage(self, args, token, out):
        self._awaiting_first_step = False
        self._first_step_start = None

    def _before_stage_loss(self, args):
        rows = [len(ex.input) + 2 * len(ex.target) + 1 for ex in args[1].examples]
        self.counts["training.examples"] += len(rows)
        self.counts["training.rows"] += len(rows) * max(rows)
        self.counts["training.pad_rows"] += len(rows) * max(rows) - sum(rows)
        if self._awaiting_first_step and self._first_step_start is None:
            self._first_step_start = time.perf_counter()

    def _after_adam_step(self, args, token, out):
        self.counts["training.steps"] += 1
        if self._first_step_start is not None:
            self.first_steps.append(time.perf_counter() - self._first_step_start)
            self._first_step_start = None
            self._awaiting_first_step = False

    def _before_generate(self, args):
        self._in_generate += 1
        return self.counts["generation.token_steps"]

    def _after_generate(self, args, token, out):
        self._in_generate -= 1
        steps = self.counts["generation.token_steps"] - token
        self.counts["generation.truncated"] += int(out.truncated)
        # rows no earlier step of this call encoded: the input and the first
        # mask slot, then per further step the committed token and a new mask
        self.counts["generation.rows_first_encoded"] += len(args[1]) + 1 + 2 * (steps - 1)

    def _before_next_token(self, args):
        self.counts["generation.token_steps"] += 1

    def _before_xsim_per_layer(self, args):
        self._in_probe += 1

    def _after_xsim_per_layer(self, args, token, out):
        self._in_probe -= 1

    def _before_encode_states(self, args):
        b, s = args[0].shape[:2]
        if self._in_generate:
            self.counts["generation.rows_encoded"] += b * s
        if self._in_probe:
            self.counts["probe.encodes"] += 1

    # -- results ---------------------------------------------------------------

    def metrics(self, rounds: int, traced_wall: float, overhead: float) -> dict:
        """Every per-layer metric, per workload round (sums divided by `rounds`)."""
        ms = {}
        for key, seconds in self.self_s.items():
            ms[key + "_ms"] = 1000.0 * seconds / rounds
        for key, seconds in self.scope_s.items():
            ms[f"model.{key}_ms"] = 1000.0 * seconds / rounds
        for key, value in self.counts.items():
            ms[key] = value / rounds
        if self.first_steps:
            ms["training.first_step_ms"] = 1000.0 * float(np.median(self.first_steps))
        rows = self.counts.get("training.rows", 0)
        ms["training.pad_row_fraction"] = self.counts["training.pad_rows"] / rows if rows else 0.0
        encoded = self.counts.get("generation.rows_encoded", 0)
        ms["generation.new_row_fraction"] = (
            self.counts["generation.rows_first_encoded"] / encoded if encoded else 0.0
        )
        covered = sum(s for key, s in self.self_s.items() if not key.startswith("cli."))
        ms["trace.coverage"] = covered / traced_wall
        ms["trace.overhead"] = overhead
        return {name: {"value": float(ms.get(name, 0.0)), "unit": unit} for name, unit, _ in PER_LAYER}


class _Span:
    def __init__(self, tracer: Tracer, key: str):
        self.tracer, self.key = tracer, key

    def __enter__(self):
        self.frame = [0.0]
        self.tracer._stack.append(self.frame)
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self.t0
        stack = self.tracer._stack
        stack.pop()
        # cli spans are reported inclusive: the layers below them carry self time
        self.tracer.self_s[self.key] += elapsed
        if stack:
            stack[-1][0] += elapsed
        return False
