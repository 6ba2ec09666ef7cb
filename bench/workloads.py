"""The three workloads. Each builds its inputs from the workload seed in
`setup`, runs whole rounds of `vqgen` commands through `vqgen.cli.main`
in-process, and checks the last round's outputs in `check`.

End-to-end samples come from clock hooks at the boundary each metric is
defined on (a train step, a generate call, a probed pair). A hook reads the
clock and calls through; it adds no layer wrappers.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import time
from pathlib import Path

import checks
from reference import ReferenceModel, read_regions

class OperationFailed(RuntimeError):
    pass


class Cli:
    """Runs `vqgen <argv>` in-process and counts operations attempted and failed."""

    def __init__(self, vqgen):
        self.vqgen = vqgen
        self.attempted = 0
        self.failed = 0
        self.tracer = None

    def __call__(self, *argv, count: bool = True) -> float:
        argv = [str(a) for a in argv]
        span = self.tracer.cli_span(argv[0]) if self.tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(io.StringIO()), span:
            t0 = time.perf_counter()
            code = self.vqgen.cli.main(argv)
            wall = time.perf_counter() - t0
        self.attempted += int(count)
        if code != 0:
            self.failed += int(count)
            raise OperationFailed(f"vqgen {' '.join(argv)} exited {code}")
        return wall


@contextlib.contextmanager
def _patched(module, attr, make):
    original = getattr(module, attr)
    setattr(module, attr, make(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def _percentile(samples, q: float) -> float:
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _median(samples) -> float:
    return _percentile(samples, 0.5)


# a round with this many ops has 10 beyond its p90
ROUND_PERCENTILE_MIN = 100


def _latency_metrics(work_per_s, op_rounds) -> dict:
    """Median work rate over rounds. Op percentiles are taken within each round
    and their median over rounds is reported, so a burst of load from outside
    that spans less than half the run does not move them. If a round is too
    small for a p90 of its own, they are taken over all of the run's ops."""
    if not any(op_rounds):  # every round failed before its first op
        op_rounds = [[float("nan")]]
    if min(len(ops) for ops in op_rounds) >= ROUND_PERCENTILE_MIN:
        p50 = _median([_median(ops) for ops in op_rounds])
        p90 = _median([_percentile(ops, 0.9) for ops in op_rounds])
    else:
        pooled = [t for ops in op_rounds for t in ops]
        p50, p90 = _median(pooled), _percentile(pooled, 0.9)
    return {
        "work_per_s": {"value": _median(work_per_s), "unit": "1/s"},
        "op_ms_p50": {"value": 1000.0 * p50, "unit": "ms"},
        "op_ms_p90": {"value": 1000.0 * p90, "unit": "ms"},
    }


class Workload:
    name = ""

    def __init__(self, vqgen, cli: Cli, seed: int, scale: dict):
        self.vq = vqgen
        self.cli = cli
        self.seed = seed
        self.scale = scale
        self.dir: Path | None = None
        self.work_per_s: list[float] = []
        self.op_rounds: list[list[float]] = []  # op durations, one list per round

    def write_config(self, path: Path) -> None:
        path.write_text("".join(f"{k}={v}\n" for k, v in self.scale["config"].items()))

    def synth(self, out: Path, seed: int, **sizes) -> None:
        sizes = {**self.scale["corpus"], **sizes}
        self.cli("synth", "--out", out, "--seed", seed,
                 *(arg for k, v in sizes.items() for arg in (f"--{k.replace('_', '-')}", v)), count=False)

    def e2e_metrics(self) -> dict:
        return _latency_metrics(self.work_per_s, self.op_rounds)

    def begin_round(self) -> list[float]:
        self.op_rounds.append([])
        return self.op_rounds[-1]


class TrainStaged(Workload):
    """`vqgen train` stages 1 -> 2 -> 3 at a fixed --max-steps per stage, f32,
    batch 32, stage 3 at lr 3e-4; checkpoints written and read between stages.
    work = examples trained; op = one train step."""

    name = "train_staged"

    def setup(self, d: Path) -> None:
        d.mkdir(parents=True)
        self.synth(d / "data", self.seed)
        self.write_config(d / "model.cfg")
        self.dir = d

    def round(self) -> None:
        d, s = self.dir, self.scale
        common = ["--data", d / "data", "--seed", self.seed, "--config", d / "model.cfg",
                  "--batch-size", s["batch_size"], "--max-steps", s["steps"]]
        self.ops = self.begin_round()
        self._examples = 0
        wall = self.cli("train", "--stage", "1", *common, "--out", d / "s1.ckpt", "--log", d / "s1.log")
        wall += self.cli("train", "--stage", "2", *common, "--init-stage1", d / "s1.ckpt",
                         "--out", d / "s2.ckpt", "--log", d / "s2.log")
        wall += self.cli("train", "--stage", "3", *common, "--lr", "3e-4", "--init-stage1", d / "s1.ckpt",
                         "--init-stage2", d / "s2.ckpt", "--out", d / "s3.ckpt", "--log", d / "s3.log")
        self.work_per_s.append(self._examples / wall)

    @contextlib.contextmanager
    def clock_hooks(self):
        # a train step runs from stage_loss entry to adam_step return; the first
        # step of every train call is warm-up and is kept out of the samples
        state = {"start": None, "first": True}
        vq = self.vq

        def loss_hook(fn):
            def hook(params, batch, *args, **kwargs):
                state["start"] = time.perf_counter()
                self._examples += len(batch)
                return fn(params, batch, *args, **kwargs)
            return hook

        def adam_hook(fn):
            def hook(*args, **kwargs):
                out = fn(*args, **kwargs)
                if not state["first"]:
                    self.ops.append(time.perf_counter() - state["start"])
                state["first"] = False
                return out
            return hook

        def stage_hook(fn):
            def hook(*args, **kwargs):
                state["first"] = True
                return fn(*args, **kwargs)
            return hook

        with _patched(vq.training, "stage_loss", loss_hook), \
                _patched(vq.numerics, "adam_step", adam_hook), \
                _patched(vq.training, "run_stage", stage_hook):
            yield

    def check(self) -> None:
        vq, d = self.vq, self.dir
        checks.check_frozen_backbone(d / "s1.ckpt", d / "s2.ckpt")
        model = ReferenceModel.from_checkpoint(d / "s3.ckpt")
        vocab_size = model.w["embeddings.token"].shape[0]
        checks.check_loss_curve(checks.read_log_losses(d / "s1.log"), vocab_size, from_init=True)
        checks.check_loss_curve(checks.read_log_losses(d / "s3.log"), vocab_size, from_init=False)
        # one fixed batch, dropout 0, through the program's own stage_loss
        split = vq.data.load_split(d / "data", "train")
        batch = vq.training.make_batches(split, vq.multimodal.IMAGE_PLUS_CAPTION,
                                         self.scale["batch_size"], [self.seed, 1000])[0]
        _, params, _ = vq.model.load_checkpoint(d / "s3.ckpt")
        special = split.vocab.special
        program = vq.training.stage_loss(params, batch, special, dropout=0.0).item()
        reference = checks.reference_batch_loss(model, batch.examples, special.mask, special.eos)
        checks.check_stage_loss(program, reference)


class GenerateEval(Workload):
    """`vqgen generate --mode both` over the test split, then `vqgen eval`. The
    checkpoint is trained in set-up on a fixed-seed corpus with a fixed seed;
    the workload seed makes the test split. work = token steps (EOS steps
    counted); op = one generation.generate call (one item)."""

    name = "generate_eval"
    TRAIN_CORPUS_SEED = 101
    TRAIN_SEED = 7

    def setup(self, d: Path) -> None:
        d.mkdir(parents=True)
        s = self.scale
        self.synth(d / "data", self.TRAIN_CORPUS_SEED)
        self.synth(d / "test-src", self.seed, train=1, val=1)
        for name in ("test.jsonl", "test.features"):
            shutil.copyfile(d / "test-src" / name, d / "data" / name)
        self.write_config(d / "model.cfg")
        common = ["--data", d / "data", "--seed", self.TRAIN_SEED, "--config", d / "model.cfg",
                  "--batch-size", s["train_batch_size"], "--max-steps", s["train_steps"]]
        self.cli("train", "--stage", "1", *common, "--out", d / "s1.ckpt", count=False)
        self.cli("train", "--stage", "2", *common, "--init-stage1", d / "s1.ckpt",
                 "--out", d / "s2.ckpt", count=False)
        self.cli("train", "--stage", "3", *common, "--lr", "3e-4", "--init-stage1", d / "s1.ckpt",
                 "--init-stage2", d / "s2.ckpt", "--out", d / "s3.ckpt", count=False)
        self.dir = d

    def round(self) -> None:
        d = self.dir
        self.ops = self.begin_round()
        self._token_steps = 0
        wall = self.cli("generate", "--data", d / "data", "--split", "test", "--ckpt", d / "s3.ckpt",
                        "--mode", "both", "--out", d / "gen.tsv", "--max-length", self.scale["max_length"])
        self.work_per_s.append(self._token_steps / wall)
        self.cli("eval", "--data", d / "data", "--split", "test", "--generated", d / "gen.tsv",
                 "--out", d / "report.txt")

    @contextlib.contextmanager
    def clock_hooks(self):
        def generate_hook(fn):
            def hook(*args, **kwargs):
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                self.ops.append(time.perf_counter() - t0)
                self._token_steps += len(out.tokens) + (0 if out.truncated else 1)
                return out
            return hook

        with _patched(self.vq.generation, "generate", generate_hook):
            yield

    def check(self) -> None:
        vq, d = self.vq, self.dir
        split = vq.data.load_split(d / "data", "test")
        vocab = split.vocab
        special = vocab.special
        generated = checks.read_generated(d / "gen.tsv")
        checks.check_one_line_per_id(generated, [item.id for item in split.items])
        regions = read_regions(d / "data" / "test.features")
        inputs, token_ids = [], []
        for item, (_, text) in zip(split.items, generated):
            index = int(item.feature_ref.rpartition("#")[2])
            caption = vq.data.encode_text(item.caption, vocab)
            inputs.append([special.cls, *regions[index], special.sep, *caption])
            words = text.split(" ") if text else []
            checks.require(all(w in vocab.token_to_id for w in words), f"{item.id}: unknown word in {text!r}")
            token_ids.append([vocab.token_to_id[w] for w in words])
        model = ReferenceModel.from_checkpoint(d / "s3.ckpt")
        max_positions = model.w["embeddings.position"].shape[0]
        for slots, tokens in zip(inputs, token_ids):
            limit = min(int(self.scale["max_length"]), max_positions - len(slots) - 1)
            checks.require(len(tokens) < limit, f"an item ran to max_length {limit} without EOS")
        checks.check_greedy(model, inputs, token_ids, mask_id=special.mask, eos_id=special.eos,
                            max_length=int(self.scale["max_length"]))
        oracle_items = [
            (vq.data.tokenize(text), [vq.data.tokenize(q) for q in item.questions])
            for item, (_, text) in zip(split.items, generated)
        ]
        checks.check_report(checks.read_report(d / "report.txt"), oracle_items, keys=("bleu_1",))
        # the CIDEr oracle is quadratic in corpus size: score a fixed subset with
        # `vqgen eval` and compare both metrics there
        n = self.scale["oracle_subset"]
        with open(d / "gen-subset.tsv", "w", encoding="utf-8") as fh:
            fh.writelines(f"{item_id}\t{text}\n" for item_id, text in generated[:n])
        self.cli("eval", "--data", d / "data", "--split", "test", "--generated", d / "gen-subset.tsv",
                 "--out", d / "report-subset.txt", count=False)
        checks.check_report(checks.read_report(d / "report-subset.txt"), oracle_items[:n],
                            keys=("bleu_1", "cider"))


class ProbeXsim(Workload):
    """`vqgen probe` over the val split for freshly initialised checkpoints plus
    --include-random. work = pairs x models; op = one pair's two encodes."""

    name = "probe_xsim"

    def setup(self, d: Path) -> None:
        d.mkdir(parents=True)
        vq = self.vq
        self.synth(d / "data", self.seed)
        vocab = vq.data.load_split(d / "data", "train").vocab
        config = vq.model.ModelConfig(**self.scale["config_ints"], vocab_size=len(vocab))
        self.ckpts = []
        for k in range(self.scale["checkpoints"]):
            path = d / f"init{k}.ckpt"
            params = vq.model.init_parameters(config, 1000 * self.seed + k)
            vq.model.save_checkpoint(path, config, params, extras={"stage": f"init{k}"})
            self.ckpts.append(path)
        self.config = config
        self.dir = d

    def round(self) -> None:
        d = self.dir
        self.ops = self.begin_round()
        self._pairs = 0
        ckpt_args = [arg for path in self.ckpts for arg in ("--ckpt", path)]
        self.reports = []

        def capture(fn):  # keeps the full-precision values behind the printed table
            def hook(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.reports.append(out)
                return out
            return hook

        with _patched(self.vq.probe, "xsim_per_layer", capture):
            wall = self.cli("probe", "--data", d / "data", "--split", "val", *ckpt_args, "--include-random",
                            "--out", d / "probe.tsv")
        self.work_per_s.append(self._pairs / wall)

    @contextlib.contextmanager
    def clock_hooks(self):
        vq = self.vq
        state = {"start": None}

        def close_pair():
            if state["start"] is not None:
                self.ops.append(time.perf_counter() - state["start"])
                state["start"] = None

        def assemble_hook(fn):
            def hook(mode, *args, **kwargs):
                if mode == vq.multimodal.IMAGE_ONLY:  # each pair starts with its image input
                    close_pair()
                    state["start"] = time.perf_counter()
                    self._pairs += 1
                return fn(mode, *args, **kwargs)
            return hook

        def xsim_hook(fn):
            def hook(*args, **kwargs):
                out = fn(*args, **kwargs)
                close_pair()
                return out
            return hook

        with _patched(vq.multimodal, "assemble_input", assemble_hook), \
                _patched(vq.probe, "xsim_per_layer", xsim_hook):
            yield

    def check(self) -> None:
        vq, d = self.vq, self.dir
        split = vq.data.load_split(d / "data", "val")
        special = split.vocab.special
        regions = read_regions(d / "data" / "val.features")
        pairs = [
            (regions[int(item.feature_ref.rpartition("#")[2])], vq.data.encode_text(item.caption, split.vocab))
            for item in split.items
        ]
        expected = {}
        for k, path in enumerate(self.ckpts):
            expected[f"init{k}"] = ReferenceModel.from_checkpoint(path).xsim(pairs, special.cls)
        # the random baseline is never written to disk: take its f64 weights by name
        random = vq.probe.random_baseline(self.config)
        weights = {name: random[name].value.data for name in random.names()}
        expected["random"] = ReferenceModel(weights, self.config.num_heads).xsim(pairs, special.cls)
        table = checks.read_probe_table(d / "probe.tsv")
        checks.check_xsim(table, {report.model_label: report.xsim for report in self.reports}, expected)
        checks.check_random_bound(table)


TOY_CONFIG = {"num_layers": 4, "num_heads": 4, "model_dim": 128, "ffn_dim": 512, "max_positions": 64}
CORPUS = {"train": 500, "val": 100, "test": 100, "refs_per_item": 3, "regions": 8, "feature_dim": 32}

WORKLOADS = {
    "train_staged": (TrainStaged, {"corpus": CORPUS, "config": {**TOY_CONFIG, "dtype": "float32"},
                                   "batch_size": 32, "steps": 13}),
    "generate_eval": (GenerateEval, {"corpus": CORPUS, "config": {**TOY_CONFIG, "dtype": "float32"},
                                     "train_batch_size": 8, "train_steps": 40, "max_length": 24,
                                     "oracle_subset": 40}),
    "probe_xsim": (ProbeXsim, {"corpus": CORPUS, "config_ints": TOY_CONFIG, "checkpoints": 3}),
}
