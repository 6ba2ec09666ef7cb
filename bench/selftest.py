"""The benchmark's own test: every output check passes on the program's real
outputs and fails when fed a wrong answer. Wrong answers are made here, on
copies of the outputs or of the reference's weights, never in the program.

    python3 bench/selftest.py          # from the root of a vqgen checkout

Runs the three workloads once each at a tiny scale (2 layers, 16 dims, a
12-item corpus), so it takes seconds. Also runnable under pytest.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import run  # noqa: E402

vq = run.import_vqgen(ROOT)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from reference import ReferenceModel, read_regions  # noqa: E402

TINY_CONFIG = {"num_layers": 2, "num_heads": 2, "model_dim": 16, "ffn_dim": 32, "max_positions": 64,
               "feature_dim": 16, "num_regions": 3}
TINY_CORPUS = {"train": 12, "val": 4, "test": 4, "refs_per_item": 2, "regions": 3, "feature_dim": 16}
SEED = 5


def expect_failure(fn, *args, **kwargs) -> None:
    try:
        fn(*args, **kwargs)
    except checks.CheckFailed:
        return
    raise AssertionError(f"{fn.__name__} accepted a wrong answer")


def _workload(cls, scale, tmp: Path):
    cli = wl.Cli(vq)
    workload = cls(vq, cli, SEED, scale)
    workload.setup(tmp / cls.name)
    workload.round()
    return workload


def _tamper_checkpoint(src: Path, dst: Path, name: str) -> None:
    """Copy a checkpoint with one byte of tensor `name` flipped."""
    raw = bytearray(src.read_bytes())
    payload = checks.read_checkpoint_payloads(src)[1][name][1]
    offset = bytes(raw).index(payload)
    raw[offset] ^= 0x01
    dst.write_bytes(bytes(raw))


def test_train_staged_checks(tmp_path: Path) -> None:
    scale = {"corpus": TINY_CORPUS, "config": {**TINY_CONFIG, "dtype": "float32"},
             "batch_size": 4, "steps": 12}
    w = _workload(wl.TrainStaged, scale, tmp_path)
    w.check()
    d = w.dir
    # freezing: a changed backbone byte, or an untouched projection
    _tamper_checkpoint(d / "s2.ckpt", d / "s2-bad.ckpt", "layer1.ffn.w1")
    expect_failure(checks.check_frozen_backbone, d / "s1.ckpt", d / "s2-bad.ckpt")
    expect_failure(checks.check_frozen_backbone, d / "s1.ckpt", d / "s1.ckpt")
    # loss curve: a first step far from ln(V), or a curve that never goes below it
    losses = checks.read_log_losses(d / "s1.log")
    vocab_size = ReferenceModel.from_checkpoint(d / "s1.ckpt").w["embeddings.token"].shape[0]
    expect_failure(checks.check_loss_curve, [losses[0] + 1.0] + losses[1:], vocab_size, from_init=True)
    flat = [math.log(vocab_size) + 0.01] * len(losses)
    expect_failure(checks.check_loss_curve, flat, vocab_size, from_init=False)
    # stage_loss against a reference with one perturbed weight
    split = vq.data.load_split(d / "data", "train")
    batch = vq.training.make_batches(split, vq.multimodal.IMAGE_PLUS_CAPTION, 4, [SEED, 1000])[0]
    _, params, _ = vq.model.load_checkpoint(d / "s3.ckpt")
    special = split.vocab.special
    program = vq.training.stage_loss(params, batch, special, dropout=0.0).item()
    model = ReferenceModel.from_checkpoint(d / "s3.ckpt")
    checks.check_stage_loss(program, checks.reference_batch_loss(model, batch.examples, special.mask, special.eos))
    model.w["layer0.ffn.w1"] = model.w["layer0.ffn.w1"] + 0.01
    wrong = checks.reference_batch_loss(model, batch.examples, special.mask, special.eos)
    expect_failure(checks.check_stage_loss, program, wrong)


def test_generate_eval_checks(tmp_path: Path) -> None:
    scale = {"corpus": TINY_CORPUS, "config": {**TINY_CONFIG, "dtype": "float32"},
             "train_batch_size": 4, "train_steps": 12, "max_length": 6, "oracle_subset": 3}
    w = _workload(wl.GenerateEval, scale, tmp_path)
    d = w.dir
    split = vq.data.load_split(d / "data", "test")
    vocab, special = split.vocab, split.vocab.special
    generated = checks.read_generated(d / "gen.tsv")
    ids = [item.id for item in split.items]
    checks.check_one_line_per_id(generated, ids)
    expect_failure(checks.check_one_line_per_id, generated[1:], ids)
    regions = read_regions(d / "data" / "test.features")
    inputs = [[special.cls, *regions[k], special.sep, *vq.data.encode_text(item.caption, vocab)]
              for k, item in enumerate(split.items)]
    tokens = [[vocab.token_to_id[x] for x in text.split(" ")] if text else [] for _, text in generated]
    model = ReferenceModel.from_checkpoint(d / "s3.ckpt")
    kw = {"mask_id": special.mask, "eos_id": special.eos, "max_length": scale["max_length"]}
    checks.check_greedy(model, inputs, tokens, **kw)
    # a swapped generated token: item 0's first token replaced (or one inserted before EOS)
    first = model.next_token_logits(inputs[0], [], special.mask)
    other = int(sorted(range(len(first)), key=lambda i: first[i])[0])  # the least likely token
    swapped = copy.deepcopy(tokens)
    swapped[0][:1] = [other]
    expect_failure(checks.check_greedy, model, inputs, swapped, **kw)
    # the reference with a perturbed weight: make item 0's first choice unlikely
    perturbed = ReferenceModel(dict(model.w), model.num_heads)
    bias = perturbed.w["head.output_bias"].copy()
    bias[tokens[0][0] if tokens[0] else special.eos] -= 100.0
    perturbed.w["head.output_bias"] = bias
    expect_failure(checks.check_greedy, perturbed, inputs, tokens, **kw)
    # the report against the oracles, then with each checked value altered
    items = [(vq.data.tokenize(text), [vq.data.tokenize(q) for q in item.questions])
             for item, (_, text) in zip(split.items, generated)]
    report = checks.read_report(d / "report.txt")
    checks.check_report(report, items)
    for key in ("bleu_1", "cider"):
        expect_failure(checks.check_report, {**report, key: report[key] + 1e-5}, items)


def test_probe_xsim_checks(tmp_path: Path) -> None:
    scale = {"corpus": TINY_CORPUS, "config_ints": TINY_CONFIG, "checkpoints": 2}
    w = _workload(wl.ProbeXsim, scale, tmp_path)
    d = w.dir
    split = vq.data.load_split(d / "data", "val")
    regions = read_regions(d / "data" / "val.features")
    pairs = [(regions[k], vq.data.encode_text(item.caption, split.vocab)) for k, item in enumerate(split.items)]
    cls_id = split.vocab.special.cls
    expected = {f"init{k}": ReferenceModel.from_checkpoint(p).xsim(pairs, cls_id) for k, p in enumerate(w.ckpts)}
    random = vq.probe.random_baseline(w.config)
    expected["random"] = ReferenceModel({n: random[n].value.data for n in random.names()},
                                        w.config.num_heads).xsim(pairs, cls_id)
    table = checks.read_probe_table(d / "probe.tsv")
    computed = {report.model_label: report.xsim for report in w.reports}
    checks.check_xsim(table, computed, expected)
    # an altered X_sim value, printed or computed
    altered = copy.deepcopy(table)
    altered["init0"][-1] += 1e-5
    expect_failure(checks.check_xsim, altered, computed, expected)
    expect_failure(checks.check_xsim, table, {**computed, "init0": [v + 1e-8 for v in computed["init0"]]}, expected)
    # the reference with a perturbed weight
    model = ReferenceModel.from_checkpoint(w.ckpts[0])
    model.w["layer1.attn.wv"] = model.w["layer1.attn.wv"] * 1.01
    expect_failure(checks.check_xsim, table, computed, {**expected, "init0": model.xsim(pairs, cls_id)})
    # the random-baseline bound
    checks.check_random_bound({"random": [0.9, 0.1]})
    expect_failure(checks.check_random_bound, {"random": [0.0, -0.3]})


def test_benchmark_json_names() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in tracing.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "peak_rss_mb", *wl._latency_metrics([1.0], [[1.0]])}
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)


def test_refuses_without_sources(tmp_path: Path) -> None:
    """In a directory holding only BENCHMARK.json and the benchmark, it exits non-zero."""
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    spec = json.loads((bare / "BENCHMARK.json").read_text())
    proc = subprocess.run([*spec["command"], "--workload", "train_staged", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def main() -> int:
    out = ROOT / "bench_out"
    out.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=out))
    failures = 0
    try:
        for name, fn in list(globals().items()):
            if name.startswith("test_"):
                try:
                    fn(tmp) if fn.__code__.co_argcount else fn()
                    print(f"PASS {name}")
                except Exception as exc:  # report every test, then fail the run
                    failures += 1
                    print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
