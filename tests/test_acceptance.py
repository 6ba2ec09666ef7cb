"""Acceptance gate: one test per criterion, each printing its pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The expensive staged-training
experiment (criteria 7-9) shares module-scoped fixtures.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from tests_support import (
    oracle_bleu,
    oracle_cider,
    oracle_meteor,
    oracle_rouge_l,
    random_metric_items,
    stack_regions,
)
from vqgen import data as dt
from vqgen import generation as gen
from vqgen import metrics as mx
from vqgen import model as md
from vqgen import multimodal as mm
from vqgen import numerics as nm
from vqgen import probe as pb
from vqgen import training as tr

SP = md.SpecialTokens()

ORDERING_SEEDS = (1, 2, 3)


def report(number, name, ok, detail=""):
    line = f"CRITERION {number:>2} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def small_config(**overrides):
    base = dict(num_layers=2, num_heads=2, model_dim=24, ffn_dim=48, vocab_size=31,
                max_positions=40, feature_dim=10, num_regions=3)
    base.update(overrides)
    return md.ModelConfig(**base)


def random_caption_input(config, rng, n_tokens):
    tokens = [int(t) for t in rng.integers(6, config.vocab_size, size=n_tokens)]
    return mm.assemble_input(mm.CAPTION_ONLY, caption=tokens, cls_id=SP.cls, sep_id=SP.sep)


# ---------------------------------------------------------------------------
# shared experiment: synthetic corpus + staged runs over the ordering seeds
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def synth_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance-data")
    dt.synth_dataset(root, seed=101, n_train=500, n_val=100, n_test=100, refs_per_item=3)
    return root


@pytest.fixture(scope="module")
def corpus(synth_root):
    train = dt.load_split(synth_root, "train", expected_regions=8, expected_dim=32)
    val = dt.load_split(synth_root, "val", vocab=train.vocab)
    test = dt.load_split(synth_root, "test", vocab=train.vocab)
    return train, val, test


@pytest.fixture(scope="module")
def toy_config(corpus):
    train, _, _ = corpus
    return md.ModelConfig(vocab_size=len(train.vocab))


@pytest.fixture(scope="module")
def staged_runs(corpus, toy_config):
    """Full protocol per ordering seed: stages 1, 2, 3 and the from-scratch ablation.

    float32 and 4 epochs keep the twelve stage runs inside the time budget.
    """
    train, _, _ = corpus
    runs = {"_t0": time.time()}
    for seed in ORDERING_SEEDS:
        kw = dict(epochs=4, dtype="float32", seed=seed)
        # stage 3 runs at a fine-tuning learning rate (for the from-scratch
        # ablation too, seed-matched): the staged checkpoints are meant to be
        # refined, not retrained, exactly like the original protocol
        ft = dict(kw, base_lr=3e-4)
        s1 = tr.run_stage(tr.StagePlan(stage=tr.STAGE1, **kw), train, toy_config)
        s2 = tr.run_stage(
            tr.StagePlan(stage=tr.STAGE2, init_stage1=s1.params, **kw), train, toy_config
        )
        s3 = tr.run_stage(
            tr.StagePlan(stage=tr.STAGE3, init_stage1=s1.params, init_stage2=s2.params, **ft),
            train, toy_config,
        )
        s3s = tr.run_stage(tr.StagePlan(stage=tr.STAGE3_SCRATCH, **ft), train, toy_config)
        runs[seed] = {"s1": s1, "s2": s2, "s3": s3, "s3scratch": s3s}
    return runs


@pytest.fixture(scope="module")
def probe_pairs(corpus):
    train, val, test = corpus
    pairs = []
    for split in (val, test):
        for item in split.items:
            pairs.append((split.visual(item), dt.encode_text(item.caption, train.vocab)))
    return pairs


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_mask_semantics():
    t0 = time.time()
    exhaustive_ok = True
    for n_input in range(1, 9):
        for n_target in range(0, 9):
            allow = gen.build_left_to_right_mask(n_input, n_target)
            s = n_input + n_target
            for i in range(s):
                for j in range(s):
                    want = (j < n_input) if i < n_input else (j < n_input or n_input <= j <= i)
                    if allow[i, j] != want:
                        exhaustive_ok = False

    config = small_config()
    rng = np.random.default_rng(0)
    causality_worst = 0.0
    for case in range(50):
        params = md.init_parameters(config, int(rng.integers(1 << 30)))
        n_target = int(rng.integers(1, 5))
        n_tokens = int(rng.integers(1, 5))
        inp = random_caption_input(config, rng, n_tokens)
        n_input = len(inp)
        extra = [int(t) for t in rng.integers(6, config.vocab_size, size=n_target)]
        positions = list(range(n_input, n_input + n_target))
        mask = gen.build_left_to_right_mask(n_input, n_target)
        base = md.encode(md.embed_extended(inp, extra, positions, params), mask, params)[-1].data
        # perturb one target slot arbitrarily; rows that cannot see it must not move
        j = int(rng.integers(0, n_target))
        perturbed = list(extra)
        perturbed[j] = int(rng.integers(6, config.vocab_size))
        other = md.encode(
            md.embed_extended(inp, perturbed, positions, params), mask, params
        )[-1].data
        frozen_rows = n_input + j  # all rows before the perturbed slot
        causality_worst = max(
            causality_worst, float(np.max(np.abs(base[:frozen_rows] - other[:frozen_rows])))
        )
    elapsed = time.time() - t0
    ok = exhaustive_ok and causality_worst < 1e-9 and elapsed < 10
    report(1, "mask semantics", ok,
           f"exhaustive={exhaustive_ok} worst_leak={causality_worst:.2e} {elapsed:.1f}s")


def test_criterion_02_incremental_decoding_consistency():
    t0 = time.time()
    config = small_config()
    rng = np.random.default_rng(7)
    worst = 0.0
    for case in range(25):
        params = md.init_parameters(config, int(rng.integers(1 << 30)))
        inp = random_caption_input(config, rng, int(rng.integers(1, 6)))
        out = gen.generate(params, inp, gen.GenerationConfig(max_length=5), keep_logits=True)
        prefix = []
        for t, step_logits in enumerate(out.step_logits):
            _, solo = gen.next_token(params, inp, prefix, mask_id=SP.mask)
            worst = max(worst, float(np.max(np.abs(solo - step_logits))))
            if t < len(out.tokens):
                prefix.append(out.tokens[t])
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 30
    report(2, "incremental decoding consistency", ok, f"worst={worst:.2e} {elapsed:.1f}s")


def test_criterion_03_gradient_fidelity():
    t0 = time.time()
    worst = 0.0

    def fd_check(fn, param, entries, h=1e-5):
        flat = param.value.data.reshape(-1)
        gflat = param.gradient.reshape(-1)
        err = 0.0
        for i in entries:
            orig = flat[i]
            flat[i] = orig + h
            up = fn().item()
            flat[i] = orig - h
            down = fn().item()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            err = max(err, abs(gflat[i] - fd) / max(1.0, abs(fd)))
        return err

    # per-operation chains across 20 seeds: affine, gelu, layer_norm, softmax,
    # cross-entropy, plus embedding gather
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = nm.Parameter("x", rng.normal(size=(3, 5)))
        w = nm.Parameter("w", rng.normal(size=(5, 5)))
        b = nm.Parameter("b", rng.normal(size=5))
        g = nm.Parameter("g", rng.normal(size=5) * 0.1 + 1.0)
        table = nm.Parameter("table", rng.normal(size=(7, 5)))
        ids = rng.integers(0, 7, size=3)
        targets = rng.integers(0, 5, size=3)

        def op_chain():
            h = nm.add(nm.affine(x.value, w.value, b.value), nm.take_rows(table.value, ids))
            h = nm.gelu(h)
            h = nm.layer_norm(h, g.value, b.value)
            h = nm.softmax_rows(h)
            return nm.cross_entropy(nm.mul(h, 4.0), targets)

        loss = op_chain()
        nm.backward_gradients(loss, [x, w, b, g, table])
        for p in (x, w, b, g, table):
            worst = max(worst, fd_check(op_chain, p, range(p.value.size)))

    # full model (attention + ffn + norms + tied head + projection), entry subsets
    config = md.ModelConfig(num_layers=1, num_heads=2, model_dim=8, ffn_dim=16, vocab_size=11,
                            max_positions=12, feature_dim=5, num_regions=2)
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        params = md.init_parameters(config, seed)
        visual = stack_regions((rng.normal(size=5), rng.random(4), float(2 - k)) for k in range(2))
        inp = mm.assemble_input(
            mm.IMAGE_PLUS_CAPTION, visual=visual, caption=[7, 8],
            cls_id=SP.cls, sep_id=SP.sep,
        )
        mask = gen.build_left_to_right_mask(len(inp), 0)
        targets = rng.integers(0, 11, size=len(inp))

        def model_forward():
            states = md.encode(md.embed_sequence(inp, params), mask, params)
            return nm.cross_entropy(md.decode_logits(states[-1], params), targets)

        loss = model_forward()
        nm.backward_gradients(loss, params.all())
        entry_rng = np.random.default_rng(seed)
        for name in ("embeddings.token", "embeddings.position", "layer0.attn.wq",
                     "layer0.attn.wk", "layer0.attn.wv", "layer0.attn.wo",
                     "layer0.attn_norm.gain", "layer0.ffn.w1", "layer0.ffn.w2",
                     "layer0.ffn_norm.bias", "head.dense_w", "head.norm.gain",
                     "head.output_bias", "projection.weight", "projection.bias"):
            p = params[name]
            entries = entry_rng.choice(p.value.size, size=min(4, p.value.size), replace=False)
            worst = max(worst, fd_check(model_forward, p, entries))

    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 60
    report(3, "gradient fidelity", ok, f"worst_rel_err={worst:.2e} {elapsed:.1f}s")


def test_criterion_04_freezing_contract(tmp_path):
    t0 = time.time()
    root = tmp_path / "freeze-data"
    dt.synth_dataset(root, seed=33, n_train=24, n_val=2, n_test=2,
                     refs_per_item=3, num_regions=3, feature_dim=16)
    train = dt.load_split(root, "train", expected_regions=3, expected_dim=16)
    config = md.ModelConfig(num_layers=2, num_heads=2, model_dim=32, ffn_dim=64,
                            vocab_size=len(train.vocab), max_positions=48,
                            feature_dim=16, num_regions=3)
    s1 = tr.run_stage(
        tr.StagePlan(stage=tr.STAGE1, seed=2, epochs=1, batch_size=8, max_steps=5),
        train, config,
    )
    plan2 = tr.StagePlan(stage=tr.STAGE2, seed=2, epochs=50, batch_size=8,
                         init_stage1=s1.params, max_steps=50)
    init2 = tr.initialize_stage(plan2, config)
    theta_names = [n for n in init2.names() if n not in ("projection.weight", "projection.bias")]
    theta_before = init2.checksum(theta_names)
    w_before = init2.checksum(["projection.weight", "projection.bias"])
    result = tr.run_stage(plan2, train, config)
    steps = len(result.history)
    theta_ok = result.params.checksum(theta_names) == theta_before
    w_ok = result.params.checksum(["projection.weight", "projection.bias"]) != w_before
    elapsed = time.time() - t0
    ok = theta_ok and w_ok and steps == 50 and elapsed < 30
    report(4, "freezing contract", ok,
           f"theta_identical={theta_ok} w_changed={w_ok} steps={steps} {elapsed:.1f}s")


def test_criterion_05_sequence_probability_consistency():
    config = small_config()
    rng = np.random.default_rng(11)
    worst = 0.0
    for case in range(20):
        params = md.init_parameters(config, int(rng.integers(1 << 30)))
        inp = random_caption_input(config, rng, int(rng.integers(1, 5)))
        target = [int(t) for t in rng.integers(6, config.vocab_size, size=int(rng.integers(1, 6)))]
        example = tr.TrainingExample(input=inp, target=target)
        labels = target + [SP.eos]

        teacher_log_prob = tr.sequence_log_prob(params, example)
        loss = tr.stage_loss(params, tr.Batch([example])).item()
        lhs = math.exp(-loss * len(labels))

        stepwise = 0.0
        prefix = []
        for label in labels:
            _, logits = gen.next_token(params, inp, prefix, mask_id=SP.mask)
            shifted = logits - logits.max()
            stepwise += float(shifted[label] - math.log(np.exp(shifted).sum()))
            prefix.append(label)
        rhs = math.exp(stepwise)
        worst = max(worst, abs(lhs - rhs) / rhs, abs(math.exp(teacher_log_prob) - rhs) / rhs)
    ok = worst < 1e-6
    report(5, "sequence probability consistency", ok, f"worst_rel={worst:.2e}")


def test_criterion_06_metric_oracles():
    t0 = time.time()
    worst = 0.0
    for seed in range(20):
        items = random_metric_items(seed)
        corpus = mx.EvalCorpus(
            [mx.EvalItem(candidate=list(c), references=[list(r) for r in refs])
             for c, refs in items]
        )
        for n in range(1, 5):
            worst = max(worst, abs(mx.bleu(corpus, n) - oracle_bleu(items, n)))
        worst = max(worst, abs(mx.rouge_l(corpus) - oracle_rouge_l(items)))
        worst = max(worst, abs(mx.meteor_lite(corpus) - oracle_meteor(items)))
        worst = max(worst, abs(mx.cider(corpus) - oracle_cider(items)))

    texts = ["a red cube sits low", "the blue ball rolls fast", "one green cone stands tall"]
    identity = mx.EvalCorpus.from_strings(texts, [[t] for t in texts])
    identity_ok = (
        all(abs(mx.bleu(identity, n) - 1.0) < 1e-12 for n in range(1, 5))
        and abs(mx.rouge_l(identity) - 1.0) < 1e-12
        and abs(mx.cider(identity) - 10.0) < 1e-9
    )
    elapsed = time.time() - t0
    ok = worst < 1e-9 and identity_ok and elapsed < 20
    report(6, "metric oracles", ok,
           f"worst={worst:.2e} identity={identity_ok} {elapsed:.1f}s")


def test_criterion_07_overfit_sanity(tmp_path):
    t0 = time.time()
    root = tmp_path / "overfit-data"
    # 32 items x 1 question = 32 unambiguous training examples (two questions
    # for one caption force an unavoidable error at their first divergence)
    dt.synth_dataset(root, seed=55, n_train=32, n_val=1, n_test=1, refs_per_item=1)
    train = dt.load_split(root, "train", expected_regions=8, expected_dim=32)
    config = md.ModelConfig(vocab_size=len(train.vocab))
    plan = tr.StagePlan(stage=tr.STAGE1, seed=4, epochs=100, batch_size=8,
                        dropout=0.0, max_steps=300)
    result = tr.run_stage(plan, train, config)
    examples = tr.build_examples(train, mm.CAPTION_ONLY)
    assert len(examples) == 32
    accuracy = tr.next_token_accuracy(result.params, examples)
    elapsed = time.time() - t0
    ok = accuracy >= 0.95 and len(result.history) <= 300 and elapsed < 120
    report(7, "overfit sanity", ok,
           f"accuracy={accuracy:.3f} steps={len(result.history)} {elapsed:.1f}s")


def test_criterion_08_alignment_ordering(staged_runs, probe_pairs, toy_config):
    t0 = time.time()
    ordering_hits = 0
    details = []
    for seed in ORDERING_SEEDS:
        runs = staged_runs[seed]
        last = {
            label: pb.xsim_per_layer(runs[label].params, probe_pairs, label=label).xsim[-1]
            for label in ("s1", "s2", "s3")
        }
        ordered = last["s1"] < last["s2"] < last["s3"]
        ordering_hits += int(ordered)
        details.append(
            f"seed{seed}: {last['s1']:+.3f}<{last['s2']:+.3f}<{last['s3']:+.3f}={ordered}"
        )
    random_xsim = pb.xsim_per_layer(
        pb.random_baseline(toy_config), probe_pairs, label="random"
    ).xsim[-1]
    random_ok = abs(random_xsim) < 0.2
    elapsed = time.time() - t0
    ok = ordering_hits >= 2 and random_ok
    report(8, "alignment ordering", ok,
           f"{'; '.join(details)}; random={random_xsim:+.3f} (|.|<0.2: {random_ok}) "
           f"n_pairs={len(probe_pairs)} probe_time={elapsed:.0f}s")


def test_criterion_09_staging_benefit(staged_runs, corpus, toy_config):
    t0 = time.time()
    train, _, test = corpus
    special = train.vocab.special

    def cider_of(params):
        cands, refs = [], []
        for item in test.items:
            caption_ids = dt.encode_text(item.caption, train.vocab)
            inp = mm.assemble_input(
                mm.IMAGE_PLUS_CAPTION, visual=test.visual(item), caption=caption_ids,
                cls_id=special.cls, sep_id=special.sep,
            )
            out = gen.generate(params, inp, gen.GenerationConfig(max_length=16))
            cands.append(dt.decode_text(out.tokens, train.vocab))
            refs.append(item.questions)
        return mx.cider(mx.EvalCorpus.from_strings(cands, refs))

    wins = 0
    details = []
    for seed in ORDERING_SEEDS:
        joint = cider_of(staged_runs[seed]["s3"].params)
        scratch = cider_of(staged_runs[seed]["s3scratch"].params)
        wins += int(joint >= scratch)
        details.append(f"seed{seed}: joint={joint:.2f} scratch={scratch:.2f}")
    elapsed = time.time() - t0
    total_8_9 = time.time() - staged_runs["_t0"]
    ok = wins >= 2 and total_8_9 < 900
    report(9, "staging benefit", ok,
           f"{'; '.join(details)}; eval_time={elapsed:.0f}s shared_budget={total_8_9:.0f}s")


def test_criterion_10_determinism_and_formats(tmp_path):
    root = tmp_path / "det-data"
    dt.synth_dataset(root, seed=77, n_train=10, n_val=2, n_test=2,
                     refs_per_item=3, num_regions=3, feature_dim=16)
    train = dt.load_split(root, "train", expected_regions=3, expected_dim=16)
    config = md.ModelConfig(num_layers=2, num_heads=2, model_dim=32, ffn_dim=64,
                            vocab_size=len(train.vocab), max_positions=48,
                            feature_dim=16, num_regions=3)

    def train_once(path):
        result = tr.run_stage(
            tr.StagePlan(stage=tr.STAGE1, seed=6, epochs=1, batch_size=8, max_steps=6),
            train, config,
        )
        md.save_checkpoint(path, config, result.params, extras={"stage": tr.STAGE1, "seed": "6"})
        return result

    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    r1 = train_once(p1)
    train_once(p2)
    ckpt_ok = p1.read_bytes() == p2.read_bytes()

    # checkpoint round trip value-exact at f32
    cfg2, params2, _ = md.load_checkpoint(p1)
    rt = tmp_path / "rt.ckpt"
    md.save_checkpoint(rt, cfg2, params2, extras={"stage": tr.STAGE1, "seed": "6"})
    roundtrip_ok = rt.read_bytes() == p1.read_bytes()

    # feature file round trip bit-exact
    feats1 = dt.read_features(root / "train.features")
    ff = tmp_path / "rt.features"
    dt.write_features(ff, feats1)
    feature_ok = ff.read_bytes() == (root / "train.features").read_bytes()

    # generation + report determinism
    special = train.vocab.special
    def generate_all(params):
        outs = []
        for item in train.items:
            inp = mm.assemble_input(
                mm.CAPTION_ONLY, caption=dt.encode_text(item.caption, train.vocab),
                cls_id=special.cls, sep_id=special.sep,
            )
            out = gen.generate(params, inp, gen.GenerationConfig(max_length=12))
            outs.append(dt.decode_text(out.tokens, train.vocab))
        return outs

    gen_a = generate_all(r1.params)
    gen_b = generate_all(md.load_checkpoint(p1)[1])
    gen_self_ok = gen_a == generate_all(r1.params)
    refs = [item.questions for item in train.items]
    rep_a = mx.evaluate_corpus(mx.EvalCorpus.from_strings(gen_a, refs)).to_text()
    rep_b = mx.evaluate_corpus(mx.EvalCorpus.from_strings(gen_b, refs)).to_text()
    report_ok = rep_a == rep_b

    ok = ckpt_ok and roundtrip_ok and feature_ok and gen_self_ok and report_ok
    report(10, "determinism and formats", ok,
           f"ckpt={ckpt_ok} rt={roundtrip_ok} features={feature_ok} "
           f"generation={gen_self_ok} report={report_ok}")
