import dataclasses
import math
import re
import weakref

import numpy as np
import pytest

from tests_support import full_rows_stage_loss
from vqgen import data as dt
from vqgen import generation as gen
from vqgen import model as md
from vqgen import multimodal as mm
from vqgen import numerics as nm
from vqgen import training as tr

SP = md.SpecialTokens()


@pytest.fixture(scope="module")
def small_world(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    dt.synth_dataset(root, seed=11, n_train=8, n_val=2, n_test=2,
                     refs_per_item=3, num_regions=3, feature_dim=16)
    split = dt.load_split(root, "train", expected_regions=3, expected_dim=16)
    config = md.ModelConfig(
        num_layers=2, num_heads=2, model_dim=32, ffn_dim=64,
        vocab_size=len(split.vocab), max_positions=48,
        feature_dim=16, num_regions=3,
    )
    return root, split, config


def with_question_counts(split, counts):
    """The split's first len(counts) items, item k holding counts[k] questions
    drawn in turn from every question of the split."""
    pool = [q for item in split.items for q in item.questions]
    items, used = [], 0
    for item, count in zip(split.items, counts):
        items.append(dataclasses.replace(item, questions=pool[used : used + count]))
        used += count
    assert used <= len(pool)
    return dataclasses.replace(split, items=items)


class TestBatches:
    def test_expansion_arithmetic(self, small_world):
        _, split, _ = small_world
        # 8 items x 3 questions = 24 examples; batch 6 -> 4 batches of 6
        batches = tr.make_batches(split, mm.CAPTION_ONLY, 6, seed=0)
        assert [len(b) for b in batches] == [6, 6, 6, 6]

    def test_same_seed_same_order(self, small_world):
        _, split, _ = small_world
        a = tr.make_batches(split, mm.CAPTION_ONLY, 5, seed=3)
        b = tr.make_batches(split, mm.CAPTION_ONLY, 5, seed=3)
        for ba, bb in zip(a, b):
            for xa, xb in zip(ba.examples, bb.examples):
                assert xa.target == xb.target

    def test_shuffle_is_permutation(self, small_world):
        _, split, _ = small_world
        plain = [tuple(e.target) for e in tr.build_examples(split, mm.CAPTION_ONLY)]
        shuffled = [
            tuple(e.target)
            for b in tr.make_batches(split, mm.CAPTION_ONLY, 7, seed=9)
            for e in b.examples
        ]
        assert sorted(plain) == sorted(shuffled)

    def test_empty_corpus_rejected(self, small_world):
        _, split, _ = small_world
        empty = dt.LoadedSplit(items=[], vocab=split.vocab, features=split.features)
        with pytest.raises(dt.FormatError):
            tr.make_batches(empty, mm.CAPTION_ONLY, 4, seed=0)

    @pytest.mark.parametrize("batch_size", [1, 2, 4, 5, 7, 16, 23, 24, 40])
    def test_batches_deal_whole_items_in_order(self, small_world, batch_size):
        _, split, _ = small_world
        corpus = with_question_counts(split, [3, 5, 1, 4, 3, 5, 2, 1])
        n_examples = sum(len(item.questions) for item in corpus.items)
        batches = tr.make_batches(corpus, mm.IMAGE_PLUS_CAPTION, batch_size, seed=[5, 1000])
        assert len(batches) == math.ceil(n_examples / batch_size)
        assert all(len(b) == batch_size for b in batches[:-1])
        assert 1 <= len(batches[-1]) <= batch_size
        flat = [ex for b in batches for ex in b.examples]
        runs = []  # consecutive examples sharing one input object
        for k, ex in enumerate(flat):
            if k == 0 or ex.input is not flat[k - 1].input:
                runs.append((ex.input, []))
            runs[-1][1].append(tuple(ex.target))
        # every item exactly once, its questions contiguous and in corpus order
        key = lambda inp, targets: (inp.ids.tobytes(), inp.regions.tobytes(), tuple(targets))
        got = sorted(key(inp, targets) for inp, targets in runs)
        want = sorted(
            key(corpus.assemble(item, mm.IMAGE_PLUS_CAPTION),
                [tuple(dt.encode_text(q, corpus.vocab)) for q in item.questions])
            for item in corpus.items
        )
        assert got == want

    @pytest.mark.parametrize("seed", [0, [3, 1000], [3, 1001]])
    def test_one_question_per_item_matches_per_example_shuffle(self, small_world, seed):
        _, split, _ = small_world
        corpus = with_question_counts(split, [1] * len(split.items))
        examples = tr.build_examples(corpus, mm.IMAGE_ONLY)
        order = np.random.default_rng(seed).permutation(len(examples))
        want = [examples[i] for i in order]
        batches = tr.make_batches(corpus, mm.IMAGE_ONLY, 3, seed)
        got = [ex for b in batches for ex in b.examples]
        assert [len(b) for b in batches] == [3, 3, 2]
        assert [ex.target for ex in got] == [ex.target for ex in want]
        assert all(np.array_equal(a.input.regions, b.input.regions) for a, b in zip(got, want))


class TestTeacherForcingMask:
    def test_layout_small_case(self):
        allow = tr.teacher_forcing_mask(2, 2)  # rows: 2 input, y1 y2, m1 m2 m3
        assert allow.shape == (7, 7)
        assert np.array_equal(allow[0], [1, 1, 0, 0, 0, 0, 0])
        assert np.array_equal(allow[2], [1, 1, 1, 0, 0, 0, 0])  # y1
        assert np.array_equal(allow[3], [1, 1, 1, 1, 0, 0, 0])  # y2
        assert np.array_equal(allow[4], [1, 1, 0, 0, 1, 0, 0])  # m1: input + self
        assert np.array_equal(allow[5], [1, 1, 1, 0, 0, 1, 0])  # m2: input + y1 + self
        assert np.array_equal(allow[6], [1, 1, 1, 1, 0, 0, 1])  # m3: input + y1 y2 + self

    def test_zero_targets(self):
        allow = tr.teacher_forcing_mask(3, 0)
        assert allow.shape == (4, 4)
        assert np.array_equal(allow[3], [1, 1, 1, 1])

    @pytest.mark.parametrize("n_input", range(1, 9))
    def test_every_cell_follows_the_rule(self, n_input):
        for n_target in range(9):
            allow = tr.teacher_forcing_mask(n_input, n_target)
            r = n_input + 2 * n_target + 1
            assert allow.shape == (r, r) and allow.dtype == bool
            for i in range(r):
                for j in range(r):
                    if i < n_input:  # input row: the input block only
                        want = j < n_input
                    elif i < n_input + n_target:  # y_t: input, y_1..y_t
                        want = j <= i
                    else:  # m_t: input, y_1..y_t-1, itself
                        t = i - n_input - n_target + 1
                        want = j < n_input + t - 1 or j == i
                    assert allow[i, j] == want, (n_input, n_target, i, j)


class TestStageLoss:
    def example(self, config, target):
        inp = mm.assemble_input(mm.CAPTION_ONLY, caption=[8, 9], cls_id=SP.cls, sep_id=SP.sep)
        return tr.TrainingExample(input=inp, target=target)

    def test_uniform_model_loss_is_log_vocab(self):
        config = md.ModelConfig(num_layers=1, num_heads=2, model_dim=16, ffn_dim=32,
                                vocab_size=17, max_positions=24, feature_dim=6, num_regions=2)
        params = md.init_parameters(config, 0)
        params["embeddings.token"].value.data[...] = 0.0
        params["head.output_bias"].value.data[...] = 0.0
        batch = tr.Batch([self.example(config, [7, 8, 9])])
        loss = tr.stage_loss(params, batch)
        assert abs(loss.item() - math.log(config.vocab_size)) < 1e-12

    def test_rigged_perfect_model_loss_near_zero(self):
        # constant target: rig the head bias to always pick token 7, train target 7,7
        config = md.ModelConfig(num_layers=1, num_heads=2, model_dim=16, ffn_dim=32,
                                vocab_size=17, max_positions=24, feature_dim=6, num_regions=2)
        params = md.init_parameters(config, 0)
        params["head.output_bias"].value.data[...] = -60.0
        params["head.output_bias"].value.data[SP.eos] = 0.0
        batch = tr.Batch([self.example(config, [])])  # only EOS to predict
        loss = tr.stage_loss(params, batch)
        assert loss.item() < 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_teacher_forced_logits_equal_generation(self, seed, small_world):
        _, split, config = small_world
        params = md.init_parameters(config, seed)
        example = tr.build_examples(split, mm.IMAGE_PLUS_CAPTION)[seed]
        logits = tr.teacher_forced_logits(params, example).data
        prefix = []
        labels = list(example.target) + [SP.eos]
        for t, label in enumerate(labels):
            _, solo = gen.next_token(params, example.input, prefix, mask_id=SP.mask)
            assert np.max(np.abs(solo - logits[t])) < 1e-9
            prefix.append(label)

    def test_batched_loss_matches_mean_of_singles(self, small_world):
        _, split, config = small_world
        params = md.init_parameters(config, 5)
        examples = tr.build_examples(split, mm.IMAGE_PLUS_CAPTION)[:3]
        batch_loss = tr.stage_loss(params, tr.Batch(examples)).item()
        total = hits = 0
        acc = 0.0
        for ex in examples:
            logits = tr.teacher_forced_logits(params, ex)
            labels = np.asarray(list(ex.target) + [SP.eos])
            acc += nm.cross_entropy(logits, labels).item() * len(labels)
            total += len(labels)
        assert abs(batch_loss - acc / total) < 1e-9

    def test_batched_loss_with_type_embeddings(self, small_world):
        _, split, config = small_world
        cfg = md.ModelConfig(**{**config.to_dict(), "use_type_embeddings": True})
        params = md.init_parameters(cfg, 8)
        examples = tr.build_examples(split, mm.IMAGE_PLUS_CAPTION)[:2]
        batch_loss = tr.stage_loss(params, tr.Batch(examples)).item()
        total = acc = 0
        for ex in examples:
            logits = tr.teacher_forced_logits(params, ex)
            labels = np.asarray(list(ex.target) + [SP.eos])
            acc += nm.cross_entropy(logits, labels).item() * len(labels)
            total += len(labels)
        assert abs(batch_loss - acc / total) < 1e-9

    def test_eq1_product_consistency(self, small_world):
        # exp(sum of per-step log probs) equals the teacher-forced sequence probability
        _, split, config = small_world
        params = md.init_parameters(config, 2)
        example = tr.build_examples(split, mm.IMAGE_PLUS_CAPTION)[1]
        labels = list(example.target) + [SP.eos]
        seq_log_prob = tr.sequence_log_prob(params, example)
        loss = tr.stage_loss(params, tr.Batch([example])).item()
        assert abs(math.exp(-loss * len(labels)) - math.exp(seq_log_prob)) < 1e-6 * abs(
            math.exp(seq_log_prob)
        )
        # and the product of step-by-step generation probabilities agrees
        stepwise = 0.0
        prefix = []
        for t, label in enumerate(labels):
            _, logits = gen.next_token(params, example.input, prefix, mask_id=SP.mask)
            shifted = logits - logits.max()
            stepwise += float(shifted[label] - math.log(np.exp(shifted).sum()))
            prefix.append(label)
        assert abs(stepwise - seq_log_prob) < 1e-9


def examples_of_different_lengths(split, mode, n=3):
    """The first n examples whose targets all differ in length."""
    picked, lengths = [], set()
    for ex in tr.build_examples(split, mode):
        if len(ex.target) not in lengths:
            picked.append(ex)
            lengths.add(len(ex.target))
    assert len(picked) >= n
    return picked[:n]


def packed_layout(examples):
    """Where each example's rows sit in a packed batch: (block, first row of
    its own y/m rows). A block starts at every example whose input object
    differs from the one before it."""
    out, block, row = [], -1, 0
    for k, ex in enumerate(examples):
        if k == 0 or ex.input is not examples[k - 1].input:
            block, row = block + 1, len(ex.input)
        out.append((block, row))
        row += 2 * len(ex.target) + 1
    return out


def assert_logits_equal_singles(params, batch, tol):
    """The batch's logits, example by example, are each example's
    teacher_forced_logits alone within tol, and its labels are the targets
    followed by EOS."""
    logits, labels = tr._batch_logits(params, batch, SP, dropout=0.0, rng=None)
    assert logits.data.dtype == params.dtype
    start = 0
    for ex in batch.examples:
        solo = tr.teacher_forced_logits(params, ex).data
        assert np.max(np.abs(logits.data[start : start + len(solo)] - solo)) < tol
        assert list(labels[start : start + len(solo)]) == list(ex.target) + [SP.eos]
        start += len(solo)
    assert start == len(logits.data)


class TestEmbedBatch:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("use_type", [False, True])
    @pytest.mark.parametrize("mode", mm.MODES)
    def test_rows_equal_single_example_embed(self, small_world, mode, use_type, dtype):
        # 3 + 3 + 1 questions: two whole items and one question of a third
        _, split, config = small_world
        cfg = md.ModelConfig(**{**config.to_dict(), "use_type_embeddings": use_type})
        params = md.init_parameters(cfg, 4)
        params.astype(dtype)
        examples = tr.build_examples(split, mode)[:7]
        layout = packed_layout(examples)
        batched = tr._embed_batch(params, tr.Batch(examples), SP)[0].data
        assert batched.shape[0] == 3
        for ex, (b, start) in zip(examples, layout):
            extra = list(ex.target) + [SP.mask] * (len(ex.target) + 1)
            n = len(ex.input)
            positions = list(range(n, n + len(ex.target))) + list(range(n, n + len(ex.target) + 1))
            solo = md.embed_extended(ex.input, extra, positions, params).data
            assert solo.dtype == dtype
            assert np.array_equal(batched[b, :n], solo[:n])
            assert np.array_equal(batched[b, start : start + len(extra)], solo[n:])

    def test_teacher_forced_logits_match_padded_batch(self, small_world):
        _, split, config = small_world
        params = md.init_parameters(config, 6)
        examples = examples_of_different_lengths(split, mm.IMAGE_PLUS_CAPTION)
        assert_logits_equal_singles(params, tr.Batch(examples), 1e-10)

    def test_wrong_object_dim_raises_shape_error(self, small_world):
        _, split, config = small_world
        params = md.init_parameters(md.ModelConfig(**{**config.to_dict(), "feature_dim": 12}), 0)
        examples = tr.build_examples(split, mm.IMAGE_ONLY)[:3]
        with pytest.raises(nm.ShapeError):
            tr.stage_loss(params, tr.Batch(examples))

    def test_mixed_object_dims_in_one_batch_raise_shape_error(self, small_world):
        _, split, config = small_world
        params = md.init_parameters(config, 0)
        examples = tr.build_examples(split, mm.IMAGE_ONLY)[:3]
        short = dataclasses.replace(examples[1].input, regions=examples[1].input.regions[:, 1:])
        examples[1] = tr.TrainingExample(input=short, target=examples[1].target)
        with pytest.raises(nm.ShapeError):
            tr.stage_loss(params, tr.Batch(examples))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("mode", mm.MODES)
    def test_packed_logits_equal_single_example(self, small_world, mode, dtype):
        # items of 3, 5, 5 and 3 questions cut after 11 examples: the first
        # batch holds a 3- and a 5-question item whole, and the third item
        # straddles the cut; f32 sums the padded keys in another order
        _, split, config = small_world
        tol = {np.float64: 1e-10, np.float32: 1e-5}[dtype]
        params = md.init_parameters(config, 6)
        params.astype(dtype)
        examples = tr.build_examples(with_question_counts(split, [3, 5, 5, 3]), mode)
        assert examples[10].input is examples[11].input
        for batch in (tr.Batch(examples[:11]), tr.Batch(examples[11:])):
            assert_logits_equal_singles(params, batch, tol)


class TestFrozenBackward:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_stage2_projection_gradient_unchanged_by_freezing(self, small_world, dtype):
        # the frozen backbone's gradients are skipped, not approximated: the
        # projection gradient is the one the all-trainable backward computes
        _, split, config = small_world
        batch = tr.make_batches(split, mm.IMAGE_ONLY, 8, seed=0)[0]
        grads = {}
        for frozen in (True, False):
            params = md.init_parameters(config, 3)
            params.astype(dtype)
            if frozen:
                params.set_trainable(value=False)
                params.set_trainable(["projection.weight", "projection.bias"])
            rng = np.random.default_rng(9)
            loss = tr.stage_loss(params, batch, SP, dropout=0.1, rng=rng)
            assert all(p.gradient is None for p in params.all())  # only backward allocates
            nm.backward_gradients(loss, params.all())
            for p in params.all():
                assert p.gradient.shape == p.shape and p.gradient.dtype == dtype, p.id
            grads[frozen] = {n: params[n].gradient for n in params.names()}
        for name in ("projection.weight", "projection.bias"):
            assert grads[True][name].dtype == dtype
            assert np.array_equal(grads[True][name], grads[False][name]), name
            assert np.any(grads[True][name] != 0), name
        for name, grad in grads[True].items():
            if not name.startswith("projection."):
                assert not np.any(grad), name
                assert np.any(grads[False][name]), name


def uneven_batch(split, mode):
    """A batch of three items holding 3, 1 and 2 questions, so its blocks
    hold different numbers of prediction rows."""
    return tr.Batch(tr.build_examples(with_question_counts(split, [3, 1, 2]), mode))


def prediction_rows_by_block(params, batch):
    """The batch's embedding and mask, and per block the rows whose
    last-layer state the loss reads, in order."""
    x, allow, pred_rows, _ = tr._embed_batch(params, batch, SP)
    r = x.shape[1]
    per_block = [[int(k) % r for k in pred_rows if k // r == b] for b in range(x.shape[0])]
    assert len({len(rows) for rows in per_block}) > 1
    return x, allow, per_block


class TestOutRows:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("use_type", [False, True])
    @pytest.mark.parametrize("mode", mm.MODES)
    def test_last_layer_equals_full_rows_gathered(self, small_world, mode, use_type, dtype):
        _, split, config = small_world
        cfg = md.ModelConfig(**{**config.to_dict(), "use_type_embeddings": use_type})
        params = md.init_parameters(cfg, 7)
        params.astype(dtype)
        x, allow, per_block = prediction_rows_by_block(params, uneven_batch(split, mode))
        p, last = max(map(len, per_block)), x.shape[1] - 1
        out_rows = np.array([rows + [last] * (p - len(rows)) for rows in per_block])
        full = md.encode_states(x, allow, params)
        part = md.encode_states(x, allow, params, out_rows=out_rows)
        for a, b in zip(full[:-1], part[:-1]):
            assert np.array_equal(a.data, b.data)
        want = full[-1].data[np.arange(len(out_rows))[:, None], out_rows]
        assert part[-1].shape == want.shape
        assert np.max(np.abs(part[-1].data - want)) < {np.float64: 1e-12, np.float32: 1e-6}[dtype]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("mode", mm.MODES)
    def test_loss_and_gradients_match_full_rows(self, small_world, mode, dtype):
        _, split, config = small_world
        tol = {np.float64: 1e-12, np.float32: 1e-6}[dtype]
        batch = uneven_batch(split, mode)
        results = []
        for loss_fn in (tr.stage_loss, full_rows_stage_loss):
            params = md.init_parameters(config, 4)
            params.astype(dtype)
            loss = loss_fn(params, batch, SP)
            nm.backward_gradients(loss, params.all())
            results.append((loss.item(), {n: params[n].gradient for n in params.names()}))
        (loss, grads), (want_loss, want_grads) = results
        assert abs(loss - want_loss) < tol
        for name, want in want_grads.items():
            assert grads[name].dtype == dtype
            assert np.max(np.abs(grads[name] - want)) < tol, name

    def test_only_the_last_layer_runs_on_prediction_rows(self, small_world, monkeypatch):
        # rows each encoder affine sees in one stage_loss call: a regression
        # to full rows in the last layer fails here
        _, split, config = small_world
        params = md.init_parameters(config, 2)
        batch = uneven_batch(split, mm.IMAGE_PLUS_CAPTION)
        x, _, per_block = prediction_rows_by_block(params, batch)
        (b, r), p = x.shape[:2], max(map(len, per_block))
        assert p < r
        rows, affine = {}, nm.affine

        def record(x, w, bias):
            rows[w.param.id] = math.prod(x.shape[:-1])
            return affine(x, w, bias)

        monkeypatch.setattr(nm, "affine", record)
        tr.stage_loss(params, batch, SP)
        last = config.num_layers - 1
        for i in range(config.num_layers):
            for part in ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "ffn.w1", "ffn.w2"):
                full = i < last or part in ("attn.wk", "attn.wv")
                assert rows[f"layer{i}.{part}"] == (b * r if full else b * p), (i, part)


class TestStagePlanValidation:
    @pytest.mark.parametrize("rate", [1.0, 1.5, -0.1, float("nan")])
    def test_dropout_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError, match="dropout"):
            tr.StagePlan(stage=tr.STAGE1, dropout=rate)

    @pytest.mark.parametrize("key, value", [
        ("epochs", 0), ("epochs", -1), ("batch_size", 0), ("batch_size", -3),
        ("max_steps", 0), ("max_steps", -2), ("base_lr", 0.0), ("base_lr", -1e-3),
        ("base_lr", float("nan")), ("base_lr", float("inf")), ("grad_clip", -1.0),
        ("grad_clip", float("nan")), ("grad_clip", float("inf")),
        ("warmup_fraction", -0.1), ("warmup_fraction", 1.5), ("warmup_fraction", float("nan")),
    ])
    def test_out_of_range_value_names_key_and_value(self, key, value):
        with pytest.raises(ValueError, match=re.escape(f"{key}={value!r} is out of range")):
            tr.StagePlan(stage=tr.STAGE1, **{key: value})

    def test_edge_values_accepted(self):
        tr.StagePlan(stage=tr.STAGE1, epochs=1, batch_size=1, max_steps=1, base_lr=1e-9,
                     grad_clip=0.0, warmup_fraction=1.0)
        tr.StagePlan(stage=tr.STAGE1, max_steps=None, warmup_fraction=0.0)

    def test_stage2_requires_stage1(self):
        with pytest.raises(tr.PrerequisiteError):
            tr.StagePlan(stage=tr.STAGE2)

    def test_stage3_requires_both(self):
        with pytest.raises(tr.PrerequisiteError):
            tr.StagePlan(stage=tr.STAGE3, init_stage1="s1.ckpt")

    def test_scratch_forbids_inits(self):
        with pytest.raises(tr.PrerequisiteError):
            tr.StagePlan(stage=tr.STAGE3_SCRATCH, init_stage1="s1.ckpt")

    @pytest.mark.parametrize("stage, inits", [
        (tr.STAGE1, {"init_stage1": "s1.ckpt"}),
        (tr.STAGE1, {"init_stage2": "s2.ckpt"}),
        (tr.STAGE2, {"init_stage1": "s1.ckpt", "init_stage2": "s2.ckpt"}),
        (tr.STAGE2_UNFREEZE, {"init_stage1": "s1.ckpt", "init_stage2": "s2.ckpt"}),
    ])
    def test_unused_init_refused(self, stage, inits):
        with pytest.raises(tr.PrerequisiteError, match=stage):
            tr.StagePlan(stage=stage, **inits)


class TestRunStage:
    def test_stage2_freezes_backbone(self, small_world):
        _, split, config = small_world
        stage1 = tr.run_stage(
            tr.StagePlan(stage=tr.STAGE1, epochs=1, batch_size=8, seed=1, max_steps=3),
            split, config,
        )
        theta_names = [n for n in stage1.params.names()
                       if n not in ("projection.weight", "projection.bias")]
        plan2 = tr.StagePlan(stage=tr.STAGE2, epochs=1, batch_size=8, seed=1,
                             init_stage1=stage1.params, max_steps=3)
        params2 = tr.initialize_stage(plan2, config)
        before_theta = params2.checksum(theta_names)
        before_w = params2.checksum(["projection.weight", "projection.bias"])
        stage2 = tr.run_stage(plan2, split, config)
        assert stage2.params.checksum(theta_names) == before_theta
        assert stage2.params.checksum(["projection.weight", "projection.bias"]) != before_w

    def test_float32_stage2_initializes_in_float32(self, small_world):
        _, split, config = small_world
        stage1 = tr.run_stage(
            tr.StagePlan(stage=tr.STAGE1, epochs=1, batch_size=8, seed=1, max_steps=2,
                         dtype="float32"),
            split, config,
        )
        theta_names = [n for n in stage1.params.names()
                       if n not in ("projection.weight", "projection.bias")]
        plan2 = tr.StagePlan(stage=tr.STAGE2, epochs=1, batch_size=8, seed=1,
                             init_stage1=stage1.params, max_steps=2, dtype="float32")
        params2 = tr.initialize_stage(plan2, config)
        assert params2.dtype == np.float32
        before_theta = params2.checksum(theta_names)
        stage2 = tr.run_stage(plan2, split, config)
        assert stage2.params.dtype == np.float32
        assert stage2.params.checksum(theta_names) == before_theta

    def test_stage2_unfreeze_moves_backbone(self, small_world):
        _, split, config = small_world
        stage1 = tr.run_stage(
            tr.StagePlan(stage=tr.STAGE1, epochs=1, batch_size=8, seed=1, max_steps=2),
            split, config,
        )
        theta_names = [n for n in stage1.params.names()
                       if n not in ("projection.weight", "projection.bias")]
        plan = tr.StagePlan(stage=tr.STAGE2_UNFREEZE, epochs=1, batch_size=8, seed=1,
                            init_stage1=stage1.params, max_steps=2)
        before = tr.initialize_stage(plan, config).checksum(theta_names)
        result = tr.run_stage(plan, split, config)
        assert result.params.checksum(theta_names) != before

    def test_loss_drops_on_tiny_overfit(self, small_world):
        _, split, config = small_world
        plan = tr.StagePlan(stage=tr.STAGE1, epochs=8, batch_size=8, seed=3, dropout=0.0)
        result = tr.run_stage(plan, split, config)
        assert result.history[-1].loss < result.history[0].loss

    def test_determinism_same_seed(self, small_world):
        _, split, config = small_world
        plan = lambda: tr.StagePlan(stage=tr.STAGE1, epochs=1, batch_size=8, seed=4, max_steps=4)
        a = tr.run_stage(plan(), split, config)
        b = tr.run_stage(plan(), split, config)
        assert a.params.checksum() == b.params.checksum()
        assert [r.loss for r in a.history] == [r.loss for r in b.history]

    def test_stage3_initialized_from_both(self, small_world, tmp_path):
        _, split, config = small_world
        s1 = tr.run_stage(tr.StagePlan(stage=tr.STAGE1, epochs=1, batch_size=8,
                                       seed=1, max_steps=2), split, config)
        s2 = tr.run_stage(tr.StagePlan(stage=tr.STAGE2, epochs=1, batch_size=8, seed=1,
                                       init_stage1=s1.params, max_steps=2), split, config)
        p1 = tmp_path / "s1.ckpt"
        p2 = tmp_path / "s2.ckpt"
        md.save_checkpoint(p1, config, s1.params)
        md.save_checkpoint(p2, config, s2.params)
        plan3 = tr.StagePlan(stage=tr.STAGE3, epochs=1, batch_size=8, seed=1,
                             init_stage1=p1, init_stage2=p2, max_steps=1)
        params3 = tr.initialize_stage(plan3, config)
        # theta comes from stage 1 (f32-rounded), projection from stage 2
        assert np.allclose(
            params3["layer0.attn.wq"].value.data,
            s1.params["layer0.attn.wq"].value.data.astype(np.float32),
        )
        assert np.allclose(
            params3["projection.weight"].value.data,
            s2.params["projection.weight"].value.data.astype(np.float32),
        )

    def test_step_does_not_hold_the_previous_steps_graph(self, small_world, monkeypatch):
        # the logits of step k are freed by its backward pass, before step k+1's forward
        _, split, config = small_world
        logits, stage_loss = [], tr.stage_loss

        def keeping(*args, **kwargs):
            assert all(ref() is None for ref in logits), f"step {len(logits)} holds an old graph"
            loss = stage_loss(*args, **kwargs)
            logits.append(weakref.ref(loss._parents[0].data))
            return loss

        monkeypatch.setattr(tr, "stage_loss", keeping)
        tr.run_stage(tr.StagePlan(stage=tr.STAGE1, epochs=1, batch_size=8, seed=1, max_steps=3),
                     split, config)
        assert len(logits) == 3

    def test_training_log_schema(self, small_world, tmp_path):
        _, split, config = small_world
        result = tr.run_stage(
            tr.StagePlan(stage=tr.STAGE1, epochs=1, batch_size=8, seed=1, max_steps=2),
            split, config,
        )
        path = tmp_path / "train.log"
        tr.write_training_log(path, result, meta={"command": "test"})
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("# ")
        assert lines[1].startswith("step=1\tstage=stage1_caption_only\tlr=")
