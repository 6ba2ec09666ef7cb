import dataclasses
import math
import re

import numpy as np
import pytest

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


class TestEmbedBatch:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("use_type", [False, True])
    @pytest.mark.parametrize("mode", mm.MODES)
    def test_rows_equal_single_example_embed(self, small_world, mode, use_type, dtype):
        _, split, config = small_world
        cfg = md.ModelConfig(**{**config.to_dict(), "use_type_embeddings": use_type})
        params = md.init_parameters(cfg, 4)
        params.astype(dtype)
        examples = examples_of_different_lengths(split, mode)
        rows = [len(ex.input) + 2 * len(ex.target) + 1 for ex in examples]
        batched = tr._embed_batch(params, tr.Batch(examples), SP)[0].data
        for b, ex in enumerate(examples):
            extra = list(ex.target) + [SP.mask] * (len(ex.target) + 1)
            n = len(ex.input)
            positions = list(range(n, n + len(ex.target))) + list(range(n, n + len(ex.target) + 1))
            solo = md.embed_extended(ex.input, extra, positions, params).data
            assert solo.dtype == dtype
            assert np.array_equal(batched[b, : rows[b]], solo)

    def test_teacher_forced_logits_match_padded_batch(self, small_world):
        _, split, config = small_world
        params = md.init_parameters(config, 6)
        examples = examples_of_different_lengths(split, mm.IMAGE_PLUS_CAPTION)
        logits, labels = tr._batch_logits(params, tr.Batch(examples), SP, dropout=0.0, rng=None)
        start = 0
        for ex in examples:
            solo = tr.teacher_forced_logits(params, ex).data
            assert np.max(np.abs(logits.data[start : start + len(solo)] - solo)) < 1e-10
            assert list(labels[start : start + len(solo)]) == list(ex.target) + [SP.eos]
            start += len(solo)
        assert start == len(logits.data)

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
            nm.backward_gradients(loss, params.all())
            grads[frozen] = {n: params[n].gradient for n in params.names()}
        for name in ("projection.weight", "projection.bias"):
            assert grads[True][name].dtype == dtype
            assert np.array_equal(grads[True][name], grads[False][name]), name
            assert np.any(grads[True][name] != 0), name
        for name, grad in grads[True].items():
            if not name.startswith("projection."):
                assert not np.any(grad), name
                assert np.any(grads[False][name]), name


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
