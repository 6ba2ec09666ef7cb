import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tests_support import stack_regions
from vqgen import generation as gen
from vqgen import model as md
from vqgen import multimodal as mm
from vqgen import numerics as nm


def tiny_config(**overrides):
    base = dict(
        num_layers=2,
        num_heads=2,
        model_dim=16,
        ffn_dim=32,
        vocab_size=23,
        max_positions=24,
        feature_dim=6,
        num_regions=3,
    )
    base.update(overrides)
    return md.ModelConfig(**base)


def make_visual(config, seed=0):
    rng = np.random.default_rng(seed)
    return stack_regions(
        (rng.normal(size=config.feature_dim), rng.random(4), float(config.num_regions - i))
        for i in range(config.num_regions)
    )


SP = md.SpecialTokens()


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(md.ConfigError):
            md.ModelConfig(num_heads=3, model_dim=16)

    @pytest.mark.parametrize("heads", [0, -4])
    def test_head_count_must_be_positive(self, heads):
        with pytest.raises(md.ConfigError, match="num_heads"):
            md.ModelConfig(num_heads=heads)
        with pytest.raises(md.ConfigError, match="num_heads"):
            md.ModelConfig.from_dict({"num_heads": str(heads)})

    @pytest.mark.parametrize("raw", ["abc", "", "2.5", None])
    def test_non_integer_names_key(self, raw):
        with pytest.raises(md.ConfigError, match="num_layers"):
            md.ModelConfig.from_dict({"num_layers": raw})

    def test_round_trip_dict(self):
        cfg = tiny_config(use_type_embeddings=True)
        again = md.ModelConfig.from_dict(
            {k: str(v) for k, v in cfg.to_dict().items()}
        )
        assert again == cfg

    @pytest.mark.parametrize("raw, value", [
        ("true", True), ("True", True), ("TRUE", True), ("1", True), (True, True), (1, True),
        ("false", False), ("False", False), ("FALSE", False), ("0", False), (False, False),
    ])
    def test_bool_spellings(self, raw, value):
        cfg = md.ModelConfig.from_dict({"use_type_embeddings": raw})
        assert cfg.use_type_embeddings is value

    @pytest.mark.parametrize("raw", ["yes", "no", "", "2", "on", "t", 2])
    def test_bool_other_values_rejected(self, raw):
        with pytest.raises(md.ConfigError, match="use_type_embeddings"):
            md.ModelConfig.from_dict({"use_type_embeddings": raw})


class TestInit:
    def test_same_seed_byte_identical(self):
        cfg = tiny_config()
        a = md.init_parameters(cfg, seed=5)
        b = md.init_parameters(cfg, seed=5)
        assert a.checksum() == b.checksum()

    def test_different_seeds_differ(self):
        cfg = tiny_config()
        assert md.init_parameters(cfg, 1).checksum() != md.init_parameters(cfg, 2).checksum()

    def test_embedding_statistics(self):
        cfg = tiny_config(vocab_size=500, model_dim=64)
        params = md.init_parameters(cfg, seed=9)
        table = params["embeddings.token"].value.data
        n = table.size
        # truncation at 2 sigma shrinks the realized std below the nominal 0.02
        z = 2.0
        phi = math.exp(-z * z / 2) / math.sqrt(2 * math.pi)
        mass = math.erf(z / math.sqrt(2))
        trunc_var = 1.0 - 2 * z * phi / mass
        true_std = 0.02 * math.sqrt(trunc_var)
        assert abs(table.mean()) < 3 * true_std / math.sqrt(n)
        se_std = true_std / math.sqrt(2 * (n - 1))
        assert abs(table.std(ddof=1) - true_std) < 3 * se_std
        assert np.all(np.abs(table) <= 0.04 + 1e-12)

    def test_norms_and_biases(self):
        params = md.init_parameters(tiny_config(), seed=0)
        assert np.all(params["layer0.attn_norm.gain"].value.data == 1.0)
        assert np.all(params["layer0.attn.bq"].value.data == 0.0)
        assert np.all(params["head.output_bias"].value.data == 0.0)


class TestEmbed:
    def test_text_token_is_row_sum(self):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 3)
        inp = mm.assemble_input(mm.CAPTION_ONLY, caption=[7], cls_id=SP.cls, sep_id=SP.sep)
        out = md.embed_sequence(inp, params)
        tok = params["embeddings.token"].value.data
        pos = params["embeddings.position"].value.data
        assert np.allclose(out.data[0], tok[SP.cls] + pos[0])
        assert np.allclose(out.data[1], tok[7] + pos[1])

    def test_zero_region_projects_to_bias_plus_position(self):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 3)
        params["projection.bias"].value.data[...] = 0.0
        n = cfg.num_regions
        visual = mm.VisualSequence(np.zeros((n, cfg.feature_dim)), np.zeros((n, 4)), np.ones(n))
        inp = mm.assemble_input(mm.IMAGE_ONLY, visual=visual, cls_id=SP.cls, sep_id=SP.sep)
        out = md.embed_sequence(inp, params)
        pos = params["embeddings.position"].value.data
        for t in range(1, cfg.num_regions + 1):
            assert np.allclose(out.data[t], pos[t])

    def test_mixed_sequence_matches_per_slot_oracle(self):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 4)
        visual = make_visual(cfg, seed=1)
        inp = mm.assemble_input(
            mm.IMAGE_PLUS_CAPTION, visual=visual, caption=[8, 9, 10],
            cls_id=SP.cls, sep_id=SP.sep,
        )
        out = md.embed_sequence(inp, params)
        tok = params["embeddings.token"].value.data
        pos = params["embeddings.position"].value.data
        w = params["projection.weight"].value.data
        b = params["projection.bias"].value.data
        for t, slot in enumerate(inp.slots):
            if isinstance(slot, np.ndarray):
                expected = slot @ w + b + pos[t]
            else:
                expected = tok[slot] + pos[t]
            assert np.allclose(out.data[t], expected), f"slot {t}"

    def test_type_embeddings_flag(self):
        cfg = tiny_config(use_type_embeddings=True)
        params = md.init_parameters(cfg, 3)
        assert "embeddings.type" in params
        visual = make_visual(cfg, seed=1)
        inp = mm.assemble_input(
            mm.IMAGE_PLUS_CAPTION, visual=visual, caption=[8, 9], cls_id=SP.cls, sep_id=SP.sep
        )
        out = md.embed_sequence(inp, params)
        tok = params["embeddings.token"].value.data
        pos = params["embeddings.position"].value.data
        typ = params["embeddings.type"].value.data
        # [CLS] is a token slot (type 1); visual slots carry type 0
        assert np.allclose(out.data[0], tok[SP.cls] + pos[0] + typ[1])
        w = params["projection.weight"].value.data
        b = params["projection.bias"].value.data
        assert np.allclose(out.data[1], inp.slots[1] @ w + b + pos[1] + typ[0])

    def test_unknown_token_rejected(self):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 0)
        inp = mm.assemble_input(mm.CAPTION_ONLY, caption=[cfg.vocab_size], cls_id=SP.cls, sep_id=SP.sep)
        with pytest.raises(nm.ShapeError):
            md.embed_sequence(inp, params)

    def test_position_overflow_rejected(self):
        cfg = tiny_config(max_positions=4)
        params = md.init_parameters(cfg, 0)
        inp = mm.assemble_input(mm.CAPTION_ONLY, caption=[6, 7, 8, 9], cls_id=SP.cls, sep_id=SP.sep)
        with pytest.raises(nm.ShapeError):
            md.embed_sequence(inp, params)

    def test_region_slot_outside_visual_span_rejected(self):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 0)
        inp = mm.assemble_input(
            mm.IMAGE_ONLY, visual=make_visual(cfg), cls_id=SP.cls, sep_id=SP.sep
        )
        # the last region falls outside the span
        inp = dataclasses.replace(inp, visual_span=(1, cfg.num_regions))
        with pytest.raises(nm.ShapeError, match="regions are"):
            md.embed_sequence(inp, params)

    def test_wrong_object_dim_rejected(self):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 0)
        inp = mm.assemble_input(
            mm.IMAGE_ONLY, visual=make_visual(tiny_config(feature_dim=5)),
            cls_id=SP.cls, sep_id=SP.sep,
        )
        with pytest.raises(nm.ShapeError):
            md.embed_sequence(inp, params)


class TestEncode:
    def test_causality_masked_positions_cannot_leak(self):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 6)
        rng = np.random.default_rng(0)
        for trial in range(5):
            caption = list(rng.integers(6, cfg.vocab_size, size=4))
            inp = mm.assemble_input(mm.CAPTION_ONLY, caption=caption, cls_id=SP.cls, sep_id=SP.sep)
            mask = gen.build_left_to_right_mask(2, 3)
            base = md.encode(md.embed_sequence(inp, params), mask, params)[-1].data
            # perturb a later target slot; earlier rows must not move
            perturbed = list(caption)
            perturbed[-1] = int(rng.integers(6, cfg.vocab_size))
            inp2 = mm.assemble_input(mm.CAPTION_ONLY, caption=perturbed, cls_id=SP.cls, sep_id=SP.sep)
            other = md.encode(md.embed_sequence(inp2, params), mask, params)[-1].data
            assert np.max(np.abs(base[:4] - other[:4])) < 1e-9

    def test_mask_shape_mismatch(self):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 2)
        inp = mm.assemble_input(mm.CAPTION_ONLY, caption=[7, 8], cls_id=SP.cls, sep_id=SP.sep)
        with pytest.raises(nm.ShapeError):
            md.encode(md.embed_sequence(inp, params), np.ones((2, 2), dtype=bool), params)

    def test_returns_all_layer_states(self):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 2)
        inp = mm.assemble_input(mm.CAPTION_ONLY, caption=[7, 8], cls_id=SP.cls, sep_id=SP.sep)
        states = md.encode(md.embed_sequence(inp, params), gen.build_left_to_right_mask(3, 0), params)
        assert len(states) == cfg.num_layers + 1
        assert states[0].shape == (3, cfg.model_dim)

    def test_deterministic(self):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 2)
        inp = mm.assemble_input(mm.CAPTION_ONLY, caption=[7, 8, 9], cls_id=SP.cls, sep_id=SP.sep)
        mask = gen.build_left_to_right_mask(4, 0)
        a = md.encode(md.embed_sequence(inp, params), mask, params)[-1].data
        b = md.encode(md.embed_sequence(inp, params), mask, params)[-1].data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_out_rows_equal_full_encode_gathered(self, dtype):
        # one (S, S) mask shared by the batch; rows unsorted and repeated
        cfg = tiny_config(num_layers=3)
        params = md.init_parameters(cfg, 5)
        params.astype(dtype)
        x = nm.Tensor(np.random.default_rng(1).normal(size=(2, 6, cfg.model_dim)).astype(dtype))
        allow = gen.build_left_to_right_mask(2, 4)
        out_rows = np.array([[5, 1, 1], [0, 4, 2]])
        full = md.encode_states(x, allow, params)
        part = md.encode_states(x, allow, params, out_rows=out_rows)
        assert len(part) == cfg.num_layers + 1
        for a, b in zip(full[:-1], part[:-1]):
            assert np.array_equal(a.data, b.data)
        want = full[-1].data[np.arange(2)[:, None], out_rows]
        assert part[-1].shape == (2, 3, cfg.model_dim)
        assert np.max(np.abs(part[-1].data - want)) < {np.float64: 1e-12, np.float32: 1e-6}[dtype]

    @pytest.mark.parametrize("out_rows", [[[0], [6]], [[0], [-1]], [[0, 1]], [0, 1]])
    def test_out_rows_outside_the_batch_rejected(self, out_rows):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 2)
        x = nm.Tensor(np.zeros((2, 6, cfg.model_dim)))
        with pytest.raises(nm.ShapeError):
            md.encode_states(x, np.ones((6, 6), dtype=bool), params, out_rows=np.array(out_rows))


class TestDecodeHead:
    def test_weight_tying_shares_storage(self):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 1)
        h = nm.Tensor(np.random.default_rng(0).normal(size=(1, cfg.model_dim)))
        before = md.decode_logits(h, params).data[0]
        inp = mm.assemble_input(mm.CAPTION_ONLY, caption=[7], cls_id=SP.cls, sep_id=SP.sep)
        embed_before = md.embed_sequence(inp, params).data.copy()
        params["embeddings.token"].value.data[7] *= 2.0
        after = md.decode_logits(h, params).data[0]
        changed = np.nonzero(np.abs(after - before) > 1e-15)[0]
        assert list(changed) == [7]
        # the same mutation moves the input embedding of token 7: one table
        embed_after = md.embed_sequence(inp, params).data
        assert not np.allclose(embed_before[1], embed_after[1])
        assert np.allclose(embed_before[0], embed_after[0])

    def test_logit_linear_in_embedding_row(self):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 1)
        params["head.output_bias"].value.data[...] = 0.0
        h = nm.Tensor(np.random.default_rng(1).normal(size=(1, cfg.model_dim)))
        base = md.decode_logits(h, params).data[0]
        params["embeddings.token"].value.data[5] *= 2.0
        doubled = md.decode_logits(h, params).data[0]
        assert abs(doubled[5] - 2 * base[5]) < 1e-9

    def test_probabilities_sum_to_one_and_shift_invariant(self):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 1)
        h = nm.Tensor(np.random.default_rng(2).normal(size=(1, cfg.model_dim)))
        logits = md.decode_logits(h, params)
        assert logits.shape == (1, cfg.vocab_size)
        probs = nm.softmax_rows(logits).data
        assert abs(probs.sum() - 1.0) < 1e-9
        shifted = nm.add(logits, 3.5)
        assert np.argmax(shifted.data) == np.argmax(logits.data)


class TestGradientsThroughModel:
    @pytest.mark.parametrize("seed", range(3))
    def test_full_forward_finite_difference(self, seed):
        from tests_support import finite_difference_subset

        cfg = md.ModelConfig(
            num_layers=1, num_heads=2, model_dim=8, ffn_dim=16, vocab_size=11,
            max_positions=12, feature_dim=5, num_regions=2,
        )
        params = md.init_parameters(cfg, seed)
        visual = make_visual(cfg, seed=seed)
        inp = mm.assemble_input(
            mm.IMAGE_PLUS_CAPTION, visual=visual, caption=[7, 8], cls_id=SP.cls, sep_id=SP.sep
        )
        mask = gen.build_left_to_right_mask(len(inp), 0)
        targets = np.array([7, 8, 9, 10, 6, 7])

        def forward():
            states = md.encode(md.embed_sequence(inp, params), mask, params)
            logits = md.decode_logits(states[-1], params)
            return nm.cross_entropy(logits, targets)

        loss = forward()
        nm.backward_gradients(loss, params.all())
        for name in [
            "embeddings.token", "embeddings.position", "layer0.attn.wq", "layer0.attn.wv",
            "layer0.attn_norm.gain", "layer0.ffn.w1", "head.dense_w", "head.output_bias",
            "projection.weight", "projection.bias",
        ]:
            err = finite_difference_subset(forward, params[name], n_checks=6, seed=seed)
            assert err < 1e-4, name


class TestGradientBuffers:
    def test_none_before_backward(self, tmp_path):
        from vqgen import probe as pb

        cfg = tiny_config()
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, cfg, md.init_parameters(cfg, 1))
        converted = md.init_parameters(cfg, 2)
        converted.astype(np.float32)
        models = {"init": md.init_parameters(cfg, 3), "load": md.load_checkpoint(path)[1],
                  "random": pb.random_baseline(cfg), "astype": converted}
        for kind, params in models.items():
            assert all(p.gradient is None for p in params.all()), kind


class TestCheckpoint:
    def test_header_read_matches_full_load(self, tmp_path):
        cfg = tiny_config(use_type_embeddings=True)
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, cfg, md.init_parameters(cfg, 11), extras={"stage": "s"})
        with open(path, "rb") as fh:
            header = md.read_checkpoint_header(fh)
            (count,) = np.frombuffer(fh.read(4), dtype="<u4")
        config, params, extras = md.load_checkpoint(path)
        assert header == (config, extras) == (cfg, {"stage": "s"})
        assert count == len(params.names())

    def test_round_trip_exact(self, tmp_path):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 11)
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, cfg, params, extras={"stage": "stage1", "seed": "11"})
        cfg2, params2, extras = md.load_checkpoint(path)
        assert cfg2 == cfg
        assert extras["stage"] == "stage1"
        for name in params.names():
            original_f32 = params[name].value.data.astype("<f4")
            assert np.array_equal(params2[name].value.data.astype("<f4"), original_f32), name
        # second write is byte-identical
        path2 = tmp_path / "model2.ckpt"
        md.save_checkpoint(path2, cfg2, params2, extras={"stage": "stage1", "seed": "11"})
        assert path.read_bytes()[: 4] == b"MGCK"
        # value-exactness: reload of the reload equals the first reload
        _, params3, _ = md.load_checkpoint(path2)
        assert params3.checksum() == params2.checksum()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(md.CheckpointError):
            md.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, cfg, md.init_parameters(cfg, 11))
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(md.CheckpointError, match="trailing"):
            md.load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, value):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 11)
        params["projection.bias"].value.data[3] = value
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, cfg, params)
        with pytest.raises(md.CheckpointError, match="'projection.bias'"):
            md.load_checkpoint(path)

    def test_truncated(self, tmp_path):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 11)
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, cfg, params)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(md.CheckpointError):
            md.load_checkpoint(path)

    def test_extras_with_backslash_and_newline_round_trip(self, tmp_path):
        cfg = tiny_config(num_layers=1)
        path = tmp_path / "model.ckpt"
        extras = {"command": "x=y\nnum_layers=3", "path": "a\\nb\\", "plain": "s"}
        md.save_checkpoint(path, cfg, md.init_parameters(cfg, 11), extras=extras)
        raw = path.read_bytes()
        (cfg_len,) = np.frombuffer(raw[8:12], dtype="<u4")
        lines = raw[12 : 12 + cfg_len].decode("utf-8").split("\n")
        # one escaped line per extra, and no `num_layers=3` line
        assert lines[-3:] == ["x.command=x=y\\nnum_layers=3", "x.path=a\\\\nb\\\\", "x.plain=s"]
        config, _, read = md.load_checkpoint(path)
        assert config == cfg and read == extras

    @pytest.mark.parametrize("key", ["", "a=b", "a\nb"])
    def test_extras_key_that_cannot_be_read_back_rejected(self, tmp_path, key):
        cfg = tiny_config(num_layers=1)
        path = tmp_path / "model.ckpt"
        with pytest.raises(md.CheckpointError, match="extra key"):
            md.save_checkpoint(path, cfg, md.init_parameters(cfg, 11), extras={key: "c"})
        assert not path.exists() and not list(tmp_path.iterdir())


# Property tests over small configs: a checkpoint holds a few hundred values,
# so each example saves and loads in about a millisecond.
PROPERTY = settings(max_examples=60, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])
EXTRA_KEYS = st.text(st.characters(codec="utf-8", exclude_characters="=\n"), min_size=1, max_size=8)
# any text a checkpoint can hold (UTF-8), with the characters the format
# escapes or splits on drawn often
EXTRA_VALUES = st.text(st.sampled_from("\\\n=n") | st.characters(codec="utf-8"), max_size=20)


@st.composite
def configs(draw):
    heads = draw(st.integers(1, 2))
    return md.ModelConfig(
        num_layers=draw(st.integers(1, 2)), num_heads=heads,
        model_dim=heads * draw(st.integers(1, 4)), ffn_dim=draw(st.integers(1, 8)),
        vocab_size=draw(st.integers(1, 12)), max_positions=draw(st.integers(1, 8)),
        feature_dim=draw(st.integers(1, 4)), num_regions=draw(st.integers(1, 3)),
        use_type_embeddings=draw(st.booleans()),
    )


@st.composite
def checkpoints(draw):
    """A config, its initialised parameters with one tensor overwritten by
    arbitrary finite float32 values, and extras holding any text."""
    config = draw(configs())
    params = md.init_parameters(config, draw(st.integers(0, 2**32 - 1)))
    name = draw(st.sampled_from(params.names()))
    shape = params[name].shape
    params[name].value.data[...] = draw(hnp.arrays(np.float32, shape, elements=st.floats(
        width=32, allow_nan=False, allow_infinity=False)))
    extras = draw(st.dictionaries(EXTRA_KEYS, EXTRA_VALUES, max_size=4))
    return config, params, extras


class TestCheckpointProperties:
    @PROPERTY
    @given(checkpoints())
    def test_save_load_round_trips_bit_exactly(self, tmp_path, ckpt):
        config, params, extras = ckpt
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, config, params, extras=extras)
        config2, params2, extras2 = md.load_checkpoint(path)
        assert config2 == config and extras2 == {str(k): v for k, v in extras.items()}
        assert params2.names() == params.names()
        for name in params.names():
            want = params[name].value.data.astype("<f4").tobytes()
            assert params2[name].value.data.astype("<f4").tobytes() == want, name

    @PROPERTY
    @given(checkpoints(), st.floats(0.0, 1.0, exclude_max=True))
    def test_every_truncation_raises_checkpoint_error(self, tmp_path, ckpt, where):
        config, params, extras = ckpt
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, config, params, extras=extras)
        raw = path.read_bytes()
        path.write_bytes(raw[: int(where * len(raw))])
        with pytest.raises(md.CheckpointError):
            md.load_checkpoint(path)
