import numpy as np
import pytest

from tests_support import stack_regions
from vqgen import generation as gen
from vqgen import model as md
from vqgen import multimodal as mm
from vqgen import numerics as nm

SP = md.SpecialTokens()


def tiny_config(**overrides):
    base = dict(
        num_layers=2, num_heads=2, model_dim=16, ffn_dim=32, vocab_size=19,
        max_positions=32, feature_dim=5, num_regions=2,
    )
    base.update(overrides)
    return md.ModelConfig(**base)


def caption_input(cfg, tokens):
    return mm.assemble_input(mm.CAPTION_ONLY, caption=tokens, cls_id=SP.cls, sep_id=SP.sep)


def rig_constant_winner(params, token_id, margin=50.0):
    """Make one token dominate the head regardless of hidden state."""
    params["head.output_bias"].value.data[...] = 0.0
    params["head.output_bias"].value.data[token_id] = margin


class TestMask:
    def test_spec_example_2x2(self):
        m = gen.build_left_to_right_mask(2, 2)
        expected = np.array(
            [[1, 1, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]], dtype=bool
        )
        assert np.array_equal(m, expected)

    def test_no_targets_full_input_block(self):
        m = gen.build_left_to_right_mask(3, 0)
        assert np.array_equal(m, np.ones((3, 3), dtype=bool))

    def test_single_input_lower_triangular(self):
        m = gen.build_left_to_right_mask(1, 3)
        assert np.array_equal(m, np.tril(np.ones((4, 4), dtype=bool)))

    def test_closed_form_rule_exhaustive(self):
        for n_input in range(1, 9):
            for n_target in range(0, 9):
                m = gen.build_left_to_right_mask(n_input, n_target)
                s = n_input + n_target
                for i in range(s):
                    for j in range(s):
                        if i < n_input:
                            expected = j < n_input
                        else:
                            expected = j < n_input or (n_input <= j <= i)
                        assert m[i, j] == expected, (n_input, n_target, i, j)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            gen.build_left_to_right_mask(0, 2)


class TestNextToken:
    def test_rigged_winner(self):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 0)
        rig_constant_winner(params, 7)
        tok, logits = gen.next_token(params, caption_input(cfg, [8, 9]), [], mask_id=SP.mask)
        assert tok == 7
        assert logits.shape == (cfg.vocab_size,)

    def test_rigged_eos(self):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 0)
        rig_constant_winner(params, SP.eos)
        tok, _ = gen.next_token(params, caption_input(cfg, [8]), [6, 7], mask_id=SP.mask)
        assert tok == SP.eos

    def test_tie_breaks_to_lowest_id(self):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 0)
        params["embeddings.token"].value.data[...] = 0.0  # logits collapse to the bias
        params["head.output_bias"].value.data[...] = 0.0
        params["head.output_bias"].value.data[[3, 9]] = 5.0
        tok, logits = gen.next_token(params, caption_input(cfg, [8]), [], mask_id=SP.mask)
        assert logits[3] == logits[9]
        assert tok == 3

    def test_position_overflow(self):
        cfg = tiny_config(max_positions=5)
        params = md.init_parameters(cfg, 0)
        with pytest.raises(nm.ShapeError):
            gen.next_token(params, caption_input(cfg, [8, 9, 10]), [6], mask_id=SP.mask)


class TestGenerate:
    def test_immediate_eos(self):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 0)
        rig_constant_winner(params, SP.eos)
        out = gen.generate(
            params, caption_input(cfg, [8]), gen.GenerationConfig(max_length=5)
        )
        assert out.tokens == []
        assert out.truncated is False

    def test_rigged_constant_head_truncates(self):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 0)
        rig_constant_winner(params, 7)
        out = gen.generate(
            params, caption_input(cfg, [8]), gen.GenerationConfig(max_length=5)
        )
        assert out.tokens == [7, 7, 7, 7, 7]
        assert out.truncated is True

    def test_deterministic_rerun(self):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 42)
        inp = caption_input(cfg, [8, 9, 10])
        cfg_g = gen.GenerationConfig(max_length=6)
        a = gen.generate(params, inp, cfg_g, keep_logits=True)
        b = gen.generate(params, inp, cfg_g, keep_logits=True)
        assert a.tokens == b.tokens
        for la, lb in zip(a.step_logits, b.step_logits):
            assert np.array_equal(la, lb)

    @pytest.mark.parametrize("seed", range(4))
    def test_incremental_consistency(self, seed):
        # per-step logits inside generate equal an independent single call
        cfg = tiny_config()
        params = md.init_parameters(cfg, seed)
        rng = np.random.default_rng(seed)
        inp = caption_input(cfg, list(rng.integers(6, cfg.vocab_size, size=3)))
        out = gen.generate(params, inp, gen.GenerationConfig(max_length=5), keep_logits=True)
        prefix = []
        for t, step_logits in enumerate(out.step_logits):
            tok, solo = gen.next_token(params, inp, prefix, mask_id=SP.mask)
            assert np.max(np.abs(solo - step_logits)) < 1e-9
            if t < len(out.tokens):
                prefix.append(out.tokens[t])

    def test_input_isolation(self):
        # states at input rows do not depend on how many target rows follow
        cfg = tiny_config()
        params = md.init_parameters(cfg, 3)
        inp = caption_input(cfg, [8, 9])
        n = len(inp)
        reference = None
        for extra in ([], [6], [6, 7, 10]):
            positions = list(range(n, n + len(extra)))
            emb = md.embed_extended(inp, extra, positions, params)
            mask = gen.build_left_to_right_mask(n, len(extra))
            final = md.encode(emb, mask, params)[-1].data[:n]
            if reference is None:
                reference = final
            else:
                assert np.max(np.abs(final - reference)) < 1e-9


def random_visual(cfg, rng):
    relevance = sorted(rng.random(cfg.num_regions), reverse=True)
    return stack_regions(
        (rng.normal(size=cfg.feature_dim), rng.uniform(0, 1, size=4), float(r)) for r in relevance
    )


def random_input(cfg, mode, rng):
    caption = [int(t) for t in rng.integers(6, cfg.vocab_size, size=3)]
    return mm.assemble_input(
        mode,
        visual=random_visual(cfg, rng) if mode != mm.CAPTION_ONLY else None,
        caption=caption if mode != mm.IMAGE_ONLY else None,
        cls_id=SP.cls,
        sep_id=SP.sep,
    )


def uncached_greedy(params, inp, max_length):
    """Greedy decode through full re-encodes: (tokens, per-step logits, truncated)."""
    tokens, logits_log = [], []
    for _ in range(max_length):
        tok, logits = gen.next_token(params, inp, tokens, mask_id=SP.mask)
        logits_log.append(logits)
        if tok == SP.eos:
            return tokens, logits_log, False
        tokens.append(tok)
    return tokens, logits_log, True


def assert_cached_matches_uncached(params, inp, max_length):
    out = gen.generate(params, inp, gen.GenerationConfig(max_length=max_length), keep_logits=True)
    tokens, logits_log, truncated = uncached_greedy(params, inp, max_length)
    assert out.tokens == tokens
    assert out.truncated is truncated
    assert len(out.step_logits) == len(logits_log)
    for cached, solo in zip(out.step_logits, logits_log):
        assert np.max(np.abs(cached - solo)) < 1e-9
    return out


class TestCachedDecoding:
    @pytest.mark.parametrize("mode", mm.MODES)
    @pytest.mark.parametrize("use_type_embeddings", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_uncached_oracle(self, mode, use_type_embeddings, seed):
        cfg = tiny_config(use_type_embeddings=use_type_embeddings)
        params = md.init_parameters(cfg, seed)
        rng = np.random.default_rng(seed)
        inp = random_input(cfg, mode, rng)
        assert_cached_matches_uncached(params, inp, max_length=6)

    @pytest.mark.parametrize("mode", mm.MODES)
    def test_appended_rows_get_text_type_row(self, mode):
        # appended rows carry the text type row: rescaling that row moves the
        # cached logits exactly as it moves the oracle's
        cfg = tiny_config(use_type_embeddings=True)
        params = md.init_parameters(cfg, 5)
        params["embeddings.type"].value.data[1] *= 40.0
        inp = random_input(cfg, mode, np.random.default_rng(5))
        assert_cached_matches_uncached(params, inp, max_length=4)

    def test_max_length_at_max_positions(self):
        cfg = tiny_config(max_positions=10)
        params = md.init_parameters(cfg, 1)
        rig_constant_winner(params, 7, margin=5.0)
        inp = caption_input(cfg, [8, 9, 10])
        room = cfg.max_positions - len(inp)  # the last step's mask slot is the last position
        out = assert_cached_matches_uncached(params, inp, max_length=room)
        assert out.tokens == [7] * room and out.truncated is True
        with pytest.raises(nm.ShapeError) as oracle:
            gen.next_token(params, inp, [7] * room, mask_id=SP.mask)
        with pytest.raises(nm.ShapeError) as cached:
            gen.generate(params, inp, gen.GenerationConfig(max_length=room + 1))
        assert str(cached.value) == str(oracle.value)

    def test_cache_holds_input_and_prefix(self):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 2)
        inp = caption_input(cfg, [8, 9])
        cache = md.KVCache()
        gen.next_token(params, inp, [], mask_id=SP.mask, cache=cache)
        assert len(cache) == len(inp)
        _, logits = gen.next_token(params, inp, [6, 7], mask_id=SP.mask, cache=cache)
        assert len(cache) == len(inp) + 2
        assert len(cache.keys) == cfg.num_layers
        _, solo = gen.next_token(params, inp, [6, 7], mask_id=SP.mask)
        assert np.max(np.abs(logits - solo)) < 1e-9

    def test_cache_of_wrong_length_rejected(self):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 2)
        cache = md.KVCache()
        gen.next_token(params, caption_input(cfg, [8, 9]), [], mask_id=SP.mask, cache=cache)
        with pytest.raises(nm.StateError):
            gen.next_token(params, caption_input(cfg, [8, 9, 10, 11]), [], mask_id=SP.mask,
                           cache=cache)


class TestNonFiniteWeights:
    def test_nan_weight_raises_numeric_error(self):
        cfg = tiny_config()
        params = md.init_parameters(cfg, 0)
        params["layer0.ffn.w1"].value.data[0, 0] = np.nan
        with pytest.raises(nm.NumericError):
            gen.generate(params, caption_input(cfg, [8]), gen.GenerationConfig(max_length=3))
        with pytest.raises(nm.NumericError):
            gen.next_token(params, caption_input(cfg, [8]), [], mask_id=SP.mask)
