import numpy as np
import pytest

from tests_support import stack_regions
from vqgen import model as md
from vqgen import multimodal as mm
from vqgen import numerics as nm
from vqgen import probe as pb
from vqgen.generation import build_left_to_right_mask


def probe_config(**overrides):
    base = dict(num_layers=3, num_heads=2, model_dim=16, ffn_dim=32, vocab_size=19,
                max_positions=32, feature_dim=6, num_regions=2)
    base.update(overrides)
    return md.ModelConfig(**base)


def make_pairs(config, n_pairs=4, seed=0, caption_lengths=None):
    rng = np.random.default_rng(seed)
    pairs = []
    for length in caption_lengths or [4] * n_pairs:
        visual = stack_regions(
            (rng.normal(size=config.feature_dim), rng.random(4), float(config.num_regions - j))
            for j in range(config.num_regions)
        )
        caption = list(rng.integers(6, config.vocab_size, size=length))
        pairs.append((visual, caption))
    return pairs


def two_encode_xsim(params, pairs):
    """X_sim with each pair's image and caption input encoded on its own, one
    left-to-right sequence each: the computation the packed probe replaces."""
    special = md.SpecialTokens()
    sums = np.zeros(params.config.num_layers)
    for visual, caption in pairs:
        image = mm.assemble_input(mm.IMAGE_ONLY, visual=visual, cls_id=special.cls, sep_id=special.sep)
        text = mm.assemble_input(mm.CAPTION_ONLY, caption=caption, cls_id=special.cls,
                                 sep_id=special.sep)
        means = []
        for inp, (lo, hi) in ((image, image.visual_span), (text, text.text_span)):
            with nm.no_grad():
                states = md.encode(md.embed_sequence(inp, params),
                                   build_left_to_right_mask(len(inp), 0), params)
            means.append([state.data[lo:hi].mean(axis=0) for state in states[1:]])
        sums += [pb.cosine(a, b) for a, b in zip(*means)]
    return sums / len(pairs)


class TestCosine:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert pb.cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert pb.cosine(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0

    def test_zero_vector_guard(self):
        assert pb.cosine(np.zeros(3), np.ones(3)) == 0.0


class TestXsim:
    def test_report_shape_and_bounds(self):
        config = probe_config()
        params = md.init_parameters(config, 1)
        report = pb.xsim_per_layer(params, make_pairs(config), label="random")
        assert len(report.xsim) == config.num_layers
        assert report.items == 4
        assert all(-1.0 <= v <= 1.0 for v in report.xsim)

    def test_order_invariance(self):
        config = probe_config()
        params = md.init_parameters(config, 1)
        pairs = make_pairs(config, n_pairs=5)
        a = pb.xsim_per_layer(params, pairs)
        b = pb.xsim_per_layer(params, list(reversed(pairs)))
        assert np.allclose(a.xsim, b.xsim)

    def test_empty_set_rejected(self):
        params = md.init_parameters(probe_config(), 1)
        with pytest.raises(pb.ProbeError):
            pb.xsim_per_layer(params, [])

    def test_empty_caption_rejected(self):
        config = probe_config()
        params = md.init_parameters(config, 1)
        pairs = make_pairs(config)
        pairs[2] = (pairs[2][0], [])
        with pytest.raises(pb.ProbeError, match="pair 2"):
            pb.xsim_per_layer(params, pairs)

    def test_empty_visual_sequence_rejected(self):
        config = probe_config()
        params = md.init_parameters(config, 1)
        pairs = make_pairs(config)
        empty = mm.VisualSequence(np.zeros((0, config.feature_dim)), np.zeros((0, 4)), [])
        pairs[0] = (empty, pairs[0][1])
        with pytest.raises(pb.ProbeError, match="pair 0"):
            pb.xsim_per_layer(params, pairs)

    def test_projection_onto_caption_tokens_gives_one(self):
        # each projected region equals the embedding of the caption token at
        # the same position, so both inputs encode to identical rows
        config = probe_config(feature_dim=19, num_regions=4)
        params = md.init_parameters(config, 1)
        table = params["embeddings.token"].value.data
        weight = params["projection.weight"].value.data
        weight[...] = 0.0
        weight[: config.vocab_size] = table
        params["projection.bias"].value.data[...] = 0.0
        rng = np.random.default_rng(0)
        pairs = []
        for _ in range(3):
            caption = [int(t) for t in rng.integers(6, config.vocab_size, size=4)]
            visual = mm.VisualSequence(
                np.eye(config.vocab_size)[caption], np.zeros((4, 4)), [4.0, 3.0, 2.0, 1.0]
            )
            pairs.append((visual, caption))
        report = pb.xsim_per_layer(params, pairs)
        assert np.allclose(report.xsim, 1.0, atol=1e-12)

    def test_random_model_does_not_read_shared_cls_row(self):
        # the [CLS] row is identical in both inputs; a cosine that included
        # it would read near 1 for a random model at this size
        config = probe_config()
        params = md.init_parameters(config, 1)
        report = pb.xsim_per_layer(params, make_pairs(config))
        assert all(v < 0.5 for v in report.xsim)

    def test_table_format(self, tmp_path):
        config = probe_config()
        params = md.init_parameters(config, 1)
        report = pb.xsim_per_layer(params, make_pairs(config), label="stage1")
        path = tmp_path / "probe.tsv"
        pb.write_probe_table(path, [report])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "layer_index\tmodel_label\txsim"
        assert len(lines) == 1 + config.num_layers
        assert lines[1].startswith("1\tstage1\t")


class TestPackedPair:
    """One encode per pair, `[image input | caption input]` under a
    block-diagonal mask, gives what two separate encodes give."""

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    @pytest.mark.parametrize("use_type_embeddings", [False, True])
    @pytest.mark.parametrize("num_regions, caption_lengths", [
        (3, [1, 3, 6]),  # caption input shorter than, as long as, longer than the image input
        (1, [1, 4]),
    ])
    def test_matches_two_encodes(self, dtype, tol, use_type_embeddings, num_regions,
                                 caption_lengths):
        config = probe_config(num_regions=num_regions, use_type_embeddings=use_type_embeddings)
        params = md.init_parameters(config, 3)
        params.astype(dtype)
        pairs = make_pairs(config, caption_lengths=caption_lengths)
        for pair in pairs:  # pair by pair, so no error hides in the average
            got = pb.xsim_per_layer(params, [pair]).xsim
            np.testing.assert_allclose(got, two_encode_xsim(params, [pair]), rtol=0, atol=tol)
        got = pb.xsim_per_layer(params, pairs).xsim
        np.testing.assert_allclose(got, two_encode_xsim(params, pairs), rtol=0, atol=tol)

    def test_caption_tokens_leave_image_block_bit_identical(self, monkeypatch):
        config = probe_config()
        params = md.init_parameters(config, 1)
        pairs = make_pairs(config, n_pairs=2)
        other = [pairs[0], (pairs[1][0], pairs[0][1])]  # pair 1 takes pair 0's caption
        calls, encode_states = [], md.encode_states

        def record(*args):
            calls.append(encode_states(*args))
            return calls[-1]

        monkeypatch.setattr(md, "encode_states", record)
        pb.xsim_per_layer(params, pairs)
        pb.xsim_per_layer(params, other)
        n_img = 1 + config.num_regions
        before, after = calls[1], calls[3]
        assert not np.array_equal(before[0].data[:, n_img:], after[0].data[:, n_img:])
        for layer, (a, b) in enumerate(zip(before, after)):
            assert np.array_equal(a.data[:, :n_img], b.data[:, :n_img]), layer

    def test_pair_longer_than_max_positions_accepted(self):
        # 4 image rows + 5 caption rows: 9 rows in all, each block within 5 positions
        config = probe_config(num_regions=3, max_positions=5)
        params = md.init_parameters(config, 1)
        pairs = make_pairs(config, caption_lengths=[4, 2])
        got = pb.xsim_per_layer(params, pairs).xsim
        np.testing.assert_allclose(got, two_encode_xsim(params, pairs), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("num_regions, caption_length", [(3, 5), (5, 1)])
    def test_block_longer_than_max_positions_rejected(self, num_regions, caption_length):
        config = probe_config(num_regions=num_regions, max_positions=5)
        params = md.init_parameters(config, 1)
        pairs = make_pairs(config, caption_lengths=[caption_length])
        with pytest.raises(nm.ShapeError, match="max_positions"):
            pb.xsim_per_layer(params, pairs)


class TestWriteTable:
    def test_multi_model_table(self, tmp_path):
        config = probe_config()
        pairs = make_pairs(config)
        reports = [
            pb.xsim_per_layer(md.init_parameters(config, s), pairs, label=f"m{s}")
            for s in (1, 2)
        ]
        path = tmp_path / "probe.tsv"
        pb.write_probe_table(path, reports, meta={"command": "probe"})
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("# ")
        assert lines[1] == "layer_index\tmodel_label\txsim"
        assert len(lines) == 2 + 2 * config.num_layers
