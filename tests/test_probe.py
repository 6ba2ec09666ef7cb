import numpy as np
import pytest

from tests_support import stack_regions
from vqgen import model as md
from vqgen import multimodal as mm
from vqgen import probe as pb


def probe_config(**overrides):
    base = dict(num_layers=3, num_heads=2, model_dim=16, ffn_dim=32, vocab_size=19,
                max_positions=32, feature_dim=6, num_regions=2)
    base.update(overrides)
    return md.ModelConfig(**base)


def make_pairs(config, n_pairs=4, seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n_pairs):
        visual = stack_regions(
            (rng.normal(size=config.feature_dim), rng.random(4), float(config.num_regions - j))
            for j in range(config.num_regions)
        )
        caption = list(rng.integers(6, config.vocab_size, size=4))
        pairs.append((visual, caption))
    return pairs


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
