import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from vqgen import data as dt
from vqgen import model as md
from tests_support import stack_regions


def file_checksum(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


class TestTokenizer:
    def test_punctuation_split(self):
        assert dt.tokenize("What is it?") == ["what", "is", "it", "?"]

    def test_empty(self):
        assert dt.tokenize("") == []

    def test_collapses_whitespace(self):
        assert dt.tokenize("a   big\tcube") == ["a", "big", "cube"]


def items_from(texts_with_questions):
    return [
        dt.CorpusItem(id=f"i{k}", caption=c, questions=q, feature_ref="x.features#0")
        for k, (c, q) in enumerate(texts_with_questions)
    ]


class TestVocabulary:
    def test_specials_then_freq_then_lex(self):
        items = items_from([("a cat", ["a dog ?"])])
        vocab = dt.build_vocab(items)
        assert vocab.id_to_token[:6] == list(dt.SPECIAL_TOKEN_STRINGS)
        # each special-token id maps to its own string: pad -> [PAD] ... eos -> [EOS]
        names = [f.name for f in dataclasses.fields(vocab.special)]
        assert names == ["pad", "unk", "cls", "sep", "mask", "eos"]
        for name in names:
            assert vocab.id_to_token[getattr(vocab.special, name)] == f"[{name.upper()}]"
        # 'a' appears twice; then singletons ?, cat, dog lexicographically
        assert vocab.id_to_token[6:] == ["a", "?", "cat", "dog"]

    def test_deterministic_rebuild(self):
        items = items_from([("blue ball near cube", ["where is the ball ?"])])
        assert dt.build_vocab(items).id_to_token == dt.build_vocab(items).id_to_token

    def test_unknown_word_becomes_unk(self):
        vocab = dt.build_vocab(items_from([("a cat", ["a dog"])]))
        ids = dt.encode_text("a zebra", vocab)
        assert ids[0] == vocab.token_to_id["a"]
        assert ids[1] == vocab.special.unk

    def test_round_trip_in_vocab(self):
        vocab = dt.build_vocab(items_from([("what is it ?", ["it is a cube"])]))
        text = "what is a cube ?"
        assert dt.decode_text(dt.encode_text(text, vocab), vocab) == text

    def test_empty_string(self):
        vocab = dt.build_vocab(items_from([("a", ["b"])]))
        assert dt.encode_text("", vocab) == []

    def test_decode_unknown_id(self):
        vocab = dt.build_vocab(items_from([("a", ["b"])]))
        with pytest.raises(dt.VocabError):
            dt.decode_text([999], vocab)


def random_sequences(n_images=3, regions=4, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_images):
        rel = np.sort(rng.random(regions))[::-1]
        out.append(stack_regions([(rng.normal(size=dim), rng.random(4), float(r)) for r in rel]))
    return out


class TestFeatureFiles:
    def test_round_trip_exact_f32(self, tmp_path):
        path = tmp_path / "x.features"
        seqs = random_sequences()
        dt.write_features(path, seqs)
        back = dt.read_features(path)
        assert len(back) == len(seqs)
        for a, b in zip(seqs, back):
            assert np.array_equal(a.features.astype("<f4"), b.features.astype("<f4"))
            assert np.array_equal(a.boxes.astype("<f4"), b.boxes.astype("<f4"))
        # write back and compare bytes
        path2 = tmp_path / "y.features"
        dt.write_features(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.features"
        path.write_bytes(b"WHAT" + b"\x00" * 32)
        with pytest.raises(dt.MagicError):
            dt.read_features(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "x.features"
        dt.write_features(path, random_sequences())
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(dt.TruncatedError):
            dt.read_features(path)

    @pytest.mark.parametrize("n, error", [(1, dt.TruncatedError), (0, dt.DimensionError)])
    def test_header_declaring_too_many_images(self, tmp_path, n, error):
        # rejected from the header and the file's length, before any allocation
        path = tmp_path / "x.features"
        path.write_bytes(dt.FEATURE_MAGIC + struct.pack("<IIII", 1, 2**32 - 1, n, 8) + b"\0" * 52)
        with pytest.raises(error):
            dt.read_features(path)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "x.features"
        dt.write_features(path, random_sequences(dim=8))
        with pytest.raises(dt.DimensionError):
            dt.read_features(path, expected_dim=16)
        with pytest.raises(dt.DimensionError):
            dt.read_features(path, expected_regions=9)


class TestCorpusFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        items = items_from([("a cat", ["what ?", "who ?"]), ("a dog", ["where ?"])])
        dt.write_corpus(path, items, meta={"seed": 1})
        back = dt.load_corpus(path)
        assert len(back) == 2
        assert back[0].questions == ["what ?", "who ?"]

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "caption": "x", "questions": ["q"]}\n')
        with pytest.raises(dt.FormatError, match=":1:"):
            dt.load_corpus(path)

    @pytest.mark.parametrize("record, problem", [
        ('{"id": "a", "caption": "x", "questions": 5, "feature_ref": "f#0"}', "questions"),
        ('{"id": "a", "caption": "x", "questions": "what color is the cube ?", '
         '"feature_ref": "f#0"}', "questions"),
        ('{"id": "a", "caption": "x", "questions": ["q", 3], "feature_ref": "f#0"}', "questions"),
        ('{"id": "a", "caption": 7, "questions": ["q"], "feature_ref": "f#0"}', "caption"),
        ("5", "record"),
        ('["id", "caption", "questions", "feature_ref"]', "record"),
    ])
    def test_wrong_type_names_line(self, tmp_path, record, problem):
        path = tmp_path / "c.jsonl"
        path.write_text("# meta\n" + record + "\n")
        with pytest.raises(dt.FormatError, match=f":2: {problem} must be"):
            dt.load_corpus(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a"\n')
        with pytest.raises(dt.FormatError, match=":1:"):
            dt.load_corpus(path)

    def test_duplicate_ids(self, tmp_path):
        path = tmp_path / "c.jsonl"
        for item_id in ('"a"', '["a"]'):  # ids compare as strings, so any JSON value works
            rec = f'{{"id": {item_id}, "caption": "x", "questions": ["q"], "feature_ref": "f#0"}}\n'
            path.write_text(rec + rec)
            with pytest.raises(dt.FormatError, match="duplicate"):
                dt.load_corpus(path)


class TestSynthDataset:
    def test_same_seed_identical_checksums(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            dt.synth_dataset(out, seed=7, n_train=6, n_val=2, n_test=2, refs_per_item=3)
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "train.features"):
            assert file_checksum(a / name) == file_checksum(b / name), name

    def test_different_seed_differs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        dt.synth_dataset(a, seed=7, n_train=4, n_val=1, n_test=1)
        dt.synth_dataset(b, seed=8, n_train=4, n_val=1, n_test=1)
        assert file_checksum(a / "train.features") != file_checksum(b / "train.features")

    def test_refs_per_item(self, tmp_path):
        dt.synth_dataset(tmp_path, seed=1, n_train=3, n_val=1, n_test=1, refs_per_item=5)
        for item in dt.load_corpus(tmp_path / "train.jsonl"):
            assert len(item.questions) == 5

    def test_region_count_matches_config(self, tmp_path):
        dt.synth_dataset(tmp_path, seed=1, n_train=2, n_val=1, n_test=1, num_regions=5)
        seqs = dt.read_features(tmp_path / "train.features", expected_regions=5)
        assert all(len(s) == 5 for s in seqs)

    @pytest.mark.parametrize("regions", [0, -2])
    def test_region_count_below_one_rejected(self, tmp_path, regions):
        out = tmp_path / "out"
        with pytest.raises(dt.DimensionError, match="num_regions"):
            dt.synth_dataset(out, seed=1, n_train=2, n_val=1, n_test=1, num_regions=regions)
        assert not out.exists()

    def test_questions_reference_main_object_attributes(self, tmp_path):
        dt.synth_dataset(tmp_path, seed=3, n_train=8, n_val=1, n_test=1)
        split = dt.load_split(tmp_path, "train")
        for item in split.items:
            visual = split.visual(item)
            main = visual.features[0]
            shape = dt.SHAPES[int(np.argmax(main[: len(dt.SHAPES)]))]
            joined = " ".join(item.questions)
            assert shape in joined or dt.COLORS[
                int(np.argmax(main[len(dt.SHAPES) : len(dt.SHAPES) + len(dt.COLORS)]))
            ] in joined

    def test_attributes_linearly_decodable(self, tmp_path):
        # least-squares probe from region features back to attribute one-hots
        dt.synth_dataset(tmp_path, seed=5, n_train=40, n_val=1, n_test=1)
        seqs = dt.read_features(tmp_path / "train.features")
        feats = np.concatenate([s.features for s in seqs])
        labels = np.argmax(feats[:, : len(dt.SHAPES)], axis=1)
        onehot = np.eye(len(dt.SHAPES))[labels]
        w, *_ = np.linalg.lstsq(feats, onehot, rcond=None)
        pred = np.argmax(feats @ w, axis=1)
        assert np.mean(pred == labels) == 1.0

    def test_load_split_resolves_features(self, tmp_path):
        dt.synth_dataset(tmp_path, seed=2, n_train=50, n_val=2, n_test=2)
        split = dt.load_split(tmp_path, "val")
        assert len(split.items) == 2
        visual = split.visual(split.items[0])
        assert len(visual) == 8
        # vocabulary built from train split covers the val questions
        ids = dt.encode_text(split.items[0].questions[0], split.vocab)
        assert split.vocab.special.unk not in ids


class TestCheckModel:
    """`LoadedSplit.check_model`: the one check that a split fits a model."""

    @pytest.fixture
    def root(self, tmp_path):
        dt.synth_dataset(tmp_path, seed=2, n_train=4, n_val=2, n_test=2,
                         num_regions=3, feature_dim=16)
        return tmp_path

    def config(self, split, **overrides):
        values = dict(num_layers=1, num_heads=1, model_dim=8, ffn_dim=8, max_positions=48,
                      vocab_size=len(split.vocab), num_regions=3, feature_dim=16)
        return md.ModelConfig(**{**values, **overrides})

    def test_fitting_model_accepted(self, root):
        split = dt.load_split(root, "val")
        split.visual(split.items[0])
        split.check_model(self.config(split))
        assert len(split.visual(split.items[1])) == 3

    @pytest.mark.parametrize("read_first", [True, False])
    @pytest.mark.parametrize("override", [{"num_regions": 2}, {"feature_dim": 15}])
    def test_feature_file_off_the_model_rejected(self, root, read_first, override):
        split = dt.load_split(root, "val")
        if read_first:
            split.visual(split.items[0])
        with pytest.raises(dt.DimensionError, match="val.features"):
            split.check_model(self.config(split, **override))
            split.visual(split.items[0])

    def test_vocabulary_of_another_size_rejected(self, root):
        split = dt.load_split(root, "val")
        with pytest.raises(md.ConfigError, match="vocabulary"):
            split.check_model(self.config(split, vocab_size=len(split.vocab) + 1))
