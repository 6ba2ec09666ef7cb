import numpy as np
import pytest

from vqgen import multimodal as mm
from vqgen import model as md

SPECIAL = md.SpecialTokens()


def visual_sequence(n=2, df=6, seed=0):
    rng = np.random.default_rng(seed)
    return mm.VisualSequence(rng.normal(size=(n, df)), rng.random((n, 4)), np.arange(n, 0, -1.0))


def image_regions(visual):
    out = mm.assemble_input(mm.IMAGE_ONLY, visual=visual, cls_id=2, sep_id=3)
    return out.regions


class TestObjectEmbedding:
    def test_concatenation_order(self):
        visual = mm.VisualSequence(
            np.arange(1, 7)[None] / 10.0, [[0.1, 0.2, 0.3, 0.4]], [1.0]
        )
        o = image_regions(visual)[0]
        assert o.shape == (10,)
        assert np.allclose(o[-4:], [0.1, 0.2, 0.3, 0.4])

    def test_zero_region(self):
        visual = mm.VisualSequence(np.zeros((1, 6)), np.zeros((1, 4)), [0.0])
        assert np.array_equal(image_regions(visual), np.zeros((1, 10)))

    def test_features_prefix_exact(self):
        visual = visual_sequence(n=3, df=9, seed=3)
        assert np.array_equal(image_regions(visual)[:, :9], visual.features)
        assert np.array_equal(image_regions(visual)[:, 9:], visual.boxes)

    def test_box_out_of_range_rejected(self):
        with pytest.raises(mm.InputError, match=r"\[0, 1\]"):
            mm.VisualSequence(np.zeros((1, 4)), [[0.0, 0.5, 1.2, 0.1]], [1.0])


class TestVisualSequence:
    def test_order_enforced(self):
        with pytest.raises(mm.InputError, match="non-increasing"):
            mm.VisualSequence(np.zeros((2, 6)), np.zeros((2, 4)), [0.1, 0.9])

    def test_arrays_are_float64(self):
        visual = mm.VisualSequence(np.zeros((2, 6), dtype=np.float32), np.zeros((2, 4)), [1, 1])
        assert len(visual) == 2
        assert {a.dtype for a in (visual.features, visual.boxes, visual.relevance)} == {
            np.dtype(np.float64)
        }

    @pytest.mark.parametrize("features, boxes, relevance", [
        (np.zeros(6), np.zeros((1, 4)), [1.0]),  # features not (N, D_f)
        (np.zeros((2, 6)), np.zeros((1, 4)), [1.0, 0.5]),  # one box short
        (np.zeros((2, 6)), np.zeros((2, 3)), [1.0, 0.5]),  # box of 3 coordinates
        (np.zeros((2, 6)), np.zeros((2, 4)), [1.0]),  # one score short
    ])
    def test_shapes_must_agree(self, features, boxes, relevance):
        with pytest.raises(mm.InputError, match="must be"):
            mm.VisualSequence(features, boxes, relevance)

    @pytest.mark.parametrize("field", ["features", "boxes", "relevance"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, field, value):
        arrays = {"features": np.zeros((2, 6)), "boxes": np.zeros((2, 4)),
                  "relevance": np.array([1.0, 0.5])}
        arrays[field].flat[-1] = value
        with pytest.raises(mm.InputError, match="finite"):
            mm.VisualSequence(**arrays)


class TestAssembleInput:
    def test_image_plus_caption_layout(self):
        out = mm.assemble_input(
            mm.IMAGE_PLUS_CAPTION,
            visual=visual_sequence(2),
            caption=[10, 11],
            cls_id=SPECIAL.cls,
            sep_id=SPECIAL.sep,
        )
        assert len(out) == 6
        assert out.slots[0] == SPECIAL.cls
        assert isinstance(out.slots[1], np.ndarray)
        assert isinstance(out.slots[2], np.ndarray)
        assert out.slots[3] == SPECIAL.sep
        assert out.slots[4:] == [10, 11]
        assert list(out.positions) == [0, 1, 2, 3, 4, 5]
        assert out.visual_span == (1, 3)
        assert out.text_span == (4, 6)

    def test_caption_only_empty_caption(self):
        out = mm.assemble_input(
            mm.CAPTION_ONLY, caption=[], cls_id=SPECIAL.cls, sep_id=SPECIAL.sep
        )
        assert len(out) == 1
        assert out.slots == [SPECIAL.cls]

    def test_image_only_has_no_sep(self):
        out = mm.assemble_input(
            mm.IMAGE_ONLY, visual=visual_sequence(3), cls_id=SPECIAL.cls, sep_id=SPECIAL.sep
        )
        assert len(out) == 4
        assert all(isinstance(s, np.ndarray) for s in out.slots[1:])

    def test_lengths_by_mode(self):
        n, m = 3, 4
        caption = list(range(10, 10 + m))
        v = visual_sequence(n)
        cap = mm.assemble_input(mm.CAPTION_ONLY, caption=caption, cls_id=2, sep_id=3)
        img = mm.assemble_input(mm.IMAGE_ONLY, visual=v, cls_id=2, sep_id=3)
        both = mm.assemble_input(
            mm.IMAGE_PLUS_CAPTION, visual=v, caption=caption, cls_id=2, sep_id=3
        )
        assert (len(cap), len(img), len(both)) == (1 + m, 1 + n, 2 + n + m)

    def test_missing_modality(self):
        with pytest.raises(mm.InputError):
            mm.assemble_input(mm.IMAGE_ONLY, cls_id=2, sep_id=3)
        with pytest.raises(mm.InputError):
            mm.assemble_input(mm.IMAGE_PLUS_CAPTION, visual=visual_sequence(), cls_id=2, sep_id=3)

    def test_reordering_regions_only_swaps_slots(self):
        v = visual_sequence(2)
        fwd = mm.assemble_input(mm.IMAGE_ONLY, visual=v, cls_id=2, sep_id=3)
        swapped = mm.assemble_input(
            mm.IMAGE_ONLY,
            visual=mm.VisualSequence(v.features[::-1], v.boxes[::-1], v.relevance),
            cls_id=2,
            sep_id=3,
        )
        assert np.array_equal(fwd.slots[1], swapped.slots[2])
        assert np.array_equal(fwd.slots[2], swapped.slots[1])
        assert np.array_equal(fwd.positions, swapped.positions)


class TestAssembledArrays:
    """`ids` and `regions` are the layout; `slots` and `positions` follow from them."""

    @pytest.mark.parametrize(
        "mode, ids, visual_span, text_span",
        [
            (mm.CAPTION_ONLY, [SPECIAL.cls, 10, 11], (0, 0), (1, 3)),
            (mm.IMAGE_ONLY, [SPECIAL.cls, 0, 0], (1, 3), (0, 0)),
            (mm.IMAGE_PLUS_CAPTION, [SPECIAL.cls, 0, 0, SPECIAL.sep, 10, 11], (1, 3), (4, 6)),
        ],
    )
    def test_arrays_spans_and_slots(self, mode, ids, visual_span, text_span):
        visual = visual_sequence(2)
        out = mm.assemble_input(
            mode, visual=visual, caption=[10, 11], cls_id=SPECIAL.cls, sep_id=SPECIAL.sep
        )
        assert out.ids.dtype == np.int64 and out.ids.tolist() == ids
        assert out.regions.dtype == np.float64
        assert out.regions.shape == ((0,) if visual_span == (0, 0) else (2, 10))
        assert (out.visual_span, out.text_span) == (visual_span, text_span)
        assert np.array_equal(out.positions, np.arange(len(ids)))
        vectors = [np.concatenate([f, b]) for f, b in zip(visual.features, visual.boxes)]
        expected = {
            mm.CAPTION_ONLY: [SPECIAL.cls, 10, 11],
            mm.IMAGE_ONLY: [SPECIAL.cls, *vectors],
            mm.IMAGE_PLUS_CAPTION: [SPECIAL.cls, *vectors, SPECIAL.sep, 10, 11],
        }[mode]
        assert len(out.slots) == len(expected)
        for got, want in zip(out.slots, expected):
            if isinstance(want, int):
                assert type(got) is int and got == want
            else:
                assert np.array_equal(got, want)
