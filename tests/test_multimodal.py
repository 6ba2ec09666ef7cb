import numpy as np
import pytest

from vqgen import multimodal as mm
from vqgen import model as md

SPECIAL = md.SpecialTokens()


def region(df=6, seed=0, relevance=1.0):
    rng = np.random.default_rng(seed)
    return mm.ObjectRegion(
        features=rng.normal(size=df), box=rng.random(4), relevance=relevance
    )


class TestObjectEmbedding:
    def test_concatenation_order(self):
        r = mm.ObjectRegion(
            features=np.arange(1, 7) / 10.0, box=[0.1, 0.2, 0.3, 0.4], relevance=1.0
        )
        o = mm.object_embedding(r)
        assert o.shape == (10,)
        assert np.allclose(o[-4:], [0.1, 0.2, 0.3, 0.4])

    def test_zero_region(self):
        r = mm.ObjectRegion(features=np.zeros(6), box=np.zeros(4), relevance=0.0)
        assert np.array_equal(mm.object_embedding(r), np.zeros(10))

    def test_features_prefix_exact(self):
        r = region(df=9, seed=3)
        assert np.array_equal(mm.object_embedding(r)[:9], r.features)

    def test_box_out_of_range_rejected(self):
        with pytest.raises(mm.InputError):
            mm.ObjectRegion(features=np.zeros(4), box=[0.0, 0.5, 1.2, 0.1], relevance=1.0)


class TestVisualSequence:
    def test_order_enforced(self):
        with pytest.raises(mm.InputError):
            mm.VisualSequence([region(seed=0, relevance=0.1), region(seed=1, relevance=0.9)])


class TestAssembleInput:
    def visual(self, n=2):
        return mm.VisualSequence(
            [region(seed=i, relevance=float(n - i)) for i in range(n)]
        )

    def test_image_plus_caption_layout(self):
        out = mm.assemble_input(
            mm.IMAGE_PLUS_CAPTION,
            visual=self.visual(2),
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
            mm.IMAGE_ONLY, visual=self.visual(3), cls_id=SPECIAL.cls, sep_id=SPECIAL.sep
        )
        assert len(out) == 4
        assert all(isinstance(s, np.ndarray) for s in out.slots[1:])

    def test_lengths_by_mode(self):
        n, m = 3, 4
        caption = list(range(10, 10 + m))
        v = self.visual(n)
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
            mm.assemble_input(mm.IMAGE_PLUS_CAPTION, visual=self.visual(), cls_id=2, sep_id=3)

    def test_reordering_regions_only_swaps_slots(self):
        a, b = region(seed=0, relevance=0.9), region(seed=1, relevance=0.5)
        fwd = mm.assemble_input(
            mm.IMAGE_ONLY, visual=mm.VisualSequence([a, b]), cls_id=2, sep_id=3
        )
        swapped = mm.assemble_input(
            mm.IMAGE_ONLY,
            visual=mm.VisualSequence([mm.ObjectRegion(b.features, b.box, 0.9),
                                      mm.ObjectRegion(a.features, a.box, 0.5)]),
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
        visual = mm.VisualSequence([region(seed=0, relevance=0.9), region(seed=1, relevance=0.5)])
        out = mm.assemble_input(
            mode, visual=visual, caption=[10, 11], cls_id=SPECIAL.cls, sep_id=SPECIAL.sep
        )
        assert out.ids.dtype == np.int64 and out.ids.tolist() == ids
        assert out.regions.dtype == np.float64
        assert out.regions.shape == ((0,) if visual_span == (0, 0) else (2, 10))
        assert (out.visual_span, out.text_span) == (visual_span, text_span)
        assert np.array_equal(out.positions, np.arange(len(ids)))
        vectors = [mm.object_embedding(r) for r in visual.regions]
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
