import inspect
import math
import weakref

import numpy as np
import pytest

from tests_support import sum_all
from vqgen import numerics as nm
from vqgen.numerics import (
    OptimizerState,
    Parameter,
    Tensor,
    adam_step,
    affine,
    backward_gradients,
    cross_entropy,
    gelu,
    layer_norm,
    lr_schedule,
    softmax_rows,
)


def finite_difference(fn, param, h=1e-5):
    """Central-difference gradient of scalar fn() w.r.t. every entry of param."""
    grad = np.zeros_like(param.value.data)
    flat = param.value.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn().item()
        flat[i] = orig - h
        down = fn().item()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return grad


def max_rel_err(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


class TestAffine:
    def test_identity(self):
        out = affine([[1.0, 2.0]], np.eye(2), [0.0, 0.0])
        assert np.allclose(out.data, [[1.0, 2.0]])

    def test_zero_weight_gives_bias(self):
        out = affine([[1.0, 2.0]], np.zeros((2, 2)), [3.0, 4.0])
        assert np.allclose(out.data, [[3.0, 4.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=2)
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                acc = b[j]
                for k in range(4):
                    acc += x[i][k] * w[k][j]
                expected[i][j] = acc
        out = affine(x, w, b)
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(nm.ShapeError):
            affine(np.ones((2, 3)), np.ones((4, 2)), np.zeros(2))


class TestSoftmax:
    def test_symmetry(self):
        out = softmax_rows([[0.0, 0.0]])
        assert np.allclose(out.data, [[0.5, 0.5]])

    def test_analytic(self):
        out = softmax_rows([[math.log(2.0), 0.0]])
        assert np.allclose(out.data, [[2.0 / 3.0, 1.0 / 3.0]])

    def test_large_magnitude_is_stable(self):
        out = softmax_rows([[1000.0, 0.0]])
        assert np.all(np.isfinite(out.data))
        assert out.data[0, 0] > 1.0 - 1e-12
        assert out.data[0, 1] < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for scale in (1.0, 1e3):
            x = rng.normal(size=(6, 9)) * scale
            out = softmax_rows(x)
            assert np.max(np.abs(out.data.sum(axis=-1) - 1.0)) < 1e-9
            assert np.all(out.data >= 0)


class TestLayerNorm:
    def test_constant_vector_zeroed_via_eps(self):
        out = layer_norm(np.full((1, 4), 3.0), np.ones(4), np.zeros(4))
        assert np.allclose(out.data, 0.0)

    def test_analytic_two_point(self):
        out = layer_norm(np.array([[1.0, -1.0]]), np.ones(2), np.zeros(2))
        assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-9)

    def test_statistics_pre_affine(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(5, 8)) * 2.0 + 1.0
        out = layer_norm(x, np.ones(8), np.zeros(8))
        assert np.max(np.abs(out.data.mean(axis=-1))) < 1e-9
        assert np.max(np.abs(out.data.var(axis=-1) - 1.0)) < 1e-6


class TestGelu:
    def test_zero(self):
        assert gelu(np.array([0.0])).data[0] == 0.0

    def test_asymptotes(self):
        out = gelu(np.array([20.0, -20.0]))
        assert abs(out.data[0] - 20.0) < 1e-8
        assert abs(out.data[1]) < 1e-8

    def test_grid_vs_scalar_oracle(self):
        # independent per-point evaluation of x * Phi(x) in tanh form
        xs = np.linspace(-4.0, 4.0, 101)
        out = gelu(xs)
        c = math.sqrt(2.0 / math.pi)
        for x, y in zip(xs, out.data):
            ref = 0.5 * x * (1.0 + math.tanh(c * (x + 0.044715 * x**3)))
            assert abs(y - ref) < 1e-6

    def test_close_to_exact_gaussian_cdf_form(self):
        # tanh approximation tracks x*Phi(x) to a few 1e-4
        xs = np.linspace(-4.0, 4.0, 101)
        out = gelu(xs)
        exact = np.array([0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0))) for x in xs])
        assert np.max(np.abs(out.data - exact)) < 2e-3

    def test_monotone_on_grid(self):
        # increasing region only; gelu dips slightly below zero near x = -0.75
        xs = np.linspace(-0.7, 4.0, 101)
        out = gelu(xs).data
        assert np.all(np.diff(out) >= 0)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((3, 4))
        loss = cross_entropy(logits, [0, 1, 2])
        assert abs(loss.item() - math.log(4.0)) < 1e-12

    def test_confident_correct(self):
        loss = cross_entropy(np.array([[10.0, -10.0]]), [0])
        assert loss.item() < 1e-8

    def test_matches_manual_sum(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(6, 5))
        targets = rng.integers(0, 5, size=6)
        manual = 0.0
        for i in range(6):
            row = logits[i]
            p = math.exp(row[targets[i]]) / sum(math.exp(v) for v in row)
            manual -= math.log(p)
        manual /= 6
        loss = cross_entropy(logits, targets)
        assert abs(loss.item() - manual) < 1e-12

    def test_out_of_range_target(self):
        with pytest.raises(nm.ShapeError):
            cross_entropy(np.zeros((1, 3)), [3])


class TestBackward:
    def test_sum_gives_ones(self):
        w = Parameter("w", np.array([[1.0, 2.0], [3.0, 4.0]]))
        loss = sum_all(w.value)
        backward_gradients(loss)
        assert np.array_equal(w.gradient, np.ones((2, 2)))

    def test_half_norm_squared_gives_w(self):
        w = Parameter("w", np.array([1.0, -2.0, 3.0]).reshape(1, 3))
        loss = nm.mul(0.5, sum_all(nm.mul(w.value, w.value)))
        backward_gradients(loss)
        assert np.allclose(w.gradient, w.value.data)

    def test_backward_without_forward_raises(self):
        w = Parameter("w", np.array(1.0))
        with pytest.raises(nm.StateError):
            backward_gradients(w.value)

    def test_nontrainable_pinned_to_zero(self):
        w = Parameter("w", np.ones((2, 2)), trainable=False)
        u = Parameter("u", np.ones((2, 2)))
        assert w.gradient is None and u.gradient is None
        loss = sum_all(nm.add(w.value, u.value))
        backward_gradients(loss, [w, u])
        assert np.array_equal(w.gradient, np.zeros((2, 2)))
        assert np.array_equal(u.gradient, np.ones((2, 2)))

    def test_untouched_param_zeroed(self):
        w = Parameter("w", np.ones(3).reshape(1, 3))
        other = Parameter("other", np.ones(2))
        other.gradient = np.full(2, 9.0)
        loss = sum_all(nm.mul(w.value, w.value))
        backward_gradients(loss, [w, other])
        assert np.array_equal(other.gradient, np.zeros(2))

    def graph(self):
        rng = np.random.default_rng(0)
        w = Parameter("w", rng.normal(size=(4, 4)))
        b = Parameter("b", rng.normal(size=4))
        hidden = gelu(affine(rng.normal(size=(3, 4)), w.value, b.value))
        return w, b, cross_entropy(hidden, [0, 1, 2])

    def test_backward_frees_the_graph_it_walks(self):
        w, b, loss = self.graph()
        hidden = weakref.ref(loss._parents[0].data)  # the gelu output
        value = loss.item()
        backward_gradients(loss, [w, b])
        assert hidden() is None  # freed although `loss` is still held
        assert loss._parents == () and loss._vjp is None and loss.item() == value
        assert w.gradient.shape == (4, 4) and np.any(w.gradient != 0.0)

    def test_second_backward_raises(self):
        w, b, loss = self.graph()
        backward_gradients(loss, [w, b])
        with pytest.raises(nm.StateError, match="no recorded forward computation"):
            backward_gradients(loss, [w, b])

    @pytest.mark.parametrize("seed", range(20))
    def test_finite_difference_core_ops(self, seed):
        rng = np.random.default_rng(seed)
        x = Parameter("x", rng.normal(size=(3, 4)))
        w = Parameter("w", rng.normal(size=(4, 4)))
        b = Parameter("b", rng.normal(size=4))
        g = Parameter("g", rng.normal(size=4) * 0.1 + 1.0)
        targets = rng.integers(0, 4, size=3)

        def forward():
            h = affine(x.value, w.value, b.value)
            h = gelu(h)
            h = layer_norm(h, g.value, b.value)
            h = softmax_rows(h)
            return cross_entropy(nm.mul(h, 3.0), targets)

        loss = forward()
        backward_gradients(loss, [x, w, b, g])
        for p in (x, w, b, g):
            fd = finite_difference(forward, p)
            assert max_rel_err(p.gradient, fd) < 1e-4, p.id


def closed_form_gelu_vjp(xd, g):
    """The closed-form GELU backward the in-place vjp must reproduce bit for bit."""
    x_sq = xd * xd
    t = np.tanh(math.sqrt(2.0 / math.pi) * xd * (1.0 + 0.044715 * x_sq))
    du = math.sqrt(2.0 / math.pi) * (1.0 + 0.134145 * x_sq)
    dx = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * du
    return g * dx


def closed_form_layer_norm_vjp(xd, gain, g, eps):
    """The closed-form layer-norm backward (gx, ggain, gbias), term by term."""
    d = xd.shape[-1]
    centered = xd - xd.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    normed = centered * inv
    gn = g * gain
    gvar = (gn * centered).sum(axis=-1, keepdims=True) * (-0.5) * inv**3
    gmean = -(gn * inv).sum(axis=-1, keepdims=True) + gvar * (-2.0 / d) * centered.sum(
        axis=-1, keepdims=True
    )
    gx = gn * inv + gvar * 2.0 * centered / d + gmean / d
    return gx, (g * normed).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestBackwardBitExact:
    def data(self, dtype, shape=(3, 5, 8)):
        rng = np.random.default_rng(21)
        return [rng.normal(size=shape).astype(dtype) * 2.0 for _ in range(2)]

    def test_gelu_vjp_matches_closed_form(self, dtype):
        xd, g = self.data(dtype)
        x = Parameter("x", xd)
        (gx,) = gelu(x.value)._vjp(g)
        expected = closed_form_gelu_vjp(xd, g)
        assert gx.dtype == expected.dtype == dtype
        assert np.array_equal(gx, expected)

    def test_layer_norm_vjp_matches_closed_form(self, dtype):
        # d = 12 is not a power of two, so dividing by d differs from
        # multiplying by 1 / d
        xd, g = self.data(dtype, shape=(3, 5, 12))
        rng = np.random.default_rng(5)
        gain = Parameter("gain", (rng.normal(size=12) * 0.1 + 1.0).astype(dtype))
        bias = Parameter("bias", rng.normal(size=12).astype(dtype))
        x = Parameter("x", xd)
        got = layer_norm(x.value, gain.value, bias.value)._vjp(g)
        expected = closed_form_layer_norm_vjp(xd, gain.value.data, g, 1e-12)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype == dtype
            assert np.array_equal(a, b)

    def test_batched_affine_equals_flat_rows(self, dtype):
        xd, _ = self.data(dtype, shape=(4, 7, 6))
        rng = np.random.default_rng(3)
        w = Parameter("w", rng.normal(size=(6, 5)).astype(dtype))
        b = Parameter("b", rng.normal(size=5).astype(dtype))
        g = rng.normal(size=(4, 7, 5)).astype(dtype)
        x3, x2 = Parameter("x3", xd), Parameter("x2", xd.reshape(28, 6))
        out3 = affine(x3.value, w.value, b.value)
        out2 = affine(x2.value, w.value, b.value)
        assert out3.data.dtype == dtype
        assert np.array_equal(out3.data.reshape(28, 5), out2.data)
        for i in range(4):
            assert np.array_equal(out3.data[i], affine(xd[i], w.value, b.value).data)
        with nm.no_grad():
            assert np.array_equal(affine(xd, w.value, b.value).data, out3.data)
        gx3, gw3, gb3 = out3._vjp(g)
        gx2, gw2, gb2 = out2._vjp(g.reshape(28, 5))
        assert gx3.shape == xd.shape
        assert np.array_equal(gx3.reshape(28, 6), gx2)
        assert np.array_equal(gw3, gw2)
        assert np.array_equal(gb3, gb2)


class TestFrozenOperands:
    def make(self, trainable):
        rng = np.random.default_rng(4)
        w = Parameter("w", rng.normal(size=(3, 2)), trainable=trainable)
        b = Parameter("b", rng.normal(size=2), trainable=trainable)
        return w, b

    def test_affine_vjp_skips_frozen_weight(self):
        w, b = self.make(trainable=False)
        x = Parameter("x", np.ones((4, 3)))
        gx, gw, gb = affine(x.value, w.value, b.value)._vjp(np.ones((4, 2)))
        assert gw is None and gb is None
        assert np.array_equal(gx, np.ones((4, 2)) @ w.value.data.T)

    def test_affine_vjp_skips_constant_input(self):
        w, b = self.make(trainable=True)
        x = np.ones((4, 3))
        gx, gw, gb = affine(x, w.value, b.value)._vjp(np.ones((4, 2)))
        assert gx is None
        assert np.array_equal(gw, x.T @ np.ones((4, 2)))
        assert np.array_equal(gb, np.full(2, 4.0))

    def test_recorded_input_gets_gradient_through_frozen_weight(self):
        w, b = self.make(trainable=False)
        x = Parameter("x", np.ones((4, 3)))
        h = gelu(x.value)
        gx, gw, gb = affine(h, w.value, b.value)._vjp(np.ones((4, 2)))
        assert gx is not None and gw is None and gb is None

    def test_take_rows_and_layer_norm_skip_frozen(self):
        table = Parameter("table", np.ones((5, 3)), trainable=False)
        gain = Parameter("gain", np.ones(3), trainable=False)
        bias = Parameter("bias", np.zeros(3), trainable=False)
        rows = nm.take_rows(table.value, [1, 2])
        assert rows._vjp(np.ones((2, 3))) == (None,)
        x = Parameter("x", np.arange(6.0).reshape(2, 3))
        gx, ggain, gbias = layer_norm(x.value, gain.value, bias.value)._vjp(np.ones((2, 3)))
        assert gx is not None and ggain is None and gbias is None

    def test_constant_scale_mask_and_dropout_get_no_gradient(self):
        x = Parameter("x", np.arange(6.0).reshape(2, 3))
        scaled = nm.mul(x.value, 0.5)
        assert scaled._vjp(np.ones((2, 3)))[1] is None
        masked = nm.add(x.value, np.zeros((1, 3)))
        assert masked._vjp(np.ones((2, 3)))[1] is None
        dropped = nm.mul(x.value, np.ones((2, 3)))
        ga, gb = dropped._vjp(np.ones((2, 3)))
        assert gb is None and np.array_equal(ga, np.ones((2, 3)))

    def test_loss_over_frozen_parameters_backpropagates_zeros(self):
        w, b = self.make(trainable=False)
        table = Parameter("table", np.ones((5, 3)), trainable=False)
        w.gradient = np.full((3, 2), 9.0)
        table.gradient = np.full((5, 3), 9.0)
        h = affine(nm.take_rows(table.value, [0, 4]), w.value, b.value)
        loss = cross_entropy(gelu(h), [0, 1])
        assert loss._parents
        backward_gradients(loss, [w, b, table])
        for p in (w, b, table):
            assert np.array_equal(p.gradient, np.zeros(p.shape)), p.id
        # an op whose operands are all frozen or constant still records
        w1 = Parameter("w1", np.ones((3, 1)), trainable=False)
        b1 = Parameter("b1", np.zeros(1), trainable=False)
        w1.gradient = np.full((3, 1), 9.0)
        loss = affine(np.ones((1, 3)), w1.value, b1.value)
        assert loss._parents
        backward_gradients(loss, [w1, b1])
        assert np.array_equal(w1.gradient, np.zeros((3, 1)))

    def test_trainable_read_at_backward_time(self):
        # a flag flipped between forward and backward takes effect in the backward
        x = Parameter("x", np.arange(12.0).reshape(4, 3))
        w, b = self.make(trainable=True)
        w.gradient = np.full((3, 2), 9.0)
        loss = cross_entropy(affine(x.value, w.value, b.value), [0, 1, 1, 0])
        w.trainable = False
        backward_gradients(loss, [x, w, b])
        assert np.array_equal(w.gradient, np.zeros((3, 2)))
        expected_gb = b.gradient.copy()

        w2, b2 = self.make(trainable=False)
        loss = cross_entropy(affine(x.value, w2.value, b2.value), [0, 1, 1, 0])
        w2.trainable = b2.trainable = True
        backward_gradients(loss, [x, w2, b2])
        assert np.array_equal(b2.gradient, expected_gb)
        w.trainable = True
        loss = cross_entropy(affine(x.value, w.value, b.value), [0, 1, 1, 0])
        backward_gradients(loss, [x, w, b])
        assert np.array_equal(w2.gradient, w.gradient)
        assert not np.array_equal(w.gradient, np.zeros((3, 2)))


class TestSchedule:
    def make_state(self, base=0.1, total=100, warm=0.1):
        return OptimizerState(base_lr=base, total_steps=total, warmup_fraction=warm)

    def test_step_zero(self):
        assert lr_schedule(self.make_state(), 0) == 0.0

    def test_apex_exact(self):
        state = self.make_state(base=0.25, total=200, warm=0.1)
        assert lr_schedule(state, 20) == 0.25

    def test_end_is_zero(self):
        state = self.make_state(total=50)
        assert lr_schedule(state, 50) == 0.0

    def test_piecewise_linear_and_continuous(self):
        state = self.make_state(base=1.0, total=1000, warm=0.3)
        values = [lr_schedule(state, s) for s in range(1001)]
        diffs = np.diff(values)
        # one slope change at the apex, otherwise constant increments
        ramp = diffs[:299]
        decay = diffs[301:]
        assert np.max(np.abs(ramp - ramp[0])) < 1e-12
        assert np.max(np.abs(decay - decay[0])) < 1e-12
        assert max(values) == 1.0

    def test_all_warmup(self):
        # warmup_fraction 1: the ramp runs through step total - 1, then the lr is 0
        state = self.make_state(base=1.0, total=8, warm=1.0)
        assert [lr_schedule(state, s) for s in range(9)] == [s / 8 for s in range(8)] + [0.0]

    def test_no_warmup(self):
        state = self.make_state(base=0.5, total=10, warm=0.0)
        assert lr_schedule(state, 0) == 0.5
        assert lr_schedule(state, 5) == 0.25


class TestAdam:
    def test_zero_gradient_no_change(self):
        p = Parameter("p", np.array([1.0, 2.0]))
        state = OptimizerState(base_lr=0.1, total_steps=10, warmup_fraction=0.0)
        before = p.value.data.copy()
        p.gradient = np.zeros(2)
        adam_step([p], state)
        assert np.array_equal(p.value.data, before)

    def test_single_scalar_matches_hand_computed(self):
        p = Parameter("p", np.array([2.0]))
        state = OptimizerState(base_lr=0.1, total_steps=10, warmup_fraction=0.0)
        p.gradient = np.array([0.5])
        adam_step([p], state)
        # hand-computed: t=1, lr = 0.1 * 9/10 = 0.09
        m = 0.1 * 0.5
        v = 0.001 * 0.25
        m_hat = m / (1 - 0.9)
        v_hat = v / (1 - 0.999)
        expected = 2.0 - 0.09 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert abs(p.value.data[0] - expected) < 1e-15

    def test_frozen_parameter_byte_identical(self):
        p = Parameter("p", np.array([1.0, 2.0, 3.0]), trainable=False)
        q = Parameter("q", np.array([1.0, 2.0, 3.0]))
        state = OptimizerState(base_lr=0.1, total_steps=10, warmup_fraction=0.0)
        before = p.value.data.tobytes()
        p.gradient = np.full(3, 7.0)  # upstream signal that must be ignored
        q.gradient = np.full(3, 7.0)
        adam_step([p, q], state)
        assert p.value.data.tobytes() == before
        assert not np.array_equal(q.value.data, np.array([1.0, 2.0, 3.0]))

    def test_moments_track_parameter_shapes(self):
        p = Parameter("p", np.ones((2, 3)))
        state = OptimizerState(base_lr=0.01, total_steps=5, warmup_fraction=0.2)
        p.gradient = np.ones((2, 3))
        adam_step([p], state)
        assert state.first_moment["p"].shape == (2, 3)
        assert state.second_moment["p"].shape == (2, 3)
        assert state.step == 1


class TestClip:
    def test_clip_scales_to_max_norm(self):
        p = Parameter("p", np.zeros(4))
        p.gradient = np.array([3.0, 4.0, 0.0, 0.0])
        norm = nm.clip_gradients([p], 1.0)
        assert abs(norm - 5.0) < 1e-12
        assert abs(math.sqrt(float((p.gradient**2).sum())) - 1.0) < 1e-12

    def test_below_threshold_untouched(self):
        p = Parameter("p", np.zeros(2))
        p.gradient = np.array([0.3, 0.4])
        nm.clip_gradients([p], 1.0)
        assert np.allclose(p.gradient, [0.3, 0.4])


class TestTensorBasics:
    def test_shape_value_consistency(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.shape == (2, 3)

    def test_take_rows_and_concat_gradients(self):
        table = Parameter("table", np.random.default_rng(0).normal(size=(5, 3)))
        ids = np.array([1, 1, 4])

        def forward():
            rows = nm.take_rows(table.value, ids)
            both = nm.concat([rows, rows], axis=0)
            return sum_all(nm.mul(both, both))

        loss = forward()
        backward_gradients(loss, [table])
        fd = finite_difference(forward, table)
        assert max_rel_err(table.gradient, fd) < 1e-4

    def test_narrow_values_and_gradient(self):
        x = Parameter("x", np.arange(12.0).reshape(3, 4))

        def forward():
            mid = nm.narrow(x.value, 1, 1, 2)
            return sum_all(nm.mul(mid, mid))

        assert np.array_equal(nm.narrow(x.value, 1, 1, 2).data, x.value.data[:, 1:3])
        loss = forward()
        backward_gradients(loss, [x])
        fd = finite_difference(forward, x)
        assert max_rel_err(x.gradient, fd) < 1e-4
        with pytest.raises(nm.ShapeError):
            nm.narrow(x.value, 1, 3, 2)

    def test_float32_lane_no_promotion(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32))
        out = nm.mul(nm.add(a, 1.5), 2.0)
        assert out.data.dtype == np.float32


def _forward(x, w, b):
    """A small chain through every op kind the encoder uses."""
    h = nm.gelu(affine(x, w, b))
    h = layer_norm(nm.add(h, x), nm.Tensor(np.ones(3)), nm.Tensor(np.zeros(3)))
    h = softmax_rows(nm.matmul(h, nm.transpose(h)))
    h = nm.reshape(nm.swapaxes(nm.concat([h, h], axis=0), 0, 1), (4, 2))
    h = nm.mul(nm.narrow(h, 0, 1, 2), 2.0)
    h = nm.take_rows(h, [1, 0])
    return sum_all(h), cross_entropy(h, [0, 1])


class TestNoGrad:
    def make(self):
        rng = np.random.default_rng(0)
        return (Parameter("x", rng.normal(size=(2, 3))), Parameter("w", rng.normal(size=(3, 3))),
                Parameter("b", rng.normal(size=3)))

    def test_ops_record_nothing(self):
        x, w, b = self.make()
        with nm.no_grad():
            outs = _forward(x.value, w.value, b.value)
        for out in outs:
            assert out._parents == () and out._vjp is None
            with pytest.raises(nm.StateError):
                backward_gradients(out, [x, w, b])

    def test_same_values_as_recorded_forward(self):
        x, w, b = self.make()
        recorded = _forward(x.value, w.value, b.value)
        with nm.no_grad():
            bare = _forward(x.value, w.value, b.value)
        for r, n in zip(recorded, bare):
            assert r._parents and np.array_equal(r.data, n.data)

    def test_restored_after_exception(self):
        x, w, b = self.make()
        with pytest.raises(RuntimeError):
            with nm.no_grad():
                raise RuntimeError("inside")
        _, loss = _forward(x.value, w.value, b.value)
        backward_gradients(loss, [x, w, b])
        assert np.any(w.gradient != 0)

    def test_nesting(self):
        x, w, b = self.make()
        with nm.no_grad():
            with nm.no_grad():
                assert affine(x.value, w.value, b.value)._parents == ()
            assert affine(x.value, w.value, b.value)._parents == ()
        assert affine(x.value, w.value, b.value)._parents != ()

    def test_per_op_check_skipped_and_caller_check(self):
        x, w, b = self.make()
        w.value.data[0, 0] = np.nan
        with pytest.raises(nm.NumericError):
            affine(x.value, w.value, b.value)
        with nm.no_grad():
            out = nm.gelu(affine(x.value, w.value, b.value))
        with pytest.raises(nm.NumericError):
            nm.check_finite(out, "forward")
        nm.check_finite(x.value, "input")


# every op, as a function of its tensor operands, and the shapes of those operands
OP_CASES = {
    "add": (nm.add, [(2, 3), (2, 3)]),
    "mul": (nm.mul, [(2, 3), (1, 3)]),
    "matmul": (nm.matmul, [(2, 3), (3, 2)]),
    "affine": (nm.affine, [(2, 3), (3, 4), (4,)]),
    "transpose": (nm.transpose, [(2, 3)]),
    "swapaxes": (lambda a: nm.swapaxes(a, 0, 1), [(2, 3)]),
    "reshape": (lambda a: nm.reshape(a, (3, 2)), [(2, 3)]),
    "concat": (lambda a, b: nm.concat([a, b], axis=0), [(2, 3), (1, 3)]),
    "narrow": (lambda a: nm.narrow(a, 1, 1, 2), [(2, 3)]),
    "take_rows": (lambda t: nm.take_rows(t, [1, 0, 1]), [(2, 3)]),
    "softmax_rows": (nm.softmax_rows, [(2, 3)]),
    "layer_norm": (nm.layer_norm, [(2, 3), (3,), (3,)]),
    "gelu": (nm.gelu, [(2, 3)]),
    "cross_entropy": (lambda logits: nm.cross_entropy(logits, [0, 2]), [(2, 3)]),
}
CHECKED_OPS = ("affine", "softmax_rows", "layer_norm", "gelu", "cross_entropy")


def op_operands(shapes):
    rng = np.random.default_rng(3)
    return [Tensor(rng.normal(size=shape)) for shape in shapes]


class TestOpContract:
    """Each op ends in `_record`: a leaf under no_grad, else a node over its
    operands; the checked ops also reject a non-finite result when recorded."""

    def test_cases_cover_every_op(self):
        ops = {name for name, fn in inspect.getmembers(nm, inspect.isfunction)
               if fn.__module__ == nm.__name__ and "return _record(" in inspect.getsource(fn)}
        assert ops == set(OP_CASES)

    @pytest.mark.parametrize("name", OP_CASES)
    def test_leaf_under_no_grad(self, name):
        op, shapes = OP_CASES[name]
        with nm.no_grad():
            out = op(*op_operands(shapes))
        assert out._parents == () and out._vjp is None

    @pytest.mark.parametrize("name", OP_CASES)
    def test_recorded_over_its_operands(self, name):
        op, shapes = OP_CASES[name]
        operands = op_operands(shapes)
        out = op(*operands)
        assert len(out._parents) == len(operands)
        assert all(p is o for p, o in zip(out._parents, operands))
        assert callable(out._vjp)

    @pytest.mark.parametrize("name", CHECKED_OPS)
    def test_nan_input_raises_only_when_recorded(self, name):
        op, shapes = OP_CASES[name]
        operands = op_operands(shapes)
        operands[0].data[0, 0] = np.nan
        with pytest.raises(nm.NumericError, match=name):
            op(*operands)
        with nm.no_grad():
            out = op(*operands)
        assert not np.all(np.isfinite(out.data))


class TestParameterLifetime:
    def test_freed_without_cyclic_gc(self):
        import gc
        import weakref

        from vqgen import model as md

        cfg = md.ModelConfig(num_layers=1, num_heads=2, model_dim=8, ffn_dim=16, vocab_size=12,
                             max_positions=8, feature_dim=4, num_regions=2)
        enabled = gc.isenabled()
        gc.disable()
        try:
            params = md.init_parameters(cfg, 0)
            p = params["layer0.ffn.w1"]
            assert p.value.param.id == "layer0.ffn.w1"
            assert p.value.param.trainable is True
            assert p.value.param.gradient is p.gradient
            array = weakref.ref(p.value.data)
            del p, params
            assert array() is None
        finally:
            if enabled:
                gc.enable()
