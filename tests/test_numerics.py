"""Primitive-level forward values, tape gradients, and RNG contracts."""

import numpy as np
import pytest

import prosody_ddpm.numerics as nm
from prosody_ddpm.numerics import NonFiniteError, Rng, ShapeError, Tape, Tensor

from conftest import fd_check


class TestForwardValues:
    def test_tanh_sigmoid_at_zero(self):
        z = Tensor(np.zeros(4))
        assert np.all(nm.tanh(z).data == 0.0)
        assert np.all(nm.sigmoid(z).data == 0.5)

    def test_relu(self):
        x = Tensor([-2.0, 0.0, 3.0])
        assert nm.relu(x).data.tolist() == [0.0, 0.0, 3.0]

    def test_matmul_identity(self, rng):
        x = rng.normal((4, 7))
        out = nm.matmul(Tensor(np.eye(4)), Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_matmul_shape_error_names_op(self):
        with pytest.raises(ShapeError, match="matmul"):
            nm.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_conv_preserves_length(self, rng):
        x = Tensor(rng.normal((8, 2)))
        w = Tensor(rng.normal((3, 2, 5)))
        for dilation in (1, 2, 3):
            assert nm.conv1d_dilated(x, w, dilation=dilation).shape == (8, 5)

    def test_conv_even_kernel_rejected(self, rng):
        with pytest.raises(ShapeError, match="odd"):
            nm.conv1d_dilated(Tensor(rng.normal((8, 2))), Tensor(rng.normal((4, 2, 2))))

    def test_conv_matches_direct_convolution(self, rng):
        # Independent oracle: explicit loop over taps with zero padding.
        # The last three cases have dilation >= length, where every
        # off-centre tap sees only padding.
        cases = [((9, 3), 3, 2), ((9, 3), 5, 3), ((2, 7, 3), 5, 2), ((4, 3), 3, 4), ((4, 3), 3, 6),
                 ((4, 3), 5, 9)]
        for shape, kernel, dilation in cases:
            x = rng.normal(shape)
            w = rng.normal((kernel, 3, 4))
            b = rng.normal(4)
            out = nm.conv1d_dilated(Tensor(x), Tensor(w), Tensor(b), dilation=dilation).data
            length = shape[-2]
            expect = np.zeros(shape[:-1] + (4,)) + b
            for pos in range(length):
                for k in range(kernel):
                    src = pos + (k - kernel // 2) * dilation
                    if 0 <= src < length:
                        expect[..., pos, :] += x[..., src, :] @ w[k]
            np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_conv_shift_equivariance(self, rng):
        # Non-causal: shifting the input right by k shifts the output right
        # by k away from the padded boundary.
        w = Tensor(rng.normal((3, 2, 2)))
        base = rng.normal((30, 2))
        x1 = np.zeros((40, 2))
        x2 = np.zeros((40, 2))
        x1[2:32] = base
        x2[5:35] = base
        y1 = nm.conv1d_dilated(Tensor(x1), w, dilation=2).data
        y2 = nm.conv1d_dilated(Tensor(x2), w, dilation=2).data
        np.testing.assert_allclose(y1[4:30], y2[7:33], atol=1e-12)

    def test_layer_norm_statistics(self, rng):
        x = Tensor(rng.normal((6, 16)) * 3.0 + 1.0)
        out = nm.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16))).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_embed_lookup_and_bounds(self, rng):
        table = Tensor(rng.normal((5, 3)))
        out = nm.embed_lookup(table, np.array([0, 4, 2]))
        np.testing.assert_array_equal(out.data, table.data[[0, 4, 2]])
        with pytest.raises(ShapeError, match="ids outside"):
            nm.embed_lookup(table, np.array([5]))

    def test_dropout_modes(self, rng):
        x = Tensor(np.ones((200, 10)))
        out_eval = nm.dropout(x, 0.5, rng, training=False)
        assert out_eval is x
        out_train = nm.dropout(x, 0.5, rng, training=True).data
        kept = out_train != 0.0
        assert 0.35 < kept.mean() < 0.65
        np.testing.assert_allclose(out_train[kept], 2.0)

    def test_add_broadcasting_mismatch(self):
        with pytest.raises(ShapeError, match="broadcast"):
            nm.add(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))


class TestBackward:
    def test_quadratic_gradient(self):
        w = Tensor([1.0, 2.0, 3.0])
        with Tape() as tape:
            loss = nm.sum(nm.mul(w, w))
        grads = nm.backward(tape, loss)
        np.testing.assert_allclose(grads.wrt(w), [2.0, 4.0, 6.0])

    def test_relu_mean_gradient(self):
        w = Tensor([-1.0, 1.0])
        with Tape() as tape:
            loss = nm.mean(nm.relu(w))
        grads = nm.backward(tape, loss)
        np.testing.assert_allclose(grads.wrt(w), [0.0, 0.5])

    def test_unreachable_parameter_gets_zeros(self):
        w1 = Tensor([1.0, 2.0])
        w2 = Tensor([3.0, 4.0])
        with Tape() as tape:
            loss = nm.sum(nm.mul(w1, w1))
        grads = nm.backward(tape, loss)
        assert w2 not in grads
        np.testing.assert_array_equal(grads.wrt(w2), [0.0, 0.0])

    def test_non_scalar_loss_rejected(self):
        w = Tensor([1.0, 2.0])
        with Tape() as tape:
            y = nm.mul(w, w)
        with pytest.raises(ShapeError, match="scalar"):
            nm.backward(tape, y)

    def test_two_layer_network_finite_differences(self, rng):
        # Random 2-layer network; every parameter checked against central
        # differences.
        x = rng.normal((5, 4))
        target = rng.normal((5, 2))
        tensors = {
            "w1": Tensor(rng.normal((4, 8)) * 0.5),
            "b1": Tensor(rng.normal(8) * 0.1),
            "w2": Tensor(rng.normal((8, 2)) * 0.5),
            "b2": Tensor(rng.normal(2) * 0.1),
        }

        def loss_fn(p):
            h = nm.tanh(nm.add(nm.matmul(Tensor(x), p["w1"]), p["b1"]))
            out = nm.add(nm.matmul(h, p["w2"]), p["b2"])
            d = nm.sub(out, Tensor(target))
            return nm.mean(nm.mul(d, d))

        fd_check(loss_fn, tensors)

    @pytest.mark.parametrize(
        "name",
        ["add", "sub", "mul", "tanh", "sigmoid", "relu", "matmul", "conv", "conv_dil",
         "layer_norm", "embed", "dropout", "sum", "mean", "gated_tanh", "concat", "matmul_bias"],
    )
    def test_every_primitive_finite_differences(self, name, rng):
        x = Tensor(rng.normal((4, 6)) + 0.3)  # offset keeps relu off its kink
        y = Tensor(rng.normal((4, 6)))
        builders = {
            "add": ({"a": x, "b": y}, lambda p: nm.mean(nm.add(p["a"], p["b"]))),
            "sub": ({"a": x, "b": y}, lambda p: nm.mean(nm.mul(nm.sub(p["a"], p["b"]), nm.sub(p["a"], p["b"])))),
            "mul": ({"a": x, "b": y}, lambda p: nm.mean(nm.mul(p["a"], p["b"]))),
            "tanh": ({"a": x}, lambda p: nm.mean(nm.tanh(p["a"]))),
            "sigmoid": ({"a": x}, lambda p: nm.mean(nm.sigmoid(p["a"]))),
            "relu": ({"a": x}, lambda p: nm.mean(nm.relu(p["a"]))),
            "matmul": (
                {"a": x, "w": Tensor(rng.normal((6, 3)))},
                lambda p: nm.mean(nm.matmul(p["a"], p["w"])),
            ),
            "conv": (
                {"a": x, "w": Tensor(rng.normal((3, 6, 2))), "b": Tensor(rng.normal(2))},
                lambda p: nm.mean(nm.tanh(nm.conv1d_dilated(p["a"], p["w"], p["b"]))),
            ),
            "conv_dil": (
                {"a": x, "w": Tensor(rng.normal((5, 6, 2)))},
                lambda p: nm.mean(nm.mul(nm.conv1d_dilated(p["a"], p["w"], dilation=3),
                                         nm.conv1d_dilated(p["a"], p["w"], dilation=3))),
            ),
            "layer_norm": (
                {"a": x, "g": Tensor(rng.normal(6) + 1.0), "b": Tensor(rng.normal(6))},
                lambda p: nm.mean(nm.mul(nm.layer_norm(p["a"], p["g"], p["b"]),
                                         nm.layer_norm(p["a"], p["g"], p["b"]))),
            ),
            "embed": (
                {"t": Tensor(rng.normal((5, 4)))},
                lambda p: nm.mean(nm.mul(nm.embed_lookup(p["t"], np.array([0, 2, 2, 4])),
                                         nm.embed_lookup(p["t"], np.array([0, 2, 2, 4])))),
            ),
            # A fixed seed per evaluation keeps the dropout mask identical
            # across the perturbed forward passes.
            "dropout": (
                {"a": x},
                lambda p: nm.mean(nm.mul(nm.dropout(p["a"], 0.4, Rng(99), True),
                                         nm.dropout(p["a"], 0.4, Rng(98), True))),
            ),
            "sum": ({"a": x}, lambda p: nm.sum(nm.mul(p["a"], p["a"]))),
            "mean": ({"a": x}, lambda p: nm.mean(nm.mul(p["a"], 2.5))),
            "gated_tanh": (
                {"a": x},
                lambda p: nm.mean(nm.mul(nm.gated_tanh(p["a"]), nm.gated_tanh(p["a"]))),
            ),
            # Distinct weights per column tell the joined slices apart.
            "concat": (
                {"a": x, "b": Tensor(rng.normal((4, 2)))},
                lambda p, wc=Tensor(rng.normal((4, 8))): nm.mean(
                    nm.mul(nm.concat([p["a"], p["b"]]), wc)
                ),
            ),
            "matmul_bias": (
                {"a": x, "w": Tensor(rng.normal((6, 3))), "b": Tensor(rng.normal(3))},
                lambda p: nm.mean(nm.mul(nm.matmul(p["a"], p["w"], p["b"]),
                                         nm.matmul(p["a"], p["w"], p["b"]))),
            ),
        }
        tensors, fn = builders[name]
        fd_check(fn, tensors)

    def test_batched_3d_gradients(self, rng):
        tensors = {
            "w": Tensor(rng.normal((3, 4, 5))),
            "b": Tensor(rng.normal(5)),
            "x": Tensor(rng.normal((2, 6, 4))),
        }

        def fn(p):
            y = nm.conv1d_dilated(p["x"], p["w"], p["b"], dilation=2)
            return nm.mean(nm.mul(y, y))

        fd_check(fn, tensors)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nan_forward_is_hard_error(self):
        big = Tensor(np.full((4,), 1e308))
        with pytest.raises(NonFiniteError, match="mul"):
            nm.mul(big, big)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nan_error_names_offending_primitive(self):
        with pytest.raises(NonFiniteError) as exc:
            nm.add(Tensor(np.full(3, 1e308)), Tensor(np.full(3, 1e308)))
        assert exc.value.op == "add"

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nan_gradient_names_offending_primitive(self):
        # Forward stays finite (1e-300 * 1e200 * 1e200 = 1e100) but the
        # input gradient of the first matmul overflows.
        x = Tensor(np.full((1, 1), 1e-300))
        w1 = Tensor(np.full((1, 1), 1e200))
        w2 = Tensor(np.full((1, 1), 1e200))
        with Tape() as tape:
            loss = nm.sum(nm.matmul(nm.matmul(x, w1), w2))
        with pytest.raises(NonFiniteError) as exc:
            nm.backward(tape, loss)
        assert exc.value.op == "matmul"
        assert exc.value.where == "backward"

    def test_tape_confined_to_thread(self):
        with Tape():
            with pytest.raises(RuntimeError, match="already active"):
                with Tape():
                    pass

    def test_determinism_bitwise(self, rng):
        def run():
            r = Rng(5)
            x = Tensor(r.normal((6, 4)))
            w = Tensor(r.normal((4, 4)))
            with Tape() as tape:
                y = nm.tanh(nm.matmul(x, w))
                loss = nm.mean(nm.mul(y, y))
            g = nm.backward(tape, loss)
            return loss.item(), g.wrt(w).copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)


class TestRng:
    def test_same_seed_same_draws(self):
        a = nm.gaussian(Rng(42), (10,)).data
        b = nm.gaussian(Rng(42), (10,)).data
        np.testing.assert_array_equal(a, b)

    def test_shape_contract(self):
        assert nm.gaussian(Rng(0), (3, 5)).data.size == 15

    def test_law_of_large_numbers(self):
        x = nm.gaussian(Rng(7), (1_000_000,)).data
        assert abs(x.mean()) < 0.01
        assert abs(x.var() - 1.0) < 0.01

    def test_state_roundtrip(self):
        r = Rng(3)
        r.normal(17)
        state = r.state()
        a = r.normal(5)
        r2 = Rng(999)
        r2.set_state(state)
        np.testing.assert_array_equal(a, r2.normal(5))


class TestTensor:
    def test_immutable_buffer(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    def test_non_finite_leaf_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, np.nan])


# -- masked MSE reference ---------------------------------------------------
#
# The two losses as first written, each with its own masking: the ddpm loss
# zeroed padded targets before the squared error, the baseline summed one
# masked squared error per head.  Both now go through ``nm.masked_mse`` and
# must give the same gradients bit for bit.


def _reference_ddpm_loss(model, x0, cond, t, eps, sched, mask):
    from prosody_ddpm.diffusion import forward_diffuse

    m3 = mask[..., None]
    x_t = forward_diffuse(x0, t, eps, sched) * m3
    eps_hat = model.forward(Tensor(x_t), model.condition(cond), model.steps(t))
    diff = nm.sub(eps_hat, Tensor(eps * m3))
    sq = nm.mul(diff, diff)
    count = float(mask.sum()) * x0.shape[-1]
    return nm.mul(nm.sum(nm.mul(sq, Tensor(m3))), 1.0 / count)


def _reference_baseline_loss(model, cond, target, mask, rng, training):
    from prosody_ddpm.baseline import HEADS

    count = float(mask.sum())
    m1 = Tensor(mask[..., None])
    total = None
    for d, head in enumerate(HEADS):
        pred = model.head_forward(head, cond, rng, training)
        diff = nm.sub(pred, Tensor(target[..., d : d + 1]))
        part = nm.sum(nm.mul(nm.mul(diff, diff), m1))
        total = part if total is None else nm.add(total, part)
    return nm.mul(total, 1.0 / (count * len(HEADS)))


def _loss_and_grads(make_loss, tensors):
    with Tape() as tape:
        loss = make_loss()
    grads = nm.backward(tape, loss)
    return loss.item(), {k: grads.wrt(v) for k, v in tensors.items()}


def test_masked_mse_matches_per_loss_references(rng):
    from prosody_ddpm.baseline import BaselineConfig, BaselineNet, baseline_loss_graph
    from prosody_ddpm.denoiser import Denoiser, DenoiserConfig
    from prosody_ddpm.diffusion import linear_schedule, training_loss_graph

    from conftest import jitter_params

    mask = np.array([[1, 1, 1, 1, 1], [1, 1, 0, 0, 0], [1, 1, 1, 1, 0]], dtype=float)
    cond = Tensor(rng.normal((3, 5, 4)) * mask[..., None])
    target = rng.normal((3, 5, 3))
    # Junk at padded positions must not reach either loss.
    target[mask == 0] = 7.0

    den = Denoiser.init(DenoiserConfig(channels=6, layers=2, dilation_cycle=(1, 2), cond_dim=4,
                                       step_hidden=8), rng)
    jitter_params(den.params, rng)
    sched = linear_schedule(30, 1e-3, 0.2)
    x0, t = rng.normal((3, 5, 3)), np.array([3, 17, 30])
    leaves = {**den.params, "cond": cond}
    want = _loss_and_grads(
        lambda: _reference_ddpm_loss(den, x0, cond, t, target, sched, mask), leaves
    )
    got = _loss_and_grads(lambda: training_loss_graph(den, x0, cond, t, target, sched, mask), leaves)
    assert abs(got[0] - want[0]) <= 1e-15
    for k in leaves:
        assert np.array_equal(got[1][k], want[1][k]), k

    net = BaselineNet.init(BaselineConfig(cond_dim=4, width=6, dropout=0.3), rng)
    jitter_params(net.params, rng)
    leaves = {**net.params, "cond": cond}
    for training in (False, True):
        want = _loss_and_grads(
            lambda: _reference_baseline_loss(net, cond, target, mask, Rng(5), training), leaves
        )
        got = _loss_and_grads(
            lambda: baseline_loss_graph(net, cond, target, mask, Rng(5), training), leaves
        )
        assert abs(got[0] - want[0]) <= 1e-15
        for k in leaves:
            assert np.array_equal(got[1][k], want[1][k]), (training, k)

    losses = {
        "training_loss": lambda m: training_loss_graph(den, x0, cond, t, target, sched, m),
        "baseline_loss": lambda m: baseline_loss_graph(net, cond, target, m, Rng(5), True),
    }
    for name, loss in losses.items():
        with pytest.raises(ValueError, match=f"{name}: mask excludes every position"):
            loss(np.zeros((3, 5)))
        with pytest.raises(ShapeError, match=f"{name}: mask"):
            loss(np.ones((3, 4)))
