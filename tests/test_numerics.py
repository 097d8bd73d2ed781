"""Primitive-level forward values, tape gradients, and RNG contracts."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
        # The three cases of length 4 have dilation >= length, where every
        # off-centre tap sees only padding.  The last two take a
        # per-position bias, one broadcast over the batch.
        cases = [((9, 3), 3, 2, (4,)), ((9, 3), 5, 3, (4,)), ((2, 7, 3), 5, 2, (4,)),
                 ((4, 3), 3, 4, (4,)), ((4, 3), 3, 6, (4,)), ((4, 3), 5, 9, (4,)),
                 ((2, 7, 3), 5, 2, (7, 4)), ((2, 7, 3), 3, 4, (2, 7, 4))]
        for shape, kernel, dilation, bias_shape in cases:
            x = rng.normal(shape)
            w = rng.normal((kernel, 3, 4))
            b = rng.normal(bias_shape)
            out = nm.conv1d_dilated(Tensor(x), Tensor(w), Tensor(b), dilation=dilation).data
            length = shape[-2]
            expect = np.zeros(shape[:-1] + (4,)) + b
            for pos in range(length):
                for k in range(kernel):
                    src = pos + (k - kernel // 2) * dilation
                    if 0 <= src < length:
                        expect[..., pos, :] += x[..., src, :] @ w[k]
            np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_conv_bias_shape_errors(self, rng):
        x, w = Tensor(rng.normal((2, 5, 3))), Tensor(rng.normal((3, 3, 4)))
        for shape in [(3,), (4, 1), (2, 5, 3)]:
            with pytest.raises(ShapeError, match="out channels 4"):
                nm.conv1d_dilated(x, w, Tensor(np.zeros(shape)))
        for shape in [(4, 4), (3, 5, 4), (1, 2, 5, 4)]:
            with pytest.raises(ShapeError, match="does not fit"):
                nm.conv1d_dilated(x, w, Tensor(np.zeros(shape)))

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
        np.testing.assert_array_equal(grads.wrt(w2), [0.0, 0.0])

    def test_non_scalar_loss_rejected(self):
        w = Tensor([1.0, 2.0])
        with Tape() as tape:
            y = nm.mul(w, w)
        with pytest.raises(ShapeError, match="scalar"):
            nm.backward(tape, y)

    def test_gradients_keep_leaves_only(self, rng):
        # The leaf w feeds two primitives and the intermediate h is read by
        # two; only the leaves keep gradients, and the sweep leaves the tape
        # as it was.
        tensors = {"w": Tensor(rng.normal((3, 4))), "x": Tensor(rng.normal((2, 3)))}

        def loss_fn(p):
            h = nm.tanh(nm.matmul(p["x"], p["w"]))
            return nm.add(nm.mean(nm.mul(h, nm.sigmoid(h))), nm.sum(nm.mul(p["w"], 0.1)))

        with Tape() as tape:
            loss = loss_fn(tensors)
        recorded = list(tape.records)
        h = recorded[1][1]
        grads = nm.backward(tape, loss)
        assert tape.records == recorded
        assert set(grads._accum) == {id(tensors["w"]), id(tensors["x"])}
        np.testing.assert_array_equal(grads.wrt(h), np.zeros(h.shape))
        fd_check(loss_fn, tensors)

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
        ["add", "sub", "mul", "tanh", "sigmoid", "relu", "silu", "matmul", "conv", "conv_dil",
         "layer_norm", "embed", "dropout", "sum", "mean", "gated_tanh", "concat", "matmul_bias",
         "conv_bias_rows", "conv_bias_broadcast", "conv_bias_per_row", "matmul_relu_res",
         "conv_relu", "conv_silu", "matmul_heads", "conv_heads", "layer_norm_heads"],
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
            "silu": (
                {"a": x, "w": Tensor(rng.normal((6, 6))), "b": Tensor(rng.normal(6))},
                lambda p: nm.mean(nm.mul(nm.matmul(p["a"], p["w"], p["b"], act="silu"), y)),
            ),
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
                {"a": x, "w": Tensor(rng.normal((3, 6, 4))), "b": Tensor(rng.normal(4))},
                lambda p: nm.mean(nm.mul(nm.conv1d_dilated(p["a"], p["w"], p["b"], act="gate"),
                                         nm.conv1d_dilated(p["a"], p["w"], p["b"], act="gate"))),
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
            # The residual broadcasts over the rows.
            "matmul_relu_res": (
                {"a": x, "w": Tensor(rng.normal((6, 3))), "b": Tensor(rng.normal(3)),
                 "r": Tensor(rng.normal(3))},
                lambda p, wo=Tensor(rng.normal((4, 3))): nm.mean(
                    nm.mul(nm.matmul(p["a"], p["w"], p["b"], act="relu", res=p["r"]), wo)
                ),
            ),
            "matmul_heads": (
                {"a": x, "w": Tensor(rng.normal((2, 3, 2))), "b": Tensor(rng.normal(4))},
                lambda p: nm.mean(nm.mul(nm.matmul(p["a"], p["w"], p["b"]),
                                         nm.matmul(p["a"], p["w"], p["b"]))),
            ),
            "layer_norm_heads": (
                {"a": x, "g": Tensor(rng.normal((2, 3)) + 1.0), "b": Tensor(rng.normal((2, 3)))},
                lambda p, wo=Tensor(rng.normal((4, 6))): nm.mean(
                    nm.mul(nm.layer_norm(p["a"], p["g"], p["b"]), wo)
                ),
            ),
        }
        # Broadcast conv biases: one per row and position, one per position
        # shared by the rows, and one per row shared by the positions.
        # Kernel 5 at dilation 2 skips the outer taps of a 4-long input.
        x3, w5 = Tensor(rng.normal((2, 4, 6))), Tensor(rng.normal((5, 6, 2)))
        for key, bias_shape in [("conv_bias_rows", (2, 4, 2)), ("conv_bias_broadcast", (4, 2)),
                                ("conv_bias_per_row", (2, 1, 2))]:
            builders[key] = (
                {"a": x3, "w": w5, "b": Tensor(rng.normal(bias_shape))},
                lambda p: nm.mean(nm.tanh(nm.conv1d_dilated(p["a"], p["w"], p["b"], dilation=2))),
            )
        for key, act in [("conv_relu", "relu"), ("conv_silu", "silu")]:
            builders[key] = (
                {"a": x3, "w": w5, "b": Tensor(rng.normal(2))},
                lambda p, act=act, wo=Tensor(rng.normal((2, 4, 2))): nm.mean(
                    nm.mul(nm.conv1d_dilated(p["a"], p["w"], p["b"], dilation=2, act=act), wo)
                ),
            )
        # Two heads of kernel 5 at dilation 2 on 4 positions skip the outer taps.
        builders["conv_heads"] = (
            {"a": x3, "w": Tensor(rng.normal((2, 5, 3, 2))), "b": Tensor(rng.normal(4))},
            lambda p: nm.mean(nm.tanh(nm.conv1d_dilated(p["a"], p["w"], p["b"], dilation=2))),
        )
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
        x, w = Tensor(np.full((4, 2), 1e200)), Tensor(np.full((1, 2, 2), 1e200))
        cases = [
            ("add", lambda: nm.add(Tensor(np.full(3, 1e308)), Tensor(np.full(3, 1e308)))),
            # tanh(inf) == 1, so the gate alone would hide the conv's overflow:
            # the check must catch it where it is made, with no tape recording.
            ("conv1d_dilated", lambda: nm.conv1d_dilated(x, w, act="gate")),
            # relu(-inf) == 0 hides it as well.
            ("matmul", lambda: nm.matmul(x, Tensor(np.full((2, 2), -1e200)), act="relu")),
        ]
        for op, make in cases:
            assert nm._active_tape() is None
            with pytest.raises(NonFiniteError) as exc:
                make()
            assert exc.value.op == op

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
        a = Rng(42).normal((10,))
        b = Rng(42).normal((10,))
        np.testing.assert_array_equal(a, b)

    def test_shape_contract(self):
        assert Rng(0).normal((3, 5)).shape == (3, 5)

    def test_law_of_large_numbers(self):
        x = Rng(7).normal((1_000_000,))
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

    @given(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=1, max_size=8).filter(any),
        st.integers(0, 2**32),
    )
    @example([1.0], 0)
    @example([0.0, 0.5, 0.0, 0.5, 0.0], 1)
    @settings(max_examples=200, deadline=None)
    def test_categorical_matches_generator_choice(self, weights, seed):
        p = np.array(weights) / sum(weights)
        cdf = p.cumsum()
        cdf /= cdf[-1]
        r = Rng(seed)
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        for _ in range(5):
            assert r.categorical(cdf) == gen.choice(len(p), p=p)
            assert r.state() == gen.bit_generator.state


class TestTensor:
    def test_immutable_buffer(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    def test_non_finite_leaf_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, np.nan])

    def test_finite_leaf_whose_sum_overflows_is_accepted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = Tensor(np.full(3, 1e308))
        assert t.data.tolist() == [1e308] * 3


def _primitive_calls(rng, leaf=Tensor):
    """``(name, call, ops it records, writeable arrays it is handed)`` for
    every primitive and every epilogue and head-axis form, including a 0-d
    ``mul(sum(x), k)``.  ``leaf`` makes the input tensors from their arrays,
    always in this order: ``x``, ``z``, ``y``, ``w``, ``b``, ``cw``, ``cb``,
    ``table``, ``g``, ``hw``, ``hcw``, ``hg``."""
    x = leaf(rng.normal((2, 4, 6)))
    z = leaf(rng.normal((2, 4, 6)))
    y = leaf(rng.normal(6))
    w, b = leaf(rng.normal((6, 3))), leaf(rng.normal(3))
    cw, cb = leaf(rng.normal((3, 6, 4))), leaf(rng.normal(4))
    table = leaf(rng.normal((5, 6)))
    g = leaf(rng.normal(6))
    hw, hcw = leaf(rng.normal((2, 3, 2))), leaf(rng.normal((2, 3, 3, 2)))
    hg = leaf(rng.normal((2, 3)))
    ids = np.array([[0, 4, 2], [1, 1, 3]])
    target = rng.normal((2, 4, 6))
    return [
        ("add", lambda: nm.add(x, y), ["add"], []),
        ("add_const", lambda: nm.add(x, 1.5), ["add"], []),
        ("sub", lambda: nm.sub(x, z), ["sub"], []),
        ("mul", lambda: nm.mul(x, z), ["mul"], []),
        ("tanh", lambda: nm.tanh(x), ["tanh"], []),
        ("sigmoid", lambda: nm.sigmoid(x), ["sigmoid"], []),
        ("relu", lambda: nm.relu(x), ["relu"], []),
        ("silu", lambda: nm.matmul(x, w, b, act="silu"), ["matmul"], []),
        ("matmul", lambda: nm.matmul(x, w, b), ["matmul"], []),
        ("matmul_relu_res", lambda: nm.matmul(x, w, b, act="relu", res=b), ["matmul"], []),
        ("matmul_heads", lambda: nm.matmul(x, hw, cb, act="relu"), ["matmul"], []),
        ("concat", lambda: nm.concat([x, z]), ["concat"], []),
        ("gated_tanh", lambda: nm.conv1d_dilated(x, cw, cb, dilation=2, act="gate"),
         ["conv1d_dilated"], []),
        ("conv1d_dilated", lambda: nm.conv1d_dilated(x, cw, cb, dilation=2), ["conv1d_dilated"], []),
        ("conv_heads", lambda: nm.conv1d_dilated(x, hcw, cb, act="silu"), ["conv1d_dilated"], []),
        ("layer_norm", lambda: nm.layer_norm(x, g, y), ["layer_norm"], []),
        ("layer_norm_heads", lambda: nm.layer_norm(x, hg, hg), ["layer_norm"], []),
        ("dropout", lambda: nm.dropout(x, 0.5, Rng(3), True), ["dropout"], []),
        ("embed_lookup", lambda: nm.embed_lookup(table, ids), ["embed_lookup"], [ids]),
        ("sum", lambda: nm.sum(x), ["sum"], []),
        ("mean", lambda: nm.mean(x), ["mean"], []),
        ("mul_0d", lambda: nm.mul(nm.sum(x), 2.0), ["sum", "mul"], []),
        ("mse", lambda: nm.mse(x, target, "loss"), ["sub", "mul", "mean"], [target]),
    ]


@pytest.mark.parametrize("name", [case[0] for case in _primitive_calls(Rng(0))])
def test_primitive_outputs_follow_tensor_conventions(name, rng):
    # Primitives wrap their fresh outputs without Tensor's re-validation, so
    # each must hand over an array that already meets the conventions.
    call, ops, writeable = next(case[1:] for case in _primitive_calls(rng) if case[0] == name)
    with Tape() as finished:
        pass
    untaped = call()
    assert finished.records == [] and nm._active_tape() is None
    with Tape() as tape:
        taped = call()
    assert [rec[0] for rec in tape.records] == ops
    assert tape.records[-1][1] is taped
    for out in (untaped, taped):
        arr = out.data
        assert type(arr) is np.ndarray and arr.dtype == np.float64
        assert arr.flags.c_contiguous and arr.flags.owndata and not arr.flags.writeable
        assert not any(np.shares_memory(arr, a) for a in writeable)
    assert all(a.flags.writeable for a in writeable)  # inputs are not adopted
    assert np.array_equal(untaped.data, taped.data)


# -- Bounds -------------------------------------------------------------------
#
# With no tape, an output whose bound proves it finite is not scanned.  The
# taped path scans every output, so it is the oracle: both paths must raise
# at the same primitive or return the same values.

N_LEAVES = 12  # the inputs ``_primitive_calls`` makes


def _outcome(call, taped: bool):
    """The call's output, or the ``op`` of the NonFiniteError it raises."""
    try:
        if not taped:
            return call()
        with Tape():
            return call()
    except NonFiniteError as exc:
        return exc.op


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid")
@pytest.mark.parametrize("scale", [1.0, 1e149, 1e150, 1e299, 1e300])
def test_untaped_bound_holds_and_raises_as_taped(scale, rng):
    for name, call, ops, _ in _primitive_calls(rng, lambda a: Tensor(a * scale)):
        untaped, taped = _outcome(call, False), _outcome(call, True)
        if isinstance(taped, str):
            assert untaped == taped, name
            continue
        assert np.array_equal(untaped.data, taped.data), name
        assert taped.bound is None, name  # no bound is evaluated under a tape
        assert untaped.bound is None or untaped.bound >= np.abs(untaped.data).max(), name


@pytest.mark.parametrize("poisoned", range(N_LEAVES))
def test_untaped_nan_leaf_raises_at_the_primitive_reading_it(poisoned, rng):
    # An unchecked leaf (a parameter, say) holding one NaN has a NaN bound,
    # which proves nothing, so the primitive reading it must scan and raise.
    made = []

    def leaf(a):
        made.append(None)
        if len(made) - 1 != poisoned:
            return Tensor(a)
        a.flat[0] = np.nan  # ``embed_lookup`` reads row 0 of the table
        return Tensor(a, _checked_op=None)

    raised = 0
    for name, call, ops, _ in _primitive_calls(rng, leaf):
        untaped, taped = _outcome(call, False), _outcome(call, True)
        if isinstance(taped, str):
            assert untaped == taped == ops[0], name
            raised += 1
        else:
            assert np.isfinite(untaped.data).all(), name
    assert len(made) == N_LEAVES and raised > 0


@pytest.mark.filterwarnings("ignore:Mean of empty slice")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_mean_of_no_elements_raises_without_a_tape():
    # An empty input has bound 0, yet its mean is NaN.
    for taped in (False, True):
        assert _outcome(lambda: nm.mean(Tensor(np.zeros(0))), taped) == "mean"


def test_reverse_step_scans_no_primitive_output_without_a_tape(monkeypatch):
    # Acceptance size (6 layers): the 16 outputs of one batch-1 reverse step
    # are all proven finite by their bounds.  Under a tape each is scanned,
    # and so is the pre-activation of each of the 9 records with an
    # activation epilogue.
    from prosody_ddpm.config import Config, DenoiserSection
    from prosody_ddpm.denoiser import Denoiser
    from prosody_ddpm.diffusion import linear_schedule, reverse_step

    from conftest import jitter_params

    rng = Rng(2)
    cfg = Config(denoiser=DenoiserSection(channels=48, layers=6, dilation_cycle=(1, 2, 4),
                                          cond_dim=48, step_hidden=96))
    den = Denoiser.init(cfg, rng)
    jitter_params(den.params, rng)
    sched = linear_schedule(300, 1e-4, 0.06)
    constants = den.condition(Tensor(rng.normal((1, 32, 48))))
    e = Tensor(den.steps(np.arange(1, 301)).data[149], _checked_op=None)
    x, z = rng.normal((1, 32, 3)), rng.normal((1, 32, 3))
    scanned = []
    checked = nm._checked

    def counting(op, arr, where="forward"):
        scanned.append(op)
        checked(op, arr, where)

    monkeypatch.setattr(nm, "_checked", counting)
    untaped = reverse_step(den, x, constants, e, 150, z, sched)
    assert scanned == []
    with Tape() as tape:
        taped = reverse_step(den, x, constants, e, 150, z, sched)
    assert len(tape.records) == 16
    assert len(scanned) == 16 + 9
    assert np.array_equal(untaped, taped)


# -- MSE reference ----------------------------------------------------------
#
# The two losses as first written summed their squared error and divided
# by the element count.  Both now go through ``nm.mse`` and must give the
# same gradients bit for bit.


def _reference_loss(pred, target):
    diff = nm.sub(pred, Tensor(target))
    return nm.mul(nm.sum(nm.mul(diff, diff)), 1.0 / target.size)


def _reference_ddpm_loss(model, x0, cond, t, eps, sched):
    from prosody_ddpm.diffusion import forward_diffuse

    x_t = forward_diffuse(x0, t, eps, sched)
    return _reference_loss(model.forward(Tensor(x_t), model.condition(cond), model.steps(t)), eps)


def _reference_baseline_loss(model, cond, target, rng, training):
    return _reference_loss(model.forward(cond, rng, training), target)


def _loss_and_grads(make_loss, tensors):
    with Tape() as tape:
        loss = make_loss()
    grads = nm.backward(tape, loss)
    return loss.item(), {k: grads.wrt(v) for k, v in tensors.items()}


def test_masked_mse_matches_per_loss_references(rng):
    from prosody_ddpm.baseline import BaselineNet, baseline_loss_graph
    from prosody_ddpm.config import BaselineSection, Config, DenoiserSection
    from prosody_ddpm.denoiser import Denoiser
    from prosody_ddpm.diffusion import linear_schedule, training_loss_graph

    from conftest import jitter_params

    cond = Tensor(rng.normal((3, 5, 4)))
    target = rng.normal((3, 5, 3))
    cfg = Config(
        denoiser=DenoiserSection(channels=6, layers=2, dilation_cycle=(1, 2), cond_dim=4,
                                 step_hidden=8),
        baseline=BaselineSection(width=6, dropout=0.3),
    )
    den = Denoiser.init(cfg, rng)
    jitter_params(den.params, rng)
    sched = linear_schedule(30, 1e-3, 0.2)
    x0, t = rng.normal((3, 5, 3)), np.array([3, 17, 30])
    leaves = {**den.params, "cond": cond}
    want = _loss_and_grads(lambda: _reference_ddpm_loss(den, x0, cond, t, target, sched), leaves)
    got = _loss_and_grads(lambda: training_loss_graph(den, x0, cond, t, target, sched), leaves)
    assert abs(got[0] - want[0]) <= 1e-15
    for k in leaves:
        assert np.array_equal(got[1][k], want[1][k]), k

    net = BaselineNet.init(cfg, rng)
    jitter_params(net.params, rng)
    leaves = {**net.params, "cond": cond}
    for training in (False, True):
        want = _loss_and_grads(
            lambda: _reference_baseline_loss(net, cond, target, Rng(5), training), leaves
        )
        got = _loss_and_grads(
            lambda: baseline_loss_graph(net, cond, target, Rng(5), training), leaves
        )
        assert abs(got[0] - want[0]) <= 1e-15
        for k in leaves:
            assert np.array_equal(got[1][k], want[1][k]), (training, k)

    with pytest.raises(ShapeError, match="baseline_loss: prediction"):
        baseline_loss_graph(net, cond, target[..., :2], Rng(5), True)


# -- Buffer references ----------------------------------------------------
#
# The elementwise primitives write their intermediates into buffers they
# own.  These are the expressions they replaced; each rewrite keeps every
# operation and its order, so values and gradients must match bit for bit.


def _ref_sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _ref_sigmoid_prim(x, dout):
    y = _ref_sigmoid(x)
    return y, [dout * y * (1.0 - y)]


def _ref_silu(x, dout):
    s = _ref_sigmoid(x)
    return x * s, [dout * s + dout * x * s * (1.0 - s)]


def _ref_gated_tanh(z, dout):
    c = z.shape[-1] // 2
    a, s = np.tanh(z[..., :c]), _ref_sigmoid(z[..., c:])
    dz = np.empty_like(z)
    dz[..., :c] = dout * s * (1.0 - a * a)
    dz[..., c:] = dout * a * s * (1.0 - s)
    return a * s, [dz]


def _ref_layer_norm(x, gain, bias, dout, eps=1e-5):
    c = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / c
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / c
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    dxhat = dout * gain
    dx = inv * (
        dxhat
        - np.add.reduce(dxhat, axis=-1, keepdims=True) / c
        - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / c)
    )
    dg = (dout * xhat).reshape(-1, c).sum(axis=0)
    db = dout.reshape(-1, c).sum(axis=0)
    return xhat * gain + bias, [dx, dg, db]


def _ref_dropout(x, kept, keep, dout):
    mask = kept / keep
    return x * mask, [dout * mask]


def _taped(call):
    """``call()``'s output and its record's backward closure."""
    with Tape() as tape:
        out = call()
    return out, tape.records[-1][2]


@pytest.mark.parametrize("shape", [(16, 11, 256), (1, 11, 256), (7, 6)])
def test_buffered_primitives_match_their_expressions(shape, rng):
    # The activation epilogues run on an identity matmul, whose output and
    # input gradient are exact; its weight gradient is left out.
    x = rng.normal(shape) * 2.0
    g, b = rng.normal(shape[-1]) + 1.0, rng.normal(shape[-1])
    eye = Tensor(np.eye(shape[-1]))
    dout = rng.normal(shape)
    half = shape[:-1] + (shape[-1] // 2,)
    cases = [
        ("sigmoid", lambda: nm.sigmoid(Tensor(x)), lambda: _ref_sigmoid_prim(x, dout), dout),
        ("silu", lambda: nm.matmul(Tensor(x), eye, act="silu"), lambda: _ref_silu(x, dout), dout),
        ("gated_tanh", lambda: nm.matmul(Tensor(x), eye, act="gate"),
         lambda: _ref_gated_tanh(x, dout[..., : half[-1]]), dout[..., : half[-1]].copy()),
        ("layer_norm", lambda: nm.layer_norm(Tensor(x), Tensor(g), Tensor(b)),
         lambda: _ref_layer_norm(x, g, b, dout), dout),
        ("dropout", lambda: nm.dropout(Tensor(x), 0.3, Rng(3), True),
         lambda: _ref_dropout(x, Rng(3).uniform(shape) < 0.7, 0.7, dout), dout),
    ]
    for name, call, reference, d in cases:
        out, back = _taped(call)
        want_out, want_grads = reference()
        assert np.array_equal(out.data, want_out), name
        grads = [grad for inp, grad in back(d) if inp is not eye]
        assert len(grads) == len(want_grads), name
        for got, want in zip(grads, want_grads):
            assert np.array_equal(got, want), name


@pytest.mark.parametrize("name", [case[0] for case in _primitive_calls(Rng(0))])
def test_backward_closures_write_no_captured_or_caller_array(name, rng):
    # Playing every record back twice gives the same gradients, so no
    # captured forward value changed, and leaves each incoming gradient and
    # input as it was.
    call = next(case[1] for case in _primitive_calls(rng) if case[0] == name)
    with Tape() as tape:
        call()
    for op, out, back in tape.records:
        dout = rng.normal(out.shape)
        kept = dout.copy()
        first = [(inp, grad.copy()) for inp, grad in back(dout)]
        inputs = [inp.data.copy() for inp, _ in first]
        again = back(dout)
        assert np.array_equal(dout, kept), op
        for (inp, grad), (inp2, grad2), before in zip(first, again, inputs):
            assert inp2 is inp and np.array_equal(grad2, grad), op
            assert np.array_equal(inp.data, before), op


# -- Backward GEMM layout -------------------------------------------------
#
# ``matmul`` and ``conv1d_dilated`` run each backward product as one 2-d
# GEMM over all batch x length rows.  The references are the stacked
# expressions they replaced, one GEMM per sequence: a batch of one runs
# the same GEMMs, so it matches bit for bit; larger batches differ by
# float64 rounding only (inner dimensions here stay far below 768).


def _ref_matmul_back(x, w, b, dout):
    n, m = w.shape
    dflat = dout.reshape(-1, m)
    grads = [dout @ w.T, x.reshape(-1, n).T @ dflat]
    return grads + ([dflat.sum(axis=0)] if b is not None else [])


def _ref_conv_back(x, w, b, dilation, dout):
    kernel, c_in, c_out = w.shape
    length, centre = x.shape[-2], kernel // 2
    dx = dout @ w[centre].T
    dw = np.zeros_like(w)
    dw[centre] = x.reshape(-1, c_in).T @ dout.reshape(-1, c_out)
    for k in range(kernel):
        off = (k - centre) * dilation
        if k == centre or abs(off) >= length:
            continue
        src = slice(off, None) if off > 0 else slice(None, length + off)
        dst = slice(None, length - off) if off > 0 else slice(-off, None)
        xs, ds = x[..., src, :], dout[..., dst, :]
        dw[k] = xs.reshape(-1, c_in).T @ ds.reshape(-1, c_out)
        dx[..., src, :] += ds @ w[k].T
    if b is None:
        return [dx, dw]
    lead = dout.ndim - b.ndim
    db = dout.reshape((-1,) + dout.shape[lead:]).sum(axis=0) if lead else dout
    return [dx, dw, nm._unbroadcast(db, b.shape)]


def _assert_backward_matches(grads, want, exact, what):
    assert len(grads) == len(want), what
    for got, ref in zip(grads, want):
        if exact:
            assert np.array_equal(got, ref), what
        else:
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12, err_msg=str(what))


@pytest.mark.parametrize("lead", [(), (1,), (2,), (16,)])
def test_matmul_backward_matches_stacked_products(lead, rng):
    x, dout = rng.normal(lead + (11, 256)), rng.normal(lead + (11, 96))
    w, b = rng.normal((256, 96)), rng.normal(96)
    for bias in (None, b):
        call = lambda: nm.matmul(Tensor(x), Tensor(w), None if bias is None else Tensor(bias))
        _, back = _taped(call)
        grads = [grad for _, grad in back(dout)]
        _assert_backward_matches(grads, _ref_matmul_back(x, w, bias, dout),
                                 lead in [(), (1,)], (lead, bias is None))


@pytest.mark.parametrize("lead", [(), (1,), (2,), (16,)])
def test_conv_backward_matches_stacked_products(lead, rng):
    # Dilation 4 at kernel 5 on 6 positions skips the outer taps; c_in != c_out.
    c_in, c_out = 24, 40
    for kernel, dilation, length in [(3, 1, 11), (3, 2, 11), (5, 4, 6), (3, 4, 4), (5, 2, 4)]:
        x = rng.normal(lead + (length, c_in))
        w = rng.normal((kernel, c_in, c_out))
        dout = rng.normal(lead + (length, c_out))
        biases = [None, (c_out,), (length, c_out)] + ([lead + (1, c_out)] if lead else [])
        for bias_shape in biases:
            b = None if bias_shape is None else rng.normal(bias_shape)
            call = lambda: nm.conv1d_dilated(Tensor(x), Tensor(w),
                                             None if b is None else Tensor(b), dilation)
            _, back = _taped(call)
            grads = [grad for _, grad in back(dout)]
            _assert_backward_matches(grads, _ref_conv_back(x, w, b, dilation, dout),
                                     lead in [(), (1,)], (kernel, dilation, length, bias_shape))


# -- Epilogues and head axes ------------------------------------------------
#
# Each fused form against the separate primitives it replaces, built on the
# same leaves: the value and every leaf gradient match bit for bit.  The
# references pick parts of a tensor with ``_take``, whose backward pads the
# gradient with zeros, which adds exactly.


def _take(x, index):
    def back(dout):
        dx = np.zeros(x.shape)
        dx[index] = dout
        return [(x, dx)]

    return nm._emit("take", x.data[index].copy(), back, lambda: nm._bound(x))


def _last(x, lo, hi):
    return _take(x, (Ellipsis, slice(lo, hi)))


def _gate_ref(z):
    c = z.shape[-1] // 2
    return nm.mul(nm.tanh(_last(z, 0, c)), nm.sigmoid(_last(z, c, 2 * c)))


UNFUSED = {
    None: lambda z: z,
    "relu": nm.relu,
    "silu": lambda z: nm.mul(z, nm.sigmoid(z)),
    "gate": _gate_ref,
}


def _heads_ref(heads, one_head):
    """``concat`` over heads of ``one_head(h)``."""
    return nm.concat([one_head(h) for h in range(heads)])


def _assert_same_value_and_grads(fused, unfused, leaves):
    results = []
    for build in (fused, unfused):
        with Tape() as tape:
            out = build(leaves)
            weights = Tensor(np.random.default_rng(0).normal(size=out.shape))
            loss = nm.sum(nm.mul(out, weights))
        grads = nm.backward(tape, loss)
        results.append((out.data, [grads.wrt(v) for v in leaves.values()]))
    (got, got_grads), (want, want_grads) = results
    assert np.array_equal(got, want)
    for name, g, w in zip(leaves, got_grads, want_grads):
        assert np.array_equal(g, w), name
        assert np.any(g != 0.0), name


@pytest.mark.parametrize("lead", [(), (2,)])
@pytest.mark.parametrize("act", [None, "relu", "silu", "gate"])
def test_epilogues_match_their_unfused_composition(lead, act, rng):
    ref = UNFUSED[act]
    x = Tensor(rng.normal(lead + (4, 6)))
    # matmul: act after the bias, then a residual of the output's shape or
    # one row that broadcasts (the gate halves 4 channels to 2).
    m = 2 if act == "gate" else 4
    for res_shape in [lead + (4, m), (m,)]:
        p = {"x": x, "w": Tensor(rng.normal((6, 4))), "b": Tensor(rng.normal(4)),
             "r": Tensor(rng.normal(res_shape))}
        _assert_same_value_and_grads(
            lambda q: nm.matmul(q["x"], q["w"], q["b"], act=act, res=q["r"]),
            lambda q: nm.add(ref(nm.matmul(q["x"], q["w"], q["b"])), q["r"]),
            p,
        )
    # conv: kernel 5 on 4 positions skips the outer taps at dilation 2.
    for dilation in (1, 2):
        for bias_shape in [(4,), lead + (4, 4)]:
            q = {"x": x, "w": Tensor(rng.normal((5, 6, 4))), "b": Tensor(rng.normal(bias_shape))}
            _assert_same_value_and_grads(
                lambda q: nm.conv1d_dilated(q["x"], q["w"], q["b"], dilation, act=act),
                lambda q: ref(nm.conv1d_dilated(q["x"], q["w"], q["b"], dilation)),
                q,
            )


@pytest.mark.parametrize("lead", [(), (2,)])
def test_head_axis_weights_match_separate_heads(lead, rng):
    # Three heads of 2 input and 4 output channels each (2 per head for the
    # matmul, so no bias gradient sums a single column).
    x = Tensor(rng.normal(lead + (4, 6)))
    for kernel, dilation in [(3, 1), (5, 2)]:
        for act in (None, "silu"):
            p = {"x": x, "w": Tensor(rng.normal((3, kernel, 2, 4))), "b": Tensor(rng.normal(12))}
            _assert_same_value_and_grads(
                lambda q: nm.conv1d_dilated(q["x"], q["w"], q["b"], dilation, act=act),
                lambda q: _heads_ref(3, lambda h: UNFUSED[act](nm.conv1d_dilated(
                    _last(q["x"], 2 * h, 2 * h + 2), _take(q["w"], (h,)),
                    _take(q["b"], (slice(4 * h, 4 * h + 4),)), dilation))),
                p,
            )
    p = {"x": x, "w": Tensor(rng.normal((3, 2, 2))), "b": Tensor(rng.normal(6))}
    _assert_same_value_and_grads(
        lambda q: nm.matmul(q["x"], q["w"], q["b"]),
        lambda q: _heads_ref(3, lambda h: nm.matmul(
            _last(q["x"], 2 * h, 2 * h + 2), _take(q["w"], (h,)),
            _take(q["b"], (slice(2 * h, 2 * h + 2),)))),
        p,
    )
    p = {"x": x, "g": Tensor(rng.normal((3, 2)) + 1.0), "b": Tensor(rng.normal((3, 2)))}
    _assert_same_value_and_grads(
        lambda q: nm.layer_norm(q["x"], q["g"], q["b"]),
        lambda q: _heads_ref(3, lambda h: nm.layer_norm(
            _last(q["x"], 2 * h, 2 * h + 2), _take(q["g"], (h,)), _take(q["b"], (h,)))),
        p,
    )
