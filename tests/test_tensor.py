"""Autodiff core: forward semantics, gradients vs finite differences,
broadcasting rules, and the self-checks inside grad_check."""

import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from gaternet.tensor import Tensor, apply_op, no_grad
from oracles import grad_check


def _f64(*shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(np.float64)


class TestForward:
    def test_add_mul_values(self):
        a = Tensor(np.array([1.0, 2.0]))
        b = Tensor(np.array([3.0, 4.0]))
        assert np.array_equal((a + b).data, [4.0, 6.0])
        assert np.array_equal((a * b).data, [3.0, 8.0])

    def test_scalar_operands_promote(self):
        a = Tensor(np.array([1.0, 2.0], dtype=np.float32))
        assert np.array_equal((2.0 * a).data, [2.0, 4.0])
        assert np.array_equal((a + 1).data, [2.0, 3.0])

    def test_int_input_becomes_float32(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.data.dtype == np.float32

    def test_float_dtype_preserved(self):
        assert Tensor(np.zeros(3, dtype=np.float64)).data.dtype == np.float64
        assert Tensor(np.zeros(3, dtype=np.float32)).data.dtype == np.float32

    def test_matmul_requires_2d(self):
        a = Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            _ = a @ Tensor(np.zeros(3))
        with pytest.raises(ValueError):
            _ = a @ Tensor(np.zeros((4, 2)))

    def test_mean_and_sum_axes(self):
        x = Tensor(_f64(3, 4, 5))
        assert x.sum().shape == ()
        assert x.mean(axis=1).shape == (3, 5)
        assert x.sum(axis=(0, 2), keepdims=True).shape == (1, 4, 1)

    def test_reshape_and_getitem(self):
        x = Tensor(np.arange(12, dtype=np.float64))
        y = x.reshape(3, 4)
        assert y.shape == (3, 4)
        assert np.array_equal(y[1].data, [4.0, 5.0, 6.0, 7.0])

    def test_incompatible_broadcast_rejected(self):
        with pytest.raises(ValueError, match="broadcast"):
            _ = Tensor(np.zeros((2, 3))) + Tensor(np.zeros((2, 4)))


class TestBackward:
    def test_backward_needs_scalar(self):
        x = Tensor(_f64(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 5
        y.sum().backward()
        assert np.allclose(x.grad, [5.0])

    def test_zero_grad(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        (x * x).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_no_graph_without_requires_grad(self):
        x = Tensor(np.array([2.0]))
        y = x * x
        assert y._parents == ()
        assert not y.requires_grad

    def test_diamond_graph_topological_order(self):
        # z = (x*2) * (x*3): both branches must be fully accumulated
        # before x's backward fires; grad = 12x
        x = Tensor(np.array([5.0]), requires_grad=True)
        z = (x * 2.0) * (x * 3.0)
        z.sum().backward()
        assert np.allclose(x.grad, [60.0])

    def test_deep_chain_is_iterative(self):
        # a recursive backward would overflow Python's stack here
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 0.0
        y.sum().backward()
        assert np.allclose(x.grad, [1.0])

    @pytest.mark.parametrize("op", [
        lambda a, b: (a + b).sum(),
        lambda a, b: (a * b).sum(),
    ])
    def test_binary_op_grads(self, op):
        a = Tensor(_f64(3, 4, seed=1), requires_grad=True)
        b = Tensor(_f64(3, 4, seed=2), requires_grad=True)
        assert grad_check(lambda t: op(t, b), a) < 1e-6
        assert grad_check(lambda t: op(a, t), b) < 1e-6

    def test_broadcast_grads(self):
        a = Tensor(_f64(4, 5, seed=3), requires_grad=True)
        b = Tensor(_f64(5, seed=4), requires_grad=True)
        c = Tensor(_f64(1, 5, seed=5), requires_grad=True)
        assert grad_check(lambda t: (t + b).sum(), a) < 1e-6
        assert grad_check(lambda t: ((a + t) * 2.0).sum(), b) < 1e-6
        assert grad_check(lambda t: (a * t).sum(), c) < 1e-6

    def test_matmul_grads(self):
        a = Tensor(_f64(3, 4, seed=6), requires_grad=True)
        b = Tensor(_f64(4, 2, seed=7), requires_grad=True)
        assert grad_check(lambda t: (t @ b).sum(), a) < 1e-6
        assert grad_check(lambda t: ((a @ t) * (a @ t)).sum(), b) < 1e-6

    def test_reductions_grads(self):
        x = Tensor(_f64(3, 4, seed=8), requires_grad=True)
        assert grad_check(lambda t: (t.mean(axis=0) * t.mean(axis=0)).sum(), x) < 1e-6
        assert grad_check(lambda t: t.sum(axis=1, keepdims=True).mean(), x) < 1e-6

    def test_reshape_getitem_grads(self):
        x = Tensor(np.abs(_f64(4, 4, seed=9)) + 0.5, requires_grad=True)
        assert grad_check(lambda t: t.reshape(2, 8).mean(), x) < 1e-6
        assert grad_check(lambda t: (t[1:3] * t[1:3]).sum(), x) < 1e-6

    def test_getitem_overlapping_rows_accumulate(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x[np.array([0, 0, 2])].sum()
        y.backward()
        assert np.array_equal(x.grad, [2.0, 0.0, 1.0])


class TestGradLifetime:
    def test_only_leaves_hold_grads_after_backward(self):
        a = Tensor(_f64(3, 4, seed=10), requires_grad=True)
        b = Tensor(_f64(4, seed=11), requires_grad=True)
        c = Tensor(_f64(3, 4, seed=12))  # a constant: no grad
        h = a * b + c
        u = h.mean(axis=0)
        loss = (u * u).sum() + h.sum()
        loss.backward()
        for node in (h, u, loss):
            assert node.grad is None
        assert c.grad is None
        # d/dh of sum_j mean_i(h)_j^2 + sum(h) is 2 u_j / 3 + 1
        dh = 2.0 * u.data / 3.0 + 1.0
        np.testing.assert_allclose(a.grad, np.broadcast_to(dh * b.data, (3, 4)),
                                   rtol=1e-12)
        np.testing.assert_allclose(b.grad, (dh * a.data).sum(axis=0), rtol=1e-12)

    def test_second_backward_repeats_the_first(self):
        a = Tensor(_f64(5, seed=13), requires_grad=True)
        h = a * a
        loss = (h + h * a).sum()
        grads = []
        for _ in range(2):
            a.zero_grad()
            loss.backward()
            grads.append(a.grad.copy())
        np.testing.assert_array_equal(grads[0], grads[1])
        np.testing.assert_allclose(grads[0], 2 * a.data + 3 * a.data ** 2,
                                   rtol=1e-12)

    def test_broadcast_view_is_copied_in(self):
        # sum's backward hands x a read-only broadcast view, twice
        x = Tensor(_f64(2, 3, seed=14), requires_grad=True)
        (x.sum() + x.sum()).backward()
        assert x.grad.flags.writeable and x.grad.flags.owndata
        assert np.array_equal(x.grad, np.full((2, 3), 2.0))

    def test_gradient_shared_by_both_parents_is_copied(self):
        # add hands one array to both parents; here it is a read-only view
        a = Tensor(_f64(2, 3, seed=15), requires_grad=True)
        (a + a).sum().backward()
        assert np.array_equal(a.grad, np.full((2, 3), 2.0))
        b = Tensor(_f64(2, 3, seed=16), requires_grad=True)
        c = Tensor(_f64(2, 3, seed=17), requires_grad=True)
        ((b + c) * 3.0).sum().backward()
        assert not np.shares_memory(b.grad, c.grad)
        b.grad += 1.0
        assert np.array_equal(c.grad, np.full((2, 3), 3.0))


class TestGradCheck:
    def test_rejects_nondeterministic_function(self):
        x = Tensor(np.ones(2), requires_grad=True)
        state = {"n": 0.0}

        def f(t):
            state["n"] += 1.0
            return (t * state["n"]).sum()

        with pytest.raises(ValueError, match="deterministic"):
            grad_check(f, x)

    def test_rejects_nonscalar_output(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ValueError):
            grad_check(lambda t: t * 2.0, x)

    def test_rejects_bad_eps(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ValueError):
            grad_check(lambda t: t.sum(), x, eps=0.0)

    def test_catches_wrong_gradient(self):
        def bad(t):
            return apply_op(
                (t.data * t.data).sum(), (t,),
                lambda g, t=t: t._accumulate(g * t.data),  # should be 2x
            )

        x = Tensor(_f64(3, seed=10) + 2.0, requires_grad=True)
        assert grad_check(bad, x) > 0.1

    def test_exclude_masks_coordinates(self):
        x = Tensor(np.array([1.0, -0.0003, 2.0]), requires_grad=True)
        # relu-like kink at index 1: excluded from the comparison
        def f(t):
            return apply_op(
                np.maximum(t.data, 0.0), (t,),
                lambda g, t=t: t._accumulate(g * (t.data > 0)),
            ).sum()

        assert grad_check(f, x, exclude=np.array([False, True, False])) < 1e-6


class TestNoGrad:
    def test_records_no_graph_inside_and_resumes_after(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with no_grad():
            y = (w * 3.0).sum()
        assert not y.requires_grad and y._parents == ()
        z = (w * 3.0).sum()
        assert z.requires_grad and z._parents
        z.backward()
        assert np.array_equal(w.grad, [3.0, 3.0])

    def test_restored_after_exception_and_nesting(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                with no_grad():
                    pass
                assert not (w * 2.0).requires_grad
                raise RuntimeError("inside")
        assert (w * 2.0).requires_grad

    def test_per_thread(self):
        w = Tensor(np.ones(2), requires_grad=True)
        entered, checked = threading.Event(), threading.Event()
        seen = {}

        def evaluator():
            with no_grad():
                entered.set()
                checked.wait(timeout=10)
                seen["eval"] = (w * 2.0).requires_grad

        t = threading.Thread(target=evaluator)
        t.start()
        assert entered.wait(timeout=10)
        seen["train"] = (w * 2.0).requires_grad
        checked.set()
        t.join(timeout=10)
        assert not t.is_alive()
        assert seen == {"train": True, "eval": False}


@given(
    hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, max_side=4),
               elements=st.floats(-10, 10)),
)
def test_sum_then_backward_gives_ones(arr):
    x = Tensor(arr, requires_grad=True)
    x.sum().backward()
    assert np.array_equal(x.grad, np.ones_like(arr))


@given(
    st.integers(1, 4), st.integers(1, 4),
    st.sampled_from([(), (0,), (1,), (0, 1)]),
    st.booleans(),
)
def test_mean_grad_is_uniform(n, m, axis, keepdims):
    x = Tensor(np.ones((n, m)), requires_grad=True)
    axis = axis or None
    y = x.mean(axis=axis, keepdims=keepdims)
    y.sum().backward()
    # each input feeds one output cell with weight 1/(reduced size), so the
    # grad is uniform and sums to the output's element count
    assert np.allclose(x.grad.sum(), y.data.size)
    assert np.allclose(x.grad, x.grad.flat[0])


@given(st.data())
def test_broadcast_grad_shapes_match_params(data):
    shape_a = data.draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=3))
    # right-aligned compatible shape: each trailing dim equal or 1
    shape_b = tuple(
        data.draw(st.sampled_from([d, 1])) for d in shape_a[-2:]
    ) or (1,)
    a = Tensor(np.ones(shape_a), requires_grad=True)
    b = Tensor(np.ones(shape_b), requires_grad=True)
    ((a * b) + b).sum().backward()
    assert a.grad.shape == shape_a
    assert b.grad.shape == shape_b
