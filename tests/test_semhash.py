"""Binarization contracts: the saturating sigmoid and its clip
breakpoints, noisy/binary branch behavior, straight-through gradients,
and scheduled gate dropout.

The clip breakpoints solve 1.2*sigmoid(x) - 0.1 = {0, 1}, i.e.
sigmoid(x) = 1/12 or 11/12, so x = -+ln(11). The constant below was
frozen from an independent root-find (scipy.optimize.brentq on
1.2*expit(x) - 1.1) before the implementation existed.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaternet.semhash import (
    GateDropoutSchedule,
    dropout_rate_at,
    gate_dropout,
    hard_gate,
    saturating_sigmoid,
    semhash_forward,
    _sat_sigmoid_grad,
)
from gaternet.tensor import Tensor
from oracles import PinnedBranchRng, grad_check

LN11 = 2.3978952727983707  # ln(11), the exact clip breakpoint


def semhash_backward(upstream, bundle):
    """Gradient of the selected gates w.r.t. g_pre, independent of branch.

    Both branches route the same surrogate gradient (the saturating
    sigmoid's derivative at g_noisy), so the branch mask does not appear.
    Only meaningful for training bundles; eval bundles are rejected.
    """
    if bundle.mode != "train":
        raise ValueError("semhash_backward is only defined for training bundles")
    upstream = np.asarray(upstream)
    if upstream.shape != bundle.g_pre.shape:
        raise ValueError(
            f"upstream shape {upstream.shape} does not match gates "
            f"{bundle.g_pre.shape}"
        )
    return upstream * _sat_sigmoid_grad(bundle.g_noisy.data)


class TestSaturatingSigmoid:
    def test_midpoint_and_symmetry(self):
        x = Tensor(np.array([0.0]))
        assert saturating_sigmoid(x).data[0] == pytest.approx(0.5, abs=1e-12)
        xs = np.linspace(-2.0, 2.0, 41)
        y = saturating_sigmoid(Tensor(xs)).data
        assert np.allclose(y + y[::-1], 1.0, atol=1e-7)

    def test_clips_exactly_beyond_breakpoints(self):
        x = np.array([-10.0, -LN11 - 1e-4, LN11 + 1e-4, 10.0])
        y = saturating_sigmoid(Tensor(x)).data
        assert np.array_equal(y, [0.0, 0.0, 1.0, 1.0])

    def test_open_interval_inside_breakpoints(self):
        x = np.array([-LN11 + 1e-4, -1.0, 1.0, LN11 - 1e-4])
        y = saturating_sigmoid(Tensor(x)).data
        assert np.all((y > 0.0) & (y < 1.0))

    def test_breakpoint_value(self):
        # 1.2*sigmoid(ln 11) - 0.1 = 1.2*(11/12) - 0.1 = 1 exactly (within fp)
        y = saturating_sigmoid(Tensor(np.array([LN11], dtype=np.float64))).data
        assert y[0] == pytest.approx(1.0, abs=1e-12)

    def test_grad_matches_finite_differences(self):
        # kink-avoiding: points well inside and well outside the clip region
        x = Tensor(np.array([-3.5, -1.7, -0.4, 0.0, 0.6, 1.8, 3.1]),
                   requires_grad=True)
        assert grad_check(lambda t: saturating_sigmoid(t).sum(), x,
                          eps=1e-4) < 1e-6

    def test_grad_zero_in_clipped_region(self):
        x = Tensor(np.array([-5.0, 5.0, LN11 + 0.01, -LN11 - 0.01]),
                   requires_grad=True)
        saturating_sigmoid(x).sum().backward()
        assert np.array_equal(x.grad, np.zeros(4))


class TestHardGate:
    def test_forward_is_strict_indicator(self):
        x = Tensor(np.array([-1.0, -1e-30, 0.0, 1e-30, 2.0]))
        assert np.array_equal(hard_gate(x).data, [0.0, 0.0, 0.0, 1.0, 1.0])

    def test_backward_is_saturating_sigmoid_grad(self):
        vals = np.array([-3.0, -1.0, 0.0, 0.5, 2.0, 4.0])
        a = Tensor(vals.copy(), requires_grad=True)
        b = Tensor(vals.copy(), requires_grad=True)
        hard_gate(a).sum().backward()
        saturating_sigmoid(b).sum().backward()
        assert np.array_equal(a.grad, b.grad)


class TestSemhashForwardEval:
    def test_eval_gates_binary_indicator_deterministic(self):
        rng = np.random.default_rng(0)
        g_pre = Tensor(rng.standard_normal((16, 9)).astype(np.float32))
        b1 = semhash_forward(g_pre, "eval")
        b2 = semhash_forward(g_pre, "eval")
        sel = b1.selected.data
        assert np.all((sel == 0.0) | (sel == 1.0))
        assert np.array_equal(sel, (g_pre.data > 0).astype(np.float32))
        assert np.array_equal(sel, b2.selected.data)
        assert b1.g_noisy is b1.g_pre  # no noise in eval
        assert b1.selected is b1.g_beta
        assert b1.branch_mask.all()
        assert b1.mode == "eval"

    def test_eval_needs_no_rng(self):
        semhash_forward(Tensor(np.zeros((2, 3))), "eval", rng=None)

    def test_mode_validation(self):
        g = Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            semhash_forward(g, "test")
        with pytest.raises(ValueError):
            semhash_forward(Tensor(np.zeros(3)), "eval")


class TestSemhashForwardTrain:
    def test_train_requires_rng(self):
        with pytest.raises(ValueError):
            semhash_forward(Tensor(np.zeros((2, 3))), "train")

    def test_noise_is_standard_normal(self):
        rng = np.random.default_rng(1)
        g_pre = Tensor(np.zeros((2000, 5), dtype=np.float64))
        bundle = semhash_forward(g_pre, "train", rng=rng)
        noise = bundle.g_noisy.data - g_pre.data
        assert abs(noise.mean()) < 0.05
        assert abs(noise.std() - 1.0) < 0.05

    def test_selected_mixes_rows_by_branch(self):
        rng = np.random.default_rng(2)
        g_pre = Tensor(rng.standard_normal((64, 7)))
        bundle = semhash_forward(g_pre, "train", rng=np.random.default_rng(3))
        for i in range(64):
            want = (bundle.g_beta.data[i] if bundle.branch_mask[i]
                    else bundle.g_alpha.data[i])
            assert np.array_equal(bundle.selected.data[i], want)

    def test_branch_fraction_half(self):
        rng = np.random.default_rng(4)
        g_pre = Tensor(np.zeros((10_000, 1)))
        bundle = semhash_forward(g_pre, "train", rng=rng)
        frac = bundle.branch_mask.mean()
        assert abs(frac - 0.5) <= 0.02

    def test_pinned_branch(self):
        g_pre = Tensor(np.random.default_rng(5).standard_normal((8, 4)))
        ba = semhash_forward(g_pre, "train", rng=PinnedBranchRng(6, "alpha"))
        bb = semhash_forward(g_pre, "train", rng=PinnedBranchRng(6, "beta"))
        assert not ba.branch_mask.any()
        assert bb.branch_mask.all()
        assert np.array_equal(ba.g_noisy.data, bb.g_noisy.data)  # same noise
        assert np.array_equal(ba.selected.data, ba.g_alpha.data)
        assert np.array_equal(bb.selected.data, bb.g_beta.data)

    def test_beta_is_strict_indicator_of_noisy(self):
        g_pre = Tensor(np.random.default_rng(7).standard_normal((32, 6)))
        b = semhash_forward(g_pre, "train", rng=np.random.default_rng(8))
        assert np.array_equal(
            b.g_beta.data, (b.g_noisy.data > 0).astype(b.g_beta.data.dtype))

    def test_alpha_is_saturating_sigmoid_of_noisy(self):
        g_pre = Tensor(np.random.default_rng(9).standard_normal((32, 6)))
        b = semhash_forward(g_pre, "train", rng=np.random.default_rng(10))
        want = saturating_sigmoid(Tensor(b.g_noisy.data)).data
        assert np.array_equal(b.g_alpha.data, want)


class TestStraightThrough:
    def _grad_via_autodiff(self, g_pre_data, seed, force=None):
        g_pre = Tensor(g_pre_data.copy(), requires_grad=True)
        rng = (np.random.default_rng(seed) if force is None
               else PinnedBranchRng(seed, force))
        bundle = semhash_forward(g_pre, "train", rng=rng)
        bundle.selected.sum().backward()
        return g_pre.grad, bundle

    def test_beta_equals_alpha_backward_exactly(self):
        data = np.random.default_rng(11).standard_normal((16, 5))
        ga, _ = self._grad_via_autodiff(data, seed=12, force="alpha")
        gb, _ = self._grad_via_autodiff(data, seed=12, force="beta")
        assert np.array_equal(ga, gb)

    def test_manual_backward_matches_autodiff(self):
        data = np.random.default_rng(13).standard_normal((16, 5))
        grad, bundle = self._grad_via_autodiff(data, seed=14)
        upstream = np.ones_like(data)
        manual = semhash_backward(upstream, bundle)
        assert np.array_equal(grad, manual)

    def test_backward_zero_when_noisy_saturated(self):
        g_pre = Tensor(np.full((4, 3), 10.0), requires_grad=True)
        bundle = semhash_forward(g_pre, "train",
                                 rng=np.random.default_rng(15))
        bundle.selected.sum().backward()
        assert np.array_equal(g_pre.grad, np.zeros((4, 3)))

    def test_semhash_backward_rejects_eval_and_bad_shape(self):
        g_pre = Tensor(np.zeros((2, 3)))
        bundle = semhash_forward(g_pre, "eval")
        with pytest.raises(ValueError):
            semhash_backward(np.ones((2, 3)), bundle)
        tb = semhash_forward(g_pre, "train", rng=np.random.default_rng(16))
        with pytest.raises(ValueError):
            semhash_backward(np.ones((3, 2)), tb)


class TestGateDropout:
    def test_schedule_anchors(self):
        sched = GateDropoutSchedule(0.0, 0.05, 1000)
        assert dropout_rate_at(sched, 0) == 0.0
        assert dropout_rate_at(sched, 1000) == 0.05
        assert dropout_rate_at(sched, 500) == 0.025
        assert dropout_rate_at(sched, 5000) == 0.05  # clamp past the end
        with pytest.raises(ValueError):
            dropout_rate_at(sched, -1)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            GateDropoutSchedule(0.1, 0.05, 10)   # start > end
        with pytest.raises(ValueError):
            GateDropoutSchedule(0.0, 1.0, 10)    # end not < 1
        with pytest.raises(ValueError):
            GateDropoutSchedule(0.0, 0.05, 0)    # no steps

    def test_rate_zero_is_identity(self):
        t = Tensor(np.ones((4, 6)))
        assert gate_dropout(t, 0.0, np.random.default_rng(17)) is t

    def test_rate_validation(self):
        t = Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            gate_dropout(t, 1.0, np.random.default_rng(18))
        with pytest.raises(ValueError):
            gate_dropout(t, -0.1, np.random.default_rng(18))

    def test_surviving_fraction_monte_carlo(self):
        ones = Tensor(np.ones((1000, 100)))
        out = gate_dropout(ones, 0.05, np.random.default_rng(19))
        frac = out.data.mean()
        assert abs(frac - 0.95) <= 0.005

    def test_no_rescale_binary_stays_binary(self):
        rng = np.random.default_rng(20)
        g = (rng.random((64, 32)) < 0.7).astype(np.float32)
        out = gate_dropout(Tensor(g), 0.05, rng).data
        assert np.all((out == 0.0) | (out == 1.0))  # never 1/(1-p)
        assert np.all(out <= g)  # zeroing only

    def test_dropped_entries_get_zero_grad(self):
        g = Tensor(np.ones((8, 8)), requires_grad=True)
        out = gate_dropout(g, 0.4, np.random.default_rng(21))
        out.sum().backward()
        dropped = out.data == 0.0
        assert np.array_equal(g.grad[dropped], np.zeros(dropped.sum()))
        assert np.array_equal(g.grad[~dropped], np.ones((~dropped).sum()))


@given(st.integers(0, 2**31 - 1), st.integers(1, 12), st.integers(1, 8))
def test_train_invariants(seed, n, c):
    rng = np.random.default_rng(seed)
    g_pre = Tensor(rng.standard_normal((n, c)))
    b = semhash_forward(g_pre, "train", rng=np.random.default_rng(seed + 1))
    beta = b.g_beta.data
    assert np.all((beta == 0.0) | (beta == 1.0))
    assert np.all((b.g_alpha.data >= 0.0) & (b.g_alpha.data <= 1.0))
    sel, a = b.selected.data, b.g_alpha.data
    for i in range(n):
        assert np.array_equal(sel[i], beta[i] if b.branch_mask[i] else a[i])


@given(st.integers(0, 2**31 - 1))
def test_eval_is_pure(seed):
    g_pre = Tensor(np.random.default_rng(seed).standard_normal((5, 4)))
    b1 = semhash_forward(g_pre, "eval")
    b2 = semhash_forward(g_pre, "eval")
    assert np.array_equal(b1.selected.data, b2.selected.data)
    assert np.array_equal(b1.selected.data,
                          (g_pre.data > 0).astype(np.float32))
