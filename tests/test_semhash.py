"""Binarization contracts: the saturating sigmoid and its clip
breakpoints, noisy/binary branch behavior, straight-through gradients,
and scheduled gate dropout.

The clip breakpoints solve 1.2*sigmoid(x) - 0.1 = {0, 1}, i.e.
sigmoid(x) = 1/12 or 11/12, so x = -+ln(11). The constant below was
frozen from an independent root-find (scipy.optimize.brentq on
1.2*expit(x) - 1.1) before the implementation existed.

semhash_forward draws noise and then one coin per row from its rng, so a
generator seeded the same way replays its draws: _draws rebuilds the
noisy scores and the hard rows from that replay.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaternet.semhash import (
    gate_dropout,
    semhash_forward,
    _sat_sigmoid_data,
    _sat_sigmoid_grad,
)
from gaternet.tensor import Tensor, no_grad
from gaternet.train import TrainConfig
from oracles import PinnedBranchRng, grad_check, semhash_reference

LN11 = 2.3978952727983707  # ln(11), the exact clip breakpoint


def _draws(g_pre, seed):
    """The noisy scores and the hard-row flags of a training pass whose
    rng is default_rng(seed)."""
    rng = np.random.default_rng(seed)
    noisy = g_pre.data + rng.standard_normal(g_pre.shape, dtype=g_pre.dtype)
    return noisy, rng.random(g_pre.shape[0]) < 0.5


def _binary_rows(sel):
    """Rows whose every gate is exactly 0 or 1: the hard view's rows, and
    a soft row only if every one of its scores is clipped."""
    return np.all((sel == 0.0) | (sel == 1.0), axis=1)


class TestSaturatingSigmoid:
    def test_midpoint_and_symmetry(self):
        assert _sat_sigmoid_data(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-12)
        y = _sat_sigmoid_data(np.linspace(-2.0, 2.0, 41))
        assert np.allclose(y + y[::-1], 1.0, atol=1e-7)

    def test_clips_exactly_beyond_breakpoints(self):
        x = np.array([-10.0, -LN11 - 1e-4, LN11 + 1e-4, 10.0])
        assert np.array_equal(_sat_sigmoid_data(x), [0.0, 0.0, 1.0, 1.0])

    def test_open_interval_inside_breakpoints(self):
        y = _sat_sigmoid_data(np.array([-LN11 + 1e-4, -1.0, 1.0, LN11 - 1e-4]))
        assert np.all((y > 0.0) & (y < 1.0))

    def test_breakpoint_value(self):
        # 1.2*sigmoid(ln 11) - 0.1 = 1.2*(11/12) - 0.1 = 1 exactly (within fp)
        y = _sat_sigmoid_data(np.array([LN11], dtype=np.float64))
        assert y[0] == pytest.approx(1.0, abs=1e-12)

    def test_grad_matches_finite_differences(self):
        # through the soft view: kink-avoiding noisy scores, well inside and
        # well outside the clip region
        want = np.array([[-3.5, -1.7, -0.4, 0.0, 0.6, 1.8, 3.1]])
        noise = np.random.default_rng(0).standard_normal(want.shape)
        mix = Tensor(np.random.default_rng(1).standard_normal(want.shape))

        def f(t):
            out = semhash_forward(t, True, PinnedBranchRng(0, "alpha"))
            return (out.selected * mix).sum()

        assert grad_check(f, Tensor(want - noise), eps=1e-4) < 1e-6

    def test_grad_zero_in_clipped_region(self):
        want = np.array([[-5.0, 5.0, LN11 + 0.01, -LN11 - 0.01]])
        noise = np.random.default_rng(2).standard_normal(want.shape)
        x = Tensor(want - noise, requires_grad=True)
        semhash_forward(x, True, PinnedBranchRng(2, "alpha")).selected.sum().backward()
        assert np.array_equal(x.grad, np.zeros((1, 4)))


class TestHardGate:
    def test_forward_is_strict_indicator(self):
        x = Tensor(np.array([[-1.0, -1e-30, 0.0, 1e-30, 2.0]]))
        assert np.array_equal(semhash_forward(x, False).selected.data,
                              [[0.0, 0.0, 0.0, 1.0, 1.0]])

    def test_backward_is_saturating_sigmoid_grad(self):
        vals = np.array([[-3.0, -1.0, 0.0, 0.5, 2.0, 4.0]])
        a = Tensor(vals.copy(), requires_grad=True)
        semhash_forward(a, False).selected.sum().backward()
        assert np.array_equal(a.grad, _sat_sigmoid_grad(vals))


class TestSemhashForwardEval:
    def test_eval_gates_binary_indicator_deterministic(self):
        rng = np.random.default_rng(0)
        g_pre = Tensor(rng.standard_normal((16, 9)).astype(np.float32))
        b1 = semhash_forward(g_pre, False)
        b2 = semhash_forward(g_pre, False)
        sel = b1.selected.data
        assert np.all((sel == 0.0) | (sel == 1.0))
        assert np.array_equal(sel, (g_pre.data > 0).astype(np.float32))
        assert np.array_equal(sel, b2.selected.data)
        assert b1.selected is b1.g_beta
        assert b1.g_pre is g_pre

    def test_eval_needs_no_rng(self):
        semhash_forward(Tensor(np.zeros((2, 3))), False, rng=None)

    def test_shape_validation(self):
        for training in (False, True):
            with pytest.raises(ValueError):
                semhash_forward(Tensor(np.zeros(3)), training,
                                np.random.default_rng(0))


class TestSemhashForwardTrain:
    def test_noise_is_standard_normal(self):
        # every row hard: a score t is on with probability P(t + noise > 0),
        # the standard normal cdf at t
        for t in (-1.0, 0.0, 1.0):
            g_pre = Tensor(np.full((2000, 5), t))
            sel = semhash_forward(g_pre, True, PinnedBranchRng(1, "beta")).selected
            want = 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))
            assert abs(sel.data.mean() - want) < 0.02

    def test_selected_mixes_rows_by_branch(self):
        g_pre = Tensor(np.random.default_rng(2).standard_normal((64, 7)))
        bundle = semhash_forward(g_pre, True, rng=np.random.default_rng(3))
        noisy, hard_rows = _draws(g_pre, 3)
        for i in range(64):
            want = ((noisy[i] > 0).astype(noisy.dtype) if hard_rows[i]
                    else _sat_sigmoid_data(noisy[i]))
            assert np.array_equal(bundle.selected.data[i], want)

    def test_branch_fraction_half(self):
        # 8 scores a row, so a soft row is all-binary only when all 8 clip
        g_pre = Tensor(np.zeros((10_000, 8)))
        sel = semhash_forward(g_pre, True, rng=np.random.default_rng(4)).selected
        frac = _binary_rows(sel.data).mean()
        assert abs(frac - 0.5) <= 0.02

    def test_pinned_branch(self):
        g_pre = Tensor(np.random.default_rng(5).standard_normal((8, 4)))
        ba = semhash_forward(g_pre, True, rng=PinnedBranchRng(6, "alpha"))
        bb = semhash_forward(g_pre, True, rng=PinnedBranchRng(6, "beta"))
        noisy, _ = _draws(g_pre, 6)  # the same noise for both
        assert np.array_equal(ba.selected.data, _sat_sigmoid_data(noisy))
        assert np.array_equal(bb.selected.data, (noisy > 0).astype(noisy.dtype))
        assert np.array_equal(ba.g_beta.data, bb.g_beta.data)

    def test_beta_is_strict_indicator_of_noisy(self):
        g_pre = Tensor(np.random.default_rng(7).standard_normal((32, 6)))
        b = semhash_forward(g_pre, True, rng=np.random.default_rng(8))
        noisy, hard_rows = _draws(g_pre, 8)
        assert np.array_equal(b.g_beta.data, (noisy > 0).astype(noisy.dtype))
        assert np.array_equal(b.selected.data[hard_rows], b.g_beta.data[hard_rows])

    def test_alpha_is_saturating_sigmoid_of_noisy(self):
        g_pre = Tensor(np.random.default_rng(9).standard_normal((32, 6)))
        b = semhash_forward(g_pre, True, rng=np.random.default_rng(10))
        noisy, hard_rows = _draws(g_pre, 10)
        soft = ~hard_rows
        assert soft.any()
        assert np.array_equal(b.selected.data[soft], _sat_sigmoid_data(noisy[soft]))


class TestStraightThrough:
    def _grad_via_autodiff(self, g_pre_data, seed, force=None, upstream=None):
        g_pre = Tensor(g_pre_data.copy(), requires_grad=True)
        rng = (np.random.default_rng(seed) if force is None
               else PinnedBranchRng(seed, force))
        bundle = semhash_forward(g_pre, True, rng=rng)
        if upstream is None:
            upstream = np.ones_like(g_pre_data)
        (bundle.selected * Tensor(upstream)).sum().backward()
        return g_pre.grad, bundle

    def test_beta_equals_alpha_backward_exactly(self):
        data = np.random.default_rng(11).standard_normal((16, 5))
        ga, _ = self._grad_via_autodiff(data, seed=12, force="alpha")
        gb, _ = self._grad_via_autodiff(data, seed=12, force="beta")
        assert np.array_equal(ga, gb)

    def test_manual_backward_matches_autodiff(self):
        # both views route the same surrogate gradient, the saturating
        # sigmoid's derivative at the noisy score, so the coin does not appear
        data = np.random.default_rng(13).standard_normal((16, 5))
        upstream = np.random.default_rng(14).standard_normal((16, 5))
        grad, _ = self._grad_via_autodiff(data, seed=14, upstream=upstream)
        noisy, _ = _draws(Tensor(data), 14)
        assert np.array_equal(grad, upstream * _sat_sigmoid_grad(noisy))

    def test_backward_zero_when_noisy_saturated(self):
        g_pre = Tensor(np.full((4, 3), 10.0), requires_grad=True)
        bundle = semhash_forward(g_pre, True, rng=np.random.default_rng(15))
        bundle.selected.sum().backward()
        assert np.array_equal(g_pre.grad, np.zeros((4, 3)))

    def test_one_graph_node_over_g_pre(self):
        g_pre = Tensor(np.zeros((3, 2)), requires_grad=True)
        train = semhash_forward(g_pre, True, np.random.default_rng(16))
        evald = semhash_forward(g_pre, False)
        for sel in (train.selected, evald.selected):
            assert sel._parents == (g_pre,)
        assert not train.g_beta.requires_grad
        with no_grad():
            assert semhash_forward(g_pre, True, np.random.default_rng(16)) \
                .selected._parents == ()


@st.composite
def _score_cases(draw):
    n, c = draw(st.integers(1, 12)), draw(st.integers(0, 8))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    scale = draw(st.sampled_from([0.1, 1.0, 3.0, 30.0]))
    seed = draw(st.integers(0, 2**31 - 1))
    coin = draw(st.sampled_from([None, "alpha", "beta"]))
    return n, c, dtype, scale, seed, coin


@given(_score_cases())
def test_matches_six_node_reference(case):
    """selected and g_pre.grad are byte-identical to the composed form
    under a random upstream gradient."""
    n, c, dtype, scale, seed, coin = case
    data = (np.random.default_rng(seed).standard_normal((n, c)) * scale).astype(dtype)
    upstream = Tensor(np.random.default_rng(seed + 1).standard_normal((n, c))
                      .astype(dtype))

    def rng():
        return (np.random.default_rng(seed + 2) if coin is None
                else PinnedBranchRng(seed + 2, coin))

    got_pre = Tensor(data.copy(), requires_grad=True)
    got = semhash_forward(got_pre, True, rng()).selected
    (got * upstream).sum().backward()
    ref_pre = Tensor(data.copy(), requires_grad=True)
    ref = semhash_reference(ref_pre, rng())
    (ref * upstream).sum().backward()

    assert got.data.dtype == ref.data.dtype == dtype
    assert got.data.tobytes() == ref.data.tobytes()
    assert got_pre.grad.dtype == ref_pre.grad.dtype
    assert got_pre.grad.tobytes() == ref_pre.grad.tobytes()


class TestGateDropout:
    def test_schedule_anchors(self):
        # 1001 epochs of 1 step: the ramp's span is the final step, 1000
        cfg = TrainConfig("joint", epochs=1001, batch_size=1,
                          lr_schedule=((0, 0.1),), dropout_end=0.05)
        assert cfg.dropout_rate(0, 1) == 0.0
        assert cfg.dropout_rate(1000, 1) == 0.05
        assert cfg.dropout_rate(500, 1) == 0.025
        assert cfg.dropout_rate(5000, 1) == 0.05  # clamp past the end
        # only the joint phase drops gates
        pretrain = TrainConfig("pretrain_gater", epochs=1001, batch_size=1,
                               lr_schedule=((0, 0.1),), dropout_end=0.05)
        assert pretrain.dropout_rate(1000, 1) == 0.0

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
    b = semhash_forward(g_pre, True, rng=np.random.default_rng(seed + 1))
    beta, sel = b.g_beta.data, b.selected.data
    assert np.all((beta == 0.0) | (beta == 1.0))
    assert np.all((sel >= 0.0) & (sel <= 1.0))
    noisy, hard_rows = _draws(g_pre, seed + 1)
    for i in range(n):
        want = beta[i] if hard_rows[i] else _sat_sigmoid_data(noisy[i])
        assert np.array_equal(sel[i], want)


@given(st.integers(0, 2**31 - 1))
def test_eval_is_pure(seed):
    g_pre = Tensor(np.random.default_rng(seed).standard_normal((5, 4)))
    b1 = semhash_forward(g_pre, False)
    b2 = semhash_forward(g_pre, False)
    assert np.array_equal(b1.selected.data, b2.selected.data)
    assert np.array_equal(b1.selected.data,
                          (g_pre.data > 0).astype(np.float32))
