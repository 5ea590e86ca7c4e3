"""Acceptance suite: the ten load-bearing claims this package makes.

One test per claim, each stating its tolerance inline and printing a
summary line. The heavier empirical claims (sparsity trend, gated-vs-plain
accuracy) share one desk-scale training sweep fixture."""

import dataclasses
import time

import numpy as np
import pytest

import gaternet.model as model_mod
import gaternet.semhash as semhash_mod
from gaternet.analyze import (
    ALWAYS_OFF,
    ALWAYS_ON,
    INPUT_DEPENDENT,
    GateLog,
    classify_gates,
    fired_count_per_sample,
    load_gate_log,
    on_count_histogram,
    pca_reduce,
    save_gate_log,
)
from gaternet.data import DatasetDescriptor, load_cifar10_binary, load_dataset
from gaternet.layers import (
    BatchNormParams,
    Conv2dParams,
    avg_pool2d,
    batchnorm,
    conv2d,
    fully_connected,
    global_avg_pool,
    relu,
    sigmoid,
    softmax_cross_entropy,
)
from gaternet.model import (
    GaterNet,
    LayerSpec,
    ModelSpec,
    gated_conv_forward,
)
from gaternet.persist import load_checkpoint
from gaternet.semhash import gate_dropout, semhash_forward
from gaternet.tensor import Tensor
from gaternet.train import (
    TrainConfig,
    run_phase,
    total_loss,
)
from oracles import (
    PinnedBranchRng,
    grad_check,
    gradient_routing_check,
    masked_reference,
    param_count,
)

SATURATION = 2.3978952727983707  # saturating-sigmoid breakpoint, ln(11)


def small_gated_spec() -> ModelSpec:
    return ModelSpec(
        input_shape=(3, 8, 8),
        num_classes=3,
        backbone=(
            LayerSpec("conv", filters=4, gated=True),
            LayerSpec("pool"),
            LayerSpec("fc", width=3),
        ),
        gater=(LayerSpec("conv", filters=2), LayerSpec("pool")),
        bottleneck=2,
    )


# -- 1. gradient suite ---------------------------------------------------------


def _mix(seed: int, shape) -> Tensor:
    """Fixed random projection, so FD losses see every output coordinate."""
    return Tensor(np.random.default_rng(10_000 + seed)
                  .standard_normal(shape).astype(np.float32))


def _op_cases(seed: int):
    rng = np.random.default_rng(seed)

    def f32(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    x_conv = Tensor(f32(2, 3, 5, 5))
    w_conv = Tensor(f32(4, 3, 3, 3) * 0.5)
    conv_mix = _mix(seed, (2, 4, 5, 5))

    def conv_of_w(w):
        p = Conv2dParams(filters=w, bias=None, stride=1, padding=1)
        return (conv2d(x_conv, p) * conv_mix).sum()

    def conv_of_x(x):
        p = Conv2dParams(filters=w_conv, bias=None, stride=1, padding=1)
        return (conv2d(x, p) * conv_mix).sum()

    bn_gamma = Tensor(f32(4) * 0.2 + 1.0)
    bn_beta = Tensor(f32(4) * 0.2)
    bn_x = Tensor(f32(3, 4, 2, 2))
    bn_mix = _mix(seed + 1, (3, 4, 2, 2))

    def bn_params(gamma, beta):
        return BatchNormParams(gamma=gamma, beta=beta,
                               running_mean=np.zeros(4, np.float32),
                               running_var=np.ones(4, np.float32))

    relu_x = f32(40) * 2.0
    relu_excl = np.abs(relu_x) < 0.05  # stay away from the kink at zero

    sat_x = f32(5, 10) * 2.5
    # the soft view of semhash_forward with every row pinned to it sees
    # sat_x plus the pinned generator's noise; stay off the clip breakpoints
    sat_noisy = sat_x + np.random.default_rng(seed).standard_normal(
        sat_x.shape, dtype=np.float32)
    sat_excl = np.abs(np.abs(sat_noisy) - SATURATION) < 0.05

    fc_x = Tensor(f32(5, 6))
    fc_w = Tensor(f32(6, 4) * 0.5)
    fc_b = Tensor(f32(4))
    fc_mix = _mix(seed + 2, (5, 4))
    labels = rng.integers(0, 4, 5)

    pool_x = Tensor(f32(2, 3, 4, 4))
    pool_mix = _mix(seed + 3, (2, 3, 2, 2))
    gap_mix = _mix(seed + 4, (2, 3))

    return [
        ("conv2d/weights", conv_of_w, w_conv, None),
        ("conv2d/input", conv_of_x, x_conv, None),
        ("batchnorm/input",
         lambda t: (batchnorm(t, bn_params(bn_gamma, bn_beta), True)
                    * bn_mix).sum(), bn_x, None),
        ("batchnorm/gamma",
         lambda t: (batchnorm(bn_x, bn_params(t, bn_beta), True)
                    * bn_mix).sum(), bn_gamma, None),
        ("batchnorm/beta",
         lambda t: (batchnorm(bn_x, bn_params(bn_gamma, t), True)
                    * bn_mix).sum(), bn_beta, None),
        ("relu", lambda t: (relu(t) * Tensor(np.abs(relu_x) + 0.5)).sum(),
         Tensor(relu_x), relu_excl),
        ("sigmoid", lambda t: (sigmoid(t) * _mix(seed + 5, sat_x.shape)).sum(),
         Tensor(sat_x), None),
        ("semhash/soft_view",
         lambda t: (semhash_forward(t, True, PinnedBranchRng(seed, "alpha"))
                    .selected * _mix(seed + 6, sat_x.shape)).sum(),
         Tensor(sat_x), sat_excl),
        ("fully_connected/W",
         lambda t: (fully_connected(fc_x, t, fc_b) * fc_mix).sum(), fc_w, None),
        ("fully_connected/b",
         lambda t: (fully_connected(fc_x, fc_w, t) * fc_mix).sum(), fc_b, None),
        ("fully_connected/x",
         lambda t: (fully_connected(t, fc_w, fc_b) * fc_mix).sum(), fc_x, None),
        ("softmax_cross_entropy",
         lambda t: softmax_cross_entropy(t, labels), Tensor(f32(5, 4)), None),
        ("avg_pool2d", lambda t: (avg_pool2d(t, 2) * pool_mix).sum(),
         pool_x, None),
        ("global_avg_pool", lambda t: (global_avg_pool(t) * gap_mix).sum(),
         pool_x, None),
        ("mul", lambda t: (t * t).sum(), Tensor(f32(3, 4)), None),
        ("matmul", lambda t, rhs=Tensor(f32(4, 3)): (t @ rhs).sum(),
         Tensor(f32(3, 4)), None),
        ("mean", lambda t: t.mean(), Tensor(f32(3, 4)), None),
    ]


def _composite_fd_worst(model, name, x, labels, seed, n_coords=5,
                        eps=1.5e-3) -> tuple[float, int, int]:
    """Central-difference check of the full gated forward + loss against
    one parameter tensor, on sampled coordinates.

    The gating rng is rebuilt per call and all rows are forced onto the
    smooth branch, so the mapping is deterministic and piecewise smooth.
    The pieces are bounded by relu zeros and saturating-sigmoid clip
    breakpoints; batch norm parks pre-activations near zero, so the FD
    window often straddles a relu kink and the quotient is biased. Each
    evaluation therefore records the region pattern of every relu and
    saturating-sigmoid input, and a coordinate is skipped exactly when
    the two endpoints disagree on any region. On clean coordinates the
    mapping is smooth across the whole window and a wrong analytic
    gradient has nothing to hide behind.
    """
    real_relu = model_mod.relu
    real_sat = semhash_mod._sat_sigmoid_data
    trace: list | None = None

    def recording_relu(t):
        trace.append(t.data > 0)
        return real_relu(t)

    def recording_sat(x):
        trace.append(np.digitize(x, (-SATURATION, SATURATION)))
        return real_sat(x)

    def loss_eval(record: bool = False):
        nonlocal trace
        trace = []
        if record:
            model_mod.relu = recording_relu
            semhash_mod._sat_sigmoid_data = recording_sat
        try:
            logits, bundle = model.forward(
                Tensor(x), training=True, rng=PinnedBranchRng(seed, "alpha"),
            )
            return total_loss(logits, labels, bundle.selected, 0.1), trace
        finally:
            model_mod.relu = real_relu
            semhash_mod._sat_sigmoid_data = real_sat

    loss, _ = loss_eval()
    for t in model.params.values():
        t.zero_grad()
    loss.backward()

    param = model.params[name]
    flat = param.data.reshape(-1)
    grad = param.grad.reshape(-1)
    coords = np.random.default_rng(seed + 77).choice(
        flat.size, size=min(n_coords, flat.size), replace=False)

    worst, skipped = 0.0, 0
    for i in coords:
        orig = flat[i]
        flat[i] = orig + np.float32(eps)
        plus, regions_plus = loss_eval(record=True)
        flat[i] = orig - np.float32(eps)
        minus, regions_minus = loss_eval(record=True)
        flat[i] = orig
        if not all(np.array_equal(a, b)
                   for a, b in zip(regions_plus, regions_minus, strict=True)):
            skipped += 1
            continue
        fd = (plus.item() - minus.item()) / (2.0 * eps)
        err = abs(float(grad[i]) - fd) / max(1.0, abs(fd))
        worst = max(worst, err)
    return worst, skipped, len(coords)


def test_criterion_01_gradient_suite():
    t0 = time.monotonic()
    tol = 1e-3

    worst_op = 0.0
    for seed in range(10):
        for label, fn, tensor, excl in _op_cases(seed):
            err = grad_check(fn, tensor, eps=1e-2, exclude=excl)
            assert err <= tol, f"{label} seed {seed}: {err:.2e} > {tol}"
            worst_op = max(worst_op, err)

    worst_comp, skipped, sampled = 0.0, 0, 0
    probe = ("backbone.0.filters", "backbone.0.bn.gamma", "backbone.2.W",
             "backbone.2.b", "gater.0.filters", "head.W1", "head.b1",
             "head.W2", "head.b2")
    for seed in range(10):
        model = GaterNet(small_gated_spec(), seed=seed)
        rng = np.random.default_rng(500 + seed)
        x = rng.standard_normal((6, 3, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 3, 6)
        for name in probe:
            err, sk, n = _composite_fd_worst(model, name, x, labels, seed)
            assert err <= tol, f"composite {name} seed {seed}: {err:.2e}"
            worst_comp = max(worst_comp, err)
            skipped += sk
            sampled += n
    assert skipped <= 0.3 * sampled, (
        f"kink-skipping ate {skipped}/{sampled} coordinates; not a real check"
    )

    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"gradient suite took {elapsed:.0f}s, budget 120s"
    print(f"criterion 1 PASS: ops worst {worst_op:.2e}, composite worst "
          f"{worst_comp:.2e} (tol {tol}), {skipped}/{sampled} kink-skipped, "
          f"{elapsed:.1f}s")


# -- 2. masked path == gated eval path ----------------------------------------


def _conv_with_bn(seed: int, cout: int, cin: int):
    rng = np.random.default_rng(seed)
    p = Conv2dParams(
        filters=Tensor(rng.standard_normal((cout, cin, 3, 3)).astype(np.float32)),
        bias=None, stride=1, padding=1,
    )
    bn = BatchNormParams(
        gamma=Tensor(rng.uniform(0.5, 1.5, cout).astype(np.float32)),
        beta=Tensor(rng.standard_normal(cout).astype(np.float32)),
        running_mean=rng.standard_normal(cout).astype(np.float32),
        running_var=rng.uniform(0.5, 2.0, cout).astype(np.float32),
    )
    return p, bn


def test_criterion_02_masking_equivalence():
    t0 = time.monotonic()
    # gated_conv_forward in eval, the production path, against the masked
    # conv built from layers primitives: relu(bn(conv2d(x))) * gates

    # all 256 gate patterns of an 8-filter layer, one pattern per sample
    patterns = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(np.float32)
    assert patterns.shape == (256, 8) and len(np.unique(patterns, axis=0)) == 256
    x = np.random.default_rng(0).standard_normal((256, 3, 6, 6)).astype(np.float32)
    p, bn = _conv_with_bn(1, 8, 3)
    masked = masked_reference(x, p, bn, patterns)
    skipped = gated_conv_forward(Tensor(x), p, bn, Tensor(patterns), False).data
    assert np.array_equal(masked, skipped), "exhaustive 8-filter patterns"

    # 100 random patterns on a 32-filter layer
    rng = np.random.default_rng(2)
    gates = (rng.random((100, 32)) < 0.5).astype(np.float32)
    x2 = rng.standard_normal((100, 4, 5, 5)).astype(np.float32)
    p2, bn2 = _conv_with_bn(3, 32, 4)
    masked2 = masked_reference(x2, p2, bn2, gates)
    skipped2 = gated_conv_forward(Tensor(x2), p2, bn2, Tensor(gates), False).data
    assert np.array_equal(masked2, skipped2), "random 32-filter patterns"

    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"masking equivalence took {elapsed:.0f}s, budget 60s"
    print(f"criterion 2 PASS: 256 exhaustive + 100 random patterns bitwise "
          f"equal, {elapsed:.1f}s")


# -- 3. binary gate contracts ---------------------------------------------------


def test_criterion_03_semhash_contracts():
    # eval: binary, the threshold indicator, deterministic
    model = GaterNet(small_gated_spec(), seed=0)
    x = Tensor(np.random.default_rng(1).standard_normal(
        (32, 3, 8, 8)).astype(np.float32))
    _, b1 = model.forward(x, training=False)
    _, b2 = model.forward(x, training=False)
    gates = b1.selected.data
    assert np.all((gates == 0.0) | (gates == 1.0)), "eval gates not binary"
    assert np.array_equal(gates, (b1.g_pre.data > 0).astype(gates.dtype)), \
        "eval gates differ from indicator(pre-activation > 0)"
    assert np.array_equal(gates, b2.selected.data), "eval gates not deterministic"

    # train: branch routing fraction 0.5 +/- 0.02 over 10,000 samples,
    # counted from the output rows: a hard row is all 0/1, and a soft row
    # is only if all 8 of its noisy scores clip
    g_pre = Tensor(np.random.default_rng(2).standard_normal(
        (10_000, 8)).astype(np.float32))
    sel = semhash_forward(g_pre, True, np.random.default_rng(3)).selected.data
    frac = float(np.all((sel == 0.0) | (sel == 1.0), axis=1).mean())
    assert abs(frac - 0.5) <= 0.02, f"hard-branch fraction {frac}"

    # straight-through: hard-branch backward equals smooth-branch backward
    grads = {}
    for branch in ("alpha", "beta"):
        leaf = Tensor(np.random.default_rng(4).standard_normal(
            (64, 8)).astype(np.float32), requires_grad=True)
        out = semhash_forward(leaf, True, PinnedBranchRng(5, branch))
        (out.selected * _mix(9, (64, 8))).sum().backward()
        grads[branch] = leaf.grad.copy()
    assert np.array_equal(grads["alpha"], grads["beta"]), \
        "straight-through gradient differs between branches"

    print(f"criterion 3 PASS: eval binary indicator deterministic; "
          f"branch fraction {frac:.4f}; branch backward bitwise equal")


# -- 4. the sparsity term cannot steer the backbone -----------------------------


def test_criterion_04_gradient_routing():
    model = GaterNet(small_gated_spec(), seed=3)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((8, 3, 8, 8)).astype(np.float32)
    labels = np.arange(8) % 3

    report = gradient_routing_check(model, x, labels, lambda_=0.1)
    assert report.backbone_reached == [], report.backbone_reached
    assert report.max_backbone_grad == 0.0
    assert report.head_w2_grad_nonzero

    def backbone_grads(lambda_):
        logits, bundle = model.forward(
            Tensor(x), training=True, rng=np.random.default_rng(7))
        loss = total_loss(logits, labels, bundle.selected, lambda_)
        for t in model.params.values():
            t.zero_grad()
        loss.backward()
        return {k: t.grad.copy() for k, t in model.params.items()
                if k.startswith("backbone.")}

    plain, penalized = backbone_grads(0.0), backbone_grads(0.1)
    for k in plain:
        diff = np.abs(plain[k] - penalized[k]).max()
        assert diff == 0.0, f"{k}: backbone grad moved by {diff} under the penalty"

    print("criterion 4 PASS: penalty reaches no backbone parameter "
          "(symbolic + exact-zero grad diff with fixed gates)")


# -- 5. bottleneck head parameter count -----------------------------------------


def test_criterion_05_parameter_count():
    # h = 64 pooled gater features, c = 7200 gated filters, bottleneck 8
    spec = ModelSpec(
        input_shape=(1, 4, 4),
        num_classes=2,
        backbone=(
            LayerSpec("conv", filters=7200, gated=True),
            LayerSpec("fc", width=2),
        ),
        gater=(LayerSpec("conv", filters=64),),
        bottleneck=8,
    )
    report = param_count(GaterNet(spec, seed=0))
    assert report.head_weight_count == 58_112, report.head_weight_count
    assert report.head_single_layer_weight_count == 460_800
    print("criterion 5 PASS: head weights 58,112 vs single-layer 460,800 "
          "(h=64, c=7200, b=8)")


# -- 6 & 7. desk-scale sweep: sparsity trend and gated-vs-plain accuracy --------

SWEEP_LAMBDAS = (0.0, 0.1, 1.0)
SWEEP_SEEDS = (0, 1, 2)


def sweep_spec() -> ModelSpec:
    return ModelSpec(
        input_shape=(3, 16, 16),
        num_classes=4,
        backbone=(
            LayerSpec("conv", filters=12),
            LayerSpec("pool"),
            LayerSpec("conv", filters=16, gated=True),
            LayerSpec("conv", filters=16, gated=True),
            LayerSpec("pool"),
            LayerSpec("conv", filters=16, gated=True),
            LayerSpec("pool"),
            LayerSpec("fc", width=4),
        ),
        gater=(
            LayerSpec("conv", filters=8),
            LayerSpec("pool"),
            LayerSpec("conv", filters=12),
            LayerSpec("pool"),
        ),
        bottleneck=4,
    )


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """Three seeds; per seed both pretraining phases run once, then one
    joint run per lambda. The plain pretrained backbone doubles as the
    ungated baseline."""
    t0 = time.monotonic()
    spec = sweep_spec()
    desc = DatasetDescriptor(kind="synthetic", num_classes=4,
                             train_size=1024, eval_size=256,
                             image_size=16, noise=1.0)
    root = tmp_path_factory.mktemp("sweep")

    def cfg(phase, seed, **kw):
        base = dict(batch_size=64, momentum=0.9, weight_decay=1e-4, seed=seed)
        base.update(kw)
        return TrainConfig(phase=phase, **base)

    rows = []
    for seed in SWEEP_SEEDS:
        splits = load_dataset(desc, seed)
        pre = root / f"seed{seed}"
        rb = run_phase(spec, cfg("pretrain_backbone", seed, epochs=6,
                                 lr_schedule=((0, 0.05),)), splits, pre)
        run_phase(spec, cfg("pretrain_gater", seed, epochs=6,
                            lr_schedule=((0, 0.05),)), splits, pre)
        for lam in SWEEP_LAMBDAS:
            rj = run_phase(
                spec,
                cfg("joint", seed, epochs=14,
                    lr_schedule=((0, 0.02), (10, 0.004)), lambda_=lam),
                splits, pre / f"lambda{lam}",
                backbone_ckpt=pre / "pretrain_backbone.ckpt",
                gater_ckpt=pre / "pretrain_gater.ckpt",
            )
            rows.append({
                "seed": seed, "lambda": lam,
                "acc": rj.final_eval_acc,
                "activation": rj.final_gate_activation,
                "baseline_acc": rb.final_eval_acc,
            })
    return {"rows": rows, "elapsed": time.monotonic() - t0}


@pytest.mark.slow
def test_criterion_06_sparsity_trend(sweep):
    means = []
    for lam in SWEEP_LAMBDAS:
        acts = [r["activation"] for r in sweep["rows"] if r["lambda"] == lam]
        assert len(acts) == len(SWEEP_SEEDS)
        means.append(float(np.mean(acts)))
    for a, b in zip(means, means[1:]):
        assert b <= a + 1e-12, (
            f"mean gate activation increased along the lambda sweep: {means}"
        )
    assert sweep["elapsed"] < 1800, f"sweep took {sweep['elapsed']:.0f}s"
    detail = ", ".join(f"lambda {l}: {m:.4f}"
                       for l, m in zip(SWEEP_LAMBDAS, means))
    print(f"criterion 6 PASS: non-increasing activation ({detail}), "
          f"{sweep['elapsed']:.0f}s")


@pytest.mark.slow
def test_criterion_07_gated_vs_ungated(sweep):
    gated = [r["acc"] for r in sweep["rows"] if r["lambda"] == 0.1]
    baseline = [r["baseline_acc"] for r in sweep["rows"] if r["lambda"] == 0.1]
    mean_gated = float(np.mean(gated))
    mean_base = float(np.mean(baseline))
    assert mean_gated >= mean_base - 0.005, (
        f"gated {mean_gated:.4f} fell more than 0.5pp below the ungated "
        f"baseline {mean_base:.4f}"
    )
    assert sweep["elapsed"] < 2700
    print(f"criterion 7 PASS: gated {mean_gated:.4f} vs ungated "
          f"{mean_base:.4f} over {len(SWEEP_SEEDS)} seeds; three-phase "
          f"pipeline completed end-to-end")


# -- 8. analytics against brute force -------------------------------------------


def test_criterion_08_analytics_oracles():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 30))
        c = int(rng.integers(2, 40))
        log = GateLog(
            gates=(rng.random((n, c)) < rng.uniform(0.1, 0.9)).astype(np.uint8),
            labels=rng.integers(0, 5, n).astype(np.int64),
            layer_ids=np.repeat(np.arange(-(-c // 5)), 5)[:c].astype(np.int64),
            filter_ids=np.tile(np.arange(5), -(-c // 5))[:c].astype(np.int64),
        )
        tax = classify_gates(log)
        dep_expect = []
        for j in range(c):
            col = [int(v) for v in log.gates[:, j]]
            want = (ALWAYS_ON if sum(col) == n
                    else ALWAYS_OFF if sum(col) == 0 else INPUT_DEPENDENT)
            assert tax.categories[j] == want, (seed, j)
            if want == INPUT_DEPENDENT:
                dep_expect.append(sum(col))
        assert (tax.total(ALWAYS_ON) + tax.total(ALWAYS_OFF)
                + tax.total(INPUT_DEPENDENT)) == c

        on_rep = on_count_histogram(log, bins=6)
        assert sorted(on_rep.on_counts.tolist()) == sorted(dep_expect)
        assert int(on_rep.histogram.counts.sum()) == len(dep_expect)

        fired = fired_count_per_sample(log, bins=6)
        rows = [sum(int(v) for v in row) for row in log.gates]
        assert fired.per_sample.tolist() == rows
        assert fired.total == sum(rows)
        assert fired.min == min(rows) and fired.max == max(rows)
        assert int(fired.histogram.counts.sum()) == n

    # principal components against an independent eigendecomposition
    rng = np.random.default_rng(99)
    u, _ = np.linalg.qr(rng.standard_normal((50, 6)))
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    x = u @ np.diag([9.0, 5.0, 2.5, 1.2, 0.5, 0.2]) @ v.T + 3.0
    result = pca_reduce(x, 4)
    ratios = result.explained_variance_ratio
    assert np.all(np.diff(ratios) <= 1e-15), "ratios must be non-increasing"
    assert float(ratios.sum()) <= 1.0 + 1e-9
    xc = x - x.mean(axis=0)
    evals, evecs = np.linalg.eigh(xc.T @ xc)
    evecs = evecs[:, ::-1]
    for i in range(4):
        align = abs(float(result.components[i] @ evecs[:, i]))
        assert align > np.cos(np.pi / 180), f"axis {i} off by over 1 degree"

    print("criterion 8 PASS: 20 logs match brute-force scans; partition "
          "identity holds; PCA axes within 1 degree of eigenvectors")


# -- 9. persistence -------------------------------------------------------------


def test_criterion_09_persistence(tmp_path):
    # checkpoint: save -> load -> eval reproduces outputs bit for bit
    spec = small_gated_spec()
    desc = DatasetDescriptor(kind="synthetic", num_classes=3, train_size=48,
                             eval_size=24, image_size=8, noise=0.5)
    splits = load_dataset(desc, seed=5)
    res = run_phase(spec, TrainConfig("joint", epochs=1, batch_size=16,
                                      lr_schedule=((0, 0.05),)),
                    splits, tmp_path, from_scratch=True)
    tensors, _ = load_checkpoint(res.checkpoint_path)
    clone = GaterNet(spec, seed=42)
    for name, t in clone.params.items():
        t.data[...] = tensors[name]
    for name, arr in clone.buffers.items():
        arr[...] = tensors[name]
    x = Tensor(splits.eval_x)
    a, ba = res.model.forward(x, training=False)
    b, bb = clone.forward(x, training=False)
    assert np.array_equal(a.data, b.data), "reloaded logits differ"
    assert np.array_equal(ba.selected.data, bb.selected.data)

    # CIFAR-10 binary fixture: labels and pixel planes land where crafted
    rec = np.zeros(3073, dtype=np.uint8)
    rec[0] = 6
    rec[1] = 255          # R (0, 0)
    rec[1 + 1024] = 51    # G (0, 0)
    rec[1 + 2048 + 33] = 102  # B (1, 1)
    path = tmp_path / "one.bin"
    path.write_bytes(rec.tobytes())
    imgs, labels = load_cifar10_binary([path], (0, 0, 0), (1, 1, 1))
    assert labels.tolist() == [6]
    assert imgs[0, 0, 0, 0] == 1.0
    assert imgs[0, 1, 0, 0] == np.float32(51) / np.float32(255)
    assert imgs[0, 2, 1, 1] == np.float32(102) / np.float32(255)
    assert imgs[0].sum() == imgs[0, 0, 0, 0] + imgs[0, 1, 0, 0] + imgs[0, 2, 1, 1]

    # gate log: write -> read is lossless for awkward widths
    rng = np.random.default_rng(6)
    for c in (1, 8, 13, 31):
        log = GateLog(
            gates=(rng.random((11, c)) < 0.5).astype(np.uint8),
            labels=rng.integers(0, 4, 11).astype(np.int64),
            layer_ids=np.arange(c, dtype=np.int64),
            filter_ids=np.zeros(c, dtype=np.int64),
        )
        save_gate_log(tmp_path / f"w{c}.glog", log)
        back = load_gate_log(tmp_path / f"w{c}.glog")
        assert np.array_equal(back.gates, log.gates)
        assert np.array_equal(back.labels, log.labels)
        assert np.array_equal(back.layer_ids, log.layer_ids)
        assert np.array_equal(back.filter_ids, log.filter_ids)

    print("criterion 9 PASS: checkpoint eval bit-identical; CIFAR fixture "
          "decoded exactly; gate log lossless at widths 1/8/13/31")


# -- 10. scheduled gate dropout --------------------------------------------------


def test_criterion_10_scheduled_dropout(tmp_path):
    # 41 epochs of 1 step each: the final step is 40
    sched = TrainConfig("joint", epochs=41, batch_size=1,
                        lr_schedule=((0, 0.05),), dropout_start=0.0,
                        dropout_end=0.05)
    assert sched.dropout_rate(0, 1) == 0.0
    assert sched.dropout_rate(40, 1) == 0.05  # exact, not approximate
    assert sched.dropout_rate(20, 1) == pytest.approx(0.025)

    # a real run's metrics land on the anchors: 0.0 start, 0.05 final step
    spec = small_gated_spec()
    desc = DatasetDescriptor(kind="synthetic", num_classes=3, train_size=48,
                             eval_size=24, image_size=8, noise=0.5)
    cfg = TrainConfig("joint", epochs=2, batch_size=48,
                      lr_schedule=((0, 0.05),), dropout_start=0.0,
                      dropout_end=0.05)
    res = run_phase(spec, cfg, load_dataset(desc, seed=7), tmp_path,
                    from_scratch=True)
    # one step per epoch: the ramp starts at 0.0 and ends exactly at 0.05
    assert res.rows[0]["dropout_rate"] == 0.0
    assert res.rows[-1]["dropout_rate"] == 0.05

    # binary gates stay binary under dropout
    gates = Tensor((np.random.default_rng(8).random((200, 16)) < 0.5)
                   .astype(np.float32))
    dropped = gate_dropout(gates, 0.5, np.random.default_rng(9))
    assert np.all((dropped.data == 0.0) | (dropped.data == 1.0))
    assert np.all(dropped.data <= gates.data)

    print("criterion 10 PASS: rate 0.0 at step 0, exactly 0.05 at the final "
          "step, binary gates preserved")
