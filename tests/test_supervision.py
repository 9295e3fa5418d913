import numpy as np
import pytest

import emosup as es
import emosup.prompts as pr
import emosup.supervision as sv
from emosup.errors import ContractError
import conftest
from test_batched_steps import train_demo, train_per_entry  # the loop and its oracle


TINY = dict(steps=15, batch_size=4, lr=0.05, hidden=(16,))


@pytest.fixture(scope="module")
def demo_env(default_manifest, trained_checkpoint, default_suite, default_world):
    ckpt, _ = trained_checkpoint
    reg = es.DifferenceRegularizer(ckpt, default_suite, default_manifest)
    return default_manifest, ckpt, default_suite, default_world, reg


# ---------------------------------------------------------------------------
# total loss
# ---------------------------------------------------------------------------

def test_total_loss_arithmetic():
    value, _ = es.total_loss([0.5], np.zeros((1, 3)), [1.0], np.zeros((1, 3)),
                             es.LambdaConfig(0.4, "ned"))
    assert value == pytest.approx([0.9])


def test_total_loss_lambda_zero_equals_base(rng):
    base_grad = rng.standard_normal((1, 5))
    value, grad = es.total_loss([0.37], base_grad, [123.0], rng.standard_normal((1, 5)),
                                es.LambdaConfig(0.0))
    assert value.tolist() == [0.37]
    assert np.array_equal(grad, base_grad)


def test_total_loss_gradient_linearity(rng):
    # algebraic oracle: independent recomputation of base + lambda * l2
    for _ in range(20):
        base, l2 = rng.standard_normal((2, 3))
        bg, lg = rng.standard_normal((2, 3, 4))
        lam = float(rng.uniform(0, 3))
        value, grad = es.total_loss(base, bg, l2, lg, es.LambdaConfig(lam))
        assert np.allclose(value, base + lam * l2, atol=1e-12)
        assert np.allclose(grad, bg + lam * lg, atol=1e-12)


def test_total_loss_rejects_nonfinite(rng):
    with pytest.raises(ContractError):
        es.total_loss([float("inf")], np.zeros((1, 2)), [0.0], np.zeros((1, 2)),
                      es.LambdaConfig(0.1))


def test_lambda_validation_and_defaults():
    with pytest.raises(ContractError):
        es.LambdaConfig(-0.1)
    with pytest.raises(ContractError):
        es.LambdaConfig(float("nan"))
    assert es.lambda_for_baseline("ned").value == 0.4
    assert es.lambda_for_baseline("icface").value == 0.05
    assert es.lambda_for_baseline("sserd").value == 0.2
    assert es.lambda_for_baseline("toy").value == 0.4
    with pytest.raises(ContractError):
        es.lambda_for_baseline("unknown")


def test_squared_error_hook_gradient(rng):
    g = rng.standard_normal((1, 6))
    t = rng.standard_normal((1, 6))
    value, grad = es.squared_error_loss(g, t)
    assert value == pytest.approx([float(np.mean((g - t) ** 2))])
    h = 1e-6
    for i in range(6):
        e = np.zeros((1, 6))
        e[0, i] = h
        fd = (es.squared_error_loss(g + e, t)[0][0]
              - es.squared_error_loss(g - e, t)[0][0]) / (2 * h)
        assert grad[0, i] == pytest.approx(fd, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("hidden, bad", [((0,), 0), ((16, -3), -3), ((16, 0, 8), 0)])
def test_demo_config_rejects_a_hidden_width_below_one(hidden, bad):
    with pytest.raises(ContractError, match=f"hidden widths must be >= 1, got {bad}$"):
        es.DemoConfig(hidden=hidden).validate()


# ---------------------------------------------------------------------------
# batch draws
# ---------------------------------------------------------------------------

def scalar_demo_pairs(emotions, rng, batch_size):
    """The demo's draws as scalar calls: one source draw, then one target
    draw, per pair."""
    picks, targets = [], []
    for _ in range(batch_size):
        pick = int(rng.integers(len(emotions)))
        others = [int(e) for e in es.EMOTIONS if int(e) != emotions[pick]]
        picks.append(pick)
        targets.append(others[int(rng.integers(len(others)))])
    return picks, targets


@pytest.mark.parametrize("seed", [0, 1, 2, 17, 12345])
@pytest.mark.parametrize("batch_size", [1, 16])
@pytest.mark.parametrize("emotions", [np.array([3]), np.arange(76) % 7])
def test_demo_pairs_draw_the_scalar_stream(seed, batch_size, emotions):
    # a numpy whose array-bounded draws consume the stream differently from
    # scalar draws fails here, not through the pinned demo accuracies. The
    # demo draws every step's batch in one call before its first step; that
    # draw must equal one draw per step, and leave the stream where they do.
    steps = 40
    upfront, per_step, scalar = (np.random.Generator(np.random.PCG64(seed))
                                 for _ in range(3))
    picks, targets = sv._demo_pairs(emotions, upfront, batch_size, steps)
    assert picks.shape == targets.shape == (steps, batch_size)
    for step in range(steps):
        step_picks, step_targets = sv._demo_pairs(emotions, per_step, batch_size, 1)
        ref_picks, ref_targets = scalar_demo_pairs(emotions, scalar, batch_size)
        assert step_picks.tolist() == [picks[step].tolist()] == [ref_picks]
        assert step_targets.tolist() == [targets[step].tolist()] == [ref_targets]
    assert (targets != emotions[picks]).all()
    states = [g.bit_generator.state for g in (upfront, per_step, scalar)]
    assert states[0] == states[1] == states[2]
    draws = [(g.integers(2 ** 40), g.random()) for g in (upfront, per_step, scalar)]
    assert draws[0] == draws[1] == draws[2]


# ---------------------------------------------------------------------------
# demo runs
# ---------------------------------------------------------------------------

def test_lambda_zero_bit_identical_to_disabled_path(demo_env):
    # on the per-entry oracle, lambda 0 trains bit-identically to a run that
    # never computes L2; the demo's lambda 0 run matches that run to 1e-12
    # (its stacked backward pass sums in another order)
    manifest, ckpt, suite, world, reg = demo_env
    cfg = es.DemoConfig(seed=4, **TINY)
    gen_zero, base_zero, _ = train_per_entry(manifest, reg, world, 0.0, cfg,
                                             difference_path=True)
    gen_off, base_off, l2_off = train_per_entry(manifest, reg, world, 0.0, cfg,
                                                difference_path=False)
    assert base_zero == base_off
    assert l2_off == 0.0
    assert np.array_equal(gen_zero.vector, gen_off.vector)
    gen, [base], _ = train_demo(manifest, reg, world, [0.0], cfg)
    assert base == pytest.approx(base_off, rel=1e-12)
    np.testing.assert_allclose(gen.vector, [gen_off.vector],
                               rtol=1e-12, atol=1e-15)


def test_checkpoint_parameters_unchanged_by_demo(demo_env):
    manifest, ckpt, suite, world, _ = demo_env
    before = ckpt.content_hash()
    cfg = es.DemoConfig(seed=5, **TINY)
    es.supervise_demo(manifest, ckpt, es.LambdaConfig(0.4, "toy"), suite, cfg,
                      world=world)
    assert ckpt.content_hash() == before


def test_demo_report_reproducible_hash(demo_env):
    manifest, ckpt, suite, world, _ = demo_env
    cfg = es.DemoConfig(seed=6, **TINY)
    lam = es.LambdaConfig(0.4, "toy")
    r1 = es.supervise_demo(manifest, ckpt, lam, suite, cfg, world=world)
    r2 = es.supervise_demo(manifest, ckpt, lam, suite, cfg, world=world)
    assert r1.content_hash() == r2.content_hash()
    assert r1.baseline.lam == 0.0 and r1.supervised.lam == 0.4


def test_demo_requires_frozen_checkpoint(demo_env, default_suite):
    manifest, _, suite, world, _ = demo_env
    unfrozen = pr._fresh_checkpoint(suite, es.TrainConfig(),
                                    np.random.Generator(np.random.PCG64(0)))
    with pytest.raises(ContractError):
        es.supervise_demo(manifest, unfrozen, es.LambdaConfig(0.1), suite,
                          es.DemoConfig(seed=0, **TINY), world=world)


def test_sweep_single_zero_grid_matches_baseline(demo_env):
    manifest, ckpt, suite, world, _ = demo_env
    cfg = es.DemoConfig(seed=7, **TINY)
    rows = es.sweep_lambda(manifest, ckpt, [0.0], suite, cfg, world=world)
    assert len(rows) == 1
    report = es.supervise_demo(manifest, ckpt, es.LambdaConfig(0.4), suite, cfg,
                               world=world)
    assert rows[0] == report.baseline


def test_sweep_row_count_and_lambda_order(demo_env):
    manifest, ckpt, suite, world, _ = demo_env
    cfg = es.DemoConfig(seed=8, **TINY)
    grid = [0.0, 0.2, 0.4]
    rows = es.sweep_lambda(manifest, ckpt, grid, suite, cfg, world=world)
    assert [r.lam for r in rows] == grid


def test_sweep_seed_reuse_identical_rows(demo_env):
    # rerun oracle: a lambda present in two different grids yields the same row
    manifest, ckpt, suite, world, _ = demo_env
    cfg = es.DemoConfig(seed=9, **TINY)
    rows_a = es.sweep_lambda(manifest, ckpt, [0.2, 0.4], suite, cfg, world=world)
    rows_b = es.sweep_lambda(manifest, ckpt, [0.4], suite, cfg, world=world)
    assert rows_a[1] == rows_b[0]


def test_sweep_validates_grid(demo_env):
    manifest, ckpt, suite, world, _ = demo_env
    cfg = es.DemoConfig(seed=0, **TINY)
    with pytest.raises(ContractError):
        es.sweep_lambda(manifest, ckpt, [], suite, cfg, world=world)
    with pytest.raises(ContractError):
        es.sweep_lambda(manifest, ckpt, [-1.0], suite, cfg, world=world)


def test_demo_csv_schema(demo_env, tmp_path):
    manifest, ckpt, suite, world, _ = demo_env
    cfg = es.DemoConfig(seed=10, **TINY)
    report = es.supervise_demo(manifest, ckpt, es.LambdaConfig(0.4), suite, cfg,
                               world=world)
    path = tmp_path / "report.csv"
    sv.write_demo_csv(report.rows(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda,base_loss,l2_loss,emotion_accuracy,seed"
    assert len(lines) == 3


def demo_rows(manifest, reg, world, lams, config):
    return conftest.demo_rows(manifest, reg, sv._clean_targets(manifest, world), lams,
                              config)


def test_lambda_zero_row_unchanged_without_the_frozen_backward(demo_env, monkeypatch):
    manifest, _, _, world, reg = demo_env
    cfg = es.DemoConfig(seed=11, **TINY)
    [row] = demo_rows(manifest, reg, world, [0.0], cfg)
    full = es.DifferenceRegularizer.loss_and_grad

    def always_with_grad(self, *args, with_grad=True):
        return full(self, *args)

    monkeypatch.setattr(es.DifferenceRegularizer, "loss_and_grad", always_with_grad)
    assert demo_rows(manifest, reg, world, [0.0], cfg) == [row]
    assert row.l2_loss > 0


def test_lambda_zero_makes_no_backward_through_frozen_params(demo_env, monkeypatch):
    manifest, _, _, world, reg = demo_env
    cfg = es.DemoConfig(seed=12, **TINY)
    calls = {"frozen": 0, "trainable": 0, "bank": 0}
    backward, bank_backward = sv.mlp_backward, pr.layers_backward

    def counting_backward(p, cache, upstream):
        calls["trainable" if p.layers[0].weights.flags.writeable else "frozen"] += 1
        return backward(p, cache, upstream)

    def counting_bank_backward(layers, *args, **kwargs):
        # the frozen bank's input-only pass: read-only layers, no parameter grads
        assert not any(l.weights.flags.writeable for l in layers)
        assert layers is reg.ckpt.frozen_bank and not args[3:] and not kwargs
        calls["bank"] += 1
        return bank_backward(layers, *args, **kwargs)

    monkeypatch.setattr(sv, "mlp_backward", counting_backward)
    monkeypatch.setattr(pr, "layers_backward", counting_bank_backward)
    demo_rows(manifest, reg, world, [0.0], cfg)
    # one generator backward per step over the stacked batch
    assert calls == {"frozen": 0, "trainable": cfg.steps, "bank": 0}
    demo_rows(manifest, reg, world, [0.4], cfg)
    # one backward pass through the frozen bank per step
    assert calls == {"frozen": 0, "trainable": 2 * cfg.steps, "bank": cfg.steps}


@pytest.mark.parametrize("steps", [1, 7, 25])
def test_lambda_zero_computes_l2_only_in_the_reported_tail(demo_env, monkeypatch, steps):
    manifest, _, _, world, reg = demo_env
    cfg = es.DemoConfig(seed=13, steps=steps, batch_size=4, lr=0.05, hidden=(16,))
    tail = max(1, steps // 10)
    calls = []
    loss = pr.difference_loss_with_grads

    def counting_loss(pair):
        calls.append(len(pair.visual_diff))
        return loss(pair)

    monkeypatch.setattr(pr, "difference_loss_with_grads", counting_loss)
    # L2 rows per grid, and the steps that score any: one L2 pass a step
    # over the rows of every run that needs it
    expected = {(0.0,): (tail, tail), (0.4,): (steps, steps),
                (0.0, 0.4): (steps + tail, steps)}
    runs = {}
    for lams, (rows, passes) in expected.items():
        calls.clear()
        runs[lams] = train_demo(manifest, reg, world, list(lams), cfg)
        assert sum(calls) == cfg.batch_size * rows, lams
        assert len(calls) == passes, lams
    # the fused pair gives each run's lone result: (base, l2) per run
    losses = {lams: list(zip(bases, l2s)) for lams, (_, bases, l2s) in runs.items()}
    assert losses[(0.0, 0.4)] == losses[(0.0,)] + losses[(0.4,)]
    assert losses[(0.0,)][0][1] > 0


# ---------------------------------------------------------------------------
# the regularizer as a plug-in
# ---------------------------------------------------------------------------

def test_regularizer_refuses_an_unfrozen_checkpoint(default_manifest, default_suite):
    unfrozen = pr._fresh_checkpoint(default_suite, es.TrainConfig(),
                                    np.random.Generator(np.random.PCG64(0)))
    with pytest.raises(ContractError, match="must be frozen"):
        es.DifferenceRegularizer(unfrozen, default_suite, default_manifest)


def regularizer_batch(reg, size=3):
    rows = np.arange(size)
    return rows, reg.visual[rows], (reg.emotion[rows] + 1) % 7


@pytest.mark.parametrize("code", [-1, 7])
def test_regularizer_refuses_a_target_code_outside_the_emotions(demo_env, code):
    reg = demo_env[-1]
    rows, generated, targets = regularizer_batch(reg)
    targets[1] = code
    with pytest.raises(ContractError, match=r"target codes must lie in \[0, 7\)"):
        reg.loss_and_grad(rows, generated, targets)


@pytest.mark.parametrize("row", [-1, "N"])
def test_regularizer_refuses_a_row_outside_the_manifest(demo_env, row):
    manifest, reg = demo_env[0], demo_env[-1]
    n = len(manifest.samples)
    rows, generated, targets = regularizer_batch(reg)
    rows[1] = n if row == "N" else row
    with pytest.raises(ContractError, match=rf"rows must lie in \[0, {n}\)"):
        reg.loss_and_grad(rows, generated, targets)


@pytest.mark.parametrize("edit, message", [
    (lambda g: g[:2], r"shape \(2, 64\), expected \(3, 64\)"),
    (lambda g: g[:, :63], r"shape \(3, 63\), expected \(3, 64\)"),
    (lambda g: g[0], r"2-D array, got shape \(64,\)"),
    (lambda g: np.where(np.arange(64) == 5, np.nan, g), "non-finite"),
])
def test_regularizer_refuses_a_generated_stack_of_another_shape_or_not_finite(
        demo_env, edit, message):
    reg = demo_env[-1]
    rows, generated, targets = regularizer_batch(reg)
    with pytest.raises(ContractError, match=message):
        reg.loss_and_grad(rows, edit(generated), targets)


def test_regularizer_refuses_index_arrays_that_are_not_integer_rows(demo_env):
    reg = demo_env[-1]
    rows, generated, targets = regularizer_batch(reg)
    for bad_rows, bad_targets in [(rows.astype(float), targets), (rows[:, None], targets),
                                  (rows, targets[:2])]:
        with pytest.raises(ContractError):
            reg.loss_and_grad(bad_rows, generated, bad_targets)


def train_linear_host(reg, manifest, world, lam, steps=400, batch=16, lr=0.05):
    """A host other than the toy generator, written against ``emosup``'s public
    names alone: a linear map from (source visual ++ target one-hot) to d_e,
    started as a passthrough of the source. Returns the tail-mean L2."""
    d, k = reg.visual.shape[1], len(es.EMOTIONS)
    weights = np.hstack([np.eye(d), np.zeros((d, k))])
    train = np.array([reg.row[s.id] for s in manifest.in_split("train")])
    rng = np.random.default_rng(0)
    history = []
    for _ in range(steps):
        rows = rng.choice(train, batch)
        targets = (reg.emotion[rows] + rng.integers(1, k, batch)) % k  # never the source's
        x = np.hstack([reg.visual[rows], np.eye(k)[targets]])
        out = x @ weights.T
        truth = np.stack([world.clean_visual(manifest.samples[r].identity, t)
                          for r, t in zip(rows, targets)])
        base, base_grad = es.squared_error_loss(out, truth)
        l2, l2_grad = reg.loss_and_grad(rows, out, targets)
        _, grad = es.total_loss(base, base_grad, l2, l2_grad, es.LambdaConfig(lam))
        weights -= lr * grad.T @ x / batch
        history.append(float(np.mean(l2)))
    return float(np.mean(history[-steps // 10:]))


def test_a_second_host_trains_through_the_public_regularizer(demo_env):
    manifest, ckpt, suite, world, _ = demo_env
    reg = es.DifferenceRegularizer(ckpt, suite, manifest)
    # the gradient is the finite-difference slope of each row's own loss
    rows = np.array([0, 5, 17, 40])
    targets = (reg.emotion[rows] + 3) % 7
    generated = reg.visual[rows] + 0.1 * np.random.default_rng(1).standard_normal(
        (len(rows), reg.visual.shape[1]))
    _, grad = reg.loss_and_grad(rows, generated, targets)
    h = 1e-6
    for j in range(generated.shape[1]):
        step = np.zeros_like(generated)
        step[:, j] = h
        up = reg.loss_and_grad(rows, generated + step, targets, with_grad=False)[0]
        down = reg.loss_and_grad(rows, generated - step, targets, with_grad=False)[0]
        np.testing.assert_allclose(grad[:, j], (up - down) / (2 * h), rtol=1e-5, atol=1e-8)
    # and it supervises: L2 trained in lowers the L2 the host ends at
    assert train_linear_host(reg, manifest, world, 0.4) < \
        train_linear_host(reg, manifest, world, 0.0)
