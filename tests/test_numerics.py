import types

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emosup.emotions import EMOTIONS
from emosup.errors import ContractError, NumericalError
from emosup.numerics import (EPS_NORM, IDENTITY, RELU, MlpParams,
                             chain_size, cosine_grads, cosine_with_flag, init_mlp,
                             mlp_backward, mlp_forward, psd_sqrt_trace, sgd_step)
from emosup.prompts import (MULTI, SINGLE_CONDITIONAL, TrainConfig, _fresh_checkpoint,
                            project_visual)
from conftest import input_grad_row, network, project_row


def random_psd(rng, d):
    m = rng.standard_normal((d, d))
    return m @ m.T / d


# ---------------------------------------------------------------------------
# cosine similarity
# ---------------------------------------------------------------------------

def test_cosine_identical_direction():
    assert cosine_with_flag([1, 0], [1, 0]) == (pytest.approx(1.0), False)


def test_cosine_orthogonal():
    assert cosine_with_flag([1, 0], [0, 1]) == (pytest.approx(0.0), False)


def test_cosine_derived_value():
    # oracle: direct evaluation of dot / (|a| |b|)
    a, b = np.array([1.0, 2.0]), np.array([2.0, 1.0])
    expected = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
    assert expected == pytest.approx(0.8)
    assert cosine_with_flag(a, b)[0] == pytest.approx(expected, abs=1e-15)


def test_cosine_degenerate_flag():
    sim, degenerate = cosine_with_flag([0.0, 0.0], [1.0, 2.0])
    assert sim == 0.0 and degenerate


@pytest.mark.parametrize("a, b", [
    ([1.0, 2.0], [2.0, 1.0]),
    (np.array([3.0, -1.0]), np.array([0.5, 4.0])),
    ([0.0, 0.0], [1.0, 2.0]),
    (np.zeros(3), np.zeros(3)),
])
def test_cosine_with_flag_returns_python_scalars(a, b):
    # callers branch on the flag with ``if``/``bool()``, which an array would break
    sim, degenerate = cosine_with_flag(a, b)
    assert type(sim) is float and type(degenerate) is bool


def test_cosine_dim_mismatch():
    with pytest.raises(ContractError):
        cosine_with_flag([1.0, 2.0], [1.0, 2.0, 3.0])


@settings(max_examples=100)
@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=8),
       st.floats(1e-3, 1e3))
def test_cosine_symmetry_and_scale_invariance(values, scale):
    rng = np.random.default_rng(7)
    a = np.array(values)
    b = rng.standard_normal(a.shape[0])
    sim_ab, degenerate = cosine_with_flag(a, b)
    sim_ba, _ = cosine_with_flag(b, a)
    assert sim_ab == pytest.approx(sim_ba, abs=1e-12)
    sim_scaled, degenerate_scaled = cosine_with_flag(scale * a, b)
    if degenerate == degenerate_scaled:
        assert abs(sim_ab - sim_scaled) < 1e-11
    else:
        # scaling moved |a| across EPS_NORM, below which the convention gives 0
        assert (sim_ab if degenerate else sim_scaled) == 0.0
    assert -1 - 1e-12 <= sim_ab <= 1 + 1e-12


def test_cosine_grads_match_finite_differences(rng):
    a = rng.standard_normal(6)
    b = rng.standard_normal(6)
    da, db, _, _ = (g[0] for g in cosine_grads(a[None], b[None]))
    h = 1e-6
    for i in range(6):
        e = np.zeros(6)
        e[i] = h
        fd_a = (cosine_with_flag(a + e, b)[0] - cosine_with_flag(a - e, b)[0]) / (2 * h)
        fd_b = (cosine_with_flag(a, b + e)[0] - cosine_with_flag(a, b - e)[0]) / (2 * h)
        assert da[i] == pytest.approx(fd_a, rel=1e-5, abs=1e-8)
        assert db[i] == pytest.approx(fd_b, rel=1e-5, abs=1e-8)


def cosine_grads_by_where(a, b):
    """``cosine_grads`` as it was written with five ``np.where`` passes over
    every row: the reference its degenerate-row indexing must equal."""
    a2, b2 = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    na = np.linalg.norm(a2, axis=1, keepdims=True)
    nb = np.linalg.norm(b2, axis=1, keepdims=True)
    keep = (na >= EPS_NORM) & (nb >= EPS_NORM)
    na, nb = np.where(keep, na, 1.0), np.where(keep, nb, 1.0)
    c = np.where(keep, np.einsum("ij,ij->i", a2, b2)[:, None] / (na * nb), 0.0)
    da = np.where(keep, b2 / (na * nb) - c * a2 / (na * na), 0.0)
    db = np.where(keep, a2 / (na * nb) - c * b2 / (nb * nb), 0.0)
    return da, db, c[:, 0], ~keep[:, 0]


# per row: zero, scaled to a norm below EPS_NORM, or not degenerate
row_scales = st.sampled_from([0.0, 1e-14, 1e-3, 1.0, 1e3])


@settings(max_examples=120)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 8),
       scales=st.lists(st.tuples(row_scales, row_scales), min_size=1, max_size=9))
@example(seed=0, dim=3, scales=[(0.0, 1.0)])
@example(seed=1, dim=2, scales=[(1e-14, 1e-14)] * 4)
@example(seed=2, dim=4, scales=[(1.0, 1.0)] * 5)
def test_cosine_grads_are_bytes_of_the_where_formula(seed, dim, scales):
    rng = np.random.default_rng(seed)
    a, b = (rng.standard_normal((len(scales), dim)) * np.array(column)[:, None]
            for column in zip(*scales))
    for g, w in zip(cosine_grads(a, b), cosine_grads_by_where(a, b)):
        assert type(g) is np.ndarray
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


def test_cosine_grads_refuse_anything_but_two_stacks_of_one_shape():
    # one pair is the one-row stack; a 1-D pair is no longer lifted
    with pytest.raises(ContractError, match="2-D"):
        cosine_grads(np.ones(3), np.ones(3))
    with pytest.raises(ContractError, match=r"has shape \(2, 3\), expected \(1, 3\)"):
        cosine_grads(np.ones((1, 3)), np.ones((2, 3)))


# ---------------------------------------------------------------------------
# MLP forward
# ---------------------------------------------------------------------------

def test_forward_zero_net_gives_zero():
    p = MlpParams([4, 3], np.zeros(15))
    out, _ = mlp_forward(p, [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(out, np.zeros(3))


def test_forward_relu_definition():
    # identity weights with a relu hidden layer pass through max(x, 0)
    p = MlpParams([2, 2, 2], np.zeros(12))
    for layer in p.layers:
        layer.weights[...] = np.eye(2)
    out, _ = mlp_forward(p, [1.0, -1.0])
    assert np.array_equal(out, [1.0, 0.0])


def forward_oracle(p: MlpParams, x):
    """Independent straight-line re-evaluation, no caching."""
    h = np.asarray(x, dtype=float)
    for layer in p.layers:
        h = layer.weights @ h + layer.bias
        if layer.activation == "relu":
            h = np.where(h > 0, h, 0.0)
    return h


def test_forward_matches_straight_line_oracle(rng):
    p = init_mlp([5, 7, 4, 3], rng)
    for _ in range(10):
        x = rng.standard_normal(5)
        out, _ = mlp_forward(p, x)
        assert np.allclose(out, forward_oracle(p, x), atol=1e-14)


def test_forward_dim_mismatch():
    p = MlpParams([3, 3], np.concatenate([np.eye(3).ravel(), np.zeros(3)]))
    with pytest.raises(ContractError):
        mlp_forward(p, [1.0, 2.0])


@pytest.mark.parametrize("dims, bad", [([4, 0, 3], 0), ([0, 3], 0), ([4, -3, 3], -3),
                                       ([4, 5, 0], 0)])
def test_init_mlp_rejects_a_dim_below_one(rng, dims, bad):
    with pytest.raises(ContractError, match=f"layer dims must be >= 1, got {bad}$"):
        init_mlp(dims, rng)


def test_init_mlp_draws_each_layers_weights_in_order():
    dims = [5, 7, 4, 3]
    p, draws = init_mlp(dims, np.random.default_rng(3)), np.random.default_rng(3)
    for layer, (fan_in, fan_out) in zip(p.layers, zip(dims, dims[1:]), strict=True):
        limit = np.sqrt(6.0 / fan_in)
        assert np.array_equal(layer.weights, draws.uniform(-limit, limit, (fan_out, fan_in)))
        assert np.array_equal(layer.bias, np.zeros(fan_out))


@pytest.mark.parametrize("runs", [(), (3,)])
def test_mlp_params_is_the_chain_of_dims_over_the_given_vector(rng, runs):
    # layer by layer, the weights row-major then the bias, as views; a
    # (P, size) block gives a run axis of P networks
    dims = [4, 5, 2, 3]
    vector = rng.standard_normal((*runs, chain_size(dims)))
    p = MlpParams(dims, vector)
    assert p.vector is vector and (p.in_dim, p.out_dim) == (4, 3)
    assert [layer.activation for layer in p.layers] == [RELU, RELU, IDENTITY]
    offset = 0
    for layer, (cols, rows) in zip(p.layers, zip(dims, dims[1:]), strict=True):
        weights = vector[..., offset:offset + rows * cols].reshape(*runs, rows, cols)
        offset += rows * cols
        assert np.array_equal(layer.weights, weights)
        assert np.array_equal(layer.bias, vector[..., offset:offset + rows])
        offset += rows
        assert np.shares_memory(layer.weights, vector)
        assert np.shares_memory(layer.bias, vector)
    assert offset == vector.shape[-1] == 46
    vector[..., -1] = 9.0
    assert (p.layers[-1].bias[..., -1] == 9.0).all()
    with pytest.raises(ContractError, match="the chain \\[4, 5, 2, 3\\] holds 46 parameters"):
        MlpParams(dims, vector[..., :-1])
    with pytest.raises(ContractError, match="need at least input and output dims"):
        MlpParams([4], vector)


# ---------------------------------------------------------------------------
# MLP backward
# ---------------------------------------------------------------------------

def test_backward_zero_upstream(rng):
    p = init_mlp([4, 5, 3], rng)
    x = rng.standard_normal(4)
    _, cache = mlp_forward(p, x)
    g = mlp_backward(p, cache, np.zeros(3))
    assert g.shape == p.vector.shape and np.all(g == 0)
    assert np.all(input_grad_row(p, cache, np.zeros(3)) == 0)


def test_backward_linear_case():
    # one linear layer, upstream [1]: dL/dW = x^T, dL/dx = W
    p = MlpParams([2, 1], np.array([2.0, -3.0, 0.0]))
    x = np.array([5.0, 7.0])
    _, cache = mlp_forward(p, x)
    g = mlp_backward(p, cache, np.array([1.0]))
    [(weight_grad, bias_grad)] = p.views(g)
    assert np.array_equal(weight_grad, x.reshape(1, 2))
    assert np.array_equal(bias_grad, [1.0])
    assert np.array_equal(input_grad_row(p, cache, np.array([1.0])), [2.0, -3.0])


def fd_param_grads(p: MlpParams, x, upstream, h=1e-5):
    """Central finite differences of dot(forward(p, x), upstream)."""
    def value(params):
        out, _ = mlp_forward(params, x)
        return float(out @ upstream)

    grads = []
    for li, layer in enumerate(p.layers):
        dw = np.zeros_like(layer.weights)
        for idx in np.ndindex(layer.weights.shape):
            for sign in (1, -1):
                q = network(p)
                q.layers[li].weights[idx] += sign * h
                dw[idx] += sign * value(q)
        db = np.zeros_like(layer.bias)
        for i in range(layer.bias.shape[0]):
            for sign in (1, -1):
                q = network(p)
                q.layers[li].bias[i] += sign * h
                db[i] += sign * value(q)
        grads.append((dw / (2 * h), db / (2 * h)))
    return grads


def relative_error(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return np.max(np.abs(a - b)) / denom


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(5):
        dims = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(2, 5)))]
        dims = [max(d, 2) for d in dims]
        p = init_mlp(dims, rng)
        x = rng.standard_normal(dims[0])
        u = rng.standard_normal(dims[-1])
        _, cache = mlp_forward(p, x)
        g = mlp_backward(p, cache, u)
        fd = fd_param_grads(p, x, u)
        for (dw, db), (gw, gb) in zip(fd, p.views(g)):
            assert relative_error(dw, gw) < 1e-4
            assert relative_error(db, gb) < 1e-4
        # layers_backward's input gradient against finite differences too
        input_grad = input_grad_row(p, cache, u)
        h = 1e-5
        for i in range(dims[0]):
            e = np.zeros(dims[0])
            e[i] = h
            fd_x = (float(mlp_forward(p, x + e)[0] @ u)
                    - float(mlp_forward(p, x - e)[0] @ u)) / (2 * h)
            assert input_grad[i] == pytest.approx(fd_x, rel=1e-4, abs=1e-6)


def test_backward_stale_cache_rejected(rng):
    p = init_mlp([3, 3], rng)
    q = init_mlp([3, 3], rng)
    _, cache = mlp_forward(p, rng.standard_normal(3))
    with pytest.raises(ContractError):
        mlp_backward(q, cache, np.zeros(3))


def frozen_checkpoint(rng, d_e, mode, activation=RELU):
    """A frozen checkpoint whose projectors' hidden layers use ``activation``."""
    suite = types.SimpleNamespace(d_e=d_e, d_b=3, d_tok=2)
    ckpt = _fresh_checkpoint(suite, TrainConfig(projector_mode=mode), rng)
    for layer in ckpt.bank.layers[:-1]:
        layer.activation = activation
    return ckpt.freeze()


def frozen_pass(ckpt, x, codes, u):
    out, input_grad = project_visual(ckpt, x, codes)
    return out, input_grad(u)


@pytest.mark.parametrize("activation", [RELU, IDENTITY])
@pytest.mark.parametrize("shape", [(5,), (1, 5), (7, 5)])
def test_input_grad_equals_backward_input_grad(rng, activation, shape):
    # the frozen bank's pass gives each row the 1-D mlp_forward output and
    # layers_backward input gradient of its own projector, bit for bit; a 1-D
    # shape is fed as the one-row batch
    ckpt = frozen_checkpoint(rng, shape[-1], MULTI, activation)
    x = np.atleast_2d(rng.standard_normal(shape))
    codes = rng.integers(0, len(EMOTIONS), len(x))
    u = rng.standard_normal(x.shape)
    out, got = frozen_pass(ckpt, x, codes, u)
    assert out.shape == got.shape == x.shape
    for row, code in enumerate(codes):
        expected_out, cache, net = project_row(ckpt, x[row], code)
        assert np.array_equal(out[row], expected_out)
        assert np.array_equal(got[row], input_grad_row(net, cache, u[row]))


def test_input_grad_of_a_single_conditional_projector(rng):
    ckpt = frozen_checkpoint(rng, 8, SINGLE_CONDITIONAL)
    for codes in (np.array([3]), np.arange(len(EMOTIONS)), rng.integers(0, 7, 9)):
        x = rng.standard_normal((len(codes), 8))
        u = rng.standard_normal(x.shape)
        out, got = frozen_pass(ckpt, x, codes, u)
        for row, code in enumerate(codes):
            expected_out, cache, net = project_row(ckpt, x[row], code)
            assert np.array_equal(out[row], expected_out)
            # the input gradient w.r.t. the one-hot block is dropped
            assert np.array_equal(got[row], input_grad_row(net, cache, u[row])[:8])


# a batch of up to 128 codes: uniform, or shuffled with one emotion holding
# at least 7 rows in 8 and the rest drawn from up to 3 others, so some
# emotions are absent and one group is padded far past the others
skewed_codes = st.one_of(
    st.lists(st.integers(0, 6), min_size=1, max_size=128),
    st.tuples(st.integers(0, 6), st.integers(1, 128),
              st.lists(st.integers(0, 6), max_size=3, unique=True),
              st.integers(0, 2 ** 31)).map(
        lambda c: np.random.default_rng(c[3]).permutation(
            [c[2][i // 8 % len(c[2])] if c[2] and i % 8 == 7 else c[0]
             for i in range(c[1])])))


@settings(max_examples=25, deadline=None)
@example(mode=MULTI, activation=RELU, d_e=64, seed=0,
         codes=[2] * 100 + [5] * 20 + [0] * 8)
@example(mode=SINGLE_CONDITIONAL, activation=IDENTITY, d_e=64, seed=1,
         codes=[6] * 120 + [1] * 8)
@given(mode=st.sampled_from([MULTI, SINGLE_CONDITIONAL]),
       activation=st.sampled_from([RELU, IDENTITY]), d_e=st.integers(1, 64),
       codes=skewed_codes, seed=st.integers(0, 2 ** 31))
def test_frozen_pass_is_exact_per_row_on_large_skewed_batches(mode, activation, d_e,
                                                              codes, seed):
    # each row is the 1-D mlp_forward / layers_backward input gradient of its
    # own projector, and the same row computed alone, bit for bit, however
    # far its group is padded
    rng = np.random.default_rng(seed)
    ckpt = frozen_checkpoint(rng, d_e, mode, activation)
    codes = np.asarray(codes, dtype=np.int64)
    x = rng.standard_normal((len(codes), d_e))
    u = rng.standard_normal(x.shape)
    out, got = frozen_pass(ckpt, x, codes, u)
    assert out.shape == got.shape == x.shape
    for row, code in enumerate(codes):
        expected_out, cache, net = project_row(ckpt, x[row], code)
        assert np.array_equal(out[row], expected_out)
        assert np.array_equal(got[row], input_grad_row(net, cache, u[row])[:d_e])
        alone = frozen_pass(ckpt, x[row:row + 1], codes[row:row + 1], u[row:row + 1])
        assert np.array_equal(alone[0][0], out[row])
        assert np.array_equal(alone[1][0], got[row])


# ---------------------------------------------------------------------------
# SGD
# ---------------------------------------------------------------------------

def test_sgd_basic_update():
    p = MlpParams([1, 1], np.array([1.0, 0.0]))
    g = np.array([0.5, 0.0])  # the layout is weights, then bias
    sgd_step(p.vector, g, 0.1)
    assert p.layers[0].weights[0, 0] == pytest.approx(0.95)


def test_sgd_zero_grad_is_identity(rng):
    p = init_mlp([3, 4, 2], rng)
    before = network(p)
    sgd_step(p.vector, np.zeros_like(p.vector), 0.3)
    for a, b in zip(before.layers, p.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


def test_sgd_zero_lr_is_identity(rng):
    p = init_mlp([3, 2], rng)
    before = network(p)
    sgd_step(p.vector, rng.standard_normal(p.vector.shape), 0.0)
    assert np.array_equal(before.layers[0].weights, p.layers[0].weights)


def test_sgd_two_steps_equal_summed_update(rng):
    # algebraic oracle: p - lr g1 - lr g2 == p - lr (g1 + g2)
    p = init_mlp([4, 3], rng)
    g1, g2 = rng.standard_normal((2, p.vector.size))
    summed = g1 + g2  # sgd_step overwrites each gradient with its step
    lr = 0.05
    one = network(p)
    sgd_step(p.vector, g1, lr)
    sgd_step(p.vector, g2, lr)
    sgd_step(one.vector, summed, lr)
    for a, b in zip(p.layers, one.layers):
        assert np.allclose(a.weights, b.weights, atol=1e-14)
        assert np.allclose(a.bias, b.bias, atol=1e-14)


@given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 64),
       lr=st.sampled_from([0.0, 1e-300, 1e-3, 0.05, 0.1, 1.0, 3.7, 1e300]))
@example(seed=0, size=5, lr=0.0)
def test_sgd_step_is_the_out_of_place_update_bit_for_bit(seed, size, lr):
    # oracle: theta - lr * grad, computed out of place; the step it applied
    # is left in grad
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size)
    grad = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size)
    want_theta, want_grad = theta - lr * grad, lr * grad
    sgd_step(theta, grad, lr)
    assert np.array_equal(theta, want_theta)
    assert np.array_equal(grad, want_grad)


def _read_only(array):
    array.flags.writeable = False
    return array


# each refused step: the (theta, grad, lr) it gets, and what it raises
SGD_REFUSALS = {
    "nan lr": (np.ones(3), np.ones(3), np.nan, ContractError),
    "negative lr": (np.ones(3), np.ones(3), -0.1, ContractError),
    "mismatched shape": (np.ones(3), np.ones(4), 0.1, ContractError),
    "non-finite gradient": (np.ones(3), np.array([1.0, np.inf, 2.0]), 0.1, NumericalError),
    "read-only theta": (_read_only(np.ones(3)), np.ones(3), 0.1, ContractError),
    "integer gradient": (np.ones(3), np.array([1, 2, 3]), 0.1, ContractError),
    "float32 gradient": (np.ones(3), np.ones(3, dtype=np.float32), 0.1, ContractError),
    "read-only gradient": (np.ones(3), _read_only(np.ones(3)), 0.1, ContractError),
    "list gradient": (np.ones(3), [1.0, 2.0, 3.0], 0.1, ContractError),
}


@pytest.mark.parametrize("case", SGD_REFUSALS)
def test_a_refused_sgd_step_writes_neither_array(case):
    theta, grad, lr, error = SGD_REFUSALS[case]
    theta_before, grad_before = np.copy(theta), np.copy(grad)
    with pytest.raises(error):
        sgd_step(theta, grad, lr)
    assert np.array_equal(theta, theta_before)
    assert np.array_equal(grad, grad_before, equal_nan=True)


def test_sgd_nonfinite_gradient_aborts(rng):
    p = init_mlp([2, 2], rng)
    g = np.zeros_like(p.vector)
    g[0] = np.nan
    with pytest.raises(NumericalError):
        sgd_step(p.vector, g, 0.1)


@pytest.mark.parametrize("lr, grad", [(np.nan, np.ones(3)), (np.inf, np.zeros(3)),
                                      (np.inf, np.ones(3)), (-0.1, np.ones(3))])
def test_sgd_rejects_a_non_finite_or_negative_lr(lr, grad):
    theta = np.ones(3)
    with pytest.raises(ContractError, match="lr"):
        sgd_step(theta, grad, lr)
    assert np.array_equal(theta, np.ones(3))


def test_sgd_rejects_a_mismatched_gradient(rng):
    p = init_mlp([2, 2], rng)
    with pytest.raises(ContractError):
        sgd_step(p.vector, np.zeros(1), 0.1)


def test_layers_are_views_of_one_vector(rng):
    p = init_mlp([3, 4, 2], rng)
    assert p.vector.shape == (3 * 4 + 4 + 4 * 2 + 2,)
    p.vector[:] = np.arange(p.vector.size)
    assert p.layers[0].weights[1, 0] == 3.0 and p.layers[1].bias[1] == p.vector.size - 1
    g = mlp_backward(p, mlp_forward(p, rng.standard_normal(3))[1], np.ones(2))
    views = [a for pair in p.views(g) for a in pair]
    assert all(np.shares_memory(a, g) for a in views)
    assert np.array_equal(np.concatenate([a.ravel() for a in views]), g)


def test_frozen_params_reject_writes_through_every_view(rng):
    p = init_mlp([3, 2], rng)
    weights = p.layers[0].weights  # a view made before freezing
    p.freeze()
    with pytest.raises(ValueError):
        weights[0, 0] = 1.0
    with pytest.raises(ValueError):
        sgd_step(p.vector, np.ones_like(p.vector), 0.1)


# ---------------------------------------------------------------------------
# PSD sqrt trace
# ---------------------------------------------------------------------------

def test_psd_sqrt_trace_identity():
    eye = np.eye(5)
    assert psd_sqrt_trace(eye, eye) == pytest.approx(5.0, abs=1e-10)


def test_psd_sqrt_trace_scalars():
    assert psd_sqrt_trace([[4.0]], [[1.0]]) == pytest.approx(2.0, abs=1e-12)


def test_psd_sqrt_trace_matches_independent_oracle(rng):
    # oracle: scipy's general matrix square root of the product
    for d in (2, 4, 7):
        a, b = random_psd(rng, d), random_psd(rng, d)
        oracle = float(np.trace(scipy.linalg.sqrtm(a @ b).real))
        assert psd_sqrt_trace(a, b) == pytest.approx(oracle, abs=1e-8)


def test_psd_sqrt_trace_self_equals_trace(rng):
    for d in (2, 5):
        a = random_psd(rng, d)
        assert psd_sqrt_trace(a, a) == pytest.approx(float(np.trace(a)), abs=1e-8)


def test_psd_sqrt_trace_asymmetry_rejected(rng):
    a = random_psd(rng, 3)
    bad = a.copy()
    bad[0, 1] += 1e-4
    with pytest.raises(ContractError):
        psd_sqrt_trace(bad, a)
