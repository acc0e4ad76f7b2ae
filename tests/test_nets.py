import json
import math

import numpy as np
import pytest

from dayahead.nets import (MLP, PolicyParams, backward, clip_gradient_norm,
                           forward, forward_cached, init_policy, load_policy,
                           orthogonal_init, rmsprop_step, save_policy)


def random_net(sizes, seed):
    rng = np.random.default_rng(seed)
    net = MLP(list(sizes))
    for w, b in zip(net.weights, net.biases):
        w[:] = rng.normal(0.0, 0.5, w.shape)
        b[:] = rng.normal(0.0, 0.2, b.shape)
    return net


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def test_zero_network_outputs_zero():
    net = MLP([5, 4, 3])
    np.testing.assert_array_equal(forward(net, np.ones(5)), np.zeros(3))


def test_single_unit_closed_form():
    """1-1-1 net: output = w_out * tanh(w_in * x + b_in) + b_out."""
    net = MLP([1, 1, 1])
    net.weights[0][:] = 1.0
    net.weights[1][:] = 0.7
    net.biases[1][:] = 0.1
    y = forward(net, np.array([0.5]))
    assert y[0] == pytest.approx(0.7 * math.tanh(0.5) + 0.1, abs=1e-15)


def test_forward_batched_matches_single():
    net = random_net([6, 5, 4], seed=0)
    xs = np.random.default_rng(1).normal(0, 1, (7, 6))
    batch = forward(net, xs)
    for i in range(7):
        np.testing.assert_allclose(batch[i], forward(net, xs[i]), atol=1e-14)


def test_forward_bounded_for_orthogonal_init():
    net = MLP([141, 200, 96])
    orthogonal_init(net, 3, [1.0, 0.01])
    rng = np.random.default_rng(5)
    for _ in range(10):
        y = forward(net, rng.uniform(-10, 10, 141))
        assert np.all(np.isfinite(y))


def test_forward_rejects_wrong_input_size():
    net = MLP([5, 4, 3])
    with pytest.raises(ValueError, match="input size"):
        forward(net, np.zeros(6))


# ---------------------------------------------------------------------------
# Backward pass vs central finite differences
# ---------------------------------------------------------------------------

def fd_gradients(net, x, loss_weights, step=1e-5):
    """Central finite differences of loss = weights . forward(x)."""
    grads_w, grads_b = [], []
    for w in net.weights:
        g = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + step
            up = float(loss_weights @ forward(net, x))
            w[idx] = orig - step
            down = float(loss_weights @ forward(net, x))
            w[idx] = orig
            g[idx] = (up - down) / (2 * step)
        grads_w.append(g)
    for b in net.biases:
        g = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            orig = b[idx]
            b[idx] = orig + step
            up = float(loss_weights @ forward(net, x))
            b[idx] = orig - step
            down = float(loss_weights @ forward(net, x))
            b[idx] = orig
            g[idx] = (up - down) / (2 * step)
        grads_b.append(g)
    return grads_w, grads_b


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(n), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def test_backward_matches_finite_differences_10_8_4():
    net = random_net([10, 8, 4], seed=42)
    rng = np.random.default_rng(43)
    x = rng.normal(0, 1, 10)
    loss_weights = rng.normal(0, 1, 4)
    _, cache = forward_cached(net, x)
    grads = backward(net, cache, loss_weights, MLP(net.sizes))
    fd_w, fd_b = fd_gradients(net, x, loss_weights)
    assert max_relative_error(grads.weights, fd_w) < 1e-4
    assert max_relative_error(grads.biases, fd_b) < 1e-4


def test_backward_matches_finite_differences_many_shapes():
    rng = np.random.default_rng(7)
    for trial in range(20):
        sizes = [int(rng.integers(2, 9)) for _ in range(int(rng.integers(2, 4)) + 1)]
        net = random_net(sizes, seed=100 + trial)
        x = rng.normal(0, 1, sizes[0])
        loss_weights = rng.normal(0, 1, sizes[-1])
        _, cache = forward_cached(net, x)
        grads = backward(net, cache, loss_weights, MLP(net.sizes))
        fd_w, fd_b = fd_gradients(net, x, loss_weights)
        assert max_relative_error(grads.weights, fd_w) < 1e-4
        assert max_relative_error(grads.biases, fd_b) < 1e-4


def test_zero_output_gradient_gives_zero_grads():
    """Every slot of the destination is written, whatever it held before."""
    net = random_net([6, 5, 3], seed=1)
    _, cache = forward_cached(net, np.ones(6))
    grads = MLP(net.sizes, np.full(net.vector.size, np.nan))
    assert backward(net, cache, np.zeros(3), grads) is grads
    np.testing.assert_array_equal(grads.vector, 0.0)


def test_linear_net_gradient_is_outer_product():
    """One layer has no hidden activation: d(wx+b)/dw = g x^T exactly."""
    net = random_net([4, 3], seed=2)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    g_out = np.array([0.2, -1.0, 0.7])
    _, cache = forward_cached(net, x)
    grads = backward(net, cache, g_out, MLP(net.sizes))
    np.testing.assert_allclose(grads.weights[0], np.outer(g_out, x), atol=1e-14)
    np.testing.assert_allclose(grads.biases[0], g_out, atol=1e-14)


def test_two_layer_gradient_closed_form():
    """loss = g.(W2 h + b2) with h = tanh(W1 x + b1): dW2 = g h^T and
    dW1 = ((W2^T g) * (1 - h^2)) x^T."""
    net = random_net([3, 4, 2], seed=3)
    x = np.array([0.3, -1.1, 2.0])
    g_out = np.array([1.5, -0.4])
    _, cache = forward_cached(net, x)
    grads = backward(net, cache, g_out, MLP(net.sizes))
    w1, w2 = net.weights
    hidden = np.tanh(w1 @ x + net.biases[0])
    g_hidden = (w2.T @ g_out) * (1.0 - hidden ** 2)
    np.testing.assert_allclose(grads.weights[1], np.outer(g_out, hidden), atol=1e-14)
    np.testing.assert_allclose(grads.biases[1], g_out, atol=1e-14)
    np.testing.assert_allclose(grads.weights[0], np.outer(g_hidden, x), atol=1e-14)
    np.testing.assert_allclose(grads.biases[0], g_hidden, atol=1e-14)


def test_batched_backward_sums_over_batch():
    net = random_net([5, 6, 2], seed=4)
    xs = np.random.default_rng(5).normal(0, 1, (3, 5))
    gs = np.random.default_rng(6).normal(0, 1, (3, 2))
    _, cache = forward_cached(net, xs)
    batched = backward(net, cache, gs, MLP(net.sizes))
    singles = []
    for i in range(3):
        _, c = forward_cached(net, xs[i])
        singles.append(backward(net, c, gs[i], MLP(net.sizes)))
    np.testing.assert_allclose(batched.vector, sum(s.vector for s in singles), atol=1e-12)


def test_backward_shape_mismatch_errors():
    net = random_net([5, 6, 2], seed=4)
    _, cache = forward_cached(net, np.zeros(5))
    with pytest.raises(ValueError, match="output gradient"):
        backward(net, cache, np.zeros(3), MLP(net.sizes))


# ---------------------------------------------------------------------------
# Orthogonal initialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rows,cols", [(8, 5), (5, 8), (200, 200), (96, 200)])
def test_orthogonal_init_gain_and_orthonormality(rows, cols):
    net = MLP([cols, rows])
    orthogonal_init(net, 0, 1.7)
    w = net.weights[0]
    eye = np.eye(min(rows, cols)) * 1.7 ** 2
    product = w @ w.T if rows <= cols else w.T @ w
    np.testing.assert_allclose(product, eye, atol=1e-6)
    np.testing.assert_array_equal(net.biases[0], 0.0)


def test_orthogonal_init_square_full_rank():
    net = MLP([200, 200])
    orthogonal_init(net, 1, 1.0)
    sign, logdet = np.linalg.slogdet(net.weights[0])
    assert sign != 0 and np.isfinite(logdet)


def test_orthogonal_init_deterministic_under_seed():
    a = MLP([10, 20, 5])
    b = MLP([10, 20, 5])
    orthogonal_init(a, 9, [1.0, 0.01])
    orthogonal_init(b, 9, [1.0, 0.01])
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)


# ---------------------------------------------------------------------------
# RMSprop
# ---------------------------------------------------------------------------

def test_rmsprop_constant_gradient_step_approaches_lr():
    """At the EMA fixed point sqrt(avg) -> |g|, so steps approach lr."""
    param = np.array([0.0])
    grad = np.array([3.7])
    square_avg = np.zeros(1)
    lr = 1e-4
    for _ in range(1000):
        previous = param.copy()
        rmsprop_step(param, grad, square_avg, lr=lr, decay=0.99, eps=1e-5)
    delta = abs(param[0] - previous[0])
    assert 0.5 * lr <= delta <= 1.5 * lr


def test_rmsprop_zero_gradient_no_update():
    param = np.array([1.23])
    square_avg = np.zeros(1)
    rmsprop_step(param, np.zeros(1), square_avg)
    assert param[0] == 1.23
    rmsprop_step(param, np.zeros(1), square_avg)
    assert param[0] == 1.23


def test_rmsprop_deterministic_trajectories():
    rng = np.random.default_rng(0)
    grads = [rng.normal(0, 1, 12) for _ in range(50)]

    def run():
        param = np.ones(12)
        square_avg = np.zeros(12)
        for g in grads:
            rmsprop_step(param, g.copy(), square_avg, lr=1e-2)
        return param

    np.testing.assert_array_equal(run(), run())


def test_rmsprop_rejects_non_finite_gradients():
    """A non-finite value anywhere in the gradient, here in the log-std at
    the end of the vector, leaves the parameters and the average untouched."""
    policy = init_policy(4, hidden_size=3, action_size=2, seed=0)
    square_avg = np.full(policy.vector.size, 0.5)
    grad = np.ones(policy.vector.size)
    grad[-1] = np.nan
    before = policy.vector.copy()
    with pytest.raises(FloatingPointError, match="non-finite"):
        rmsprop_step(policy.vector, grad, square_avg)
    np.testing.assert_array_equal(policy.vector, before)
    np.testing.assert_array_equal(square_avg, 0.5)


def test_clip_gradient_norm():
    grad = PolicyParams([1, 1])  # five one-element arrays
    grad.vector[:] = [3.0, 0.0, 4.0, 0.0, 0.0]  # norm 5
    norm = clip_gradient_norm(grad, 0.5)
    assert norm == pytest.approx(5.0)
    np.testing.assert_allclose(grad.vector, [0.3, 0.0, 0.4, 0.0, 0.0], atol=1e-12)
    grad.vector[:] = 0.1
    clip_gradient_norm(grad, 10.0)
    np.testing.assert_array_equal(grad.vector, 0.1)


def reference_clip_and_step(params, grads, square_avgs, max_norm, lr, decay, eps):
    """Global-norm clipping and RMSprop array by array, the form the flat
    vector versions must reproduce bit for bit."""
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        for g in grads:
            g *= max_norm / norm
    for p, g, avg in zip(params, grads, square_avgs):
        avg *= decay
        avg += (1.0 - decay) * g * g
        p -= lr * g / (np.sqrt(avg) + eps)
    return float(norm)


def test_flat_rmsprop_and_clipping_match_per_array_reference():
    """50 steps, alternately clipped and not, on a policy of nine arrays."""
    policy = init_policy(7, hidden_size=5, action_size=3, seed=0)
    reference = [p.copy() for p in policy.parameters()]
    reference_avgs = [np.zeros_like(p) for p in reference]
    grad = PolicyParams(policy.sizes)
    square_avg = np.zeros_like(policy.vector)
    rng = np.random.default_rng(1)
    for step in range(50):
        grad.vector[:] = rng.normal(0.0, 1.0 if step % 2 else 0.01, grad.vector.size)
        reference_grads = [g.copy() for g in grad.parameters()]
        norm = reference_clip_and_step(reference, reference_grads, reference_avgs,
                                       max_norm=0.5, lr=1e-3, decay=0.99, eps=1e-5)
        assert clip_gradient_norm(grad, 0.5) == norm
        assert (norm > 0.5) == bool(step % 2)
        rmsprop_step(policy.vector, grad.vector, square_avg, lr=1e-3, decay=0.99, eps=1e-5)
        for got, expected in zip(policy.parameters(), reference):
            assert got.tobytes() == expected.tobytes()
    assert square_avg.tobytes() == np.concatenate([a.ravel() for a in reference_avgs]).tobytes()


# ---------------------------------------------------------------------------
# Policy container and serialization
# ---------------------------------------------------------------------------

def test_policy_shapes_and_log_std_init():
    policy = init_policy(141, hidden_size=200, action_size=96, seed=0,
                         log_std_init=-1.0)
    assert policy.actor.sizes == [141, 200, 96]
    assert policy.critic.sizes == [141, 200, 1]
    np.testing.assert_array_equal(policy.log_std, np.full(96, -1.0))
    assert len(policy.parameters()) == 9  # 4 weights + 4 biases + log_std
    assert policy.vector.dtype == np.float64 and policy.vector.flags.c_contiguous


def test_policy_arrays_are_views_covering_the_vector_once():
    """Marking each array through its view marks every vector slot exactly
    once, in ``parameters()`` order."""
    policy = init_policy(7, hidden_size=5, action_size=3, seed=0)
    arrays = policy.parameters()
    assert all(np.shares_memory(policy.vector, a) for a in arrays)
    policy.vector[:] = 0.0
    for k, a in enumerate(arrays):
        a += k + 1
    expected = np.concatenate([np.full(a.size, k + 1.0) for k, a in enumerate(arrays)])
    np.testing.assert_array_equal(policy.vector, expected)


def test_policy_head_gain_keeps_initial_actions_small():
    policy = init_policy(141, seed=2)
    obs = np.random.default_rng(3).uniform(0, 1, 141)
    assert np.max(np.abs(forward(policy.actor, obs))) < 0.1


def test_policy_save_load_round_trip_bit_identical(tmp_path):
    policy = init_policy(69, hidden_size=32, seed=5,
                         meta={"include_weather": False, "price_scale": 217.3})
    path = tmp_path / "policy.npz"
    save_policy(path, policy)
    loaded = load_policy(path)
    for a, b in zip(policy.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(a, b)
    assert loaded.meta == policy.meta
    obs = np.random.default_rng(0).normal(0, 1, 69)
    np.testing.assert_array_equal(forward(policy.actor, obs),
                                  forward(loaded.actor, obs))
    np.testing.assert_array_equal(forward(policy.critic, obs),
                                  forward(loaded.critic, obs))


def hand_written_policy_arrays(seed=0):
    """The arrays of a 6-4-3 policy under the keys and in the order of the
    ``policy.npz`` format: layer by layer, weight before bias, then log-std
    and the JSON header."""
    rng = np.random.default_rng(seed)
    arrays = {}
    for prefix, n_out in (("actor", 3), ("critic", 1)):
        arrays[f"{prefix}_w0"] = rng.normal(0, 1, (4, 6))
        arrays[f"{prefix}_b0"] = rng.normal(0, 1, 4)
        arrays[f"{prefix}_w1"] = rng.normal(0, 1, (n_out, 4))
        arrays[f"{prefix}_b1"] = rng.normal(0, 1, n_out)
    arrays["log_std"] = rng.normal(0, 1, 3)
    header = {"actor_layers": 2, "critic_layers": 2, "format_version": 1,
              "meta": {"price_scale": 2.5}}
    arrays["header"] = np.frombuffer(json.dumps(header, sort_keys=True).encode(), np.uint8)
    return arrays


def test_policy_file_format_keeps_its_key_order(tmp_path):
    """A file written by hand in the format's key order loads into the
    matching views, and saving the loaded policy writes the same bytes."""
    arrays = hand_written_policy_arrays()
    np.savez(tmp_path / "hand.npz", **arrays)
    loaded = load_policy(tmp_path / "hand.npz")
    for prefix, net in (("actor", loaded.actor), ("critic", loaded.critic)):
        for i in range(2):
            np.testing.assert_array_equal(net.weights[i], arrays[f"{prefix}_w{i}"])
            np.testing.assert_array_equal(net.biases[i], arrays[f"{prefix}_b{i}"])
    np.testing.assert_array_equal(loaded.log_std, arrays["log_std"])
    assert loaded.meta == {"price_scale": 2.5}
    save_policy(tmp_path / "saved.npz", loaded)
    assert (tmp_path / "saved.npz").read_bytes() == (tmp_path / "hand.npz").read_bytes()


@pytest.mark.parametrize("key,value,message", [
    ("critic_b1", None, "no array critic_b1"),
    ("actor_b0", np.zeros(3), r"actor_b0 has shape \(3,\), expected \(4,\)"),
    ("critic_b0", np.zeros(1), r"critic_b0 has shape \(1,\), expected \(4,\)"),
    ("log_std", np.zeros(4), r"log_std has shape \(4,\), expected \(3,\)"),
    ("actor_w0", np.zeros(24), "actor weights must be matrices"),
    ("header", np.frombuffer(b'{"actor_layers": 2}', np.uint8),
     r"header holds no format_version \(one of 1\)"),
])
def test_load_policy_checks_every_array(tmp_path, key, value, message):
    """A missing array or one that does not fit its place names the file and
    the key; a (1,) bias is refused rather than broadcast into its slot."""
    arrays = hand_written_policy_arrays()
    if value is None:
        del arrays[key]
    else:
        arrays[key] = value
    path = tmp_path / "bad.npz"
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=message) as excinfo:
        load_policy(path)
    assert str(path) in str(excinfo.value)


def test_policy_copy_is_independent():
    policy = init_policy(10, hidden_size=4, seed=1)
    clone = policy.copy()
    assert not any(np.shares_memory(policy.vector, a) for a in clone.parameters())
    np.testing.assert_array_equal(clone.vector, policy.vector)
    clone.actor.weights[0][0, 0] += 1.0
    clone.log_std[0] += 1.0
    assert policy.actor.weights[0][0, 0] != clone.actor.weights[0][0, 0]
    assert policy.log_std[0] != clone.log_std[0]


@pytest.mark.parametrize("edit,message", [
    ({"format_version": 2}, r"format_version \(one of 1\)"),
    ({"actor_layers": "x"}, r"actor_layers \(a whole number\)"),
    ({"critic_layers": None}, r"critic_layers \(a whole number\)"),
    ({"meta": [1]}, r"meta \(an object\)"),
    ({"meta": {"price_scale": None}}, r"meta.price_scale \(a finite number\)"),
    ({"meta": {"price_scale": "abc"}}, r"meta.price_scale \(a finite number\)"),
    ({"meta": {"include_weather": 1}}, r"meta.include_weather \(true or false\)"),
    ({"meta": {"temperature_range": [0.0]}}, r"meta.temperature_range \(a list of 2, each a"),
])
def test_load_policy_checks_the_header_and_its_meta(tmp_path, edit, message):
    """A retyped header key or meta key names the file and the key; the
    retyped ``actor_layers`` and ``price_scale`` were a TypeError traceback,
    one in ``range`` and one in ``float``."""
    arrays = hand_written_policy_arrays()
    header = {**json.loads(arrays["header"].tobytes()), **edit}
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), np.uint8)
    path = tmp_path / "bad.npz"
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=f"bad.npz header holds no {message}"):
        load_policy(path)


def test_load_policy_keeps_meta_keys_optional(tmp_path):
    arrays = hand_written_policy_arrays()
    arrays["header"] = np.frombuffer(json.dumps(
        {"actor_layers": 2, "critic_layers": 2, "format_version": 1, "meta": {}}).encode(),
        np.uint8)
    np.savez(tmp_path / "bare.npz", **arrays)
    assert load_policy(tmp_path / "bare.npz").meta == {}


@pytest.mark.parametrize("content", ["truncated", "text", "npy", "header text"])
def test_load_policy_names_a_file_that_is_not_a_policy(tmp_path, content):
    """A truncated file was a ``zipfile.BadZipFile`` traceback, a text file
    numpy's ``allow_pickle`` message, a lone ``.npy`` a TypeError traceback
    and a header that is not JSON a JSONDecodeError without the file."""
    path = tmp_path / "bad.npz"
    save_policy(path, init_policy(6, hidden_size=4, action_size=3, seed=0))
    if content == "truncated":
        path.write_bytes(path.read_bytes()[:-40])
    elif content == "text":
        path.write_text("not a policy\n")
    elif content == "npy":
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))
    else:
        arrays = hand_written_policy_arrays()
        arrays["header"] = np.frombuffer(b"{not json", np.uint8)
        np.savez(path, **arrays)
    with pytest.raises(ValueError, match="holds no") as excinfo:
        load_policy(path)
    assert str(path) in str(excinfo.value)
