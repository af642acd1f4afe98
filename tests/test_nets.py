import numpy as np
import pytest

from dosebench import nets

from _oracles import finite_difference_grads, relative_error


def _random_net(rng, max_width=8, depth_range=(2, 4)):
    depth = int(rng.integers(*depth_range))
    sizes = [int(rng.integers(2, max_width)) for _ in range(depth + 1)]
    net = nets.init_standard(sizes, seed=int(rng.integers(2**31)))
    return net, sizes


def _safe_input(net, rng, margin=1e-3):
    """Batch whose hidden pre-activations stay away from the ReLU kink."""
    for _ in range(200):
        x = rng.normal(size=(3, net.layer_sizes[0]))
        _, cache = nets.forward(net, x)
        pre_ok = True
        a = x
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            z = a @ w + b
            if i < len(net.weights) - 1:
                if np.min(np.abs(z)) < margin:
                    pre_ok = False
                    break
                a = np.maximum(z, 0.0)
        if pre_ok:
            return x
    raise RuntimeError("could not find a kink-free input")


def test_forward_hand_computed():
    net = nets.DenseNet(
        [2, 2, 1],
        weights=[np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([[2.0], [3.0]])],
        biases=[np.array([0.0, 1.0]), np.array([-1.0])])
    out, cache = nets.forward(net, np.array([1.0, 2.0]))
    # hidden pre-act: [1*1+2*0.5, 1*(-1)+2*2+1] = [2, 4]; relu same
    # output: 2*2 + 4*3 - 1 = 15
    assert out == pytest.approx([15.0])
    assert np.allclose(cache[1], [[2.0, 4.0]])


def test_forward_shapes_and_validation():
    net = nets.init_standard([4, 5, 3], seed=0)
    single, _ = nets.forward(net, np.zeros(4))
    batch, cache = nets.forward(net, np.zeros((7, 4)))
    assert single.shape == (3,)
    assert batch.shape == (7, 3)
    assert len(cache) == 3
    with pytest.raises(ValueError):
        nets.forward(net, np.zeros(5))
    with pytest.raises(ValueError):
        nets.forward(net, np.full(4, np.nan))


def test_relu_only_on_hidden_layers():
    net = nets.DenseNet([1, 1, 1],
                        weights=[np.array([[1.0]]), np.array([[1.0]])],
                        biases=[np.array([-5.0]), np.array([-3.0])])
    out, _ = nets.forward(net, np.array([1.0]))
    assert out == pytest.approx([-3.0])  # hidden clamped to 0, output linear


def test_init_properties():
    rng = np.random.default_rng(0)
    net = nets.init_near_zero([4, 8, 2], scale=1e-3, seed=1)
    assert all(np.all(np.abs(w) <= 1e-3) for w in net.weights)
    assert all(np.all(b == 0.0) for b in net.biases)
    net = nets.init_standard([9, 5, 1], seed=2)
    assert np.all(np.abs(net.weights[0]) <= 1.0 / 3.0)
    with pytest.raises(ValueError):
        nets.init_near_zero([2, 2], scale=-1.0, seed=0)
    a = nets.init_standard([3, 3], seed=7)
    b = nets.init_standard([3, 3], seed=7)
    assert np.array_equal(a.weights[0], b.weights[0])


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(123)
    for _ in range(50):
        net, sizes = _random_net(rng)
        x = _safe_input(net, rng)
        g_out = rng.normal(size=(3, sizes[-1]))

        def loss():
            out, _ = nets.forward(net, x)
            return float(np.sum(out * g_out))

        _, cache = nets.forward(net, x)
        w_grads, b_grads = nets.backward(net, cache, g_out)
        numeric = finite_difference_grads(loss, net.weights + net.biases)
        err = relative_error(list(w_grads) + list(b_grads), numeric)
        assert err < 1e-4, f"sizes={sizes} rel_err={err}"


def test_backward_cache_validation():
    net = nets.init_standard([2, 3, 1], seed=0)
    _, cache = nets.forward(net, np.zeros(2))
    with pytest.raises(ValueError):
        nets.backward(net, cache[:-1], np.zeros((1, 1)))


def test_adam_first_step_hand_computed():
    net = nets.DenseNet([1, 1], weights=[np.array([[1.0]])],
                        biases=[np.array([0.5])])
    opt = nets.make_optimizer(net, learning_rate=0.1)
    g_w, g_b = np.array([[2.0]]), np.array([-3.0])
    nets.adam_step(net, ([g_w], [g_b]), opt)
    # First bias-corrected step is lr * g / (|g| + eps) = lr * sign(g).
    assert net.weights[0][0, 0] == pytest.approx(1.0 - 0.1, abs=1e-6)
    assert net.biases[0][0] == pytest.approx(0.5 + 0.1, abs=1e-6)
    assert opt.step == 1


def test_adam_converges_on_quadratic():
    net = nets.DenseNet([1, 1], weights=[np.array([[4.0]])],
                        biases=[np.array([-2.0])])
    opt = nets.make_optimizer(net, learning_rate=0.05)
    for _ in range(2000):
        grads = ([net.weights[0] - 1.0], [net.biases[0] - 3.0])
        nets.adam_step(net, grads, opt)
    assert net.weights[0][0, 0] == pytest.approx(1.0, abs=1e-4)
    assert net.biases[0][0] == pytest.approx(3.0, abs=1e-4)


def test_copy_and_copy_from():
    a = nets.init_standard([3, 4, 2], seed=0)
    b = a.copy()
    b.weights[0][0, 0] += 1.0
    assert a.weights[0][0, 0] != b.weights[0][0, 0]
    a.copy_from(b)
    assert np.array_equal(a.weights[0], b.weights[0])
    with pytest.raises(ValueError):
        a.copy_from(nets.init_standard([3, 5, 2], seed=0))


def test_checkpoint_round_trip_bit_exact(tmp_path):
    net = nets.init_standard([48, 64, 64, 11], seed=9)
    path = tmp_path / "net.dnet"
    nets.save_params(net, path)
    loaded = nets.load_params(path)
    assert loaded.layer_sizes == net.layer_sizes
    for w, lw in zip(net.weights, loaded.weights):
        assert np.array_equal(w, lw)
    for b, lb in zip(net.biases, loaded.biases):
        assert np.array_equal(b, lb)
    nets.save_params(loaded, tmp_path / "again.dnet")
    assert (tmp_path / "again.dnet").read_bytes() == path.read_bytes()


def test_checkpoint_corruption_detection(tmp_path):
    net = nets.init_standard([4, 3], seed=1)
    path = tmp_path / "net.dnet"
    nets.save_params(net, path)
    blob = bytearray(path.read_bytes())

    bad = tmp_path / "bad.dnet"
    bad.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(nets.CheckpointError, match="magic"):
        nets.load_params(bad)

    bad.write_bytes(bytes(blob[:10]))
    with pytest.raises(nets.CheckpointError):
        nets.load_params(bad)

    flipped = bytearray(blob)
    flipped[-1] ^= 0xFF
    bad.write_bytes(bytes(flipped))
    with pytest.raises(nets.CheckpointError, match="CRC"):
        nets.load_params(bad)

    truncated = bytes(blob[:-8])
    bad.write_bytes(truncated)
    with pytest.raises(nets.CheckpointError, match="length"):
        nets.load_params(bad)
