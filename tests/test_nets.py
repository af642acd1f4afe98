import numpy as np
import pytest

from dosebench import nets

import _oracles
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
    # w0 = [[1, -1], [0.5, 2]], b0 = [0, 1], w1 = [[2], [3]], b1 = [-1]
    net = nets.DenseNet([2, 2, 1], np.array(
        [1.0, -1.0, 0.5, 2.0, 0.0, 1.0, 2.0, 3.0, -1.0]))
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


@pytest.mark.parametrize("out_width", [1, 11])
@pytest.mark.parametrize("lanes", [1, 2, 7, 24, 192, 240])
def test_row_stacked_forward_equals_one_row_forwards(lanes, out_width):
    # Lock-step evaluation makes one (lanes, 1, d) forward per round, and a
    # PPO collect two of (steps, 1, d); each row must carry the bytes of its
    # own one-row forward.
    rng = np.random.default_rng(100 * lanes + out_width)
    for _ in range(20):
        sizes = [48, int(rng.integers(1, 80)), int(rng.integers(1, 80)),
                 out_width]
        net = nets.init_standard(sizes, seed=int(rng.integers(2**31)))
        net.params[:] += rng.normal(scale=0.1, size=net.params.shape)
        x = rng.normal(scale=float(rng.choice([0.1, 1.0, 100.0])),
                       size=(lanes, 48))
        stacked, cache = nets.forward(net, x[:, None, :])
        assert stacked.shape == (lanes, 1, out_width)
        assert len(cache) == 4
        rows = np.array([nets.forward(net, row)[0] for row in x])
        assert stacked[:, 0].tobytes() == rows.tobytes()


def test_relu_only_on_hidden_layers():
    # w0 = [[1]], b0 = [-5], w1 = [[1]], b1 = [-3]
    net = nets.DenseNet([1, 1, 1], np.array([1.0, -5.0, 1.0, -3.0]))
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
        grads = nets.backward(net, cache, g_out)
        numeric = finite_difference_grads(loss, [net.params])
        err = relative_error([grads], numeric)
        assert err < 1e-4, f"sizes={sizes} rel_err={err}"


def test_backward_cache_validation():
    net = nets.init_standard([2, 3, 1], seed=0)
    _, cache = nets.forward(net, np.zeros(2))
    with pytest.raises(ValueError):
        nets.backward(net, cache[:-1], np.zeros((1, 1)))


def test_adam_first_step_hand_computed():
    net = nets.DenseNet([1, 1], np.array([1.0, 0.5]))   # w = [[1]], b = [0.5]
    opt = nets.make_optimizer(net, learning_rate=0.1)
    nets.adam_step(net, np.array([2.0, -3.0]), opt)
    # First bias-corrected step is lr * g / (|g| + eps) = lr * sign(g).
    assert net.weights[0][0, 0] == pytest.approx(1.0 - 0.1, abs=1e-6)
    assert net.biases[0][0] == pytest.approx(0.5 + 0.1, abs=1e-6)
    assert opt.step == 1


def test_adam_converges_on_quadratic():
    net = nets.DenseNet([1, 1], np.array([4.0, -2.0]))  # w = [[4]], b = [-2]
    opt = nets.make_optimizer(net, learning_rate=0.05)
    for _ in range(2000):
        nets.adam_step(net, net.params - [1.0, 3.0], opt)
    assert net.weights[0][0, 0] == pytest.approx(1.0, abs=1e-4)
    assert net.biases[0][0] == pytest.approx(3.0, abs=1e-4)


def _subnormal(a):
    return bool(np.any((a != 0.0) & (np.abs(a) < np.finfo(np.float64).tiny)))


def test_adam_flushes_subnormal_moments_and_keeps_the_bytes():
    # Entries whose gradient stays exactly zero decay m by b1 per step: m
    # turns subnormal after about 6,700 steps and underflows to zero after
    # about 7,000. After each flush step m holds no subnormal, and the
    # parameters keep the bytes of the unflushed formula throughout.
    net = nets.init_standard([6, 8, 3], seed=4)
    ref = net.copy()
    opt = nets.make_optimizer(net, learning_rate=1e-3)
    ref_opt = nets.make_optimizer(ref, learning_rate=1e-3)
    rng = np.random.default_rng(11)
    dead = rng.random(net.params.shape) < 0.3
    ref_went_subnormal = False
    for step in range(1, 10_016 + 1):
        grads = rng.normal(size=net.params.shape)
        if step > 16:
            grads[dead] = 0.0
        nets.adam_step(net, grads, opt)
        _oracles.adam_step_unflushed(ref, grads, ref_opt)
        ref_went_subnormal |= _subnormal(ref_opt.m)
        if step % 16 == 0:
            assert not _subnormal(opt.m), step
        assert net.params.tobytes() == ref.params.tobytes(), step
    assert ref_went_subnormal
    assert opt.v.tobytes() == ref_opt.v.tobytes()


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
    assert np.array_equal(net.params, loaded.params)
    for w, lw in zip(net.weights, loaded.weights):
        assert np.array_equal(w, lw)
    nets.save_params(loaded, tmp_path / "again.dnet")
    assert (tmp_path / "again.dnet").read_bytes() == path.read_bytes()


def test_weights_and_biases_are_views_of_params(tmp_path):
    net = nets.init_standard([3, 4, 2], seed=0)
    assert net.params.shape == (3 * 4 + 4 + 4 * 2 + 2,)
    net.biases[0][1] = 7.5
    net.weights[1][2, 0] = -2.25
    assert net.params[3 * 4 + 1] == 7.5
    assert net.params[3 * 4 + 4 + 2 * 2] == -2.25
    path = tmp_path / "net.dnet"
    nets.save_params(net, path)
    # The payload is the parameter vector, after the 12-byte fixed header,
    # the three layer sizes and the CRC.
    assert path.read_bytes()[12 + 4 * 3 + 4:] == \
        net.params.astype("<f8").tobytes()
    with pytest.raises(ValueError, match="layer sizes"):
        nets.DenseNet([3, 4, 2], np.zeros(10))


def test_loaded_net_trains_and_saves_again(tmp_path):
    net = nets.init_standard([4, 5, 2], seed=3)
    path = tmp_path / "net.dnet"
    nets.save_params(net, path)
    loaded = nets.load_params(path)
    assert loaded.params.flags.writeable and loaded.params.dtype.isnative
    x = np.random.default_rng(0).normal(size=(6, 4))
    _, cache = nets.forward(loaded, x)
    grads = nets.backward(loaded, cache, np.ones((6, 2)))
    assert grads.shape == loaded.params.shape
    nets.adam_step(loaded, grads, nets.make_optimizer(loaded, 0.01))
    assert not np.array_equal(loaded.params, net.params)
    nets.save_params(loaded, tmp_path / "trained.dnet")
    assert np.array_equal(
        nets.load_params(tmp_path / "trained.dnet").params, loaded.params)


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
