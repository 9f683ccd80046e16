"""Tests for the 3-D convolution kernel: correctness vs a naive loop
oracle, gradients vs finite differences."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.ml.conv3d import Conv3D, conv3d_backward, conv3d_forward


def reference_conv(x, w, b):
    """Same-padded (zero-filled) cross-correlation, one voxel and one
    kernel tap at a time, in float64."""
    n_out, n_in, kd, kh, kw = w.shape
    depth, height, width = x.shape[1:]
    out = np.zeros((n_out, depth, height, width))
    for o in range(n_out):
        for d in range(depth):
            for h in range(height):
                for v in range(width):
                    acc = float(b[o])
                    for c in range(n_in):
                        for i in range(kd):
                            for j in range(kh):
                                for k in range(kw):
                                    zd = d + i - kd // 2
                                    zh = h + j - kh // 2
                                    zw = v + k - kw // 2
                                    if (0 <= zd < depth and 0 <= zh < height
                                            and 0 <= zw < width):
                                        acc += float(x[c, zd, zh, zw]) * float(
                                            w[o, c, i, j, k]
                                        )
                    out[o, d, h, v] = acc
    return out


class TestForward:
    def test_matches_naive_correlation(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 5, 6, 7)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3, 3)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        np.testing.assert_allclose(
            conv3d_forward(x, w, b), reference_conv(x, w, b), rtol=1e-4
        )

    def test_1x1x1_kernel_is_channel_mix(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 4, 4, 4)).astype(np.float32)
        w = rng.normal(size=(3, 2, 1, 1, 1)).astype(np.float32)
        b = np.zeros(3, dtype=np.float32)
        got = conv3d_forward(x, w, b)
        want = np.einsum("oc,cdhw->odhw", w[:, :, 0, 0, 0], x)
        np.testing.assert_allclose(got, want, rtol=1e-5)

    def test_identity_kernel(self):
        x = np.random.default_rng(2).normal(size=(1, 3, 3, 3)).astype(np.float32)
        w = np.zeros((1, 1, 3, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1, 1] = 1.0
        np.testing.assert_allclose(
            conv3d_forward(x, w, np.zeros(1, np.float32)), x, rtol=1e-6
        )

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            conv3d_forward(np.zeros((2, 3, 3)), np.zeros((1, 2, 3, 3, 3)),
                           np.zeros(1))
        with pytest.raises(ShapeError):
            conv3d_forward(
                np.zeros((2, 3, 3, 3)), np.zeros((1, 2, 2, 2, 2)), np.zeros(1)
            )  # even kernel
        with pytest.raises(ShapeError):
            conv3d_forward(
                np.zeros((3, 3, 3, 3)), np.zeros((1, 2, 3, 3, 3)), np.zeros(1)
            )  # channel mismatch


class TestBackward:
    def _numerical_grad(self, f, arr, eps=1e-3):
        grad = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f()
            flat[i] = orig - eps
            lo = f()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * eps)
        return grad

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 4, 3)).astype(np.float64)
        w = rng.normal(size=(2, 2, 3, 3, 3)).astype(np.float64) * 0.3
        b = rng.normal(size=2).astype(np.float64)
        target = rng.normal(size=(2, 3, 4, 3))

        def loss():
            y = conv3d_forward(x, w, b)
            return 0.5 * float(((y - target) ** 2).sum())

        y = conv3d_forward(x, w, b)
        grad_y = y - target
        gx, gw, gb = conv3d_backward(x, w, grad_y)
        np.testing.assert_allclose(
            gx, self._numerical_grad(loss, x), rtol=1e-4, atol=1e-6
        )
        np.testing.assert_allclose(
            gw, self._numerical_grad(loss, w), rtol=1e-4, atol=1e-6
        )
        np.testing.assert_allclose(
            gb, self._numerical_grad(loss, b), rtol=1e-4, atol=1e-6
        )

    def test_grad_shape_validation(self):
        x = np.zeros((2, 3, 3, 3))
        w = np.zeros((1, 2, 3, 3, 3))
        with pytest.raises(ShapeError):
            conv3d_backward(x, w, np.zeros((2, 3, 3, 3)))


class TestConv3DLayer:
    def test_training_reduces_loss(self):
        """A single conv layer must be able to fit a linear target."""
        rng = np.random.default_rng(4)
        layer = Conv3D(1, 1, kernel=3, rng=rng)
        x = rng.normal(size=(1, 6, 6, 6)).astype(np.float32)
        true_w = rng.normal(size=(1, 1, 3, 3, 3)).astype(np.float32)
        target = conv3d_forward(x, true_w, np.zeros(1, np.float32))

        losses = []
        for _ in range(60):
            y = layer.forward(x)
            diff = y - target
            losses.append(float((diff**2).mean()))
            layer.backward(2 * diff / diff.size)
            layer.sgd_step(lr=0.5)
        assert losses[-1] < 0.05 * losses[0]

    def test_backward_before_forward_rejected(self):
        layer = Conv3D(1, 1)
        with pytest.raises(ShapeError):
            layer.backward(np.zeros((1, 2, 2, 2)))

    def test_momentum_accelerates(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 5, 5, 5)).astype(np.float32)
        target = 3.0 * x

        def run(momentum):
            layer = Conv3D(1, 1, kernel=1, rng=np.random.default_rng(6))
            buf = {}
            for _ in range(30):
                y = layer.forward(x)
                diff = y - target
                layer.backward(2 * diff / diff.size)
                layer.sgd_step(lr=0.01, momentum_buf=buf, momentum=momentum)
            return float(((layer.forward(x) - target) ** 2).mean())

        assert run(0.9) < run(0.0)

    def test_n_params(self):
        layer = Conv3D(2, 4, kernel=3)
        assert layer.n_params == 4 * 2 * 27 + 4
