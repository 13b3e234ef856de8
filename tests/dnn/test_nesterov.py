"""Nesterov momentum tests."""

import numpy as np

from repro.dnn import Linear, MomentumSGD, ReLU, Sequential


class TestNesterov:
    def _loss_path(self, opt, steps=40, seed=3):
        from repro.dnn import SoftmaxCrossEntropy

        rng = np.random.default_rng(seed)
        net = Sequential([Linear(6, 4, seed=1), ReLU(), Linear(4, 3, seed=2)])
        x = rng.standard_normal((30, 6))
        y = rng.integers(0, 3, 30)
        lf = SoftmaxCrossEntropy()
        losses = []
        for _ in range(steps):
            logits = net.forward(x)
            loss, g = lf(logits, y)
            net.backward(g)
            opt.step(net)
            losses.append(loss)
        return losses

    def test_differs_from_classical(self):
        a = self._loss_path(MomentumSGD(0.05, 0.9, nesterov=False))
        b = self._loss_path(MomentumSGD(0.05, 0.9, nesterov=True))
        assert a != b

    def test_converges(self):
        losses = self._loss_path(MomentumSGD(0.05, 0.9, nesterov=True))
        assert losses[-1] < losses[0] * 0.5

    def test_zero_momentum_equals_sgd_lookahead_or_not(self):
        # With mu = 0 the look-ahead form is W -= 2*eta*g per step
        # relative history... actually V = -eta g, and nesterov adds
        # another -eta g: assert it still optimises.
        losses = self._loss_path(MomentumSGD(0.05, 0.0, nesterov=True))
        assert losses[-1] < losses[0]
