"""Nesterov momentum tests."""

import numpy as np

from repro.dnn import Linear, MomentumSGD, ReLU, Sequential


class TestNesterov:
    def _loss_path(self, opt, steps=40, seed=3):
        return self._run(opt, steps, seed)[0]

    def _run(self, opt, steps=40, seed=3):
        """The loss path and the final weights of ``steps`` steps."""
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
        params = {key: p.copy() for key, p in net.named_params()}
        return losses, params

    def test_differs_from_classical(self):
        a = self._loss_path(MomentumSGD(0.05, 0.9, nesterov=False))
        b = self._loss_path(MomentumSGD(0.05, 0.9, nesterov=True))
        assert a != b

    def test_converges(self):
        losses = self._loss_path(MomentumSGD(0.05, 0.9, nesterov=True))
        assert losses[-1] < losses[0] * 0.5

    def test_zero_momentum_equals_sgd_lookahead_or_not(self):
        # With mu = 0 the velocity is V = -eta*g, and both W += V
        # (classical) and W += 0*V - eta*g (look-ahead) are SGD's
        # W -= eta*g to the last bit.
        from repro.dnn import SGD

        runs = [
            self._run(opt)
            for opt in (
                SGD(0.05),
                MomentumSGD(0.05, 0.0, nesterov=False),
                MomentumSGD(0.05, 0.0, nesterov=True),
            )
        ]
        sgd_losses, sgd_params = runs[0]
        for losses, params in runs[1:]:
            assert losses == sgd_losses
            assert params.keys() == sgd_params.keys()
            for key, w in params.items():
                np.testing.assert_array_equal(w, sgd_params[key])
