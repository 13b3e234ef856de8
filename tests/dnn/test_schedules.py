"""Learning-rate schedules."""

import pytest

from repro.data import synthetic_cifar10
from repro.dnn import (
    ConstantLR,
    StepDecayLR,
    Trainer,
    WarmupLR,
    cifar10_small,
)


class TestSchedules:
    def test_constant(self):
        s = ConstantLR(0.01)
        assert s(1) == s(100) == 0.01
        with pytest.raises(ValueError):
            ConstantLR(0.0)
        with pytest.raises(ValueError):
            s(0)

    def test_step_decay(self):
        s = StepDecayLR(1.0, drop_every=5, factor=0.1)
        assert s(1) == 1.0
        assert s(5) == 1.0
        assert s(6) == pytest.approx(0.1)
        assert s(11) == pytest.approx(0.01)
        with pytest.raises(ValueError):
            StepDecayLR(1.0, drop_every=0)
        with pytest.raises(ValueError):
            StepDecayLR(1.0, factor=0.0)

    def test_warmup(self):
        s = WarmupLR(0.1, base_lr=0.01, warmup_epochs=4)
        assert s(1) == pytest.approx(0.01)
        assert s(4) == pytest.approx(0.1)
        assert s(10) == pytest.approx(0.1)
        assert s(2) < s(3) < s(4)
        with pytest.raises(ValueError):
            WarmupLR(0.1, base_lr=0.2)
        with pytest.raises(ValueError):
            WarmupLR(0.0)

    def test_warmup_default_base(self):
        s = WarmupLR(0.1)
        assert s(1) == pytest.approx(0.01)

    def test_trainer_applies_schedule(self):
        data = synthetic_cifar10(60, 20, seed=0, flip_prob=0.0)
        net = cifar10_small(seed=0)
        schedule = StepDecayLR(0.01, drop_every=1, factor=0.5)
        tr = Trainer(
            net, batch_size=30, lr=999.0,  # overridden by the schedule
            lr_schedule=schedule, target_accuracy=0.999, max_epochs=2,
        )
        tr.fit(data)
        # after epoch 2 the optimiser carries the decayed rate
        assert tr.optimizer.lr == pytest.approx(0.005)

    def test_warmup_rescues_large_lr(self):
        # A rate that diverges cold can be reached safely via warmup —
        # the standard large-batch trick.
        data = synthetic_cifar10(300, 100, seed=0, flip_prob=0.0)
        lr = 0.2  # hot enough to diverge from a cold start here
        cold = Trainer(
            cifar10_small(seed=0), batch_size=100, lr=lr,
            target_accuracy=0.999, max_epochs=4, seed=0,
        ).fit(data)
        warm = Trainer(
            cifar10_small(seed=0), batch_size=100, lr=lr,
            lr_schedule=WarmupLR(lr, base_lr=0.01, warmup_epochs=3),
            target_accuracy=0.999, max_epochs=4, seed=0,
        ).fit(data)
        assert warm.final_accuracy >= cold.final_accuracy
