"""From-scratch NumPy deep-learning framework.

Implements everything the paper's DNN experiments need (Section IV):
convolution / pooling / fully-connected layers with exact gradients,
softmax cross-entropy, minibatch SGD with the momentum update of
Eqs. (8)-(9), a Caffe-``cifar10_full``-style model, and a trainer that
measures *time and epochs to a target test accuracy* — the metric every
row of Table VII reports.

Layout convention: activations are ``(N, C, H, W)`` float32/float64
arrays; convolution uses im2col so the inner loop is one GEMM (the
paper: "the computational kernels of deep learning are mainly
matrix-matrix multiply").
"""

from repro.dnn.layers import (
    Conv2d,
    Dropout,
    Flatten,
    Layer,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.dnn.net import Sequential
from repro.dnn.loss import SoftmaxCrossEntropy
from repro.dnn.optim import SGD, MomentumSGD, Optimizer
from repro.dnn.models import cifar10_full, cifar10_small, linear_probe
from repro.dnn.trainer import EpochStats, Trainer, TrainingRun
from repro.dnn.schedules import ConstantLR, LRSchedule, StepDecayLR, WarmupLR

__all__ = [
    "Layer",
    "Conv2d",
    "MaxPool2d",
    "ReLU",
    "Linear",
    "Flatten",
    "Dropout",
    "Sequential",
    "SoftmaxCrossEntropy",
    "Optimizer",
    "SGD",
    "MomentumSGD",
    "cifar10_full",
    "cifar10_small",
    "linear_probe",
    "Trainer",
    "TrainingRun",
    "EpochStats",
    "LRSchedule",
    "ConstantLR",
    "StepDecayLR",
    "WarmupLR",
]
