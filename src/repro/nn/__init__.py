"""From-scratch NumPy deep-learning framework (PyTorch substitute).

Provides what the NAS and its baselines need of a training stack: NCHW
conv nets with backprop (:mod:`repro.nn.layers`), a sequential container
(:class:`~repro.nn.network.Network`), losses, the Adam optimizer,
accuracy metrics, FLOP accounting for the multi-objective search, full
checkpointing, and an epoch-wise :class:`~repro.nn.trainer.Trainer`
that satisfies the Algorithm-1 model protocol.
"""

from repro.nn import layers
from repro.nn.flops import layer_flops_table, network_flops
from repro.nn.layers import (
    AvgPool2D,
    BatchNorm1D,
    BatchNorm2D,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool2D,
    Layer,
    MaxPool2D,
    Parameter,
    ReLU,
    Sigmoid,
)
from repro.nn.losses import MeanSquaredError, SoftmaxCrossEntropy, log_softmax
from repro.nn.metrics import accuracy, accuracy_percent
from repro.nn.network import Network
from repro.nn.optimizers import Adam, Optimizer
from repro.nn.serialization import (
    architecture_config,
    load_checkpoint,
    load_state_dict,
    network_from_config,
    save_checkpoint,
    state_dict,
)
from repro.nn.trainer import EpochStats, Trainer

__all__ = [
    "layers",
    "Layer",
    "Parameter",
    "Conv2D",
    "Dense",
    "Flatten",
    "BatchNorm1D",
    "BatchNorm2D",
    "AvgPool2D",
    "MaxPool2D",
    "GlobalAvgPool2D",
    "ReLU",
    "Sigmoid",
    "Network",
    "SoftmaxCrossEntropy",
    "MeanSquaredError",
    "log_softmax",
    "Adam",
    "Optimizer",
    "accuracy",
    "accuracy_percent",
    "network_flops",
    "layer_flops_table",
    "architecture_config",
    "network_from_config",
    "state_dict",
    "load_state_dict",
    "save_checkpoint",
    "load_checkpoint",
    "EpochStats",
    "Trainer",
]
