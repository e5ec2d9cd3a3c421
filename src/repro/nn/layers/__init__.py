"""Layer zoo for the NumPy NN framework (NCHW data layout)."""

from repro.nn.layers.activation import ReLU, Sigmoid
from repro.nn.layers.base import Layer, Parameter
from repro.nn.layers.conv import Conv2D, col2im, im2col
from repro.nn.layers.dense import Dense
from repro.nn.layers.flatten import Flatten
from repro.nn.layers.norm import BatchNorm1D, BatchNorm2D
from repro.nn.layers.pooling import AvgPool2D, GlobalAvgPool2D, MaxPool2D

LAYER_TYPES = {
    cls.__name__: cls
    for cls in (
        ReLU,
        Sigmoid,
        Conv2D,
        Dense,
        Flatten,
        BatchNorm1D,
        BatchNorm2D,
        AvgPool2D,
        MaxPool2D,
        GlobalAvgPool2D,
    )
}

__all__ = [
    "Layer",
    "Parameter",
    "ReLU",
    "Sigmoid",
    "Conv2D",
    "im2col",
    "col2im",
    "Dense",
    "Flatten",
    "BatchNorm1D",
    "BatchNorm2D",
    "AvgPool2D",
    "MaxPool2D",
    "GlobalAvgPool2D",
    "LAYER_TYPES",
]
