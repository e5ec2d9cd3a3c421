"""Hypothesis property tests for the NN substrate and decoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nas.decoder import DecoderConfig, decode_genome
from repro.nas.genome import Genome, n_connection_bits
from repro.nn import load_state_dict, network_from_config, state_dict
from repro.nn.layers import Conv2D
from repro.nn.layers.conv import im2col
from repro.nn.serialization import architecture_config
from repro.utils.rng import derive_rng


@st.composite
def paper_genomes(draw):
    """Genomes in the paper's 3-phase, 4-node layout."""
    width = (n_connection_bits(4) + 1) * 3
    bits = draw(st.lists(st.integers(0, 1), min_size=width, max_size=width))
    return Genome.from_bits(bits, (4, 4, 4))


class TestDecoderProperties:
    @given(paper_genomes(), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_every_genome_decodes_and_runs(self, genome, seed):
        rng = derive_rng(seed, "decode")
        network = decode_genome(
            genome, DecoderConfig((1, 8, 8), 2, (2, 3, 4)), rng=rng
        )
        x = rng.normal(size=(2, 1, 8, 8))
        out = network.forward(x)
        assert out.shape == (2, 2)
        assert np.all(np.isfinite(out))
        # introspected shape chain agrees with execution
        assert network.output_shape() == (2,)
        assert network.flops() > 0

    @given(paper_genomes())
    @settings(max_examples=25, deadline=None)
    def test_flops_and_params_deterministic_per_genome(self, genome):
        config = DecoderConfig((1, 8, 8), 2, (2, 3, 4))
        a = decode_genome(genome, config, rng=derive_rng(0, "a"))
        b = decode_genome(genome, config, rng=derive_rng(1, "b"))
        # structure-derived quantities are weight-independent
        assert a.flops() == b.flops()
        assert a.n_parameters() == b.n_parameters()

    @given(paper_genomes(), st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_state_dict_round_trip_exact(self, genome, seed):
        rng = derive_rng(seed, "roundtrip")
        config = DecoderConfig((1, 8, 8), 2, (2, 3, 4))
        network = decode_genome(genome, config, rng=rng)
        x = rng.normal(size=(3, 1, 8, 8))
        network.forward(x, training=True)  # populate batch-norm state

        rebuilt = network_from_config(architecture_config(network))
        load_state_dict(rebuilt, state_dict(network))
        np.testing.assert_array_equal(rebuilt.predict(x), network.predict(x))


class TestBackwardShapeProperty:
    @given(paper_genomes(), st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_backward_returns_input_shaped_grad(self, genome, batch):
        rng = derive_rng(7, "bk", batch)
        network = decode_genome(
            genome, DecoderConfig((1, 8, 8), 2, (2, 2, 2)), rng=rng
        )
        x = rng.normal(size=(batch, 1, 8, 8))
        out = network.forward(x, training=True)
        grad = network.backward(np.ones_like(out))
        assert grad.shape == x.shape
        assert np.all(np.isfinite(grad))


class TestConvAdjointProperty:
    """``Conv2D.backward``'s input gradient is the adjoint of the forward
    map: ``<conv(x), g> == <x, dX(g)>`` for every geometry the layer
    accepts — including strides that leave input rows uncovered and
    padding wider than the kernel, where outputs that saw only padding
    have no input to send their gradient to."""

    @given(
        kernel_size=st.integers(1, 4),
        stride=st.integers(1, 3),
        pad_before=st.integers(0, 5),
        pad_after=st.integers(0, 5),
        height=st.integers(1, 9),
        width=st.integers(1, 9),
        channels=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_input_gradient_is_the_adjoint_of_forward(
        self, kernel_size, stride, pad_before, pad_after, height, width, channels, seed
    ):
        rng = derive_rng(seed, "conv-adjoint")
        if min(height, width) + pad_before + pad_after < kernel_size:
            with pytest.raises(ValueError, match="empty output"):
                Conv2D(
                    *channels, kernel_size, stride=stride, padding=(pad_before, pad_after), rng=rng
                ).forward(np.zeros((1, channels[0], height, width)))
            return
        layer = Conv2D(
            *channels,
            kernel_size,
            stride=stride,
            padding=(pad_before, pad_after),
            use_bias=False,
            rng=rng,
        )
        x = rng.normal(size=(2, channels[0], height, width))
        out = layer.forward(x, training=True)
        g = rng.normal(size=out.shape)
        grad_x = layer.backward(g)
        assert grad_x.shape == x.shape
        lhs, rhs = float(np.sum(out * g)), float(np.sum(x * grad_x))
        scale = float(np.sum(np.abs(out * g))) + 1.0
        assert abs(lhs - rhs) <= 1e-10 * scale


class TestConvReferenceProperty:
    """``Conv2D`` against the textbook formulation it no longer runs:
    ``forward == im2col(pad(x)) @ W^T + b`` and ``dW == einsum`` over
    the same columns, for every drawn geometry — a single sample, a
    single channel and a kernel taller than the (unpadded) input
    included."""

    @given(
        batch=st.integers(1, 3),
        channels=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        kernel_size=st.integers(1, 5),
        stride=st.integers(1, 3),
        pad_before=st.integers(0, 4),
        pad_after=st.integers(0, 4),
        height=st.integers(1, 8),
        width=st.integers(1, 8),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_forward_and_weight_gradient_equal_the_im2col_formulation(
        self, batch, channels, kernel_size, stride, pad_before, pad_after, height, width, seed
    ):
        if min(height, width) + pad_before + pad_after < kernel_size:
            pad_after += kernel_size  # keep the draw: widen until one window fits
        rng = derive_rng(seed, "conv-reference")
        c, oc = channels
        layer = Conv2D(
            c, oc, kernel_size, stride=stride, padding=(pad_before, pad_after), rng=rng
        )
        layer.params["bias"].value[...] = rng.normal(size=oc)
        x = rng.normal(size=(batch, c, height, width))
        out = layer.forward(x, training=True)
        g = rng.normal(size=out.shape)
        layer.backward(g)

        tol = 1000 * np.finfo(np.float64).eps  # each element sums <= 100 O(1) products
        pads = (pad_before, pad_after)
        cols = im2col(np.pad(x, ((0, 0), (0, 0), pads, pads)), kernel_size, kernel_size, stride)
        kernel = layer.params["weight"].value.reshape(oc, -1)
        expected = (cols @ kernel.T + layer.params["bias"].value).transpose(0, 2, 1)
        np.testing.assert_allclose(out, expected.reshape(out.shape), rtol=tol, atol=tol)
        np.testing.assert_allclose(layer.forward(x), out, rtol=tol, atol=tol)
        g_flat = g.reshape(batch, oc, -1)
        np.testing.assert_allclose(
            layer.params["weight"].grad.reshape(oc, -1),
            np.einsum("nop,npk->ok", g_flat, cols),
            rtol=tol,
            atol=tol,
        )
        np.testing.assert_allclose(
            layer.params["bias"].grad, g_flat.sum(axis=(0, 2)), rtol=tol, atol=tol
        )
