"""Cross-cutting property-based tests of the library's core invariants.

These hypothesis suites encode the physics/maths contracts everything else
relies on:

1. every network (any depth, order, parameters) is exactly orthogonal;
2. amplitude encode/decode is a lossless round trip for non-negative data;
3. compression never creates probability (retained mass <= 1);
4. the adjoint gradient equals the per-gate oracle's derivative-gate
   gradient for arbitrary configurations;
5. the end-to-end pipeline is invariant under global intensity scaling of
   an image (amplitude encoding is scale-free, the norm side-channel
   carries the scale).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gradient_oracle import looped_loss_and_gradient
from repro.encoding.amplitude import decode_batch, encode_batch
from repro.network import Projection, QuantumAutoencoder, QuantumNetwork
from repro.training.gradients import loss_and_gradient

dims = st.sampled_from([2, 4, 8])
seeds = st.integers(0, 10_000)


class TestNetworkInvariants:
    @given(dim=dims, layers=st.integers(1, 5), seed=seeds,
           descending=st.booleans())
    @settings(max_examples=40)
    def test_any_network_is_orthogonal(self, dim, layers, seed, descending):
        net = QuantumNetwork(dim, layers, descending=descending)
        net.initialize("uniform", rng=np.random.default_rng(seed))
        u = net.unitary()
        assert np.linalg.norm(u.T @ u - np.eye(dim)) < 1e-11

    @given(dim=dims, seed=seeds)
    @settings(max_examples=30)
    def test_forward_then_inverse_is_identity(self, dim, seed):
        rng = np.random.default_rng(seed)
        net = QuantumNetwork(dim, 3).initialize("uniform", rng=rng)
        x = rng.normal(size=(dim, 4))
        assert np.allclose(
            net.forward(net.forward(x), inverse=True), x, atol=1e-10
        )

    @given(seed=seeds)
    @settings(max_examples=30)
    def test_parameter_roundtrip_preserves_unitary(self, seed):
        rng = np.random.default_rng(seed)
        net = QuantumNetwork(8, 2).initialize("uniform", rng=rng)
        u_before = net.unitary()
        net.set_flat_params(net.get_flat_params())
        assert np.allclose(net.unitary(), u_before)


class TestEncodingInvariants:
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.just(8)),
            elements=st.floats(0, 50, allow_nan=False),
        ).filter(lambda m: np.all(m.sum(axis=1) > 1e-6))
    )
    @settings(max_examples=40)
    def test_encode_decode_roundtrip(self, X):
        enc = encode_batch(X)
        out = decode_batch(enc.states.data, enc.squared_norms)
        assert np.allclose(out, X, atol=1e-8)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.just(4)),
            elements=st.floats(0.01, 10, allow_nan=False),
        ),
        st.floats(0.1, 100.0),
    )
    @settings(max_examples=40)
    def test_scale_invariance_of_states(self, X, scale):
        """Amplitude encoding maps x and c*x to the same quantum state;
        the norm side-channel carries the scale."""
        a = encode_batch(X)
        b = encode_batch(scale * X)
        assert np.allclose(a.states.data, b.states.data, atol=1e-9)
        assert np.allclose(
            b.squared_norms, scale**2 * a.squared_norms, rtol=1e-9
        )


class TestCompressionInvariants:
    @given(dim=st.sampled_from([4, 8]), seed=seeds, d=st.integers(1, 3))
    @settings(max_examples=40)
    def test_retained_probability_at_most_one(self, dim, seed, d):
        rng = np.random.default_rng(seed)
        ae = QuantumAutoencoder(dim, d, 2, 2, projection=Projection.last(dim, d))
        ae.initialize("uniform", rng=rng)
        x = np.abs(rng.normal(size=(3, dim))) + 0.01
        out = ae.forward(x)
        assert np.all(out.retained_probability <= 1.0 + 1e-10)
        assert np.all(out.retained_probability >= -1e-12)

    @given(seed=seeds)
    @settings(max_examples=25)
    def test_output_norm_equals_retained_mass(self, seed):
        """U_R is unitary, so ||B_i||^2 == retained probability: the
        reconstruction cannot amplify what the projection discarded."""
        rng = np.random.default_rng(seed)
        ae = QuantumAutoencoder(8, 4, 2, 2).initialize("uniform", rng=rng)
        x = np.abs(rng.normal(size=(4, 8))) + 0.01
        out = ae.forward(x)
        out_norms = np.linalg.norm(out.output_amplitudes, axis=0) ** 2
        assert np.allclose(out_norms, out.retained_probability, atol=1e-10)


class TestGradientInvariants:
    @given(
        dim=st.sampled_from([4, 8]),
        layers=st.integers(1, 3),
        seed=seeds,
        use_projection=st.booleans(),
    )
    @settings(max_examples=30)
    def test_adjoint_equals_derivative_everywhere(
        self, dim, layers, seed, use_projection
    ):
        rng = np.random.default_rng(seed)
        net = QuantumNetwork(dim, layers).initialize("uniform", rng=rng)
        x = rng.normal(size=(dim, 3))
        x /= np.linalg.norm(x, axis=0)
        proj = Projection.last(dim, dim // 2) if use_projection else None
        t = rng.normal(size=(dim, 3))
        if proj is not None:
            t = proj.apply(t)
        norms = np.linalg.norm(t, axis=0)
        norms[norms < 1e-9] = 1.0
        t = t / norms
        _, g_adj = loss_and_gradient(
            net, x, t, projection=proj, method="adjoint"
        )
        _, g_der = looped_loss_and_gradient(
            net, x, t, projection=proj, method="derivative"
        )
        assert np.allclose(g_adj, g_der, atol=1e-10)


class TestPipelineInvariants:
    @given(seed=seeds, scale=st.floats(0.5, 20.0))
    @settings(max_examples=25)
    def test_reconstruction_scales_linearly(self, seed, scale):
        """Scaling an image scales its reconstruction by the same factor
        (Eq. 2 decodes through the stored norm)."""
        rng = np.random.default_rng(seed)
        ae = QuantumAutoencoder(4, 2, 2, 2).initialize("uniform", rng=rng)
        x = np.abs(rng.normal(size=(2, 4))) + 0.1
        out1 = ae.forward(x).x_hat
        out2 = ae.forward(scale * x).x_hat
        assert np.allclose(out2, scale * out1, rtol=1e-8, atol=1e-10)
