"""Algebra of beamsplitter gates and of gate sequences.

The network of the paper is a product of two-mode gates ``U^(k,k+1)``
(Fig. 2, Eq. 6).  These checks pin the group structure that every
backend, the adjoint gradient and the reconstruction network rely on,
using only :class:`~repro.simulator.gates.BeamsplitterGate` and the
batched kernel :func:`~repro.simulator.gates.apply_givens_batch`:

- each 2x2 block is a rotation (orthogonal, determinant one, periodic,
  additive in its angle) and its complex extension is unitary;
- an embedded gate acts on its two modes only, and the in-place kernel
  applies exactly the embedded matrix (or its transpose for
  ``inverse=True``);
- gates on disjoint mode pairs commute, adjacent ones do not;
- a sequence of gates applied by the kernel equals the ordered matrix
  product, is orthogonal, and is undone by the reversed sequence of
  inverse gates.
"""

import numpy as np
import pytest

from repro.simulator.gates import BeamsplitterGate, apply_givens_batch

THETAS = [0.0, np.pi / 7, np.pi / 4, np.pi / 2, 2.3, np.pi, -1.1]
ALPHAS = [0.4, np.pi / 2, -2.0]
DIMS = [2, 3, 5, 8]
SEEDS = [0, 1, 2]
EMBEDDINGS = [(dim, k) for dim in DIMS for k in range(dim - 1)]


def random_gates(dim, n_gates, seed, complex_phases=False):
    """``n_gates`` gates at random adjacent mode pairs and angles."""
    rng = np.random.default_rng(seed)
    return [
        BeamsplitterGate(
            int(rng.integers(dim - 1)),
            float(rng.uniform(0.0, 2 * np.pi)),
            alpha=float(rng.uniform(-np.pi, np.pi)) if complex_phases else 0.0,
        )
        for _ in range(n_gates)
    ]


def gate_product(gates, dim):
    """The ordered product ``G_last ... G_first`` of embedded gates."""
    dtype = np.complex128 if any(not g.is_real for g in gates) else np.float64
    u = np.eye(dim, dtype=dtype)
    for g in gates:
        u = g.embed(dim) @ u
    return u


def apply_sequence(gates, data, inverse=False):
    """Apply ``gates`` in order (or their inverses in reverse) in place."""
    for g in reversed(gates) if inverse else gates:
        g.apply(data, inverse=inverse)
    return data


class TestBlock:
    @pytest.mark.parametrize("theta", THETAS)
    def test_orthogonal_with_unit_determinant(self, theta):
        m = BeamsplitterGate(0, theta).matrix2()
        assert np.allclose(m.T @ m, np.eye(2), atol=1e-15)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("theta", THETAS)
    def test_periodic_in_two_pi(self, theta):
        a = BeamsplitterGate(0, theta).matrix2()
        b = BeamsplitterGate(0, theta + 2 * np.pi).matrix2()
        assert np.allclose(a, b, atol=1e-14)

    @pytest.mark.parametrize("theta", THETAS)
    def test_inverse_gate_undoes_gate(self, theta):
        g = BeamsplitterGate(1, theta)
        assert np.allclose(
            g.inverse().embed(4) @ g.embed(4), np.eye(4), atol=1e-15
        )
        assert np.allclose(g.inverse().matrix2(), g.matrix2().T)

    @pytest.mark.parametrize("theta", THETAS)
    def test_dtheta_matches_central_difference(self, theta):
        h = 1e-6
        num = (
            BeamsplitterGate(0, theta + h).matrix2()
            - BeamsplitterGate(0, theta - h).matrix2()
        ) / (2 * h)
        assert np.allclose(
            BeamsplitterGate(0, theta).dmatrix2_dtheta(), num, atol=1e-9
        )

    @pytest.mark.parametrize(
        "a, b",
        [(0.1, 0.2), (np.pi / 3, np.pi / 6), (-0.7, 0.7), (2.5, 3.0),
         (np.pi, np.pi)],
    )
    def test_angles_add_under_composition(self, a, b):
        ga, gb = BeamsplitterGate(0, a), BeamsplitterGate(0, b)
        assert np.allclose(
            gb.matrix2() @ ga.matrix2(),
            BeamsplitterGate(0, a + b).matrix2(),
            atol=1e-14,
        )

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("theta", [np.pi / 7, np.pi / 2, 2.3])
    def test_complex_block_unitary(self, theta, alpha):
        m = BeamsplitterGate(0, theta, alpha=alpha).matrix2()
        assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-15)
        # The phase sits on the first column only: |det| = 1, arg = alpha.
        assert np.angle(np.linalg.det(m)) == pytest.approx(
            np.angle(np.exp(1j * alpha)), abs=1e-12
        )

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_kernel_inverse_is_conjugate_transpose(self, alpha):
        g = BeamsplitterGate(1, 0.8, alpha=alpha)
        data = np.eye(4, dtype=np.complex128)
        g.apply(data, inverse=True)
        assert np.allclose(data, g.embed(4).conj().T, atol=1e-15)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_dalpha_matches_central_difference(self, alpha):
        h = 1e-6
        num = (
            BeamsplitterGate(0, 0.9, alpha=alpha + h).matrix2()
            - BeamsplitterGate(0, 0.9, alpha=alpha - h).matrix2()
        ) / (2 * h)
        assert np.allclose(
            BeamsplitterGate(0, 0.9, alpha=alpha).dmatrix2_dalpha(),
            num,
            atol=1e-9,
        )


class TestEmbedding:
    @pytest.mark.parametrize("dim, k", EMBEDDINGS)
    def test_kernel_applies_embedded_matrix(self, dim, k):
        g = BeamsplitterGate(k, 0.3 + 0.2 * k)
        data = np.eye(dim)
        apply_givens_batch(data, k, g.theta)
        assert np.allclose(data, g.embed(dim), atol=1e-15)

    @pytest.mark.parametrize("dim, k", EMBEDDINGS)
    def test_inverse_kernel_applies_transpose(self, dim, k):
        g = BeamsplitterGate(k, 0.3 + 0.2 * k)
        data = np.eye(dim)
        apply_givens_batch(data, k, g.theta, inverse=True)
        assert np.allclose(data, g.embed(dim).T, atol=1e-15)

    @pytest.mark.parametrize("dim, k", EMBEDDINGS)
    def test_touches_only_its_two_modes(self, dim, k):
        x = np.random.default_rng(dim * 10 + k).normal(size=(dim, 3))
        out = x.copy()
        apply_givens_batch(out, k, 1.2)
        untouched = [i for i in range(dim) if i not in (k, k + 1)]
        assert np.array_equal(out[untouched], x[untouched])
        # The pair is rotated, not rescaled: its column norms are kept.
        assert np.allclose(
            np.linalg.norm(out[k : k + 2], axis=0),
            np.linalg.norm(x[k : k + 2], axis=0),
        )


class TestCommutation:
    @pytest.mark.parametrize(
        "k1, k2", [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4)]
    )
    def test_disjoint_gates_commute(self, k1, k2):
        a = BeamsplitterGate(k1, 0.7).embed(6)
        b = BeamsplitterGate(k2, -1.9).embed(6)
        assert np.allclose(a @ b, b @ a, atol=1e-15)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_adjacent_gates_do_not_commute(self, k):
        a = BeamsplitterGate(k, 0.7).embed(6)
        b = BeamsplitterGate(k + 1, -1.9).embed(6)
        assert not np.allclose(a @ b, b @ a)


class TestGateSequences:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_kernel_sequence_equals_matrix_product(self, dim, seed):
        gates = random_gates(dim, 3 * dim, seed)
        x = np.random.default_rng(seed).normal(size=(dim, 4))
        out = apply_sequence(gates, x.copy())
        assert np.allclose(out, gate_product(gates, dim) @ x, atol=1e-13)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_product_is_orthogonal(self, dim, seed):
        u = gate_product(random_gates(dim, 3 * dim, seed), dim)
        assert np.linalg.norm(u.T @ u - np.eye(dim)) < 1e-13
        assert abs(np.linalg.det(u)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_inverse_application_roundtrip(self, dim, seed):
        gates = random_gates(dim, 3 * dim, seed)
        x = np.random.default_rng(seed + 100).normal(size=(dim, 4))
        out = apply_sequence(gates, apply_sequence(gates, x.copy()), inverse=True)
        assert np.allclose(out, x, atol=1e-13)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_reversed_inverse_gates_give_transpose(self, dim, seed):
        gates = random_gates(dim, 3 * dim, seed)
        inverse = [g.inverse() for g in reversed(gates)]
        assert np.allclose(
            gate_product(inverse, dim), gate_product(gates, dim).T, atol=1e-13
        )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_concatenation_composes(self, dim, seed):
        a = random_gates(dim, dim, seed)
        b = random_gates(dim, dim + 1, seed + 50)
        assert np.allclose(
            gate_product(a + b, dim),
            gate_product(b, dim) @ gate_product(a, dim),
            atol=1e-13,
        )

    @pytest.mark.parametrize("dim", [4, 16])
    def test_thousand_gates_stay_orthogonal(self, dim):
        gates = random_gates(dim, 1000, seed=dim)
        data = np.eye(dim)
        apply_sequence(gates, data)
        assert np.linalg.norm(data.T @ data - np.eye(dim)) < 1e-11
        apply_sequence(gates, data, inverse=True)
        assert np.allclose(data, np.eye(dim), atol=1e-11)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_complex_sequence_unitary_and_invertible(self, seed):
        gates = random_gates(5, 15, seed, complex_phases=True)
        data = np.eye(5, dtype=np.complex128)
        apply_sequence(gates, data)
        assert np.allclose(data, gate_product(gates, 5), atol=1e-13)
        assert np.allclose(data.conj().T @ data, np.eye(5), atol=1e-13)
        apply_sequence(gates, data, inverse=True)
        assert np.allclose(data, np.eye(5), atol=1e-13)
