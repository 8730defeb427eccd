"""Tests for repro.backends.program (GateProgram compilation)."""

import numpy as np
import pytest

from repro.backends import GateProgram, compile_program
from repro.exceptions import BackendError
from repro.network import QuantumNetwork


class TestCompileProgram:
    def test_gate_count(self):
        prog = compile_program(QuantumNetwork(5, 3))
        assert prog.num_gates == 3 * 4
        assert prog.num_thetas == 12
        assert prog.num_parameters == 12

    def test_ascending_order(self):
        prog = compile_program(QuantumNetwork(4, 2))
        assert prog.modes.tolist() == [0, 1, 2, 0, 1, 2]
        assert prog.layer_index.tolist() == [0, 0, 0, 1, 1, 1]
        assert prog.theta_index.tolist() == [0, 1, 2, 3, 4, 5]

    def test_descending_order(self):
        prog = compile_program(QuantumNetwork(4, 2, descending=True))
        assert prog.modes.tolist() == [2, 1, 0, 2, 1, 0]
        # theta index i always means the gate at modes (i, i+1).
        assert prog.theta_index.tolist() == [2, 1, 0, 5, 4, 3]

    def test_real_network_has_no_alpha_indices(self):
        prog = compile_program(QuantumNetwork(4, 2))
        assert not prog.allow_phase
        assert np.all(prog.alpha_index == -1)

    def test_phase_network_alpha_indices(self):
        net = QuantumNetwork(4, 2, allow_phase=True)
        prog = compile_program(net)
        assert prog.allow_phase
        assert prog.num_parameters == 2 * net.num_thetas
        assert np.array_equal(
            prog.alpha_index, prog.theta_index + net.num_thetas
        )

    def test_matches_layer_mode_sequences(self):
        net = QuantumNetwork(5, 2, descending=True)
        prog = compile_program(net)
        layer_modes = [int(k) for layer in net.layers for k in layer.mode_sequence()]
        assert prog.modes.tolist() == layer_modes

    def test_gate_for_parameter_roundtrip(self):
        net = QuantumNetwork(6, 3, descending=True, allow_phase=True)
        prog = compile_program(net)
        gate_of = prog.gate_for_parameter()
        for g in range(prog.num_gates):
            assert gate_of[prog.theta_index[g]] == g
            assert gate_of[prog.alpha_index[g]] == g

    def test_structural_only(self):
        """The program ignores parameter values entirely."""
        net = QuantumNetwork(4, 2)
        before = compile_program(net)
        net.initialize("uniform", rng=np.random.default_rng(0))
        after = compile_program(net)
        assert np.array_equal(before.modes, after.modes)
        assert np.array_equal(before.theta_index, after.theta_index)

    def test_shape_validation(self):
        with pytest.raises(BackendError, match="shape"):
            GateProgram(
                dim=4,
                num_layers=1,
                allow_phase=False,
                modes=np.zeros(3, dtype=np.int64),
                layer_index=np.zeros(2, dtype=np.int64),
                theta_index=np.zeros(3, dtype=np.int64),
                alpha_index=np.full(3, -1, dtype=np.int64),
            )
