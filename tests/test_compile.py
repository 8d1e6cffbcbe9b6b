import time

import numpy as np
import pytest

from hopfcirc.algebra import builtin_algebra, z2_algebra
from hopfcirc.circuit import (
    CircuitError,
    Cnot,
    U1,
    basis_state,
    compile_gate_circuit,
    direct_gate_map,
    is_unitary,
    validate,
)
from hopfcirc.engine import evaluate

from helpers import haar_unitary, kron_gate_map, random_gate_list, simulate_gates_rowwise

Z2 = z2_algebra()

CNOT_TABLE = np.zeros((4, 4))
CNOT_TABLE[0, 0] = CNOT_TABLE[1, 1] = CNOT_TABLE[3, 2] = CNOT_TABLE[2, 3] = 1.0

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class TestCompileBasics:
    def test_single_adjacent_cnot(self):
        circuit = compile_gate_circuit(Z2, 2, [Cnot(0, 1)])
        assert np.array_equal(evaluate(circuit).matrix, CNOT_TABLE)

    def test_empty_gate_list_is_identity(self):
        for n in (1, 3):
            m = evaluate(compile_gate_circuit(Z2, n, []))
            assert np.array_equal(m.matrix, np.eye(2**n))

    def test_bell_state(self):
        circuit = compile_gate_circuit(Z2, 2, [U1(0, HADAMARD, "h"), Cnot(0, 1)])
        out = evaluate(circuit).matrix @ basis_state(2, [0, 0])
        want = (basis_state(2, [0, 0]) + basis_state(2, [1, 1])) / np.sqrt(2)
        assert np.max(np.abs(out - want)) <= 1e-15

    def test_uses_only_declared_primitives(self):
        circuit = compile_gate_circuit(Z2, 3, [Cnot(2, 0), U1(1, HADAMARD)])
        kinds = {p.kind for layer in circuit.layers for p in layer}
        assert kinds <= {"Id", "Mul", "Comul", "Swap", "Unitary"}
        validate(circuit)

    def test_reversed_adjacent_cnot(self):
        circuit = compile_gate_circuit(Z2, 2, [Cnot(1, 0)])
        got = evaluate(circuit).matrix
        want = simulate_gates_rowwise(2, [Cnot(1, 0)])
        assert np.array_equal(got, want)
        # target is wire 0: |01> -> |11>
        assert np.array_equal(got[:, 1], basis_state(2, [1, 1]))

    @pytest.mark.parametrize("control,target", [(0, 2), (2, 0), (0, 3), (3, 1), (1, 3)])
    def test_distant_cnot_pairs(self, control, target):
        gates = [Cnot(control, target)]
        got = evaluate(compile_gate_circuit(Z2, 4, gates)).matrix
        want = simulate_gates_rowwise(4, gates)
        assert np.array_equal(got, want)

    def test_wire_bounds_checked(self):
        with pytest.raises(CircuitError, match="out of range"):
            compile_gate_circuit(Z2, 2, [Cnot(0, 2)])
        with pytest.raises(CircuitError, match="out of range"):
            compile_gate_circuit(Z2, 2, [U1(5, HADAMARD)])

    @pytest.mark.parametrize("wires,gate", [(3000, Cnot(0, 2999)), (10**20, Cnot(0, 1))])
    def test_width_refused_before_building_layers(self, wires, gate):
        start = time.perf_counter()
        with pytest.raises(CircuitError, match="too wide"):
            compile_gate_circuit(Z2, wires, [gate])
        assert time.perf_counter() - start < 2.0

    def test_control_equals_target_rejected(self):
        with pytest.raises(CircuitError, match="differ"):
            compile_gate_circuit(Z2, 2, [Cnot(1, 1)])


class TestCompileEquivalence:
    def test_random_gate_lists_match_row_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            wires = int(rng.integers(1, 6))
            gates = random_gate_list(rng, wires, int(rng.integers(0, 16)))
            compiled = evaluate(compile_gate_circuit(Z2, wires, gates))
            want = simulate_gates_rowwise(wires, gates)
            assert np.max(np.abs(compiled.matrix - want)) <= 1e-10
            assert is_unitary(compiled, 1e-10)

    def test_direct_gate_map_matches_row_oracle(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            wires = int(rng.integers(1, 5))
            gates = random_gate_list(rng, wires, int(rng.integers(0, 10)))
            got = direct_gate_map(Z2, wires, gates).matrix
            want = simulate_gates_rowwise(wires, gates)
            assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("name", ["Z2", "Z3"])
    def test_direct_gate_map_matches_kronecker_product(self, name):
        algebra = builtin_algebra(name)
        rng = np.random.default_rng(len(name) + algebra.dim)
        for wires in range(1, 7):
            for _ in range(4):
                gates = random_gate_list(rng, wires, int(rng.integers(0, 12)), algebra.dim)
                got = direct_gate_map(algebra, wires, gates).matrix
                assert np.max(np.abs(got - kron_gate_map(algebra, wires, gates))) <= 1e-15

    def test_qutrit_controlled_shift_compiles(self):
        z3 = builtin_algebra("Z3")
        rng = np.random.default_rng(7)
        gates = [Cnot(1, 0), U1(2, haar_unitary(rng, 3)), Cnot(0, 2)]
        compiled = evaluate(compile_gate_circuit(z3, 3, gates))
        direct = direct_gate_map(z3, 3, gates)
        assert np.max(np.abs(compiled.matrix - direct.matrix)) <= 1e-12
        assert is_unitary(compiled, 1e-10)
