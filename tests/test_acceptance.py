"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own report.
"""

import time

import numpy as np
from hypothesis import given, settings

from hopfcirc.algebra import HopfAlgebra, builtin_algebra, check_axioms, z2_algebra
from hopfcirc.circuit import (
    COMUL,
    COUNIT,
    ID,
    MUL,
    AnnihilatedStateError,
    Circuit,
    basis_state,
    build_cnot,
    compile_gate_circuit,
    evaluate_bruteforce,
    is_unitary,
    measure,
    unitary,
    _digits_to_index,
)
from hopfcirc.dsl import parse_circuit, print_circuit, to_circuit
from hopfcirc.engine import evaluate

from helpers import (
    REPO_ROOT,
    document_strategy,
    random_circuit,
    random_gate_list,
    simulate_gates_rowwise,
)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

CNOT_TABLE = np.zeros((4, 4))
CNOT_TABLE[0, 0] = CNOT_TABLE[1, 1] = CNOT_TABLE[3, 2] = CNOT_TABLE[2, 3] = 1.0


def report(criterion: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {criterion} failed: {description}"


def generalized_example(u_matrix) -> Circuit:
    return Circuit(
        z2_algebra(),
        wires_in=2,
        layers=(
            (COMUL, COMUL),
            (COMUL, MUL, ID),
            (ID, unitary("u0", u_matrix), ID, ID),
            (ID, MUL, ID),
        ),
    )


def test_criterion_1_hopf_axiom_suite():
    z2_report = check_axioms(z2_algebra(), 0.0)
    ok = z2_report.passed and z2_report.max_deviation == 0.0
    for name in ("Z3", "Z4", "Z5", "S3"):
        rep = check_axioms(builtin_algebra(name), 1e-12)
        ok = ok and rep.passed and rep.max_deviation <= 1e-12
    report(1, "all six axiom families: deviation 0 for Z2, <=1e-12 for Z3/Z4/Z5/S3", ok)


def test_criterion_2_cnot_identity():
    m = evaluate(build_cnot(z2_algebra())).matrix
    ok = np.array_equal(m, CNOT_TABLE)
    ok = ok and np.array_equal(m @ m, np.eye(4))
    report(2, "copy-multiply circuit equals the CNOT permutation, entry-exact; squares to identity", ok)


def test_criterion_3_oracle_equivalence_200_circuits():
    start = time.perf_counter()
    rng = np.random.default_rng(20260811)
    worst = 0.0
    for algebra in (z2_algebra(), builtin_algebra("Z3")):
        for _ in range(100):
            circuit = random_circuit(rng, algebra, max_wires=4, max_layers=5)
            dense = evaluate(circuit)
            for idx in range(dense.base_dim**dense.wires_in):
                column = evaluate_bruteforce(circuit, idx)
                diff = float(np.max(np.abs(column - dense.matrix[:, idx])))
                worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 30.0
    report(
        3,
        f"200 random circuits: max |evaluate - bruteforce| = {worst:.3e} in {elapsed:.1f}s",
        ok,
    )


def test_criterion_4_compiler_equivalence_30_gate_lists():
    rng = np.random.default_rng(42)
    algebra = z2_algebra()
    worst = 0.0
    all_unitary = True
    for _ in range(30):
        wires = int(rng.integers(1, 7))
        gates = random_gate_list(rng, wires, int(rng.integers(0, 31)))
        compiled = evaluate(compile_gate_circuit(algebra, wires, gates))
        direct = simulate_gates_rowwise(wires, gates)
        worst = max(worst, float(np.max(np.abs(compiled.matrix - direct))))
        all_unitary = all_unitary and is_unitary(compiled)
    ok = worst <= 1e-10 and all_unitary
    report(4, f"30 random gate lists: max deviation {worst:.3e}, all compiled maps unitary", ok)


def test_criterion_5_generalized_circuit_reproduction():
    with_id = evaluate(generalized_example(np.eye(2)))
    ok = with_id.matrix.shape == (8, 4)
    for a in range(2):
        for b in range(2):
            idx = _digits_to_index([a, b], 2)
            want = basis_state(2, [a, b, b])
            ok = ok and np.array_equal(with_id.matrix[:, idx], want)
            ok = ok and np.array_equal(evaluate_bruteforce(generalized_example(np.eye(2)), idx), want)

    with_h = generalized_example(HADAMARD)
    dense = evaluate(with_h)
    ok = ok and dense.matrix.shape == (8, 4) and not is_unitary(dense)
    for idx in range(4):
        column = evaluate_bruteforce(with_h, idx)
        ok = ok and float(np.max(np.abs(column - dense.matrix[:, idx]))) <= 1e-12
    report(5, "generalized circuit: identity case maps (a,b)->(a,b,b) exactly; "
              "rotated case agrees with oracle and is non-unitary (8x4)", ok)


def test_criterion_6_degenerate_handling():
    h = z2_algebra()
    mul = h.mul.copy()
    mul[1, 1, 0] = 0.0
    corrupted = HopfAlgebra(h.basis_labels, mul, h.comul, h.unit, h.counit, h.antipode)
    ok = not check_axioms(corrupted, 1e-12).passed

    annihilating = Circuit(
        h, wires_in=1, layers=((unitary("h", HADAMARD),), (COUNIT,))
    )
    out = evaluate(annihilating).matrix @ basis_state(2, [1])
    try:
        measure(out, 2)
        ok = False
    except AnnihilatedStateError:
        pass
    report(6, "corrupted multiplication tensor fails axioms; annihilated input raises, "
              "no distribution is invented", ok)


@settings(max_examples=100, deadline=None)
@given(document_strategy())
def test_criterion_7a_dsl_round_trip(doc):
    assert parse_circuit(print_circuit(doc)) == doc


def test_criterion_7_dsl_round_trip_and_goldens():
    # the hypothesis property above has already exercised 100 random
    # documents by the time this summary line prints
    cnot_src = (REPO_ROOT / "circuits" / "cnot.hopf").read_text()
    fig2_src = (REPO_ROOT / "circuits" / "fig2.hopf").read_text()
    ok = print_circuit(parse_circuit(cnot_src)) == cnot_src
    ok = ok and print_circuit(parse_circuit(fig2_src)) == fig2_src

    cnot_map = evaluate(to_circuit(parse_circuit(cnot_src)))
    ok = ok and np.array_equal(cnot_map.matrix, CNOT_TABLE)

    fig2_map = evaluate(to_circuit(parse_circuit(fig2_src)))
    want = evaluate(generalized_example(HADAMARD))
    ok = ok and fig2_map.matrix.shape == (8, 4)
    ok = ok and float(np.max(np.abs(fig2_map.matrix - want.matrix))) == 0.0
    report(7, "parse/print identity over 100 random documents; golden files evaluate "
              "to the criterion-2 and criterion-5 matrices", ok)
