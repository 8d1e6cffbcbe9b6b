"""Quantum circuits as compositions of Hopf-algebra structure maps.

The multiplication of the two-element group algebra is the XOR gate; copy
the control with the comultiplication and multiply the copy into the
target and you have the controlled-NOT.  This package builds that algebra
(and any finite group algebra), verifies the Hopf axioms numerically,
evaluates layered circuits of structure maps, compiles ordinary gate lists
into those primitives, and reads probabilistic outputs off non-unitary
circuit maps.
"""

from .algebra import (
    AxiomReport,
    GroupTableError,
    HopfAlgebra,
    builtin_algebra,
    check_axioms,
    group_algebra,
    load_group_table,
    resolve_algebra,
    z2_algebra,
)
from .circuit import (
    ANTIPODE,
    COMUL,
    COUNIT,
    ID,
    MUL,
    SWAP,
    UNIT,
    AnnihilatedStateError,
    Circuit,
    CircuitError,
    Cnot,
    OutcomeDistribution,
    U1,
    basis_state,
    build_cnot,
    compile_gate_circuit,
    direct_gate_map,
    evaluate_bruteforce,
    evaluate_bruteforce_map,
    is_unitary,
    measure,
    unitary,
    validate,
)
from .dsl import CircuitDocument, ParseError, parse_circuit, print_circuit, to_circuit
from .engine import circuit_is_unitary, evaluate, run
from .tensor import LinearMap

__version__ = "0.1.0"
