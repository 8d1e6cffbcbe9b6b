import pytest

import hopfcirc.circuit


@pytest.fixture
def validated(monkeypatch):
    """Record every circuit validate is called on: Circuit's constructor
    looks it up in the circuit module on every call."""
    circuits = []
    original = hopfcirc.circuit.validate

    def recording(circuit):
        circuits.append(circuit)
        return original(circuit)

    monkeypatch.setattr(hopfcirc.circuit, "validate", recording)
    return circuits
