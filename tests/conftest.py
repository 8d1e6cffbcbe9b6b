import pytest

import hopfcirc.circuit
import hopfcirc.engine


@pytest.fixture
def validated(monkeypatch):
    """Record every circuit validate is called on, from any module."""
    circuits = []
    original = hopfcirc.circuit.validate

    def recording(circuit):
        circuits.append(circuit)
        return original(circuit)

    monkeypatch.setattr(hopfcirc.circuit, "validate", recording)
    monkeypatch.setattr(hopfcirc.engine, "validate", recording)
    return circuits
