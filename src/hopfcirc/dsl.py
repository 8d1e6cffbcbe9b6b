"""Line-oriented textual description of circuits, with a canonical printer.

Grammar ('#' starts a comment, keywords are case-insensitive, one
statement per line):

    circuit   ::= header { layerline }
    header    ::= "algebra" NAME  "in" INT  { unitdef }
    unitdef   ::= "unitary" NAME ( PRESET | MATRIX )
    layerline ::= "layer" prim { "," prim }
    prim      ::= ID | M | DELTA | UNIT | COUNIT | S | SWAP | U(NAME)
    MATRIX    ::= "[" row { ";" row } "]"   row ::= entry { "," entry }

Layers are written in application order: the first layer line acts on the
circuit inputs.  Matrix entries are complex literals written as
"re+imi" pairs, e.g. 0.5-0.5i; presets (two-dimensional algebras only)
are I, X, Y, Z, H, S_PHASE, T and the rotations RX(a), RY(a), RZ(a) with
the angle in radians.

A compiled circuit repeats a few layer lines many times.  parse_circuit
parses each distinct layer line once, and repeats of it share its
tokens; to_circuit resolves each distinct layer once, so equal layers
share one tuple of primitives, which validate and the engine plan then
handle once too.  So the cost of parsing and planning scales with
the distinct layer lines, not with all of them.  Each memo lives for one
call.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass

import numpy as np

from .algebra import resolve_algebra
from .circuit import (
    ANTIPODE,
    COMUL,
    COUNIT,
    ID,
    MUL,
    PRIMITIVES,
    SWAP,
    UNIT,
    Circuit,
    CircuitError,
    _check_unitary_shape,
    _echo,
    _unitaries,
)

__all__ = [
    "ParseError",
    "UnitaryDef",
    "CircuitDocument",
    "parse_circuit",
    "print_circuit",
    "to_circuit",
    "circuit_to_document",
    "PRESET_NAMES",
    "ROTATION_NAMES",
]

#: preset name -> its matrix; UnitaryDef.matrix returns a copy
_PRESETS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * (1.0 / math.sqrt(2.0)),
    "S_PHASE": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex),
}

#: rotation name -> the rows of its matrix at half the angle
_ROTATIONS = {
    "RX": lambda half: [[math.cos(half), -1j * math.sin(half)], [-1j * math.sin(half), math.cos(half)]],
    "RY": lambda half: [[math.cos(half), -math.sin(half)], [math.sin(half), math.cos(half)]],
    "RZ": lambda half: [[cmath.exp(-1j * half), 0], [0, cmath.exp(1j * half)]],
}

PRESET_NAMES = tuple(_PRESETS)
ROTATION_NAMES = tuple(_ROTATIONS)

#: DSL token -> structure-map primitive: the circuit module's own objects
_PRIMITIVE_BY_TOKEN = {
    PRIMITIVES[prim.kind].token: prim for prim in (ID, MUL, COMUL, UNIT, COUNIT, ANTIPODE, SWAP)
}

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_UREF_RE = re.compile(r"^[Uu]\s*\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*\)$")
_PRESET_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\(([^()]*)\))?$")
_STATEMENT_RE = re.compile(r"^(\s*)(\S+)(\s*)")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class UnitaryDef:
    """Either a named preset (with an angle for rotations) or explicit rows."""

    preset: str | None = None
    angle: float | None = None
    rows: tuple[tuple[complex, ...], ...] | None = None

    def matrix(self) -> np.ndarray:
        """A new array on every call."""
        return np.array(self._entries(), dtype=complex)

    def _entries(self):
        """The matrix's entries as rows, or as a preset's own array, which
        must not be written to."""
        if self.rows is not None:
            return self.rows
        if self.preset in _PRESETS:
            return _PRESETS[self.preset]
        if self.preset not in _ROTATIONS:
            raise ValueError(f"unknown preset {_echo(self.preset)}")
        return _ROTATIONS[self.preset](self.angle / 2.0)


@dataclass(frozen=True)
class CircuitDocument:
    algebra_name: str
    wires_in: int
    unitaries: tuple[tuple[str, UnitaryDef], ...]
    layers: tuple[tuple[str | tuple[str, str], ...], ...]


# --- complex literals -------------------------------------------------------

_FLOAT = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_FULL_RE = re.compile(rf"^(?P<re>{_FLOAT})(?P<im>[+-](?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)i$")
_IMAG_ONLY_RE = re.compile(rf"^(?P<im>{_FLOAT})i$")
_REAL_ONLY_RE = re.compile(rf"^{_FLOAT}$")


def _parse_complex(token: str) -> complex:
    token = token.replace(" ", "")
    m = _COMPLEX_FULL_RE.match(token)
    if m:
        return complex(float(m.group("re")), float(m.group("im")))
    m = _IMAG_ONLY_RE.match(token)
    if m:
        return complex(0.0, float(m.group("im")))
    if _REAL_ONLY_RE.match(token):
        return complex(float(token), 0.0)
    raise ValueError(f"bad complex literal {_echo(token)} (expected forms: 1.5, 2i, 1.5-0.5i)")


def _format_complex(z: complex) -> str:
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _parse_matrix(text: str, line: int, column: int) -> tuple[tuple[complex, ...], ...]:
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ParseError("matrix literal must be enclosed in [ ]", line, column)
    rows = []
    for row_text in body[1:-1].split(";"):
        entries = []
        for entry_text in row_text.split(","):
            try:
                entries.append(_parse_complex(entry_text.strip()))
            except ValueError as exc:
                raise ParseError(str(exc), line, column) from None
        rows.append(tuple(entries))
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("matrix rows have unequal lengths", line, column)
    if any(not (cmath.isfinite(e)) for r in rows for e in r):
        raise ParseError("matrix entries must be finite", line, column)
    return tuple(rows)


# --- parsing ----------------------------------------------------------------

def _split_statement(raw: str) -> tuple[str, str, int] | None:
    """Strip comment; return (keyword lowercased, rest of line, column of rest)."""
    hash_pos = raw.find("#")
    line = raw if hash_pos < 0 else raw[:hash_pos]
    match = _STATEMENT_RE.match(line)
    if match is None:  # a blank line
        return None
    keyword = match.group(2)
    rest_col = match.end() + 1
    return keyword.lower(), line[match.end():].strip(), rest_col


def parse_circuit(text: str) -> CircuitDocument:
    """Parse DSL source into a document; raises ParseError with line/column."""
    algebra_name: str | None = None
    wires_in: int | None = None
    unitaries: list[tuple[str, UnitaryDef]] = []
    unitary_names: set[str] = set()
    layers: list[tuple[str | tuple[str, str], ...]] = []
    # raw layer line -> its tokens: unitary names are fixed before the first
    # layer, so a repeated line parses to the same tokens, and only a line
    # seen for the first time can fail
    seen_layers: dict[str, tuple[str | tuple[str, str], ...]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = seen_layers.get(raw)
        if tokens is not None:
            layers.append(tokens)
            continue
        stmt = _split_statement(raw)
        if stmt is None:
            continue
        keyword, rest, rest_col = stmt

        if keyword == "layer":  # the most frequent statement first
            if wires_in is None:
                raise ParseError("layers must follow the header", lineno, 1)
            tokens = seen_layers[raw] = _parse_layer(rest, rest_col, lineno, unitary_names)
            layers.append(tokens)
        elif keyword == "algebra":
            if algebra_name is not None:
                raise ParseError("duplicate algebra line", lineno, 1)
            if not rest or len(rest.split()) != 1:
                raise ParseError("expected a single algebra name", lineno, rest_col)
            algebra_name = rest
        elif keyword == "in":
            if algebra_name is None:
                raise ParseError("'in' must follow the algebra line", lineno, 1)
            if wires_in is not None:
                raise ParseError("duplicate 'in' line", lineno, 1)
            try:
                wires_in = int(rest)
            except ValueError:
                raise ParseError(f"expected an integer wire count, got {_echo(rest)}", lineno, rest_col) from None
            if wires_in < 0:
                raise ParseError("wire count must be nonnegative", lineno, rest_col)
        elif keyword == "unitary":
            if wires_in is None:
                raise ParseError("unitary definitions must follow the header", lineno, 1)
            if layers:
                raise ParseError("unitary definitions must precede layers", lineno, 1)
            parts = rest.split(None, 1)
            if len(parts) != 2:
                raise ParseError("expected: unitary NAME (PRESET | [matrix])", lineno, rest_col)
            name, definition = parts
            if not _NAME_RE.match(name):
                raise ParseError(f"bad unitary name {_echo(name)}", lineno, rest_col)
            if name in unitary_names:
                raise ParseError(f"duplicate unitary definition {_echo(name)}", lineno, rest_col)
            def_col = rest_col + rest.find(definition)
            unitaries.append((name, _parse_unitary_def(definition, lineno, def_col)))
            unitary_names.add(name)
        else:
            col = raw.lower().find(keyword) + 1
            raise ParseError(f"unknown statement {_echo(keyword)}", lineno, col)

    if algebra_name is None:
        raise ParseError("missing algebra line", max(1, text.count("\n") + 1), 1)
    if wires_in is None:
        raise ParseError("missing 'in' line", max(1, text.count("\n") + 1), 1)
    return CircuitDocument(algebra_name, wires_in, tuple(unitaries), tuple(layers))


def _parse_unitary_def(definition: str, lineno: int, column: int) -> UnitaryDef:
    if definition.startswith("["):
        return UnitaryDef(rows=_parse_matrix(definition, lineno, column))
    m = _PRESET_RE.match(definition)
    if not m:
        raise ParseError(f"bad unitary definition {_echo(definition)}", lineno, column)
    preset = m.group(1).upper()
    arg = m.group(2)
    if preset in PRESET_NAMES:
        if arg is not None:
            raise ParseError(f"preset {preset} takes no angle", lineno, column)
        return UnitaryDef(preset=preset)
    if preset in ROTATION_NAMES:
        if arg is None:
            raise ParseError(f"rotation {preset} needs an angle in radians", lineno, column)
        try:
            angle = float(arg)
        except ValueError:
            raise ParseError(f"bad angle {_echo(arg)}", lineno, column) from None
        if not math.isfinite(angle):
            raise ParseError("angle must be finite", lineno, column)
        return UnitaryDef(preset=preset, angle=angle)
    raise ParseError(
        f"unknown preset {_echo(preset)} (known: {', '.join(PRESET_NAMES + ROTATION_NAMES)})",
        lineno,
        column,
    )


def _parse_layer(
    rest: str, rest_col: int, lineno: int, unitary_names: set[str]
) -> tuple[str | tuple[str, str], ...]:
    if not rest:
        raise ParseError("empty layer", lineno, rest_col)
    tokens: list[str | tuple[str, str]] = []
    pieces = rest.split(",")
    for i, piece in enumerate(pieces):
        token = piece.strip()
        upper = token.upper()
        if upper in _PRIMITIVE_BY_TOKEN:
            tokens.append(upper)
            continue
        uref = _UREF_RE.match(token)
        if uref and uref.group(1) in unitary_names:
            tokens.append(("U", uref.group(1)))
            continue
        # the token's column is needed only for the error
        column = rest_col + sum(len(p) + 1 for p in pieces[:i]) + piece.find(token)
        if not token:
            raise ParseError("empty primitive between commas", lineno, column)
        if uref:
            raise ParseError(f"unknown unitary name {_echo(uref.group(1))}", lineno, column)
        raise ParseError(f"unknown primitive {_echo(token)}", lineno, column)
    return tuple(tokens)


# --- printing ---------------------------------------------------------------

def print_circuit(doc: CircuitDocument) -> str:
    """Canonical text form; parse_circuit(print_circuit(doc)) == doc."""
    lines = [f"algebra {doc.algebra_name}", f"in {doc.wires_in}"]
    for name, udef in doc.unitaries:
        lines.append(f"unitary {name} {_format_unitary_def(udef)}")
    for layer in doc.layers:
        rendered = ", ".join(t if isinstance(t, str) else f"U({t[1]})" for t in layer)
        lines.append(f"layer {rendered}")
    return "\n".join(lines) + "\n"


def _format_unitary_def(udef: UnitaryDef) -> str:
    if udef.rows is not None:
        rows = "; ".join(", ".join(_format_complex(e) for e in row) for row in udef.rows)
        return f"[{rows}]"
    if udef.angle is not None:
        return f"{udef.preset}({udef.angle!r})"
    return udef.preset


# --- bridging to the engine ---------------------------------------------------

def to_circuit(doc: CircuitDocument) -> Circuit:
    """Resolve the algebra and primitives of a document into a Circuit.

    The unitary definitions are checked in order, as one stack of their
    entries with one Gram computation (see circuit._unitaries); each
    distinct layer is resolved once, and equal layers share one tuple of
    primitives.
    """
    algebra = resolve_algebra(doc.algebra_name)
    names, matrices = [], []  # matrices: each definition's rows, unconverted
    for name, udef in doc.unitaries:
        try:
            if udef.preset is not None and algebra.dim != 2:
                raise CircuitError(
                    f"preset {udef.preset} defines a 2x2 matrix but algebra "
                    f"{_echo(doc.algebra_name)} has dimension {algebra.dim}"
                )
            if udef.rows is not None:  # before the Gram check, which is cubic in the size
                shape = (len(udef.rows), len(udef.rows[0]) if udef.rows else 0)
                _check_unitary_shape(name, shape, algebra.dim)
        except CircuitError:
            _unitaries(names, matrices)  # a definition before this one fails first
            raise
        names.append(name)
        matrices.append(udef._entries())
    prims = dict(_PRIMITIVE_BY_TOKEN)  # token -> primitive, a unitary's token being ("U", name)
    prims.update(zip([("U", name) for name in names], _unitaries(names, matrices)))
    resolved = dict.fromkeys(doc.layers)  # each distinct tokens tuple -> its primitives
    for tokens in resolved:
        resolved[tokens] = tuple(map(prims.__getitem__, tokens))
    return Circuit(algebra, wires_in=doc.wires_in, layers=tuple(map(resolved.__getitem__, doc.layers)))


def circuit_to_document(circuit: Circuit, algebra_name: str) -> CircuitDocument:
    """Render a programmatic circuit as a document with u0, u1, ... unitaries."""
    defs: list[tuple[str, UnitaryDef]] = []
    seen: dict[bytes, str] = {}
    layers: list[tuple[str | tuple[str, str], ...]] = []
    for layer in circuit.layers:
        tokens: list[str | tuple[str, str]] = []
        for prim in layer:
            if prim.kind != "Unitary":
                tokens.append(PRIMITIVES[prim.kind].token)
                continue
            key = prim.matrix.tobytes()
            if key not in seen:
                name = f"u{len(defs)}"
                rows = tuple(tuple(complex(e) for e in row) for row in prim.matrix)
                defs.append((name, UnitaryDef(rows=rows)))
                seen[key] = name
            tokens.append(("U", seen[key]))
        layers.append(tuple(tokens))
    return CircuitDocument(algebra_name, circuit.wires_in, tuple(defs), tuple(layers))
