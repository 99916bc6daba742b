"""Plain-text serialization of tree automata.

The format is a small, line-oriented dialect inspired by the Timbuk format
used by VATA, adapted to carry algebraic amplitudes on leaf transitions::

    # comment
    qubits 2
    roots 0
    leaf 3 0 0 0 0 0          # state 3 accepts the amplitude (0,0,0,0,0)
    leaf 4 1 0 0 0 0
    trans 0 x0 1 2            # state 0 -- x0 --> (state 1, state 2)
    trans 1 x1 3 4

It exists so that examples / the CLI can store pre- and post-conditions on
disk and exchange them between runs.

Next to the human-readable text dialect there is a *payload codec*
(:func:`to_payload` / :func:`from_payload`): a JSON-ready dict form of the
flat kernel representation, with an explicit symbol table, that
round-trips an automaton **losslessly** — exact state ids, transition order,
composition tags and leaf amplitudes all survive, so
``from_payload(to_payload(a)).structure_key() == a.structure_key()``.  The
cross-process automaton store (:mod:`repro.ta.store`) persists gate-memo
entries in this form.
"""

from __future__ import annotations

from typing import Dict, List

from ..algebraic import AlgebraicNumber
from .automaton import TreeAutomaton, make_symbol, symbol_qubit, symbol_tags

__all__ = [
    "dumps",
    "loads",
    "save",
    "load",
    "PAYLOAD_SCHEMA",
    "to_payload",
    "from_payload",
]

#: version of the payload dict layout; bump on any incompatible change so the
#: on-disk store (:mod:`repro.ta.store`) invalidates stale entries cleanly
PAYLOAD_SCHEMA = 1


def dumps(automaton: TreeAutomaton) -> str:
    """Serialize an (untagged) automaton to the text format."""
    if automaton.is_tagged():
        raise ValueError("only untagged automata can be serialized")
    lines: List[str] = [f"qubits {automaton.num_qubits}"]
    lines.append("roots " + " ".join(str(r) for r in sorted(automaton.roots)))
    for state in sorted(automaton.leaves):
        amplitude = automaton.leaves[state]
        lines.append("leaf " + " ".join(str(v) for v in (state,) + amplitude.as_tuple()))
    for parent in sorted(automaton.internal):
        for symbol, left, right in automaton.internal[parent]:
            lines.append(f"trans {parent} x{symbol_qubit(symbol)} {left} {right}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> TreeAutomaton:
    """Parse an automaton from the text format produced by :func:`dumps`.

    Raises :class:`ValueError` naming the offending line on any malformed
    line, a short one included.
    """
    num_qubits = None
    roots: List[int] = []
    leaves: Dict[int, AlgebraicNumber] = {}
    internal: Dict[int, List] = {}
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        keyword = parts[0]
        try:
            if keyword == "qubits":
                num_qubits = int(parts[1])
            elif keyword == "roots":
                roots = [int(p) for p in parts[1:]]
            elif keyword == "leaf":
                state = int(parts[1])
                a, b, c, d, k = (int(p) for p in parts[2:7])
                leaves[state] = AlgebraicNumber(a, b, c, d, k)
            elif keyword == "trans":
                parent = int(parts[1])
                if not parts[2].startswith("x"):
                    raise ValueError(f"bad symbol {parts[2]!r}")
                qubit = int(parts[2][1:])
                left, right = int(parts[3]), int(parts[4])
                internal.setdefault(parent, []).append((make_symbol(qubit), left, right))
            else:
                raise ValueError(f"unknown keyword {keyword!r}")
        except IndexError:
            raise ValueError(f"too few fields in line {raw_line!r}") from None
        except ValueError as error:
            raise ValueError(f"{error} in line {raw_line!r}") from None
    if num_qubits is None:
        raise ValueError("missing 'qubits' declaration")
    return TreeAutomaton(num_qubits, roots, internal, leaves)


def to_payload(automaton: TreeAutomaton) -> Dict:
    """Encode an automaton as a JSON-ready dict, losslessly.

    Unlike :func:`dumps`, tagged automata are supported and nothing is
    renumbered or reordered: state ids, the insertion order of the internal
    and leaf tables, and the per-state transition order are all preserved, so
    decoding reproduces the exact :meth:`~TreeAutomaton.structure_key`.
    Distinct ``(qubit, tags)`` symbols are listed once in a ``symbols`` table
    and transitions reference it by index, keeping repeated symbols out of
    the encoded form.
    """
    symbol_index: Dict[tuple, int] = {}
    symbols: List[List] = []
    internal: List[List] = []
    for parent, transitions in automaton.internal.items():
        encoded = [parent]
        for symbol, left, right in transitions:
            index = symbol_index.get(symbol)
            if index is None:
                index = symbol_index.setdefault(symbol, len(symbols))
                symbols.append([symbol_qubit(symbol), list(symbol_tags(symbol))])
            encoded.append([index, left, right])
        internal.append(encoded)
    return {
        "schema": PAYLOAD_SCHEMA,
        "num_qubits": automaton.num_qubits,
        "roots": sorted(automaton.roots),
        "symbols": symbols,
        "internal": internal,
        "leaves": [[state, *amplitude.as_tuple()]
                   for state, amplitude in automaton.leaves.items()],
    }


def from_payload(payload: Dict) -> TreeAutomaton:
    """Decode a :func:`to_payload` dict; :class:`ValueError` on malformed input.

    The payload's ``schema`` must equal :data:`PAYLOAD_SCHEMA` — readers of
    persisted payloads (the on-disk store) rely on this to reject entries
    written by an incompatible codec instead of mis-parsing them.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"automaton payload must be a dict, got {type(payload).__name__}")
    schema = payload.get("schema")
    if schema != PAYLOAD_SCHEMA:
        raise ValueError(
            f"unsupported automaton payload schema {schema!r} (expected {PAYLOAD_SCHEMA})"
        )
    try:
        num_qubits = int(payload["num_qubits"])
        roots = [int(root) for root in payload["roots"]]
        symbols = [make_symbol(int(qubit), tuple(int(tag) for tag in tags))
                   for qubit, tags in payload["symbols"]]
        internal: Dict[int, List] = {}
        for encoded in payload["internal"]:
            parent = int(encoded[0])
            internal[parent] = [
                (symbols[index], int(left), int(right))
                for index, left, right in encoded[1:]
            ]
        leaves = {}
        for state, a, b, c, d, k in payload["leaves"]:
            leaves[int(state)] = AlgebraicNumber(int(a), int(b), int(c), int(d), int(k))
    except (KeyError, IndexError, TypeError, ValueError) as error:
        raise ValueError(f"malformed automaton payload: {error}") from error
    return TreeAutomaton(num_qubits, roots, internal, leaves)


def save(automaton: TreeAutomaton, path: str) -> None:
    """Write an automaton to a file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(automaton))


def load(path: str) -> TreeAutomaton:
    """Read an automaton from a file."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())
