"""Symbolic terms over (rank, P): one constructor, one size cap, one
evaluator.

A term is a nested tuple, a closed form of an MPI argument or a control
decision:

* ``("const", value)`` — a literal or folded value;
* ``("rank",)`` and ``("P",)`` — the executing rank and the scale;
* ``("var", name)`` — an iteration variable of a
  :mod:`repro.analysis.commgraph` loop;
* ``("frame", name)`` — the executing frame's local ``name`` (see
  :mod:`repro.analysis.rankdep`);
* ``("bin", op, left, right)``, ``("un", op, operand)`` and
  ``("call", func, *args)`` — the interpreter's operators and builtins;
* ``("sel", cond, then, other)`` — a merge under a rank-dependent branch;
* ``("trip", cmp, delta, start, bound)`` — the trip count of
  ``for (x = start; x cmp bound; x = x + delta)``.

:class:`Terms` hash-conses them (Filliâtre and Conchon, "Type-Safe
Modular Hash-Consing", ML Workshop 2006): a table builds each distinct
term once, so two terms of one table are structurally equal exactly when
they are the same object, and ``is`` is the equality.  Constants intern
by type and IEEE bits, so ``1``, ``1.0``, ``True``, ``0.0``, ``-0.0`` and
``ANY`` are six nodes.  A node's size (its tuple-node count), whether it
reads ``P``, and the names it reads from ``env`` (its ``var`` and
``frame`` leaves) are computed once, from its children's, when it is
built.  A compound term over :data:`MAX_TERM_SIZE` nodes is not built at
all: the constructor returns None and the caller drops the term.

A table belongs to one analysis and dies with it (a symbolic rank
analysis keeps its own, to instantiate at each scale); there is no
process-wide table.  Terms from different tables are ordinary tuples of
one shape, so :func:`eval_term` and :func:`render_term` take any of them.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping

from repro.simulator import ops
from repro.simulator.errors import SimulationError
from repro.simulator.exprcompile import BUILTIN_IMPL, hashrand, truthy

__all__ = [
    "MAX_TERM_SIZE",
    "P",
    "RANK",
    "Terms",
    "eval_term",
    "render_term",
    "trip_count",
]

#: Node cap on every built term (``sel`` chains in loops could otherwise
#: grow without bound).  mg's communication graph needs 108 nodes; the
#: rank analysis of the bundled apps at most 25.
MAX_TERM_SIZE = 128

RANK = ("rank",)
P = ("P",)

_NO_NAMES: frozenset = frozenset()
_DOUBLE = struct.Struct("<d")
#: (size, reads P, env names) of a leaf that reads neither
_CONST_FACTS = (1, False, _NO_NAMES)


def _const_key(value: object) -> tuple:
    kind = type(value)
    if kind is float:
        return ("const", kind, _DOUBLE.pack(value))
    if kind is complex:
        return (
            "const", kind, _DOUBLE.pack(value.real), _DOUBLE.pack(value.imag)
        )
    try:
        hash(value)
    except TypeError:
        return ("const", kind, id(value))  # the node keeps it alive
    return ("const", kind, value)


class Terms:
    """One intern table: the only way terms are built.

    Children must come from the same table.  The facts accessors take a
    term of this table or None (no term: size 0, reads nothing)."""

    __slots__ = ("_nodes", "_facts")

    def __init__(self) -> None:
        #: structural key (children by identity) -> node
        self._nodes: dict = {RANK: RANK, P: P}
        #: id(node) -> (size, reads P, env names); the nodes pin the ids
        self._facts: dict[int, tuple] = {
            id(RANK): _CONST_FACTS, id(P): (1, True, _NO_NAMES),
        }

    def const(self, value: object) -> tuple:
        key = _const_key(value)
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = ("const", value)
            self._facts[id(node)] = _CONST_FACTS
        return node

    def leaf(self, tag: str, name: str) -> tuple:
        """A ``("var", name)`` or ``("frame", name)`` leaf."""
        key = (tag, name)
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = key
            self._facts[id(node)] = (1, False, frozenset((name,)))
        return node

    def node(self, tag: str, *args: object) -> tuple | None:
        """``(tag, *args)`` for a compound tag, or None over the cap."""
        key = (tag, *[id(a) if type(a) is tuple else a for a in args])
        node = self._nodes.get(key)
        if node is not None:
            return node
        facts = self._facts
        size, reads_p, names = 1, False, _NO_NAMES
        for arg in args:
            if type(arg) is tuple:
                sub_size, sub_p, sub_names = facts[id(arg)]
                size += sub_size
                reads_p = reads_p or sub_p
                if sub_names:
                    names = names | sub_names if names else sub_names
        if size > MAX_TERM_SIZE:
            return None
        node = self._nodes[key] = (tag, *args)
        facts[id(node)] = (size, reads_p, names)
        return node

    def size(self, term: tuple | None) -> int:
        return 0 if term is None else self._facts[id(term)][0]

    def reads_p(self, term: tuple | None) -> bool:
        """Does ``term`` read the symbolic scale ``("P",)``?"""
        return term is not None and self._facts[id(term)][1]

    def env_names(self, term: tuple | None) -> frozenset:
        """The names :func:`eval_term` reads from ``env``."""
        return _NO_NAMES if term is None else self._facts[id(term)][2]

    def closed(self, term: tuple | None) -> tuple | None:
        """``term`` when it is a closed function of (rank, P), else None."""
        if term is None or self._facts[id(term)][2]:
            return None
        return term


# --------------------------------------------------------------------------
# concrete operator semantics (shared by constant folding and eval_term)
# --------------------------------------------------------------------------


def apply_binop(op: str, a: object, b: object) -> object:
    """Exactly the interpreter's binary-operator semantics (exprcompile)."""
    if op == "==":
        return a == b
    if op == "!=":
        return a != b
    if op == "&&":
        return truthy(a) and truthy(b)
    if op == "||":
        return truthy(a) or truthy(b)
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        raise SimulationError(
            f"operator {op!r} needs numbers, got {a!r} and {b!r}"
        )
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "<":
        return a < b
    if op == ">":
        return a > b
    if op == "<=":
        return a <= b
    if op == ">=":
        return a >= b
    if op == "/":
        if b == 0:
            raise SimulationError("division by zero")
        if isinstance(a, int) and isinstance(b, int):
            return int(a / b)  # C-style truncation
        return a / b
    if op == "%":
        if b == 0:
            raise SimulationError("modulo by zero")
        return a % b
    raise SimulationError(f"unknown binary op {op!r}")


def apply_unop(op: str, v: object) -> object:
    if op == "-":
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise SimulationError(f"cannot negate {v!r}")
        return -v
    if op == "!":
        return not truthy(v)
    raise SimulationError(f"unknown unary op {op!r}")


def apply_call(name: str, args: list) -> object:
    if name == "hashrand":
        return hashrand(tuple(args))
    impl = BUILTIN_IMPL[name]
    try:
        return impl(*args)
    except (TypeError, ValueError) as exc:
        raise SimulationError(f"{name}(): {exc}") from exc


def trip_count(cmp: str, delta: int, start: object, bound: object) -> int:
    """Closed-form iteration count of ``for (x = start; x cmp bound;
    x = x + delta)``: exact on ints; any other bound raises, because a
    float span does not count iterations exactly."""
    if not isinstance(start, int) or not isinstance(bound, int):
        raise SimulationError("non-integer loop bounds")
    if cmp in ("<", "<="):
        span = bound - start + (1 if cmp == "<=" else 0)
        if delta <= 0:
            if span > 0:
                raise SimulationError("non-terminating loop")
            return 0
        return max(0, -((-span) // delta))
    if cmp in (">", ">="):
        span = start - bound + (1 if cmp == ">=" else 0)
        if delta >= 0:
            if span > 0:
                raise SimulationError("non-terminating loop")
            return 0
        return max(0, -((-span) // (-delta)))
    raise SimulationError(f"uncountable loop comparison {cmp!r}")


def eval_term(
    term: tuple,
    rank: int,
    nprocs: int | None = None,
    env: Mapping[str, object] | None = None,
) -> object:
    """Evaluate a symbolic rank function for one concrete rank.

    ``nprocs`` binds the symbolic ``("P",)`` scale parameter produced by
    :func:`~repro.analysis.rankdep.analyze_program` in symbolic mode;
    ``env`` binds ``("var", name)`` iteration variables used by
    :mod:`repro.analysis.commgraph` families and ``("frame", name)``
    locals of the executing frame.
    Raises :class:`SimulationError` exactly where the interpreter would
    (division by zero, type errors, an unbound symbol) — callers degrade
    on failure.
    """
    tag = term[0]
    if tag == "const":
        return term[1]
    if tag == "rank":
        return rank
    if tag == "P":
        if nprocs is None:
            raise SimulationError("term uses symbolic nprocs with no scale bound")
        return nprocs
    if tag in ("var", "frame"):
        if env is None or term[1] not in env:
            raise SimulationError(f"term uses unbound variable {term[1]!r}")
        return env[term[1]]
    if tag == "bin":
        op = term[1]
        # short-circuit like the interpreter: the right operand of a
        # decided &&/|| is never evaluated (and so may never raise)
        if op == "&&":
            if not truthy(eval_term(term[2], rank, nprocs, env)):
                return False
            return truthy(eval_term(term[3], rank, nprocs, env))
        if op == "||":
            if truthy(eval_term(term[2], rank, nprocs, env)):
                return True
            return truthy(eval_term(term[3], rank, nprocs, env))
        return apply_binop(
            op,
            eval_term(term[2], rank, nprocs, env),
            eval_term(term[3], rank, nprocs, env),
        )
    if tag == "un":
        return apply_unop(term[1], eval_term(term[2], rank, nprocs, env))
    if tag == "call":
        return apply_call(
            term[1], [eval_term(t, rank, nprocs, env) for t in term[2:]]
        )
    if tag == "sel":
        if truthy(eval_term(term[1], rank, nprocs, env)):
            return eval_term(term[2], rank, nprocs, env)
        return eval_term(term[3], rank, nprocs, env)
    if tag == "trip":
        return trip_count(
            term[1], term[2],
            eval_term(term[3], rank, nprocs, env),
            eval_term(term[4], rank, nprocs, env),
        )
    raise SimulationError(f"unknown term tag {tag!r}")


def render_term(term: tuple | None) -> str:
    """Human-readable form of a symbolic term."""
    if term is None:
        return "?"
    tag = term[0]
    if tag == "const":
        v = term[1]
        if v is ops.ANY:
            return "ANY"
        return repr(v) if isinstance(v, str) else str(v)
    if tag == "rank":
        return "rank"
    if tag == "P":
        return "P"
    if tag == "var":
        return term[1]
    if tag == "bin":
        return f"({render_term(term[2])} {term[1]} {render_term(term[3])})"
    if tag == "un":
        return f"({term[1]}{render_term(term[2])})"
    if tag == "call":
        args = ", ".join(render_term(t) for t in term[2:])
        return f"{term[1]}({args})"
    if tag == "sel":
        return (
            f"({render_term(term[1])} ? {render_term(term[2])}"
            f" : {render_term(term[3])})"
        )
    if tag == "trip":
        return (
            f"trip({render_term(term[3])} {term[1]} {render_term(term[4])}"
            f" by {term[2]})"
        )
    return f"<{tag}>"
