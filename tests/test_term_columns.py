"""Columnar evaluation of non-affine rank terms in class batching.

``classbatch._term_column`` evaluates a term for every class member at
once, as an int64 or bool column, and gives up (returns None) wherever a
member's evaluation could raise or leave the int64 range.  These tests
check it against ``eval_term`` per member: the same values and Python
types where it answers, and, through ``_member_values``, the same
columns, dtypes and ``_Fallback`` reasons as the per-member path.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.batching import FieldRule
from repro.analysis.terms import eval_term
from repro.simulator import classbatch
from repro.simulator.classbatch import _Fallback, _member_values, _term_column
from repro.simulator.errors import SimulationError

#: CG's hypercube partner for the doubling stride ``s`` (cg.mm)
CG_PARTNER = (
    "sel",
    ("bin", "==",
     ("bin", "%", ("bin", "/", ("rank",), ("frame", "s")), ("const", 2)),
     ("const", 0)),
    ("bin", "+", ("rank",), ("frame", "s")),
    ("bin", "-", ("rank",), ("frame", "s")),
)

_INTS = st.one_of(
    st.integers(-8, 8),
    st.sampled_from([
        0, 2**31, 2**52 - 1, 2**53, -(2**53), 2**62, 2**63 - 1, -(2**63 - 1),
        2**63, 2**64,
    ]),
)
_SMALL = st.builds(lambda v: ("const", v), st.integers(-8, 8))
_LEAVES = st.one_of(
    # mostly the covered leaves, so that most terms stay columnar
    st.just(("rank",)), _SMALL, st.just(("frame", "s")),
    st.just(("rank",)), _SMALL, st.just(("P",)),
    st.builds(lambda v: ("const", v), _INTS),
    st.builds(lambda v: ("const", v), st.booleans()),
    st.just(("frame", "t")),
    st.sampled_from([("const", 0.5), ("frame", "gone"), ("var", "i")]),
)
_BINOPS = st.sampled_from([
    "+", "-", "*", "/", "%", "==", "!=", "<", ">", "<=", ">=", "&&", "||",
])
_TERMS = st.recursive(
    _LEAVES,
    lambda sub: st.one_of(
        st.tuples(st.just("bin"), _BINOPS, sub, sub),
        st.tuples(st.just("un"), st.sampled_from(["-", "!"]), sub),
        st.tuples(st.just("sel"), sub, sub, sub),
        st.tuples(st.just("bin"), _BINOPS, sub, sub),
        st.tuples(st.just("call"), st.just("max"), sub, sub),
    ),
    max_leaves=8,
)
_ENV_VALUES = st.one_of(
    st.integers(1, 8), st.integers(1, 8), _INTS, st.booleans(), st.just(1.5),
)


@st.composite
def _cases(draw):
    nprocs = draw(st.integers(1, 64))
    members = sorted(draw(
        st.sets(st.integers(0, nprocs - 1), min_size=1, max_size=12)
    ))
    env = {"s": draw(_ENV_VALUES)}
    if draw(st.booleans()):
        env["t"] = draw(_ENV_VALUES)
    return draw(_TERMS), np.asarray(members, dtype=np.int64), nprocs, env


def _per_member(term, members, nprocs, env):
    out = []
    for r in members.tolist():
        try:
            out.append(eval_term(term, r, nprocs, env))
        except SimulationError:
            return None
    return out


def _outcome(rule, members, nprocs, env):
    """``_member_values``'s column (values, dtype, bits) or its reason."""
    try:
        column = _member_values(rule, members, nprocs, env)
    except _Fallback as exc:
        return ("fallback", str(exc))
    return ("column", column.dtype.str, column.tolist(), column.tobytes())


@settings(
    max_examples=400, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_cases())
def test_column_equals_eval_term_per_member(case):
    term, members, nprocs, env = case
    column = _term_column(term, members, nprocs, env)
    if column is None:
        return
    expected = _per_member(term, members, nprocs, env)
    assert expected is not None, "a column for a term some member raises on"
    got = column.tolist()
    assert [type(v) for v in got] == [type(v) for v in expected]
    assert got == expected


@settings(
    max_examples=400, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_cases(), st.sampled_from(["rank", "tag", "bytes", "number"]))
def test_member_values_match_the_per_member_path(case, coerce):
    term, members, nprocs, env = case
    rule = FieldRule(field="dest", coerce=coerce, term=term)
    columnar = _outcome(rule, members, nprocs, env)
    with mock.patch.object(classbatch, "_term_column", lambda *args: None):
        per_member = _outcome(rule, members, nprocs, env)
    assert columnar == per_member


@pytest.mark.parametrize("nprocs", [2, 16, 256, 4096])
def test_cg_partner_term_is_columnar_up_to_p4096(nprocs):
    members = np.arange(nprocs, dtype=np.int64)
    rule = FieldRule(
        field="dest", coerce="rank", term=CG_PARTNER, frame=("s",),
    )
    s = 1
    while s < nprocs:
        env = {"s": s}
        column = _term_column(CG_PARTNER, members, nprocs, env)
        assert column is not None and column.dtype == np.int64
        assert column.tolist() == _per_member(CG_PARTNER, members, nprocs, env)
        got = _member_values(rule, members, nprocs, env)
        with mock.patch.object(
            classbatch, "_term_column", lambda *args: None
        ):
            want = _member_values(rule, members, nprocs, env)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        s *= 2


def test_out_of_range_stride_keeps_the_per_member_reason():
    members = np.arange(8, dtype=np.int64)
    rule = FieldRule(field="dest", coerce="rank", term=CG_PARTNER, frame=("s",))
    with pytest.raises(_Fallback, match=r"derived dest=-?\d+ is not a valid rank"):
        _member_values(rule, members, 8, {"s": 8})


@pytest.mark.parametrize("term, reason", [
    (("bin", "/", ("rank",), ("const", 0)), "division by zero"),
    (("bin", "%", ("rank",), ("bin", "-", ("rank",), ("const", 3))),
     "modulo by zero"),
    (("un", "-", ("const", True)), "cannot negate"),
])
def test_raising_terms_fall_back_with_the_eval_term_reason(term, reason):
    members = np.arange(6, dtype=np.int64)
    assert _term_column(term, members, 6, None) is None
    rule = FieldRule(field="tag", coerce="tag", term=term)
    with pytest.raises(_Fallback, match=f"term evaluation failed: .*{reason}"):
        _member_values(rule, members, 6, None)


def test_large_operands_leave_the_columnar_path():
    members = np.arange(4, dtype=np.int64)
    big = ("const", 2**53)
    # int(a / b) through float64 is exact only below 2**53
    assert _term_column(("bin", "/", big, ("const", 3)), members, 4, None) is None
    assert _term_column(
        ("bin", "*", ("const", 2**62), ("const", 2)), members, 4, None
    ) is None
    small = _term_column(("bin", "/", ("const", 2**53 - 1), ("const", 3)),
                         members, 4, None)
    assert small.tolist() == [int((2**53 - 1) / 3)] * 4
