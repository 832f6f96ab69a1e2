"""Shared fixtures: small programs, pipeline helpers, the per-rank oracle,
and the randomized workload generators the bit-identity suites sweep."""

from __future__ import annotations

import contextlib
import random
from unittest import mock

import numpy as np
import pytest

from repro.analysis import lint
from repro.api import run_fingerprint
from repro.minilang import parse_program
from repro.psg import build_psg
from repro.runtime import profile_run
from repro.simulator import SimulationConfig, simulate
from repro.simulator.engine import Engine


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "step_aside: the test makes an engine optimizer raise on purpose "
        "and checks that the engine records it and steps aside",
    )


@pytest.fixture(autouse=True)
def _optimizers_fail_loudly(request, monkeypatch):
    """An optimizer analysis that raises is a bug, so tests see it.

    The engine's fallback is correct by construction (the per-rank path
    runs instead), so identity checks alone cannot notice an optimizer
    that silently stopped engaging.  Tests marked ``step_aside`` exercise
    the fallback itself and keep the recording behaviour.
    """
    if request.node.get_closest_marker("step_aside") is not None:
        return

    def fail(self, component, exc):
        raise AssertionError(
            f"optimizer {component} stepped aside: {exc!r}"
        ) from exc

    monkeypatch.setattr(Engine, "_step_aside", fail)


@contextlib.contextmanager
def per_rank_oracle():
    """Run engines with every optimizer off: the bit-identity oracle.

    No rank analysis means no class batching; an empty devirtualization
    map leaves every wildcard receive as written.  Each rank then runs through its own interpreter.
    """
    with (
        mock.patch.object(Engine, "_rank_analysis", lambda self: None),
        mock.patch.object(Engine, "_devirt_map", lambda self: {}),
    ):
        yield


@contextlib.contextmanager
def fifo_drain():
    """Run engines without the lockstep drain: a run lockstep would take
    drains through the run-to-block FIFO instead, lockstep's per-event
    oracle (the time-ordered loop stays reachable via
    :func:`per_rank_oracle`)."""
    with mock.patch.object(Engine, "_compile_lockstep", lambda self, *args: None):
        yield


@contextlib.contextmanager
def per_rank_lint():
    """Run the lint with class batching off: the lint's identity oracle.

    With no batched streams every rank unrolls through its own
    interpreter.
    """
    with mock.patch.object(lint, "_batched_streams", lambda *args: {}):
        yield


def without_optimizer(method: str):
    """Patch one ``Engine`` optimizer (``"_devirt_map"`` or
    ``"_build_batched_streams"``) to its step-aside result, ``{}``, while
    the others stay on."""
    return mock.patch.object(Engine, method, lambda self, *args: {})


#: The paper's Fig. 3 example program (two functions, nested loops, branch).
FIG3_SOURCE = """\
def main() {
    for (var i = 0; i < 10; i = i + 1) {
        compute(flops = 1000, name = "rand_fill");
        for (var j = 0; j < 8; j = j + 1) {
            compute(flops = 100, name = "sum");
        }
        for (var k = 0; k < 8; k = k + 1) {
            compute(flops = 100, name = "product");
        }
        foo();
        bcast(root = 0, bytes = 8);
    }
}

def foo() {
    if (rank % 2 == 0) {
        send(dest = rank + 1, tag = 5, bytes = 64);
    } else {
        recv(src = rank - 1, tag = 5);
    }
}
"""

#: A ring pipeline with an imbalanced rank: used for detection tests.
IMBALANCED_SOURCE = """\
def main() {
    for (var it = 0; it < 20; it = it + 1) {
        compute(flops = 10000000 / nprocs, bytes = 100000 / nprocs, name = "work");
        if (rank == 0) {
            compute(flops = 4000000, name = "extra");
        }
        isend(dest = (rank + 1) % nprocs, tag = 1, bytes = 2048, req = s);
        irecv(src = (rank - 1 + nprocs) % nprocs, tag = 1, req = r);
        waitall();
        allreduce(bytes = 8);
    }
}
"""


@pytest.fixture(scope="session")
def fig3_program():
    return parse_program(FIG3_SOURCE, "fig3.mm")


@pytest.fixture(scope="session")
def fig3_static(fig3_program):
    return build_psg(fig3_program)


@pytest.fixture(scope="session")
def imbalanced_program():
    return parse_program(IMBALANCED_SOURCE, "imb.mm")


@pytest.fixture(scope="session")
def imbalanced_static(imbalanced_program):
    return build_psg(imbalanced_program)


def run_source(source, nprocs, params=None, filename="test.mm", seed=0, **cfg):
    """Parse + analyze + simulate in one call (ground truth only)."""
    program = parse_program(source, filename)
    psg = build_psg(program).psg
    config = SimulationConfig(nprocs=nprocs, params=params or {}, seed=seed, **cfg)
    return simulate(program, psg, config), psg, program


def profile_source(source, nprocs, params=None, filename="test.mm", seed=0, **kw):
    """Parse + analyze + profile (ScalAna runtime view)."""
    program = parse_program(source, filename)
    psg = build_psg(program).psg
    config = SimulationConfig(nprocs=nprocs, params=params or {}, seed=seed)
    return profile_run(program, psg, config, **kw), psg, program


# ----------------------------------------------------------------------
# randomized workload generator
# ----------------------------------------------------------------------

#: Communication patterns; each renders with rng-drawn constants.
def _ring(rng):
    return (
        f"        sendrecv(dest = (rank + 1) % nprocs, tag = {rng.randint(1, 3)}, "
        f"bytes = {rng.choice([64, 1024, 65536])}, "
        "src = (rank - 1 + nprocs) % nprocs);\n"
    )


#: Wildcard senders get a content-derived stagger so no two sends hit the
#: ANY-source receiver at *exactly* equal virtual times — the exact tie is
#: MPI-ambiguous and sits outside the serial bit-identity guarantee (see
#: test_parallel_sim.TestWildcardTieCarveOut); everything time-separated
#: is inside it.
_STAGGER = "compute(flops = 20000 * rank + floor(20000 * hashrand(rank, it)));"


def _wildcard_fan_in(rng):
    tag = rng.randint(1, 3)
    return (
        "        if (rank == 0) {\n"
        "            for (var i = 1; i < nprocs; i = i + 1) {\n"
        f"                recv(src = ANY, tag = {tag});\n"
        "            }\n"
        "        } else {\n"
        f"            {_STAGGER}\n"
        f"            send(dest = 0, tag = {tag}, bytes = {rng.choice([8, 256])});\n"
        "        }\n"
    )


def _wildcard_irecv_waitall(rng):
    root = rng.randint(0, 1)
    return (
        f"        if (rank == {root}) {{\n"
        "            for (var i = 0; i < nprocs - 1; i = i + 1) {\n"
        "                irecv(src = ANY, tag = ANY, req = r);\n"
        "            }\n"
        "            waitall();\n"
        f"            bcast(root = {root}, bytes = 8);\n"
        "        } else {\n"
        f"            {_STAGGER}\n"
        f"            send(dest = {root}, tag = rank, bytes = 128);\n"
        f"            bcast(root = {root}, bytes = 8);\n"
        "        }\n"
    )


def _collectives(rng):
    op = rng.choice(
        [
            "allreduce(bytes = 8);",
            "barrier();",
            f"bcast(root = {rng.randint(0, 2)}, bytes = 64);",
            f"reduce(root = {rng.randint(0, 2)}, bytes = 32);",
            "allgather(bytes = 16);",
        ]
    )
    return f"        {op}\n"


def _isend_ring_waitall(rng):
    tag = rng.randint(1, 2)
    return (
        f"        isend(dest = (rank + 1) % nprocs, tag = {tag}, "
        f"bytes = {rng.choice([512, 2048])}, req = s);\n"
        f"        irecv(src = (rank - 1 + nprocs) % nprocs, tag = {tag}, req = r);\n"
        "        waitall();\n"
    )


_PATTERNS = (
    _ring, _wildcard_fan_in, _wildcard_irecv_waitall,
    _collectives, _isend_ring_waitall,
)


def make_workload(seed: int) -> str:
    """One randomized MiniMPI program: imbalanced compute plus 1-3 comm
    patterns per loop iteration (time-separated wildcard races only — the
    exactly-tied ANY-source race sits outside the serial bit-identity
    guarantee; see test_parallel_sim.TestWildcardTieCarveOut)."""
    rng = random.Random(seed)
    iters = rng.randint(2, 4)
    imbalance = rng.choice(
        [
            "5000 * rank",
            "9000 * (rank % 3)",
            "floor(30000 * hashrand(rank, it))",
        ]
    )
    body = (
        f"        compute(flops = {rng.randint(4, 12)}0000 + {imbalance});\n"
    )
    for pattern in rng.sample(_PATTERNS, rng.randint(1, 3)):
        body += pattern(rng)
    return (
        "def main() {\n"
        f"    for (var it = 0; it < {iters}; it = it + 1) {{\n"
        + body
        + "    }\n"
        "}\n"
    )


# ----------------------------------------------------------------------
# randomized wildcard-heavy workload generator
# ----------------------------------------------------------------------


def _wild_ring(rng, tag):
    """The devirt centerpiece: every rank's ANY-source receive has a
    proven-unique matcher, so the whole loop devirtualizes."""
    return (
        f"        send(dest = (rank + 1) % nprocs, tag = {tag}, "
        f"bytes = {rng.choice([64, 1024])});\n"
        f"        recv(src = ANY, tag = {tag});\n"
        "        barrier();\n"
    )


def _wild_unique_pair(rng, tag):
    """One guarded sender, one guarded ANY receiver: unique feasible
    sender, devirtualizes even without symmetry."""
    return (
        "        if (rank == 0) {\n"
        f"            recv(src = ANY, tag = {tag});\n"
        "        }\n"
        "        if (rank == 1) {\n"
        f"            send(dest = 0, tag = {tag}, bytes = {rng.choice([8, 256])});\n"
        "        }\n"
    )


def _wild_irecv_unique(rng, tag):
    """Nonblocking ANY-source receive with a unique sender: devirtualized
    without epoch pruning (which only applies to blocking receives)."""
    return (
        "        if (rank == 0) {\n"
        f"            irecv(src = ANY, tag = {tag}, req = r);\n"
        "            wait(req = r);\n"
        "        }\n"
        "        if (rank == 1) {\n"
        f"            send(dest = 0, tag = {tag}, bytes = 128);\n"
        "        }\n"
    )


def _wild_racy_fan_in(rng, tag):
    """A genuine (time-separated) race: must NOT devirtualize — identity
    then shows the pass leaves racy receives strictly alone."""
    return (
        "        if (rank == 0) {\n"
        "            for (var i = 1; i < nprocs; i = i + 1) {\n"
        f"                recv(src = ANY, tag = {tag});\n"
        "            }\n"
        "        } else {\n"
        f"            {_STAGGER}\n"
        f"            send(dest = 0, tag = {tag}, bytes = {rng.choice([8, 256])});\n"
        "        }\n"
    )


def _wild_collectives(rng, tag):
    op = rng.choice(
        [
            "allreduce(bytes = 8);",
            "barrier();",
            f"bcast(root = {rng.randint(0, 2)}, bytes = 64);",
            "allgather(bytes = 16);",
        ]
    )
    return f"        {op}\n"


_WILD_PATTERNS = (
    _wild_ring, _wild_unique_pair, _wild_irecv_unique,
    _wild_racy_fan_in, _wild_collectives,
)


def make_wild_workload(seed: int) -> str:
    """One randomized wildcard-heavy MiniMPI program: every draw includes
    at least one devirtualizable pattern plus 0-2 others (racy fan-ins,
    collectives, imbalanced compute).  Each pattern instance gets its own
    tag: a tag shared across patterns would let their sends cross-match
    and manufacture *exactly-tied* ANY-source races — MPI-ambiguous by
    the engine's own carve-out, hence outside the identity guarantee this
    suite enforces."""
    rng = random.Random(seed)
    iters = rng.randint(2, 4)
    body = (
        f"        compute(flops = {rng.randint(4, 12)}0000 "
        f"+ 7000 * (rank % 3));\n"
    )
    tag = 1
    body += rng.choice((_wild_ring, _wild_unique_pair, _wild_irecv_unique))(
        rng, tag
    )
    for pattern in rng.sample(_WILD_PATTERNS, rng.randint(0, 2)):
        tag += 1
        body += pattern(rng, tag)
    return (
        "def main() {\n"
        f"    for (var it = 0; it < {iters}; it = it + 1) {{\n"
        + body
        + "    }\n"
        "}\n"
    )


# ----------------------------------------------------------------------
# randomized loop-carried stride workload generator
# ----------------------------------------------------------------------

#: Each stride pattern renders with a unique suffix ``i`` (its locals and
#: tag) and rng-drawn constants.  Every partner stays in range for any
#: nprocs (wrapped shifts, or a hypercube that exchanges with itself when
#: its partner is missing), so every draw runs to completion.


def _stride_doubling(rng, i):
    """Doubling stride whose partners are wrapped by assignment-only
    rank-dependent branches (``sel`` terms over the ``s`` frame leaf),
    then a ring exchange and a compute whose sizes scale with
    ``rank * s``: rank 0's op fields repeat across strides while the
    other ranks' do not, so fan-out caches must key on the frame."""
    return (
        f"        var s{i} = 1;\n"
        f"        while (s{i} < nprocs) {{\n"
        f"            var up{i} = rank + s{i};\n"
        f"            if (up{i} >= nprocs) {{\n"
        f"                up{i} = up{i} - nprocs;\n"
        "            }\n"
        f"            var down{i} = rank - s{i};\n"
        f"            if (down{i} < 0) {{\n"
        f"                down{i} = down{i} + nprocs;\n"
        "            }\n"
        f"            sendrecv(dest = up{i}, tag = {i}, "
        f"bytes = {rng.choice([8, 64, 512])} * s{i}, src = down{i});\n"
        f"            sendrecv(dest = (rank + 1) % nprocs, tag = {i}, "
        f"bytes = 8 * rank * s{i} + 8,\n"
        f"                     src = (rank - 1 + nprocs) % nprocs);\n"
        f"            compute(flops = {rng.randint(1, 9)}00 * rank * s{i});\n"
        f"            s{i} = s{i} * 2;\n"
        "        }\n"
    )


def _stride_additive(rng, i):
    """Additive stride: the for-loop variable is the frame leaf."""
    return (
        f"        for (var k{i} = 1; k{i} < nprocs; "
        f"k{i} = k{i} + {rng.randint(1, 3)}) {{\n"
        f"            sendrecv(dest = (rank + k{i}) % nprocs, tag = {i}, "
        f"bytes = {rng.choice([16, 256])},\n"
        f"                     src = (rank - k{i} + nprocs) % nprocs);\n"
        "        }\n"
    )


def _stride_nested(rng, i):
    """A doubling stride around an additive one: terms read two frame
    leaves, the inner one redeclared on every outer iteration."""
    return (
        f"        var s{i} = 1;\n"
        f"        while (s{i} < nprocs) {{\n"
        f"            for (var j{i} = 0; j{i} < {rng.randint(1, 3)}; "
        f"j{i} = j{i} + 1) {{\n"
        f"                var off{i} = (s{i} + j{i}) % nprocs;\n"
        f"                sendrecv(dest = (rank + off{i}) % nprocs, tag = {i}, "
        f"bytes = {rng.choice([32, 1024])},\n"
        f"                         src = (rank - off{i} + nprocs) % nprocs);\n"
        "            }\n"
        f"            s{i} = s{i} * 2;\n"
        "        }\n"
    )


def _stride_hypercube(rng, i):
    """NPB-CG's hypercube partner (``rank - s``, or ``rank + s`` when bit
    ``s`` is clear), exchanging with itself past the last rank, plus a
    compute whose rank-varying flops read the frame."""
    return (
        f"        var s{i} = 1;\n"
        f"        while (s{i} < nprocs) {{\n"
        f"            var partner{i} = rank - s{i};\n"
        f"            if ((rank / s{i}) % 2 == 0) {{\n"
        f"                partner{i} = rank + s{i};\n"
        "            }\n"
        f"            if (partner{i} >= nprocs) {{\n"
        f"                partner{i} = rank;\n"
        "            }\n"
        f"            sendrecv(dest = partner{i}, tag = {i}, "
        f"bytes = {rng.choice([8, 128])}, src = partner{i});\n"
        f"            compute(flops = {rng.randint(1, 9)}000 * s{i} "
        f"+ 100 * partner{i});\n"
        f"            s{i} = s{i} * 2;\n"
        "        }\n"
    )


def _trap_reassigned(rng, i):
    """The stride changes between computing a value and using it: the
    value's frame-leaf term must not survive the assignment.  Rank 0's
    value reads no stride, so the representative's witness check alone
    cannot tell a stale term from a sound one."""
    return (
        f"        var s{i} = 1;\n"
        f"        while (s{i} < nprocs) {{\n"
        f"            var w{i} = {rng.randint(1, 9)}000 * rank * s{i};\n"
        f"            s{i} = s{i} * 2;\n"
        f"            compute(flops = w{i});\n"
        "        }\n"
    )


def _trap_shadowed(rng, i):
    """A callee parameter shadows the caller's stride: the argument's
    caller-frame term means nothing in the callee's frame (and, as
    above, rank 0 cannot tell)."""
    return (
        f"        var s{i} = 1;\n"
        f"        while (s{i} < nprocs) {{\n"
        f"            scale{i}(rank * s{i});\n"
        f"            s{i} = s{i} * 2;\n"
        "        }\n"
    ), (
        f"def scale{i}(s{i}) {{\n"
        f"    compute(flops = {rng.randint(1, 9)}000 * s{i} + 100);\n"
        "}\n"
    )


def _trap_one_arm(rng, i):
    """A frame variable assigned in one arm of a rank-dependent branch
    while the other arm reads it: after the merge the representative's
    frame no longer holds the other ranks' value."""
    return (
        f"        var h{i} = 1;\n"
        f"        while (h{i} < nprocs) {{\n"
        f"            h{i} = h{i} * 2;\n"
        "        }\n"
        f"        var up{i} = (rank + 1) % nprocs;\n"
        f"        if (rank % 2 == 0) {{\n"
        f"            h{i} = h{i} + {rng.randint(1, 3)};\n"
        "        } else {\n"
        f"            up{i} = (rank + h{i}) % nprocs;\n"
        "        }\n"
        f"        compute(flops = 1000 * up{i});\n"
    )


_STRIDE_PATTERNS = (
    _stride_doubling, _stride_additive, _stride_nested, _stride_hypercube,
)
_STRIDE_TRAPS = (_trap_reassigned, _trap_shadowed, _trap_one_arm)


def make_stride_workload(seed: int) -> str:
    """One randomized MiniMPI program of loop-carried strides: 1-2 stride
    patterns per iteration of an outer loop, an imbalanced compute whose
    flops may read the outer loop variable, and — in about a third of the
    draws — one invalidation trap, which a sound analysis refuses to batch
    (and an unsound one would batch wrongly)."""
    rng = random.Random(seed)
    iters = rng.randint(1, 3)
    imbalance = rng.choice(
        ["5000 * rank", "9000 * (rank % 3)", "floor(30000 * hashrand(rank, it))"]
    )
    body = f"        compute(flops = {rng.randint(4, 12)}0000 + {imbalance});\n"
    functions = ""
    picks = rng.sample(_STRIDE_PATTERNS, rng.randint(1, 2))
    if rng.random() < 0.35:
        picks.insert(rng.randint(0, len(picks)), rng.choice(_STRIDE_TRAPS))
    for i, pattern in enumerate(picks, start=1):
        text = pattern(rng, i)
        if isinstance(text, tuple):
            text, function = text
            functions += "\n" + function
        body += text
    return (
        "def main() {\n"
        f"    for (var it = 0; it < {iters}; it = it + 1) {{\n"
        + body
        + "    }\n"
        "}\n"
        + functions
    )


#: The randomized program generators the identity suites sweep, by name.
GENERATORS = {
    "workload": make_workload,
    "wild": make_wild_workload,
    "stride": make_stride_workload,
}


def _compiled(source, name):
    program = parse_program(source, f"{name}.mm")
    return program, build_psg(program).psg


def _fingerprint(program, psg, nprocs, **cfg):
    run = profile_run(program, psg, SimulationConfig(nprocs=nprocs, **cfg))
    return run_fingerprint(run)


# ----------------------------------------------------------------------
# trace contracts: only per-rank row order is fixed
# ----------------------------------------------------------------------


def per_rank_trace_bytes(trace):
    """Event and counter tables rank-major, each rank's rows kept in its
    own order, as raw column bytes.

    The global interleaving of rows depends on how the engine scheduled
    ranks (time-ordered or run to block); per-rank order is the contract
    every consumer reads, so this is what identity checks compare."""
    out = {}
    for table in ("columns", "counter_columns"):
        cols = getattr(trace, table)()
        order = np.argsort(cols["rank"], kind="stable")
        for name, col in cols.items():
            out[f"{table}.{name}"] = col[order].tobytes()
    return out


def canonical_p2p_rows(table):
    """The P2PTable's rows, sorted; floats as bytes so NaN and -0.0
    compare exactly."""
    cols = table.columns()
    ints = [cols[name].tolist() for name in table.INT_COLUMNS]
    floats = [
        [v.tobytes() for v in cols[name]] for name in table.FLOAT_COLUMNS
    ]
    return sorted(zip(*ints, *floats))


def canonical_collective_rows(table):
    """The CollectiveTable's rows by instance index, each row's
    participants by rank (they are stored in arrival order)."""
    cols = table.columns()
    offsets = cols["offsets"].tolist()
    rows = []
    for i in range(table.row_count):
        s, e = offsets[i], offsets[i + 1]
        parts = sorted(zip(
            cols["part_rank"][s:e].tolist(),
            cols["part_vid"][s:e].tolist(),
            [v.tobytes() for v in cols["part_arrival"][s:e]],
            [v.tobytes() for v in cols["part_completion"][s:e]],
        ))
        rows.append((
            int(cols["index"][i]), int(cols["op"][i]), int(cols["root"][i]),
            int(cols["nbytes"][i]), tuple(parts),
        ))
    return sorted(rows)
