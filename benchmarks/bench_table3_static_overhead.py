"""Table III: static (compile-time) overhead of ScalAna per program.

Paper: the static analysis adds 0.28%..3.01% (avg 0.89%) over plain LLVM
compilation.  Our analog: the PSG pipeline (CFG + dominators + inlining +
contraction) timed against the baseline "compilation" (lex + parse), plus
the PSG memory at 32 B/vertex the paper quotes.

Asserted: the PSG is a compile-time artifact of kilobytes (at 32 B/vertex
every evaluated program's fits in 4 KiB, independent of the job scale),
and the analysis is a share of the frontend strictly between 0 and 1.
The paper's 0.28-3.01% is not asserted: it is relative to a full LLVM
compile, which has no analog here, and the ratio is machine-dependent.
"""

import time

from repro.apps import EVALUATED_APPS, get_app
from repro.bench import emit
from repro.minilang.parser import parse_program
from repro.psg import build_psg
from repro.util.tables import Table, format_bytes

_REPEAT = 20


def _time_it(fn) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(_REPEAT):
            fn()
        best = min(best, (time.perf_counter() - t0) / _REPEAT)
    return best


def build() -> str:
    table = Table(
        "Table III: static overhead of ScalAna (PSG analysis vs compilation)",
        ["Program", "compile (parse)", "PSG analysis", "overhead",
         "PSG memory (32 B/vertex)"],
    )
    for name in EVALUATED_APPS:
        spec = get_app(name)
        t_parse = _time_it(lambda: parse_program(spec.source, spec.filename))
        program = parse_program(spec.source, spec.filename)
        t_psg = _time_it(lambda: build_psg(program))
        # overhead the way the paper frames it: extra analysis time as a
        # fraction of the full compile (here parse ~ "LLVM compilation",
        # which for real codes dwarfs the structure analysis)
        ratio = t_psg / (t_parse + t_psg)
        assert 0.0 < ratio < 1.0, name
        assert 32 * len(spec.psg) < 4 * 1024, (
            f"{name}: the PSG must stay a few KB at 32 B/vertex"
        )
        table.add_row(
            name.upper(),
            f"{t_parse * 1e3:.2f} ms",
            f"{t_psg * 1e3:.2f} ms",
            f"{ratio * 100:.1f}%",
            format_bytes(32 * len(spec.psg)),
        )
    text = table.render()
    text += (
        "\n\nnote: for real C/Fortran codes the LLVM pipeline dominates and "
        "the paper measures 0.28-3.01% extra; our parse stage is itself tiny, "
        "so the ratio here is the analysis share of the whole frontend."
    )
    return text


def test_table3_static_overhead(benchmark):
    emit("table3_static_overhead", benchmark.pedantic(build, rounds=1, iterations=1))
