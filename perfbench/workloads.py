"""The benchmark's four workloads: seeded inputs, operations, answers.

``build(name, seed, setup_dir, fill_cache)`` returns a :class:`Workload`: a
fixed list of operations that runs in order as one batch.  An operation is
one user request -- a ``Pipeline.run`` over a scale set, a
``Pipeline.lint(...)``, or one warm ``sweep`` pass.

The seed drives a generator; the program under test only ever sees the
generated inputs.  Every expected answer below is written by hand (or
follows from where the generator itself placed a statement) and is never
computed by the code under test.  The seed moves *what* is diagnosed --
victim ranks, delayed statements, tags, flop counts, planted-bug sites --
but not *how much* work a batch is, so runs on different seeds stay
comparable.
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro.api import AnalysisConfig, Pipeline, Session, canonical_report_sha
from repro.api.sweep import sweep
from repro.apps import get_app
from repro.simulator import DelayInjection, simulation_call_count

WORKLOADS = ("diagnose_apps", "symmetric_p4096", "lint_scales", "sweep_warm")


@dataclass
class Op:
    """One user request."""

    name: str
    #: performs the request and returns its result
    run: Callable[[], object]
    #: hand-written answer check: None when correct, else what is wrong
    check: Callable[[object], str | None]
    #: comparison key between a traced and an untraced execution
    fingerprint: Callable[[object], object]


@dataclass
class Workload:
    name: str
    ops: list[Op]


# -- shared answer checks --------------------------------------------------


def _report_sha(artifact) -> str:
    return canonical_report_sha(artifact.report)


def _locations(report) -> set[str]:
    out: set[str] = set()
    for rc in report.root_causes:
        out.add(rc.location)
        out.update(rc.path_locations)
    return out


def _abnormal_ranks(report) -> set[int]:
    return {r for ab in report.abnormal for r in ab.abnormal_ranks}


def _check_case_study(kind: str, function: str):
    """Paper §VI-D: the named function is the top root cause ("top") or
    among the top three ("top3")."""
    depth = 1 if kind == "top" else 3

    def check(report) -> str | None:
        top = [rc.function for rc in report.root_causes[:depth]]
        if function not in top:
            return f"expected {function!r} in top-{depth} root causes, got {top}"
        return None

    return check


def _check_delay(location: str, victim: int):
    """An injected delay is found: its ``file:line`` is a root-cause or
    path location, and its rank is flagged abnormal."""

    def check(report) -> str | None:
        if location not in _locations(report):
            return f"injected {location} not among root-cause/path locations"
        if victim not in _abnormal_ranks(report):
            return f"victim rank {victim} not flagged abnormal"
        return None

    return check


# -- diagnose_apps ---------------------------------------------------------

#: (app, scales, check kind, function) -- paper §VI-D, as in the case-study
#: tests: bval3d tops zeusmp, handle_event tops sst, ax is in nekbone's top 3.
CASE_STUDIES = (
    ("zeusmp", (16, 32, 64, 128), "top", "bval3d"),
    ("sst", (32, 64, 128), "top", "handle_event"),
    ("nekbone", (32, 64, 128, 256), "top3", "ax"),
)
#: NPB-CG's sparse matvec: ``compute(..., name = "matvec")`` at cg.mm:13.
#: The Fig. 2 experiment delays it on one rank.
CG_MATVEC = "cg.mm:13"
CG_SCALES = (16, 32, 64, 128)


def _diagnose_apps(rng: random.Random) -> list[Op]:
    cfg_seed = rng.randrange(1_000_000)
    ops = []
    for app, scales, kind, function in CASE_STUDIES:
        spec = get_app(app)
        cfg = AnalysisConfig.for_app(spec, seed=cfg_seed)
        check = _check_case_study(kind, function)
        ops.append(Op(
            name=f"run:{app}",
            run=lambda spec=spec, cfg=cfg, scales=scales:
                Pipeline.for_app(spec, cfg).run(scales),
            check=lambda art, check=check: check(art.report),
            fingerprint=_report_sha,
        ))
    victim = rng.randrange(CG_SCALES[0])
    extra = float(rng.randrange(10, 41))
    filename, line = CG_MATVEC.split(":")
    spec = get_app("cg")
    cfg = AnalysisConfig.for_app(
        spec, seed=cfg_seed,
        injected_delays=[DelayInjection(victim, filename, int(line), extra)],
    )
    check = _check_delay(CG_MATVEC, victim)
    ops.append(Op(
        name="run:cg+delay",
        run=lambda: Pipeline.for_app(spec, cfg).run(CG_SCALES),
        check=lambda art: check(art.report),
        fingerprint=_report_sha,
    ))
    return ops


# -- symmetric_p4096 -------------------------------------------------------

STENCIL_FILE = "stencil.mm"
STENCIL_SCALES = (1024, 2048, 4096)
STENCIL_ITERS = 1


class _Source:
    """Source text built line by line, so the generator knows where each
    statement it writes lands."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def add(self, line: str) -> int:
        self.lines.append(line)
        return len(self.lines)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def stencil_source(rng: random.Random) -> tuple[str, dict[str, int]]:
    """A rank-symmetric ring stencil shaped as a small v-cycle.

    Every rank runs the same op stream up to affine endpoints, so the whole
    program is one behavioral class.  Compute sits at 1e8-1e9 flops per
    statement so the 200 Hz sampler sees it.  Returns the source and the
    line of each delayable compute statement.
    """
    tag_a = rng.randrange(1, 50)
    tag_b = tag_a + rng.randrange(1, 50)
    halo_bytes = 512 * rng.randrange(2, 9)
    f_smooth = rng.randrange(200, 401) * 1_000_000
    f_coarse = rng.randrange(100, 301) * 1_000_000
    f_update = rng.randrange(50, 151) * 1_000_000
    src = _Source()
    lines = {}
    src.add("def halo(it) {")
    src.add(f"    sendrecv(dest = (rank + 1) % nprocs, tag = {tag_a}, "
            f"bytes = {halo_bytes},")
    src.add("             src = (rank - 1 + nprocs) % nprocs);")
    src.add(f"    sendrecv(dest = (rank - 1 + nprocs) % nprocs, tag = {tag_b}, "
            f"bytes = {halo_bytes},")
    src.add("             src = (rank + 1) % nprocs);")
    src.add("}")
    src.add("")
    src.add("def smooth(n, it) {")
    src.add("    for (var s = 0; s < n; s = s + 1) {")
    lines["smooth"] = src.add(
        f"        compute(flops = {f_smooth}, bytes = 8192);")
    src.add("        halo(it);")
    src.add("    }")
    src.add("}")
    src.add("")
    src.add("def vcycle(it) {")
    src.add("    smooth(3, it);")
    lines["coarse"] = src.add(f"    compute(flops = {f_coarse}, bytes = 4096);")
    src.add("    allreduce(bytes = 8);")
    src.add("    smooth(2, it);")
    src.add("}")
    src.add("")
    src.add("def main() {")
    src.add("    for (var it = 0; it < iters; it = it + 1) {")
    src.add("        vcycle(it);")
    lines["update"] = src.add(f"        compute(flops = {f_update} * (it + 1));")
    src.add("        allreduce(bytes = 16);")
    src.add("    }")
    src.add("}")
    return src.text(), lines


def _symmetric(rng: random.Random) -> list[Op]:
    source, lines = stencil_source(rng)
    where = rng.choice(sorted(lines))
    victim = rng.randrange(1, STENCIL_SCALES[0])
    extra = rng.randrange(3, 11) / 10.0
    cfg = AnalysisConfig(
        params={"iters": STENCIL_ITERS},
        seed=rng.randrange(1_000_000),
        injected_delays=[
            DelayInjection(victim, STENCIL_FILE, lines[where], extra)
        ],
    )
    check = _check_delay(f"{STENCIL_FILE}:{lines[where]}", victim)
    return [Op(
        name="run:stencil+delay",
        run=lambda: Pipeline(source, STENCIL_FILE, cfg).run(STENCIL_SCALES),
        check=lambda art: check(art.report),
        fingerprint=_report_sha,
    )]


# -- lint_scales -----------------------------------------------------------

#: Every bundled application; each must lint with zero errors over all of
#: its valid scales.
LINT_APPS = (
    "bt", "cg", "ep", "ft", "is", "lu", "mg", "nekbone", "nekbone_fixed",
    "sp", "sst", "sst_fixed", "zeusmp", "zeusmp_fixed",
)
#: One concrete lint at a large P (P=256 doubles the batch's time and the
#: benchmark's time budget cannot afford it).
CONCRETE_LINT = ("cg", 128)
#: Planted programs lint over this range; P=2 is left out because a
#: two-rank fan-in has a single sender and so cannot race.
PLANTED_SCALES = "3..64"


def planted_source(kind: str, rng: random.Random) -> tuple[str, int]:
    """A clean ring/allreduce scaffold with one planted bug of ``kind``.

    Returns the source and the line the bug's rule must fire at.  The bug
    follows the scaffold's loop: planted first, a rank blocked on it would
    starve the ring and the lint would rightly report that instead.
    Planted tags (40..89) never collide with the scaffold's (1..9).
    """
    tag = rng.randrange(1, 10)
    bug_tag = rng.randrange(40, 90)
    nbytes = 8 * rng.randrange(1, 129)
    src = _Source()
    src.add("def exchange(it) {")
    src.add(f"    sendrecv(dest = (rank + 1) % nprocs, tag = {tag}, "
            f"bytes = {nbytes},")
    src.add("             src = (rank - 1 + nprocs) % nprocs);")
    src.add("}")
    src.add("")
    src.add("def main() {")
    for _ in range(rng.randrange(3)):
        src.add(f"    compute(flops = {rng.randrange(1, 100) * 1000});")
    src.add(f"    for (var it = 0; it < {rng.randrange(2, 6)}; it = it + 1) {{")
    src.add(f"        compute(flops = {rng.randrange(1, 100) * 1000});")
    src.add("        exchange(it);")
    src.add("        allreduce(bytes = 8);")
    src.add("    }")
    if kind == "unmatched-recv":
        src.add("    if (rank == 0) {")
        line = src.add(f"        recv(src = 1, tag = {bug_tag});")
        src.add("    }")
    elif kind == "tag-mismatch":
        src.add("    if (rank == 0) {")
        line = src.add(f"        recv(src = 1, tag = {bug_tag});")
        src.add("    }")
        src.add("    if (rank == 1) {")
        src.add(f"        send(dest = 0, tag = {bug_tag + 1}, bytes = {nbytes});")
        src.add("    }")
    elif kind == "collective-divergence":
        src.add("    if (rank == 0) {")
        line = src.add("        barrier();")
        src.add("    }")
    elif kind == "wildcard-race":
        src.add("    if (rank == 0) {")
        src.add("        for (var i = 1; i < nprocs; i = i + 1) {")
        line = src.add(f"            recv(src = ANY, tag = {bug_tag});")
        src.add("        }")
        src.add("    } else {")
        src.add(f"        send(dest = 0, tag = {bug_tag}, bytes = {nbytes});")
        src.add("    }")
    else:
        raise ValueError(f"unknown planted bug {kind!r}")
    src.add("}")
    return src.text(), line


PLANTED_KINDS = (
    "unmatched-recv", "tag-mismatch", "collective-divergence", "wildcard-race",
)


def _scale_findings(rep) -> tuple:
    return (rep.status, rep.scales, tuple((p, f.render()) for p, f in rep.findings))


def _check_no_errors(rep) -> str | None:
    n = len(rep.errors) if hasattr(rep, "errors") else rep.counts()["error"]
    return None if n == 0 else f"{n} lint error(s) on a bundled app"


def _check_planted(rule: str, line: int):
    def check(rep) -> str | None:
        if not rep.reports:
            return "no witness scales linted"
        for p, report in rep.reports.items():
            if not any(
                f.rule == rule and f.location is not None
                and f.location.line == line
                for f in report.findings
            ):
                return f"{rule} did not fire at line {line} for P={p}"
        return None

    return check


def _lint_scales(rng: random.Random) -> list[Op]:
    ops = []
    for app in LINT_APPS:
        spec = get_app(app)
        ops.append(Op(
            name=f"lint:{app}",
            run=lambda spec=spec: Pipeline.for_app(spec).lint(
                scales="all", valid=spec.nprocs_valid
            ),
            check=_check_no_errors,
            fingerprint=_scale_findings,
        ))
    for kind in PLANTED_KINDS:
        source, line = planted_source(kind, rng)
        filename = f"planted_{kind.replace('-', '_')}.mm"
        ops.append(Op(
            name=f"lint:planted:{kind}",
            run=lambda source=source, filename=filename: Pipeline(
                source, filename
            ).lint(scales=PLANTED_SCALES),
            check=_check_planted(kind, line),
            fingerprint=_scale_findings,
        ))
    app, nprocs = CONCRETE_LINT
    spec = get_app(app)
    ops.append(Op(
        name=f"lint:{app}@{nprocs}",
        run=lambda: Pipeline.for_app(spec).lint(nprocs),
        check=_check_no_errors,
        fingerprint=lambda rep: tuple(f.render() for f in rep.findings),
    ))
    return ops


# -- sweep_warm ------------------------------------------------------------

#: The paper's 11 evaluated programs (Table II order).
SWEEP_APPS = (
    "bt", "cg", "ep", "ft", "mg", "sp", "lu", "is", "sst", "nekbone", "zeusmp",
)
#: Small scales keep the cold sweep, which every set-up repeats, near 3 s;
#: a warm pass still reads 33 profiles from disk.
SWEEP_SCALES = (8, 16, 32)
#: 11 apps x 3 scales: every app has three distinct valid scales here
#: (bt and sp map 8 down to 4 and 32 down to 25).
SWEEP_CELL_SCALES = 33
#: Case-study cells of the sweep must agree with the paper as well.
SWEEP_CASE_STUDIES = {app: (kind, fn) for app, _s, kind, fn in CASE_STUDIES}


@dataclass
class WarmPass:
    results: list
    simulations: int
    hits: int
    misses: int


def _sweep_once(cache_dir: Path, cfg_seed: int):
    session = Session(cache_dir)
    results = sweep(
        SWEEP_APPS, SWEEP_SCALES, seeds=(cfg_seed,), session=session, jobs=1
    )
    return results, session


def _sweep_warm(rng: random.Random, setup_dir: Path, fill_cache: bool) -> list[Op]:
    cfg_seed = rng.randrange(1_000_000)
    cache_dir = setup_dir / "cache"
    cold_file = setup_dir / "cold_shas.json"
    if fill_cache:
        results, _session = _sweep_once(cache_dir, cfg_seed)
        cold_file.write_text(json.dumps(
            {r.app: canonical_report_sha(r.report) for r in results}
        ))
    cold = json.loads(cold_file.read_text())

    def warm_pass() -> WarmPass:
        before = simulation_call_count()
        results, session = _sweep_once(cache_dir, cfg_seed)
        return WarmPass(
            results, simulation_call_count() - before,
            session.stats.hits, session.stats.misses,
        )

    def check(p: WarmPass) -> str | None:
        if p.simulations:
            return f"warm pass ran {p.simulations} simulation(s)"
        if (p.hits, p.misses) != (SWEEP_CELL_SCALES, 0):
            return f"expected {SWEEP_CELL_SCALES} hits / 0 misses, got " \
                   f"{p.hits} / {p.misses}"
        got = {r.app: canonical_report_sha(r.report) for r in p.results}
        if got != cold:
            bad = sorted(a for a in cold if got.get(a) != cold[a])
            return f"warm report differs from the cold sweep for {bad}"
        for r in p.results:
            if r.app in SWEEP_CASE_STUDIES:
                problem = _check_case_study(*SWEEP_CASE_STUDIES[r.app])(r.report)
                if problem:
                    return f"{r.app}: {problem}"
        return None

    return [Op(
        name="sweep:warm",
        run=warm_pass,
        check=check,
        fingerprint=lambda p: tuple(
            canonical_report_sha(r.report) for r in p.results
        ),
    )]


def build(name: str, seed: int, setup_dir: Path, fill_cache: bool) -> Workload:
    """The workload ``name`` for ``seed``.  ``setup_dir`` holds anything
    set-up leaves on disk; ``fill_cache`` makes sweep_warm run its cold
    sweep into it (the others ignore both)."""
    rng = random.Random(f"{name}:{seed}")
    if name == "diagnose_apps":
        ops = _diagnose_apps(rng)
    elif name == "symmetric_p4096":
        ops = _symmetric(rng)
    elif name == "lint_scales":
        ops = _lint_scales(rng)
    elif name == "sweep_warm":
        ops = _sweep_warm(rng, setup_dir, fill_cache)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return Workload(name, ops)
