"""Golden digests of the MiniMPI front end and the PSG builder.

Every bundled app, the four planted-bug programs of the benchmark's
``lint_scales`` workload (seeds 1 and 2) and programs from the three
randomized generators in ``conftest.py`` are lexed, parsed,
pretty-printed and built into complete and contracted PSGs.  Each stage
is reduced to a sha256 over a canonical text and compared with the
digests in ``tests/data/frontend_digests.json``, so a front-end change
that moves a token, a location, a statement id or a PSG vertex fails
here.

Re-record only when a change of output is intended::

    PYTHONPATH=src python -m tests.test_frontend_digests
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from repro.apps import app_names, get_app
from repro.minilang import parse_program, pretty_print, tokenize
from repro.psg import build_psg
from tests.conftest import GENERATORS

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "frontend_digests.json"
GENERATOR_SEEDS = range(10)
PLANTED_SEEDS = (1, 2)


def _planted_programs() -> dict[str, tuple[str, str]]:
    """The planted programs exactly as the benchmark draws them: one
    ``Random(f"lint_scales:{seed}")`` feeds the four kinds in order."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    out = {}
    for seed in PLANTED_SEEDS:
        rng = random.Random(f"lint_scales:{seed}")
        for kind in workloads.PLANTED_KINDS:
            source, _line = workloads.planted_source(kind, rng)
            out[f"planted:{kind}:{seed}"] = (source, f"planted_{kind}.mm")
    return out


def programs() -> dict[str, tuple[str, str]]:
    """Key -> (source, filename) for every program with golden digests."""
    out = {}
    for name in app_names():
        spec = get_app(name)
        out[f"app:{name}"] = (spec.source, spec.filename)
    out.update(_planted_programs())
    for gen, make in GENERATORS.items():
        for seed in GENERATOR_SEEDS:
            out[f"{gen}:{seed}"] = (make(seed), f"{gen}{seed}.mm")
    return out


def _dump(value) -> str:
    """A canonical text of a value: dataclasses field by field, in order."""
    if dataclasses.is_dataclass(value):
        inner = ", ".join(
            f"{f.name}={_dump(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({inner})"
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_dump(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_dump(k)}: {_dump(v)}" for k, v in value.items()) + "}"
    return repr(value)


def _psg_text(psg) -> str:
    lines = [f"name={psg.name!r} root={psg.root_id} n={len(psg)}"]
    lines += [_dump(psg.vertices[vid]) for vid in sorted(psg.vertices)]
    lines += [f"{key!r} -> {vid}" for key, vid in sorted(psg.stmt_index.items())]
    return "\n".join(lines)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stage_digests(source: str, filename: str) -> dict:
    tokens = tokenize(source, filename)
    program = parse_program(source, filename)
    result = build_psg(program)
    return {
        "source": _sha(source),
        "tokens": _sha("\n".join(
            f"{t.kind.name} {t.text!r} {_dump(t.location)}" for t in tokens
        )),
        "ast": _sha(_dump(program)),
        "pretty": _sha(pretty_print(program)),
        "complete_psg": _sha(_psg_text(result.complete_psg)),
        "contracted_psg": _sha(_psg_text(result.psg)),
        "token_count": len(tokens),
        "vertices": [len(result.complete_psg), len(result.psg)],
    }


def _golden() -> dict:
    # missing before the first recording; test_every_program_is_recorded fails then
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_every_program_is_recorded():
    assert sorted(programs()) == sorted(_golden())


@pytest.fixture(scope="module")
def sources():
    return programs()


@pytest.mark.parametrize("key", sorted(_golden()))
def test_stage_digests_match_the_recording(key, sources):
    expected = _golden()[key]
    got = stage_digests(*sources[key])
    assert got["source"] == expected["source"], f"{key}: its generator changed"
    assert got == expected


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {key: stage_digests(*src) for key, src in sorted(programs().items())},
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {GOLDEN}")
