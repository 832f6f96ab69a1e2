"""MiniMPI: a small C-like message-passing language.

This package is the stand-in for the paper's C/Fortran + LLVM toolchain.
Applications (mini-NPB kernels, the Zeus-MP / SST / Nekbone analogs) are
written as MiniMPI source text; the static-analysis pipeline parses it,
builds control-flow graphs, and extracts the Program Structure Graph exactly
as ScalAna's compiler pass does over LLVM IR.

Language surface
----------------
* functions: ``def name(params) { ... }`` with recursion and indirect calls
  through function references (``&name``),
* control flow: ``for``, ``while``, ``if``/``else``,
* computation: ``compute(flops=..., bytes=..., name="...")`` statements carry
  an abstract workload that the simulator's cost model turns into time and
  PMU counters,
* communication: the MPI call surface (``send``, ``recv``, ``isend``,
  ``irecv``, ``wait``, ``waitall``, ``sendrecv``, ``bcast``, ``reduce``,
  ``allreduce``, ``barrier``, ``alltoall``, ``allgather``, ``gather``,
  ``scatter``) with ``ANY`` wildcards for source/tag,
* expressions over ints/floats with the built-ins ``rank``, ``nprocs`` and
  program parameters supplied at run time.
"""

from repro.minilang.errors import LexError, MiniLangError, ParseError
from repro.minilang.lexer import Token, TokenKind, tokenize
from repro.minilang.parser import Parser, parse_program
from repro.minilang.pretty import pretty_print
from repro.minilang import ast_nodes as ast

__all__ = [
    "MiniLangError",
    "LexError",
    "ParseError",
    "Token",
    "TokenKind",
    "tokenize",
    "Parser",
    "parse_program",
    "pretty_print",
    "ast",
]
