"""Program call graph (PCG) construction and analysis.

The inter-procedural PSG build starts "by analyzing the program's call
graph, which contains all calling relationships between different
functions" (paper §III-A).  Direct calls are resolved statically; indirect
calls (through ``&func`` references stored in variables) contribute
*candidate* edges — any function whose reference is taken anywhere in the
program — and are finally resolved at runtime (§III-B3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from repro.minilang import ast_nodes as ast

__all__ = ["CallSite", "CallGraph", "build_call_graph"]


@dataclass(frozen=True)
class CallSite:
    caller: str
    stmt_id: int
    callee: str  # "" when unknown (indirect)
    indirect: bool


@dataclass
class CallGraph:
    """Call relationships of one program."""

    program: ast.Program
    #: caller -> set of statically-known callees.
    edges: dict[str, set[str]] = field(default_factory=dict)
    call_sites: list[CallSite] = field(default_factory=list)
    #: Functions whose address is taken somewhere (&f) — indirect candidates.
    address_taken: set[str] = field(default_factory=set)

    def callees(self, name: str) -> set[str]:
        return self.edges.get(name, set())

    def to_networkx(self) -> nx.DiGraph:
        g = nx.DiGraph()
        g.add_nodes_from(self.program.functions)
        for caller, callees in self.edges.items():
            for callee in callees:
                g.add_edge(caller, callee)
        return g

    def recursive_functions(self) -> set[str]:
        """Functions involved in any call cycle (incl. self-recursion)."""
        g = self.to_networkx()
        out: set[str] = set()
        for scc in nx.strongly_connected_components(g):
            if len(scc) > 1:
                out |= scc
            else:
                (node,) = scc
                if g.has_edge(node, node):
                    out.add(node)
        return out

    def reachable_from(self, entry: str = "main") -> set[str]:
        g = self.to_networkx()
        if entry not in g:
            return set()
        return {entry} | nx.descendants(g, entry)

    def unreachable_functions(self, entry: str = "main") -> set[str]:
        return set(self.program.functions) - self.reachable_from(entry)


def _expr_address_taken(expr: ast.Expr, out: set[str]) -> None:
    if isinstance(expr, ast.FuncRef):
        out.add(expr.name)
    elif isinstance(expr, ast.UnaryExpr):
        _expr_address_taken(expr.operand, out)
    elif isinstance(expr, ast.BinaryExpr):
        _expr_address_taken(expr.left, out)
        _expr_address_taken(expr.right, out)
    elif isinstance(expr, ast.CallExpr):
        for a in expr.args:
            _expr_address_taken(a, out)


def build_call_graph(program: ast.Program) -> CallGraph:
    """Scan every function body for call sites and address-taken functions."""
    cg = CallGraph(program=program)
    for fname, func in program.functions.items():
        cg.edges.setdefault(fname, set())
        for stmt in ast.walk_statements(func.body):
            # collect &f references from any expression position
            for expr in _stmt_exprs(stmt):
                _expr_address_taken(expr, cg.address_taken)
            if isinstance(stmt, ast.CallStmt):
                callee = stmt.callee
                if isinstance(callee, ast.VarRef) and callee.name in program.functions:
                    cg.edges[fname].add(callee.name)
                    cg.call_sites.append(
                        CallSite(fname, stmt.stmt_id, callee.name, indirect=False)
                    )
                else:
                    # unknown target: function pointer held in a variable
                    cg.call_sites.append(
                        CallSite(fname, stmt.stmt_id, "", indirect=True)
                    )
    return cg


def _stmt_exprs(stmt: ast.Stmt) -> list[ast.Expr]:
    """The expressions the interpreter evaluates for ``stmt`` itself, not
    for nested stmts (it never evaluates a receive's ``bytes``)."""
    out: list[ast.Expr] = []

    def add(e: ast.Expr | None) -> None:
        if e is not None:
            out.append(e)

    if isinstance(stmt, ast.VarDecl):
        add(stmt.init)
    elif isinstance(stmt, ast.Assign):
        add(stmt.value)
    elif isinstance(stmt, ast.ForStmt):
        add(stmt.cond)
    elif isinstance(stmt, ast.WhileStmt):
        add(stmt.cond)
    elif isinstance(stmt, ast.IfStmt):
        add(stmt.cond)
    elif isinstance(stmt, ast.ReturnStmt):
        add(stmt.value)
    elif isinstance(stmt, ast.ComputeStmt):
        add(stmt.flops)
        add(stmt.mem_bytes)
        add(stmt.locality)
        add(stmt.threads)
    elif isinstance(stmt, ast.MpiStmt):
        receive = stmt.op in (ast.MpiOp.RECV, ast.MpiOp.IRECV)
        for e in (
            stmt.dest,
            stmt.src,
            stmt.tag,
            None if receive else stmt.bytes_expr,
            stmt.root,
            stmt.recv_src,
            stmt.recv_tag,
        ):
            add(e)
    elif isinstance(stmt, ast.CallStmt):
        add(stmt.callee)
        out.extend(stmt.args)
    return out
