"""Parser tests: statements, expressions, MPI surface, error paths."""

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minilang import ast_nodes as ast
from repro.minilang.errors import MiniLangError, ParseError
from repro.minilang.parser import MAX_NESTING, parse_program


def parse_main_body(body: str) -> list[ast.Stmt]:
    prog = parse_program("def main() {\n" + body + "\n}")
    return prog.entry.body.statements


class TestTopLevel:
    def test_multiple_functions(self):
        prog = parse_program("def main() {} def foo(a, b) {}")
        assert set(prog.functions) == {"main", "foo"}
        assert prog.function("foo").params == ["a", "b"]

    def test_duplicate_function_rejected(self):
        with pytest.raises(ParseError, match="duplicate function"):
            parse_program("def f() {} def f() {}")

    def test_entry_property(self):
        prog = parse_program("def main() {}")
        assert prog.entry.name == "main"

    def test_missing_function_lookup(self):
        prog = parse_program("def main() {}")
        with pytest.raises(KeyError):
            prog.function("nope")

    def test_unterminated_block(self):
        with pytest.raises(ParseError):
            parse_program("def main() { var x = 1;")


class TestStatements:
    def test_var_decl_with_and_without_init(self):
        stmts = parse_main_body("var a; var b = 3;")
        assert isinstance(stmts[0], ast.VarDecl) and stmts[0].init is None
        assert isinstance(stmts[1].init, ast.IntLit)

    def test_assignment(self):
        (stmt,) = parse_main_body("x = 1 + 2;")
        assert isinstance(stmt, ast.Assign)
        assert isinstance(stmt.value, ast.BinaryExpr)

    def test_for_loop_full_header(self):
        (stmt,) = parse_main_body("for (var i = 0; i < 3; i = i + 1) { }")
        assert isinstance(stmt, ast.ForStmt)
        assert isinstance(stmt.init, ast.VarDecl)
        assert isinstance(stmt.cond, ast.BinaryExpr)
        assert isinstance(stmt.step, ast.Assign)

    def test_for_loop_empty_clauses(self):
        (stmt,) = parse_main_body("for (;;) { }")
        assert stmt.init is None and stmt.cond is None and stmt.step is None

    def test_while_loop(self):
        (stmt,) = parse_main_body("while (x < 3) { }")
        assert isinstance(stmt, ast.WhileStmt)

    def test_if_else(self):
        (stmt,) = parse_main_body("if (rank == 0) { } else { }")
        assert isinstance(stmt, ast.IfStmt)
        assert stmt.else_body is not None

    def test_else_if_chains(self):
        (stmt,) = parse_main_body(
            "if (a == 1) { } else if (a == 2) { } else { }"
        )
        nested = stmt.else_body.statements[0]
        assert isinstance(nested, ast.IfStmt)
        assert nested.else_body is not None

    def test_return_with_value(self):
        prog = parse_program("def f() { return 1 + 2; } def main() {}")
        stmt = prog.function("f").body.statements[0]
        assert isinstance(stmt, ast.ReturnStmt)
        assert stmt.value is not None

    def test_call_statement(self):
        (stmt,) = parse_main_body("foo(1, rank);")
        assert isinstance(stmt, ast.CallStmt)
        assert len(stmt.args) == 2

    def test_unexpected_token(self):
        with pytest.raises(ParseError):
            parse_main_body("+;")


class TestCompute:
    def test_full_compute(self):
        (stmt,) = parse_main_body(
            'compute(flops = 10, bytes = 20, locality = 0.5, name = "k");'
        )
        assert isinstance(stmt, ast.ComputeStmt)
        assert stmt.name == "k"
        assert stmt.mem_bytes is not None

    def test_flops_required(self):
        with pytest.raises(ParseError, match="flops"):
            parse_main_body("compute(bytes = 10);")

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(ParseError, match="unexpected argument"):
            parse_main_body("compute(flops = 1, cycles = 2);")

    def test_name_must_be_string(self):
        with pytest.raises(ParseError, match="string literal"):
            parse_main_body("compute(flops = 1, name = 3);")

    def test_duplicate_kwarg_rejected(self):
        with pytest.raises(ParseError, match="duplicate keyword"):
            parse_main_body("compute(flops = 1, flops = 2);")


class TestMpiStatements:
    def test_send(self):
        (stmt,) = parse_main_body("send(dest = 1, tag = 2, bytes = 64);")
        assert stmt.op is ast.MpiOp.SEND
        assert isinstance(stmt.dest, ast.IntLit)

    def test_send_missing_required(self):
        with pytest.raises(ParseError, match="missing required"):
            parse_main_body("send(dest = 1, tag = 2);")

    def test_recv_any(self):
        (stmt,) = parse_main_body("recv(src = ANY, tag = ANY);")
        assert isinstance(stmt.src, ast.AnyLit)
        assert isinstance(stmt.tag, ast.AnyLit)

    def test_isend_irecv_requests(self):
        stmts = parse_main_body(
            "isend(dest = 0, tag = 1, bytes = 8, req = r1);"
            "irecv(src = 0, tag = 1, req = r2);"
        )
        assert stmts[0].request == "r1"
        assert stmts[1].request == "r2"

    def test_wait_and_waitall(self):
        stmts = parse_main_body("wait(req = r1); waitall();")
        assert stmts[0].op is ast.MpiOp.WAIT
        assert stmts[1].op is ast.MpiOp.WAITALL

    def test_sendrecv_maps_src_to_recv_src(self):
        (stmt,) = parse_main_body(
            "sendrecv(dest = 1, tag = 2, bytes = 8, src = 3);"
        )
        assert stmt.op is ast.MpiOp.SENDRECV
        assert stmt.recv_src is not None
        assert stmt.src is None
        assert stmt.recv_tag is stmt.tag  # defaults to send tag

    def test_sendrecv_custom_recv_tag(self):
        (stmt,) = parse_main_body(
            "sendrecv(dest = 1, tag = 2, bytes = 8, src = 3, recv_tag = 9);"
        )
        assert isinstance(stmt.recv_tag, ast.IntLit)
        assert stmt.recv_tag.value == 9

    def test_collectives(self):
        stmts = parse_main_body(
            "bcast(root = 0, bytes = 8); allreduce(bytes = 4);"
            "barrier(); alltoall(bytes = 2); reduce(root = 1, bytes = 8);"
            "allgather(bytes = 4); gather(root = 0, bytes = 4);"
            "scatter(root = 0, bytes = 4);"
        )
        ops = [s.op for s in stmts]
        assert ast.MpiOp.BCAST in ops and ast.MpiOp.BARRIER in ops

    def test_mpi_unknown_kwarg(self):
        with pytest.raises(ParseError, match="unexpected argument"):
            parse_main_body("barrier(tag = 1);")

    def test_req_must_be_identifier(self):
        with pytest.raises(ParseError, match="identifier or string"):
            parse_main_body("wait(req = 17);")


class TestExpressions:
    def _expr(self, text):
        (stmt,) = parse_main_body(f"x = {text};")
        return stmt.value

    def test_precedence_mul_over_add(self):
        e = self._expr("1 + 2 * 3")
        assert e.op == "+"
        assert e.right.op == "*"

    def test_parentheses_override(self):
        e = self._expr("(1 + 2) * 3")
        assert e.op == "*"
        assert e.left.op == "+"

    def test_comparison_binds_looser_than_add(self):
        e = self._expr("a + 1 < b * 2")
        assert e.op == "<"

    def test_logical_precedence(self):
        e = self._expr("a < 1 && b < 2 || c < 3")
        assert e.op == "||"
        assert e.left.op == "&&"

    def test_unary_minus_and_not(self):
        e = self._expr("-a")
        assert isinstance(e, ast.UnaryExpr) and e.op == "-"
        e = self._expr("!a")
        assert e.op == "!"

    def test_funcref(self):
        e = self._expr("&helper")
        assert isinstance(e, ast.FuncRef)
        assert e.name == "helper"

    def test_builtin_call(self):
        e = self._expr("min(1, max(2, 3))")
        assert isinstance(e, ast.CallExpr)
        assert e.func == "min"
        assert isinstance(e.args[1], ast.CallExpr)

    def test_non_builtin_in_expression_is_varref(self):
        # only whitelisted builtins parse as expression calls
        with pytest.raises(ParseError):
            self._expr("myfunc(1)")

    def test_bool_literals(self):
        assert self._expr("true").value is True
        assert self._expr("false").value is False

    def test_float_literal(self):
        e = self._expr("2.5")
        assert isinstance(e, ast.FloatLit)


class TestStatementIds:
    def test_all_statements_have_unique_ids(self):
        prog = parse_program(
            "def main() { for (var i = 0; i < 2; i = i + 1) {"
            " compute(flops = 1); } foo(); }"
            "def foo() { barrier(); }"
        )
        ids = [s.stmt_id for f in prog.functions.values()
               for s in ast.walk_statements(f.body)]
        assert len(ids) == len(set(ids))
        assert all(i >= 0 for i in ids)

    def test_ids_stable_across_parses(self):
        src = "def main() { compute(flops = 1); barrier(); }"
        a = parse_program(src)
        b = parse_program(src)
        ids_a = [s.stmt_id for s in ast.walk_statements(a.entry.body)]
        ids_b = [s.stmt_id for s in ast.walk_statements(b.entry.body)]
        assert ids_a == ids_b


#: Pieces a fuzzed program is glued from: enough of the grammar to get
#: deep into statements and expressions, plus lexer error triggers.
PARSE_FRAGMENTS = [
    "def", "main", "f", "(", ")", "{", "}", ",", ";", "=", "var", "for", "while",
    "if", "else", "return", "x", "rank", "nprocs", "floor", "compute", "flops",
    "send", "recv", "isend", "wait", "sendrecv", "allreduce", "dest", "src", "tag",
    "bytes", "req", "name", "1", "2.5", "1e3", '"s"', "ANY", "true", "&", "&&",
    "||", "<", "==", "+", "-", "*", "/", "%", "!", "²", "٣", "$", '"',
]


class TestFuzz:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(st.sampled_from(PARSE_FRAGMENTS), max_size=30).map(" ".join),
        st.sampled_from(["{}", "def main() {{ {} }}", "def main() {{ x = {}; }}"]),
    )
    def test_bad_sources_raise_only_minilang_errors(self, body, frame):
        with contextlib.suppress(MiniLangError):
            parse_program(frame.format(body))


def _nested(kind: str, k: int) -> str:
    """A program whose nesting grows with ``k``; at ``k = _AT_BOUND[kind]``
    it is exactly as deep as the parser accepts."""
    if kind == "parens":
        body = "var x = " + "(" * k + "rank" + ")" * k + ";"
    elif kind == "left-deep sum":
        body = "var x = rank" + " + 1" * k + ";"
    elif kind == "unary":
        body = "var x = " + "- " * k + "rank;"
    elif kind == "builtin calls":
        body = "var x = " + "max(" * k + "rank" + ", 1)" * k + ";"
    else:  # nested ifs
        body = "if (rank >= 0) {" * k + " compute(flops = 10); " + "}" * k
    return (
        "def main() {\n" + body + "\n"
        "    send(dest = (rank + 1) % nprocs, tag = 1, bytes = 8);\n"
        "    recv(src = (rank - 1 + nprocs) % nprocs, tag = 1);\n}\n"
    )


#: The main body's statements sit 2 levels deep (its block); an
#: expression statement adds its own height (k + 1 for each expression
#: shape here), and each nested ``if`` adds a statement and a block.
_AT_BOUND = {
    "parens": MAX_NESTING - 3,
    "left-deep sum": MAX_NESTING - 3,
    "unary": MAX_NESTING - 3,
    "builtin calls": MAX_NESTING - 3,
    "nested ifs": (MAX_NESTING - 3) // 2,
}


class TestNestingBound:
    """No parser-accepted source makes a later walk of its AST overflow
    the interpreter stack: deeper nesting is a ParseError."""

    @pytest.mark.parametrize("kind", sorted(_AT_BOUND))
    def test_at_the_bound_every_stage_runs(self, kind):
        from repro.api import Pipeline
        from repro.psg import build_psg

        source = _nested(kind, _AT_BOUND[kind])
        build_psg(parse_program(source))
        assert Pipeline(source).lint(4).ok
        assert Pipeline(source).run((4, 8)).scales == (4, 8)

    @pytest.mark.parametrize("kind", sorted(_AT_BOUND))
    def test_one_past_the_bound_is_a_parse_error(self, kind):
        with pytest.raises(ParseError, match="nesting too deep"):
            parse_program(_nested(kind, _AT_BOUND[kind] + 1))

    def test_inputs_that_overflowed_the_stack(self):
        """150 nested parentheses, and a 600-term left-deep sum, once
        raised RecursionError in the parser and in build_psg."""
        for source in (_nested("parens", 150), _nested("left-deep sum", 600)):
            with pytest.raises(ParseError, match="nesting too deep"):
                parse_program(source)
