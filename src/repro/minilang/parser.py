"""Recursive-descent parser for MiniMPI.

Grammar (EBNF, whitespace/comments elided)::

    program   := functiondef*
    functiondef := "def" IDENT "(" [ IDENT ("," IDENT)* ] ")" block
    block     := "{" stmt* "}"
    stmt      := vardecl | assign | for | while | if | return
               | compute | mpistmt | callstmt
    vardecl   := "var" IDENT [ "=" expr ] ";"
    assign    := IDENT "=" expr ";"
    for       := "for" "(" [simplestmt] ";" [expr] ";" [simplestmt] ")" block
    while     := "while" "(" expr ")" block
    if        := "if" "(" expr ")" block [ "else" (block | if) ]
    return    := "return" [expr] ";"
    compute   := "compute" "(" kwargs ")" ";"
    mpistmt   := MPIOP "(" kwargs ")" ";"
    callstmt  := IDENT "(" [ expr ("," expr)* ] ")" ";"
    kwargs    := [ IDENT "=" expr ("," IDENT "=" expr)* ]
    expr      := orexpr
    orexpr    := andexpr ( "||" andexpr )*
    andexpr   := cmpexpr ( "&&" cmpexpr )*
    cmpexpr   := addexpr ( ("<"|">"|"<="|">="|"=="|"!=") addexpr )?
    addexpr   := mulexpr ( ("+"|"-") mulexpr )*
    mulexpr   := unary ( ("*"|"/"|"%") unary )*
    unary     := ("-"|"!") unary | primary
    primary   := INT | FLOAT | STRING | "true" | "false" | "ANY"
               | "&" IDENT | IDENT | BUILTIN "(" args ")" | "(" expr ")"

MPI calls and ``compute`` use keyword arguments only — this keeps call sites
self-documenting in app sources and lets each op validate its own surface.
"""

from __future__ import annotations


from repro.minilang import ast_nodes as ast
from repro.minilang.errors import ParseError, SourceLocation
from repro.minilang.lexer import Token, TokenKind, tokenize

__all__ = ["Parser", "parse_program", "MPI_STMT_NAMES", "MAX_NESTING"]

#: Deepest nesting parsed, else ``ParseError("nesting too deep")``: the
#: height of a function's statement and expression tree, left-deep operator
#: chains included, a block with its statements two levels, a parenthesized
#: group one.  The deepest walker, this parser's descent into a builtin
#: call, takes 8 frames a level: 80 levels stay under 650 frames, below
#: CPython's default recursion limit of 1000.  The bundled apps reach 10.
MAX_NESTING = 80

#: Statement-level MPI spellings accepted by the parser.
MPI_STMT_NAMES = {op.value: op for op in ast.MpiOp}

#: Which keyword arguments each MPI op accepts (name -> required?).
_MPI_KWARGS: dict[ast.MpiOp, dict[str, bool]] = {
    ast.MpiOp.SEND: {"dest": True, "tag": True, "bytes": True},
    ast.MpiOp.RECV: {"src": True, "tag": True, "bytes": False},
    ast.MpiOp.ISEND: {"dest": True, "tag": True, "bytes": True, "req": True},
    ast.MpiOp.IRECV: {"src": True, "tag": True, "bytes": False, "req": True},
    ast.MpiOp.WAIT: {"req": True},
    ast.MpiOp.WAITALL: {},
    ast.MpiOp.SENDRECV: {
        "dest": True,
        "tag": True,
        "bytes": True,
        "src": True,
        "recv_tag": False,
    },
    ast.MpiOp.BCAST: {"root": True, "bytes": True},
    ast.MpiOp.REDUCE: {"root": True, "bytes": True},
    ast.MpiOp.ALLREDUCE: {"bytes": True},
    ast.MpiOp.BARRIER: {},
    ast.MpiOp.ALLTOALL: {"bytes": True},
    ast.MpiOp.ALLGATHER: {"bytes": True},
    ast.MpiOp.GATHER: {"root": True, "bytes": True},
    ast.MpiOp.SCATTER: {"root": True, "bytes": True},
}

_CMP_KINDS = frozenset(
    (TokenKind.LT, TokenKind.GT, TokenKind.LE, TokenKind.GE, TokenKind.EQ, TokenKind.NE)
)
_ADD_KINDS = frozenset((TokenKind.PLUS, TokenKind.MINUS))
_MUL_KINDS = frozenset((TokenKind.STAR, TokenKind.SLASH, TokenKind.PERCENT))
#: Binary operators by precedence, loosest first.
_BINARY_LEVELS = (
    frozenset((TokenKind.OR,)), frozenset((TokenKind.AND,)),
    _CMP_KINDS, _ADD_KINDS, _MUL_KINDS,
)
_UNARY_KINDS = frozenset((TokenKind.MINUS, TokenKind.NOT))


class Parser:
    def __init__(self, tokens: list[Token]) -> None:
        # One more EOF: a one-token lookahead at the end stays in range, so
        # the cursor indexes without a bound check.  Nothing advances past
        # the first EOF, because no rule expects one.
        self.tokens = [*tokens, tokens[-1]]
        self.pos = 0
        #: nesting levels open around the cursor (blocks, groups, operands)
        self._depth = 0
        #: height of the expression the last _parse_* call returned
        self._height = 0

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _check(self, kind: TokenKind, text: str | None = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind is kind and (text is None or tok.text == text)

    def _match(self, kind: TokenKind, text: str | None = None) -> Token | None:
        tok = self.tokens[self.pos]
        if tok.kind is kind and (text is None or tok.text == text):
            self.pos += 1
            return tok
        return None

    def _enter(self, tok: Token, levels: int = 1) -> None:
        self._depth += levels
        if self._depth > MAX_NESTING:
            raise ParseError("nesting too deep", tok.location)

    def _expect(self, kind: TokenKind, text: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not kind or (text is not None and tok.text != text):
            want = text if text is not None else kind.value
            raise ParseError(
                f"expected {want!r}, found {tok.text or tok.kind.value!r}",
                tok.location,
            )
        self.pos += 1
        return tok

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------

    def parse_program(self, filename: str = "<string>") -> ast.Program:
        loc = self._peek().location
        program = ast.Program(location=loc, filename=filename)
        while not self._check(TokenKind.EOF):
            func = self._parse_function()
            if func.name in program.functions:
                raise ParseError(f"duplicate function {func.name!r}", func.location)
            program.functions[func.name] = func
        ast.assign_statement_ids(program)
        return program

    def _parse_function(self) -> ast.FunctionDef:
        start = self._expect(TokenKind.KEYWORD, "def")
        name = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.LPAREN)
        params: list[str] = []
        if not self._check(TokenKind.RPAREN):
            params.append(self._expect(TokenKind.IDENT).text)
            while self._match(TokenKind.COMMA):
                params.append(self._expect(TokenKind.IDENT).text)
        self._expect(TokenKind.RPAREN)
        body = self._parse_block()
        return ast.FunctionDef(location=start.location, name=name, params=params, body=body)

    def _parse_block(self) -> ast.Block:
        start = self._expect(TokenKind.LBRACE)
        self._enter(start, 2)
        statements: list[ast.Stmt] = []
        while not self._check(TokenKind.RBRACE):
            if self._check(TokenKind.EOF):
                raise ParseError("unterminated block", start.location)
            statements.append(self._parse_statement())
        self._expect(TokenKind.RBRACE)
        self._depth -= 2
        return ast.Block(location=start.location, statements=statements)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def _parse_statement(self) -> ast.Stmt:
        tok = self._peek()
        if tok.kind is TokenKind.KEYWORD:
            if tok.text == "var":
                return self._parse_vardecl()
            if tok.text == "for":
                return self._parse_for()
            if tok.text == "while":
                return self._parse_while()
            if tok.text == "if":
                return self._parse_if()
            if tok.text == "return":
                return self._parse_return()
            raise ParseError(f"unexpected keyword {tok.text!r}", tok.location)
        if tok.kind is TokenKind.IDENT:
            nxt = self._peek(1)
            if tok.text == "compute" and nxt.kind is TokenKind.LPAREN:
                return self._parse_compute()
            if tok.text in MPI_STMT_NAMES and nxt.kind is TokenKind.LPAREN:
                return self._parse_mpi()
            if nxt.kind is TokenKind.LPAREN:
                return self._parse_call()
            if nxt.kind is TokenKind.ASSIGN:
                return self._parse_assign()
        raise ParseError(
            f"unexpected token {tok.text or tok.kind.value!r} at statement start",
            tok.location,
        )

    def _parse_vardecl(self) -> ast.VarDecl:
        start = self._expect(TokenKind.KEYWORD, "var")
        name = self._expect(TokenKind.IDENT).text
        init = None
        if self._match(TokenKind.ASSIGN):
            init = self._parse_expr()
        self._expect(TokenKind.SEMI)
        return ast.VarDecl(location=start.location, name=name, init=init)

    def _parse_assign(self, consume_semi: bool = True) -> ast.Assign:
        name_tok = self._expect(TokenKind.IDENT)
        self._expect(TokenKind.ASSIGN)
        value = self._parse_expr()
        if consume_semi:
            self._expect(TokenKind.SEMI)
        return ast.Assign(location=name_tok.location, name=name_tok.text, value=value)

    def _parse_simple_for_clause(self) -> ast.Stmt | None:
        """An assignment or var-decl without trailing semicolon (for-header)."""
        if self._check(TokenKind.KEYWORD, "var"):
            start = self._advance()
            name = self._expect(TokenKind.IDENT).text
            self._expect(TokenKind.ASSIGN)
            init = self._parse_expr()
            return ast.VarDecl(location=start.location, name=name, init=init)
        if self._check(TokenKind.IDENT) and self._peek(1).kind is TokenKind.ASSIGN:
            return self._parse_assign(consume_semi=False)
        return None

    def _parse_for(self) -> ast.ForStmt:
        start = self._expect(TokenKind.KEYWORD, "for")
        self._expect(TokenKind.LPAREN)
        init = None if self._check(TokenKind.SEMI) else self._parse_simple_for_clause()
        self._expect(TokenKind.SEMI)
        cond = None if self._check(TokenKind.SEMI) else self._parse_expr()
        self._expect(TokenKind.SEMI)
        step = None if self._check(TokenKind.RPAREN) else self._parse_simple_for_clause()
        self._expect(TokenKind.RPAREN)
        body = self._parse_block()
        return ast.ForStmt(location=start.location, init=init, cond=cond, step=step, body=body)

    def _parse_while(self) -> ast.WhileStmt:
        start = self._expect(TokenKind.KEYWORD, "while")
        self._expect(TokenKind.LPAREN)
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN)
        body = self._parse_block()
        return ast.WhileStmt(location=start.location, cond=cond, body=body)

    def _parse_if(self) -> ast.IfStmt:
        start = self._expect(TokenKind.KEYWORD, "if")
        self._expect(TokenKind.LPAREN)
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN)
        then_body = self._parse_block()
        else_body = None
        if self._match(TokenKind.KEYWORD, "else"):
            if self._check(TokenKind.KEYWORD, "if"):
                self._enter(self._peek(), 2)
                nested = self._parse_if()
                self._depth -= 2
                else_body = ast.Block(location=nested.location, statements=[nested])
            else:
                else_body = self._parse_block()
        return ast.IfStmt(
            location=start.location, cond=cond, then_body=then_body, else_body=else_body
        )

    def _parse_return(self) -> ast.ReturnStmt:
        start = self._expect(TokenKind.KEYWORD, "return")
        value = None
        if not self._check(TokenKind.SEMI):
            value = self._parse_expr()
        self._expect(TokenKind.SEMI)
        return ast.ReturnStmt(location=start.location, value=value)

    def _parse_kwargs(self) -> dict[str, tuple[ast.Expr, SourceLocation]]:
        """Parse ``name = expr, ...`` up to (not including) the RPAREN."""
        kwargs: dict[str, tuple[ast.Expr, SourceLocation]] = {}
        if self._check(TokenKind.RPAREN):
            return kwargs
        while True:
            name_tok = self._expect(TokenKind.IDENT)
            self._expect(TokenKind.ASSIGN)
            value = self._parse_expr()
            if name_tok.text in kwargs:
                raise ParseError(
                    f"duplicate keyword argument {name_tok.text!r}", name_tok.location
                )
            kwargs[name_tok.text] = (value, name_tok.location)
            if not self._match(TokenKind.COMMA):
                break
        return kwargs

    def _parse_compute(self) -> ast.ComputeStmt:
        start = self._expect(TokenKind.IDENT)  # 'compute'
        self._expect(TokenKind.LPAREN)
        kwargs = self._parse_kwargs()
        self._expect(TokenKind.RPAREN)
        self._expect(TokenKind.SEMI)
        allowed = {"flops", "bytes", "locality", "threads", "name"}
        for key, (_, loc) in kwargs.items():
            if key not in allowed:
                raise ParseError(f"compute() got unexpected argument {key!r}", loc)
        if "flops" not in kwargs:
            raise ParseError("compute() requires a flops= argument", start.location)
        name = ""
        if "name" in kwargs:
            name_expr = kwargs["name"][0]
            if not isinstance(name_expr, ast.StringLit):
                raise ParseError(
                    "compute(name=...) must be a string literal", kwargs["name"][1]
                )
            name = name_expr.value
        return ast.ComputeStmt(
            location=start.location,
            flops=kwargs["flops"][0],
            mem_bytes=kwargs["bytes"][0] if "bytes" in kwargs else None,
            locality=kwargs["locality"][0] if "locality" in kwargs else None,
            threads=kwargs["threads"][0] if "threads" in kwargs else None,
            name=name,
        )

    def _parse_mpi(self) -> ast.MpiStmt:
        start = self._expect(TokenKind.IDENT)
        op = MPI_STMT_NAMES[start.text]
        self._expect(TokenKind.LPAREN)
        kwargs = self._parse_kwargs()
        self._expect(TokenKind.RPAREN)
        self._expect(TokenKind.SEMI)

        spec = _MPI_KWARGS[op]
        for key, (_, loc) in kwargs.items():
            if key not in spec:
                raise ParseError(f"{op.value}() got unexpected argument {key!r}", loc)
        for key, required in spec.items():
            if required and key not in kwargs:
                raise ParseError(
                    f"{op.value}() missing required argument {key!r}", start.location
                )

        def get(key: str) -> ast.Expr | None:
            return kwargs[key][0] if key in kwargs else None

        request = None
        if "req" in kwargs:
            req_expr = kwargs["req"][0]
            if not isinstance(req_expr, (ast.VarRef, ast.StringLit)):
                raise ParseError(
                    f"{op.value}(req=...) must be an identifier or string",
                    kwargs["req"][1],
                )
            request = req_expr.name if isinstance(req_expr, ast.VarRef) else req_expr.value

        stmt = ast.MpiStmt(
            location=start.location,
            op=op,
            dest=get("dest"),
            src=get("src"),
            tag=get("tag"),
            bytes_expr=get("bytes"),
            root=get("root"),
            request=request,
            recv_tag=get("recv_tag"),
        )
        if op is ast.MpiOp.SENDRECV:
            stmt.recv_src = get("src")
            stmt.src = None
            if stmt.recv_tag is None:
                stmt.recv_tag = stmt.tag
        return stmt

    def _parse_call(self) -> ast.CallStmt:
        name_tok = self._expect(TokenKind.IDENT)
        self._expect(TokenKind.LPAREN)
        args: list[ast.Expr] = []
        if not self._check(TokenKind.RPAREN):
            args.append(self._parse_expr())
            while self._match(TokenKind.COMMA):
                args.append(self._parse_expr())
        self._expect(TokenKind.RPAREN)
        self._expect(TokenKind.SEMI)
        callee = ast.VarRef(location=name_tok.location, name=name_tok.text)
        return ast.CallStmt(location=name_tok.location, callee=callee, args=args)

    # ------------------------------------------------------------------
    # expressions (precedence climbing over _BINARY_LEVELS)
    # ------------------------------------------------------------------

    # Each _parse_* below leaves the height of the expression it returns in
    # self._height; an operator chain, which this descent builds in a loop
    # rather than by recursion, adds one level per operator.

    def _parse_expr(self) -> ast.Expr:
        expr = self._parse_binary(0)
        if self._depth + self._height > MAX_NESTING:
            raise ParseError("nesting too deep", expr.location)
        return expr

    def _parse_binary(self, level: int) -> ast.Expr:
        """Operands of the next tighter level joined left-deep by this
        level's operators (one comparison at most)."""
        tighter = level + 1
        last = tighter == len(_BINARY_LEVELS)
        left = self._parse_unary() if last else self._parse_binary(tighter)
        kinds = _BINARY_LEVELS[level]
        tokens = self.tokens
        while (tok := tokens[self.pos]).kind in kinds:
            self.pos += 1
            height = self._height
            right = self._parse_unary() if last else self._parse_binary(tighter)
            self._height = max(height, self._height) + 1
            left = ast.BinaryExpr(location=tok.location, op=tok.text, left=left, right=right)
            if kinds is _CMP_KINDS:
                break
        return left

    def _parse_unary(self) -> ast.Expr:
        tok = self.tokens[self.pos]
        if tok.kind in _UNARY_KINDS:
            self.pos += 1
            self._enter(tok)
            operand = self._parse_unary()
            self._depth -= 1
            self._height += 1
            return ast.UnaryExpr(location=tok.location, op=tok.text, operand=operand)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        tok = self.tokens[self.pos]
        kind = tok.kind
        self._height = 1
        if kind is TokenKind.IDENT:
            if tok.text in ast.BUILTIN_FUNCS and self.tokens[self.pos + 1].kind is TokenKind.LPAREN:
                self.pos += 2
                self._enter(tok)
                args: list[ast.Expr] = []
                height = 0
                if not self._check(TokenKind.RPAREN):
                    args.append(self._parse_expr())
                    height = self._height
                    while self._match(TokenKind.COMMA):
                        args.append(self._parse_expr())
                        height = max(height, self._height)
                self._expect(TokenKind.RPAREN)
                self._depth -= 1
                self._height = height + 1
                return ast.CallExpr(location=tok.location, func=tok.text, args=args)
            self.pos += 1
            return ast.VarRef(location=tok.location, name=tok.text)
        if kind is TokenKind.INT:
            self.pos += 1
            return ast.IntLit(location=tok.location, value=tok.int_value)
        if kind is TokenKind.LPAREN:
            self.pos += 1
            self._enter(tok)
            inner = self._parse_binary(0)
            self._expect(TokenKind.RPAREN)
            self._depth -= 1
            self._height += 1
            return inner
        if kind is TokenKind.FLOAT:
            self.pos += 1
            return ast.FloatLit(location=tok.location, value=tok.float_value)
        if kind is TokenKind.STRING:
            self.pos += 1
            return ast.StringLit(location=tok.location, value=tok.text)
        if kind is TokenKind.KEYWORD and tok.text in ("true", "false"):
            self.pos += 1
            return ast.BoolLit(location=tok.location, value=tok.text == "true")
        if kind is TokenKind.KEYWORD and tok.text == "ANY":
            self.pos += 1
            return ast.AnyLit(location=tok.location)
        if kind is TokenKind.AMP:
            self.pos += 1
            name = self._expect(TokenKind.IDENT)
            return ast.FuncRef(location=tok.location, name=name.text)
        raise ParseError(
            f"unexpected token {tok.text or tok.kind.value!r} in expression",
            tok.location,
        )


def parse_program(source: str, filename: str = "<string>") -> ast.Program:
    """Parse MiniMPI source text into a :class:`Program` with stmt ids assigned."""
    tokens = tokenize(source, filename)
    return Parser(tokens).parse_program(filename)
