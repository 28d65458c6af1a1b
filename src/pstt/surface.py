"""Concrete syntax: lexer, parser and printer for ``.pstt`` sources.

Grammar sketch (``*`` on types is right-associative, ``[d]`` binds tighter)::

    file  ::= { "schedule" NAME "(" [ctx] ")" ":" type "=" term }
    ctx   ::= ident ":^" int type { "," ident ":^" int type }
    type  ::= boxed { "*" type }
    boxed ::= "[" int "]" boxed | "1" | ident | "(" type ")"
    term  ::= "let" "*" "=" term "in" term
            | "let" "(" ident "," ident ")" "=" term "in" term
            | "let" "box" "[" int "]" ident "=" term "in" term
            | "box" "[" int "]" term
            | atom
    atom  ::= "*" | ident | gate "(" term {"," term} ")"
            | "(" term ")" | "(" term "," term ")"
    gate  ::= ident | ident "[" ident "," int "]"

``#`` starts a line comment.  Let bodies extend as far right as possible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    Box,
    BoxIntro,
    Context,
    CtxEntry,
    GateApp,
    Judgement,
    LETS,
    LetBox,
    LetPair,
    LetStar,
    Pair,
    Qubit,
    Star,
    Tensor,
    TermExpr,
    TypeExpr,
    Unit,
    Var,
    make_context,
)

_KEYWORDS = {"schedule", "let", "in", "box"}


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    message: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


class ParseError(ValueError):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


@dataclass(frozen=True)
class Declaration:
    name: str
    ctx: Context
    type: TypeExpr
    term: TermExpr
    line: int
    column: int

    @property
    def judgement(self) -> Judgement:
        return Judgement(self.ctx, self.term, self.type)


@dataclass(frozen=True)
class SourceFile:
    declarations: tuple[Declaration, ...]

    def declaration(self, name: str) -> Declaration:
        for d in self.declarations:
            if d.name == name:
                return d
        raise KeyError(name)


# ------------------------------------------------------------------ lexer


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | int | punct | eof
    text: str
    line: int
    col: int


_PUNCT = "()[],:^=*"


def _lex(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("ident", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Token("int", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            toks.append(_Token("punct", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(Diagnostic("error", f"unexpected character {ch!r}", line, col))
    toks.append(_Token("eof", "", line, col))
    return toks


# ----------------------------------------------------------------- parser


class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> _Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(Diagnostic("error", message, tok.line, tok.col))

    def expect_punct(self, ch: str) -> _Token:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == ch:
            return self.next()
        raise self.fail(f"expected {ch!r}, found {tok.text or 'end of input'!r}")

    def expect_keyword(self, word: str) -> _Token:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == word:
            return self.next()
        raise self.fail(f"expected {word!r}, found {tok.text or 'end of input'!r}")

    def expect_ident(self, what: str = "identifier") -> _Token:
        tok = self.peek()
        if tok.kind == "ident" and tok.text not in _KEYWORDS:
            return self.next()
        raise self.fail(f"expected {what}, found {tok.text or 'end of input'!r}")

    def expect_int(self) -> int:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return int(tok.text)
        raise self.fail(f"expected integer, found {tok.text or 'end of input'!r}")

    def at_punct(self, ch: str, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok.kind == "punct" and tok.text == ch

    def at_keyword(self, word: str, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok.kind == "ident" and tok.text == word

    # types ------------------------------------------------------------

    def parse_type(self) -> TypeExpr:
        """A type, parsed with an explicit stack of unfinished constructs.

        ``*`` nests to the right and ``[d]`` binds tighter than ``*``.  Each
        frame is a box prefix, a tensor waiting for its right side or an
        open parenthesis.
        """
        frames: list[tuple[str, object]] = []
        while True:
            # Read box prefixes and parentheses until an atom completes a type.
            tok = self.peek()
            if tok.kind == "punct" and tok.text == "[":
                self.next()
                grade = self.expect_int()
                self.expect_punct("]")
                frames.append(("box", grade))
                continue
            if tok.kind == "punct" and tok.text == "(":
                self.next()
                frames.append(("paren", None))
                continue
            if tok.kind == "int":
                if tok.text != "1":
                    raise self.fail(f"the only numeric type is 1, found {tok.text!r}")
                self.next()
                ty: TypeExpr = Unit()
            elif tok.kind == "ident" and tok.text not in _KEYWORDS:
                self.next()
                ty = Qubit(tok.text)
            else:
                raise self.fail(f"expected a type, found {tok.text or 'end of input'!r}")

            # Hand the finished type outward until a frame needs another one.
            while True:
                while frames and frames[-1][0] == "box":
                    ty = Box(frames.pop()[1], ty)
                if self.at_punct("*"):
                    self.next()
                    frames.append(("tensor", ty))
                    break
                while frames and frames[-1][0] == "tensor":
                    ty = Tensor(frames.pop()[1], ty)
                if not frames:
                    return ty
                self.expect_punct(")")
                frames.pop()  # the parenthesis; boxes before it apply next

    # terms ------------------------------------------------------------

    def parse_term(self) -> TermExpr:
        """A term, parsed with an explicit stack of unfinished constructs.

        Each frame is an unfinished prefix (``box[d]``, a let before or
        after ``in``), a gate's argument list or an open parenthesis; a
        finished term is handed to the innermost frame.
        """
        frames: list[list] = []
        while True:
            # Read prefixes until an atom completes a term.
            tok = self.peek()
            if tok.kind == "ident" and tok.text == "let":
                frames.append(self.parse_let_head())
                continue
            if tok.kind == "ident" and tok.text == "box":
                self.next()
                self.expect_punct("[")
                grade = self.expect_int()
                self.expect_punct("]")
                frames.append(["box", grade])
                continue
            if tok.kind == "punct" and tok.text == "*":
                self.next()
                term: TermExpr = Star()
            elif tok.kind == "ident" and tok.text not in _KEYWORDS:
                self.next()
                name = tok.text
                if self.at_punct("["):
                    # delay-style gate reference: name[qubit,int]
                    self.next()
                    q = self.expect_ident("qubit").text
                    self.expect_punct(",")
                    d = self.expect_int()
                    self.expect_punct("]")
                    name = f"{name}[{q},{d}]"
                    self.expect_punct("(")
                    frames.append(["args", name, []])
                    continue
                if self.at_punct("("):
                    self.next()
                    frames.append(["args", name, []])
                    continue
                term = Var(name)
            elif tok.kind == "punct" and tok.text == "(":
                self.next()
                frames.append(["paren"])
                continue
            else:
                raise self.fail(f"expected a term, found {tok.text or 'end of input'!r}")

            # Hand the finished term outward until a frame needs another one.
            while frames:
                frame = frames[-1]
                kind = frame[0]
                if kind == "args":
                    frame[2].append(term)
                    if self.at_punct(","):
                        self.next()
                        break
                    self.expect_punct(")")
                    term = GateApp(frame[1], tuple(frame[2]))
                elif kind == "box":
                    term = BoxIntro(frame[1], term)
                elif kind == "let":
                    self.expect_keyword("in")
                    frame[0] = "in"
                    frame.append(term)
                    break
                elif kind == "in":
                    term = frame[1](frame[2], term)
                elif kind == "paren":
                    if self.at_punct(","):
                        self.next()
                        frame[0] = "pair"
                        frame.append(term)
                        break
                    self.expect_punct(")")
                elif kind == "pair":
                    self.expect_punct(")")
                    term = Pair(frame[1], term)
                frames.pop()
            else:
                return term

    def parse_let_head(self) -> list:
        """``let ... =``; the frame's builder takes (scrutinee, body)."""
        self.expect_keyword("let")
        if self.at_punct("*"):
            self.next()
            self.expect_punct("=")
            return ["let", LetStar]
        if self.at_keyword("box"):
            self.next()
            self.expect_punct("[")
            grade = self.expect_int()
            self.expect_punct("]")
            x = self.expect_ident("binder").text
            self.expect_punct("=")
            return ["let", lambda s, b: LetBox(grade, x, s, b)]
        if self.at_punct("("):
            self.next()
            x = self.expect_ident("binder").text
            self.expect_punct(",")
            y = self.expect_ident("binder").text
            self.expect_punct(")")
            if x == y:
                raise self.fail(f"pair binders must be distinct, got {x!r} twice")
            self.expect_punct("=")
            return ["let", lambda s, b: LetPair(x, y, s, b)]
        raise self.fail("expected '*', '(x, y)' or 'box' after 'let'")

    # declarations ------------------------------------------------------

    def parse_context(self) -> Context:
        entries: list[CtxEntry] = []
        if self.at_punct(")"):
            return ()
        while True:
            name_tok = self.expect_ident("context variable")
            self.expect_punct(":")
            self.expect_punct("^")
            grade = self.expect_int()
            ty = self.parse_type()
            entries.append(CtxEntry(name_tok.text, grade, ty))
            if self.at_punct(","):
                self.next()
                continue
            break
        try:
            return make_context(entries)
        except ValueError as exc:
            raise self.fail(str(exc), name_tok) from exc

    def parse_file(self) -> SourceFile:
        decls: list[Declaration] = []
        names: set[str] = set()
        while self.peek().kind != "eof":
            kw = self.expect_keyword("schedule")
            name = self.expect_ident("schedule name").text
            if name in names:
                raise self.fail(f"duplicate declaration {name!r}", kw)
            names.add(name)
            self.expect_punct("(")
            ctx = self.parse_context()
            self.expect_punct(")")
            self.expect_punct(":")
            ty = self.parse_type()
            self.expect_punct("=")
            term = self.parse_term()
            decls.append(Declaration(name, ctx, ty, term, kw.line, kw.col))
        return SourceFile(tuple(decls))


def parse(text: str) -> SourceFile:
    """Parse a full source file; raises ParseError on the first bad token."""
    return _Parser(text).parse_file()


def parse_term(text: str) -> TermExpr:
    p = _Parser(text)
    term = p.parse_term()
    if p.peek().kind != "eof":
        raise p.fail(f"trailing input after term: {p.peek().text!r}")
    return term


def parse_type(text: str) -> TypeExpr:
    p = _Parser(text)
    ty = p.parse_type()
    if p.peek().kind != "eof":
        raise p.fail(f"trailing input after type: {p.peek().text!r}")
    return ty


# ---------------------------------------------------------------- printer


def print_type(ty: TypeExpr) -> str:
    out: list[str] = []
    stack: list[TypeExpr | str] = [ty]  # pending types and text, last first
    while stack:
        t = stack.pop()
        cls = type(t)
        if cls is str:
            out.append(t)
        elif cls is Unit:
            out.append("1")
        elif cls is Qubit:
            out.append(t.name)
        elif cls is Tensor:
            stack.append(t.right)
            stack.append(" * ")
            stack.extend((")", t.left, "(") if type(t.left) is Tensor else (t.left,))
        elif cls is Box:
            stack.extend((")", t.body, "(") if type(t.body) is Tensor else (t.body,))
            stack.append(f"[{t.grade}] ")
        else:
            raise TypeError(f"not a type: {t!r}")
    return "".join(out)


def _parts(t: TermExpr) -> tuple | list:
    """The text of ``t`` as strings and subterms, last first (stack order)."""
    cls = type(t)
    if cls is Star:
        return ("*",)
    if cls is GateApp:
        parts: list = [")"]
        for a in reversed(t.args[1:]):
            parts += (a, ", ")
        parts += t.args[:1]
        parts.append(t.gate + "(")
        return parts
    if cls is Pair:
        return (")", t.right, ", ", t.left, "(")
    if cls is BoxIntro:
        return (t.body, f"box[{t.grade}] ")
    if cls is LetStar:
        head = "let * = "
    elif cls is LetPair:
        head = f"let ({t.x}, {t.y}) = "
    elif cls is LetBox:
        head = f"let box[{t.grade}] {t.x} = "
    else:
        raise TypeError(f"not a term: {t!r}")
    if isinstance(t.scrutinee, LETS):
        return (t.body, ") in ", t.scrutinee, head + "(")
    return (t.body, " in ", t.scrutinee, head)


def print_term(t: TermExpr) -> str:
    out: list[str] = []
    stack: list = [t]
    while stack:
        item = stack.pop()
        cls = type(item)
        if cls is str:
            out.append(item)
        elif cls is Var:
            out.append(item.name)
        else:
            stack += _parts(item)
    return "".join(out)


def print_context(ctx: Context) -> str:
    return ", ".join(f"{e.name}:^{e.grade} {print_type(e.type)}" for e in ctx)


def print_judgement(j: Judgement) -> str:
    return f"({print_context(j.ctx)}) : {print_type(j.type)} = {print_term(j.term)}"


def print_declaration(d: Declaration) -> str:
    return f"schedule {d.name} {print_judgement(d.judgement)}"
