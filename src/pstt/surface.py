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

import re
from bisect import bisect_right
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


# A token is ``(kind, text, offset)``; ``kind`` is ident, int, punct or
# eof, and ``offset`` is the index in the source of its first character.
_Token = tuple[str, str, int]

# Whitespace and comments, then one token.  An ASCII int or identifier is
# matched outright unless non-ASCII text follows it.  Any other run of
# letters, digits and underscores, after an optional ``-``, goes to
# ``_lex_word``: ``\w`` is exactly ``str.isalnum`` or ``_``, but ``\d`` and
# ``[^\W\d]`` are not ``str.isdigit`` and ``str.isalpha`` beyond ASCII.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]|#[^\n]*)*"
    r"(?:(-?[0-9]+)(?![0-9]|[^\x00-\x7f])"
    r"|([A-Za-z_][A-Za-z0-9_]*)(?![A-Za-z0-9_]|[^\x00-\x7f])"
    r"|([()\[\],:^=*])"
    r"|(-?\w+)"
    r"|(.)"
    r"|\Z)"
)
_KINDS = (None, "int", "ident", "punct")


def _lex(text: str) -> list[_Token]:
    toks: list[_Token] = []
    for m in _TOKEN.finditer(text):
        k = m.lastindex
        if k is None:
            break
        if k < 4:
            toks.append((_KINDS[k], m.group(k), m.start(k)))
        elif k == 4:
            toks += _lex_word(text, m.start(4), m.end(4))
        else:
            raise _unexpected(text, m.start(5))
    # The end of input sits after the last token, or on a comment that ends the text.
    last_line = max(text.rfind("\n", m.start()) + 1, m.start())
    comment = text.find("#", last_line)
    toks.append(("eof", "", len(text) if comment < 0 else comment))
    return toks


def _lex_word(text: str, i: int, end: int) -> list[_Token]:
    """Tokens of ``text[i:end]``, a run of letters, digits and underscores
    after an optional ``-``, classified by ``str.isalpha``/``isdigit``."""
    toks: list[_Token] = []
    while i < end:
        ch = text[i]
        if ch.isalpha() or ch == "_":
            toks.append(("ident", text[i:end], i))
            break
        if not (ch.isdigit() or (ch == "-" and i + 1 < end and text[i + 1].isdigit())):
            raise _unexpected(text, i)
        j = i + 1
        while j < end and text[j].isdigit():
            j += 1
        toks.append(("int", text[i:j], i))
        i = j
    return toks


def _unexpected(text: str, i: int) -> ParseError:
    line, col = _line_col(_line_starts(text), i)
    return ParseError(Diagnostic("error", f"unexpected character {text[i]!r}", line, col))


def _line_starts(text: str) -> list[int]:
    return [0, *(m.end() for m in re.finditer("\n", text))]


def _line_col(starts: list[int], offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset``, given the offsets where lines start."""
    line = bisect_right(starts, offset)
    return line, offset - starts[line - 1] + 1


# ----------------------------------------------------------------- parser


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _lex(text)
        self.pos = 0
        self._starts: list[int] | None = None

    def line_col(self, tok: _Token) -> tuple[int, int]:
        if self._starts is None:
            self._starts = _line_starts(self.text)
        return _line_col(self._starts, tok[2])

    def peek(self) -> _Token:
        return self.toks[self.pos]  # ``next`` never moves past the eof token

    def next(self) -> _Token:
        tok = self.toks[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None) -> ParseError:
        line, col = self.line_col(tok or self.peek())
        return ParseError(Diagnostic("error", message, line, col))

    def expect_punct(self, ch: str) -> _Token:
        kind, text, _ = self.peek()
        if kind == "punct" and text == ch:
            return self.next()
        raise self.fail(f"expected {ch!r}, found {text or 'end of input'!r}")

    def expect_keyword(self, word: str) -> _Token:
        kind, text, _ = self.peek()
        if kind == "ident" and text == word:
            return self.next()
        raise self.fail(f"expected {word!r}, found {text or 'end of input'!r}")

    def expect_ident(self, what: str = "identifier") -> str:
        kind, text, _ = self.peek()
        if kind == "ident" and text not in _KEYWORDS:
            self.next()
            return text
        raise self.fail(f"expected {what}, found {text or 'end of input'!r}")

    def expect_int(self) -> int:
        kind, text, _ = self.peek()
        if kind == "int":
            self.next()
            return int(text)
        raise self.fail(f"expected integer, found {text or 'end of input'!r}")

    def at_punct(self, ch: str) -> bool:
        kind, text, _ = self.peek()
        return kind == "punct" and text == ch

    def at_keyword(self, word: str) -> bool:
        kind, text, _ = self.peek()
        return kind == "ident" and text == word

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
            kind, text, _ = self.peek()
            if kind == "punct" and text == "[":
                self.next()
                grade = self.expect_int()
                self.expect_punct("]")
                frames.append(("box", grade))
                continue
            if kind == "punct" and text == "(":
                self.next()
                frames.append(("paren", None))
                continue
            if kind == "int":
                if text != "1":
                    raise self.fail(f"the only numeric type is 1, found {text!r}")
                self.next()
                ty: TypeExpr = Unit()
            elif kind == "ident" and text not in _KEYWORDS:
                self.next()
                ty = Qubit(text)
            else:
                raise self.fail(f"expected a type, found {text or 'end of input'!r}")

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
            kind, text, _ = self.peek()
            if kind == "ident" and text == "let":
                frames.append(self.parse_let_head())
                continue
            if kind == "ident" and text == "box":
                self.next()
                self.expect_punct("[")
                grade = self.expect_int()
                self.expect_punct("]")
                frames.append(["box", grade])
                continue
            if kind == "punct" and text == "*":
                self.next()
                term: TermExpr = Star()
            elif kind == "ident" and text not in _KEYWORDS:
                self.next()
                name = text
                if self.at_punct("["):
                    # delay-style gate reference: name[qubit,int]
                    self.next()
                    q = self.expect_ident("qubit")
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
            elif kind == "punct" and text == "(":
                self.next()
                frames.append(["paren"])
                continue
            else:
                raise self.fail(f"expected a term, found {text or 'end of input'!r}")

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
            x = self.expect_ident("binder")
            self.expect_punct("=")
            return ["let", lambda s, b: LetBox(grade, x, s, b)]
        if self.at_punct("("):
            self.next()
            x = self.expect_ident("binder")
            self.expect_punct(",")
            y = self.expect_ident("binder")
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
            name_tok = self.peek()
            name = self.expect_ident("context variable")
            self.expect_punct(":")
            self.expect_punct("^")
            grade = self.expect_int()
            ty = self.parse_type()
            entries.append(CtxEntry(name, grade, ty))
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
        while self.peek()[0] != "eof":
            kw = self.expect_keyword("schedule")
            name = self.expect_ident("schedule name")
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
            decls.append(Declaration(name, ctx, ty, term, *self.line_col(kw)))
        return SourceFile(tuple(decls))


def parse(text: str) -> SourceFile:
    """Parse a full source file; raises ParseError on the first bad token."""
    return _Parser(text).parse_file()


def parse_term(text: str) -> TermExpr:
    p = _Parser(text)
    term = p.parse_term()
    if p.peek()[0] != "eof":
        raise p.fail(f"trailing input after term: {p.peek()[1]!r}")
    return term


def parse_type(text: str) -> TypeExpr:
    p = _Parser(text)
    ty = p.parse_type()
    if p.peek()[0] != "eof":
        raise p.fail(f"trailing input after type: {p.peek()[1]!r}")
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
