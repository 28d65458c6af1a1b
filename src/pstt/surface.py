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

The lexer cuts a text into a flat list of token texts with one
``re.split``.  The parser indexes that list, tells a token's kind by its
first character, and works out a position only where it reports one.
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


# Comments are blanked out first, which keeps every offset.  ASCII text of
# blanks and tokens, with ``-`` only before a digit (``_PLAIN``), is then cut
# by ``_SPLIT`` alone.  Other text is cut into punctuation, runs of ``\w``
# after an optional ``-``, and single other characters, and ``_lex_word``
# splits each run: ``\w`` is exactly ``str.isalnum`` or ``_``, but ``\d`` and
# ``[^\W\d]`` are not ``str.isdigit`` and ``str.isalpha`` beyond ASCII.
_PUNCT = frozenset("()[],:^=*")
_SPLIT = re.compile(r"([()\[\],:^=*]|[A-Za-z_][A-Za-z0-9_]*|-?[0-9]+)")
_PLAIN = re.compile(r"[\t\n\r 0-9A-Z_a-z()\[\],:^=*]*(?:-[0-9][\t\n\r 0-9A-Z_a-z()\[\],:^=*]*)*")
_WORDS = re.compile(r"([()\[\],:^=*]|-?\w+|[^ \t\r\n])")
_COMMENT = re.compile(r"#[^\n]*")


def _lex(text: str) -> list[str]:
    """``text`` cut into pieces, blanks and tokens in turn, that join up to
    ``text`` with its comments blanked out: a token's offset is the summed
    length of the pieces before it."""
    if "#" in text:
        text = _COMMENT.sub(lambda m: " " * len(m[0]), text)
    if _PLAIN.fullmatch(text):
        return _SPLIT.split(text)
    out: list[str] = []
    at = 0
    for k, piece in enumerate(_WORDS.split(text)):
        out += _lex_word(text, at, at + len(piece)) if k % 2 and piece not in _PUNCT else [piece]
        at += len(piece)
    return out


def _lex_word(text: str, i: int, end: int) -> list[str]:
    """Tokens of ``text[i:end]`` with empty blanks between them: ``text[i:end]`` is
    a run of letters, digits and underscores after an optional ``-``, split by
    ``str.isalpha``/``isdigit``."""
    pieces: list[str] = []
    while i < end:
        ch = text[i]
        if ch.isalpha() or ch == "_":
            pieces += ("", text[i:end])
            break
        if not (ch.isdigit() or (ch == "-" and i + 1 < end and text[i + 1].isdigit())):
            raise _unexpected(text, i)
        j = i + 1
        while j < end and text[j].isdigit():
            j += 1
        pieces += ("", text[i:j])
        i = j
    return pieces[1:]


def _is_int(token: str) -> bool:
    return token[:1] == "-" or token[:1].isdigit()


def _is_name(token: str) -> bool:
    """An identifier that is not a keyword."""
    return (token[:1].isalpha() or token[:1] == "_") and token not in _KEYWORDS


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
    """Parses ``toks``, the token texts, from ``toks[self.i]`` on.  A final
    ``""`` stands for the end of input, which no token test accepts."""

    def __init__(self, text: str):
        self.text = text
        self.pieces = _lex(text)
        self.toks = self.pieces[1::2] + [""]
        self.i = 0
        self._starts: list[int] | None = None
        self._summed = (0, 0)  # (pieces, their length): where ``offset`` last stopped

    def offset(self, k: int) -> int:
        """Where token ``k`` starts in the text."""
        pieces, text = self.pieces, self.text
        if k == len(self.toks) - 1:
            # The end of input sits after the last token, or on a comment that ends the text.
            end = len(text) - len(pieces[-1])
            comment = text.find("#", max(text.rfind("\n", end) + 1, end))
            return len(text) if comment < 0 else comment
        n, at = self._summed
        if 2 * k + 1 < n:
            n, at = 0, 0
        at += sum(map(len, pieces[n : 2 * k + 1]))
        self._summed = (2 * k + 1, at)
        return at

    def line_col(self, k: int) -> tuple[int, int]:
        if self._starts is None:
            self._starts = _line_starts(self.text)
        return _line_col(self._starts, self.offset(k))

    def fail(self, message: str, k: int | None = None) -> ParseError:
        line, col = self.line_col(self.i if k is None else k)
        return ParseError(Diagnostic("error", message, line, col))

    def expected(self, what: str) -> ParseError:
        return self.fail(f"expected {what}, found {self.toks[self.i] or 'end of input'!r}")

    def expect(self, token: str) -> None:
        """Step over ``token``, a punctuation character or a keyword."""
        if self.toks[self.i] != token:
            raise self.expected(repr(token))
        self.i += 1

    def name(self, what: str) -> str:
        token = self.toks[self.i]
        if not _is_name(token):
            raise self.expected(what)
        self.i += 1
        return token

    def integer(self) -> int:
        token = self.toks[self.i]
        if not token.removeprefix("-").isdecimal():  # ``int`` takes no other digit
            raise self.expected("integer")
        self.i += 1
        return int(token)

    def bracketed_int(self) -> int:
        self.expect("[")
        d = self.integer()
        self.expect("]")
        return d

    # types ------------------------------------------------------------

    def parse_type(self) -> TypeExpr:
        """A type, parsed with an explicit stack of unfinished constructs.

        ``*`` nests to the right and ``[d]`` binds tighter than ``*``.  Each
        frame is a box prefix, a tensor waiting for its right side or an
        open parenthesis.
        """
        toks = self.toks
        frames: list[tuple[str, object]] = []
        while True:
            # Read box prefixes and parentheses until an atom completes a type.
            token = toks[self.i]
            if token == "[":
                frames.append(("box", self.bracketed_int()))
                continue
            if token == "(":
                self.i += 1
                frames.append(("paren", None))
                continue
            if _is_int(token):
                if token != "1":
                    raise self.fail(f"the only numeric type is 1, found {token!r}")
                ty: TypeExpr = Unit()
            elif _is_name(token):
                ty = Qubit(token)
            else:
                raise self.expected("a type")
            self.i += 1

            # Hand the finished type outward until a frame needs another one.
            while True:
                while frames and frames[-1][0] == "box":
                    ty = Box(frames.pop()[1], ty)
                if toks[self.i] == "*":
                    self.i += 1
                    frames.append(("tensor", ty))
                    break
                while frames and frames[-1][0] == "tensor":
                    ty = Tensor(frames.pop()[1], ty)
                if not frames:
                    return ty
                self.expect(")")
                frames.pop()  # the parenthesis; boxes before it apply next

    # terms ------------------------------------------------------------

    def parse_term(self) -> TermExpr:
        """A term, parsed with an explicit stack of unfinished constructs.

        Each frame is an unfinished prefix (``box[d]``, a let before or
        after ``in``), a gate's argument list or an open parenthesis; a
        finished term is handed to the innermost frame.
        """
        toks = self.toks
        frames: list[list] = []
        while True:
            # Read prefixes until an atom completes a term.
            token = toks[self.i]
            if token == "let":
                self.i += 1
                frames.append(self.parse_let_head())
                continue
            if token == "box":
                self.i += 1
                frames.append(["box", self.bracketed_int()])
                continue
            if token == "(":
                self.i += 1
                frames.append(["paren"])
                continue
            if token == "*":
                self.i += 1
                term: TermExpr = Star()
            elif _is_name(token):
                self.i += 1
                if toks[self.i] == "(":
                    self.i += 1
                    frames.append(["args", token, []])
                    continue
                if toks[self.i] == "[":
                    # delay-style gate reference: name[qubit,int]
                    self.i += 1
                    q = self.name("qubit")
                    self.expect(",")
                    d = self.integer()
                    self.expect("]")
                    self.expect("(")
                    frames.append(["args", f"{token}[{q},{d}]", []])
                    continue
                term = Var(token)
            else:
                raise self.expected("a term")

            # Hand the finished term outward until a frame needs another one.
            while frames:
                frame = frames[-1]
                kind = frame[0]
                if kind == "args":
                    frame[2].append(term)
                    if toks[self.i] == ",":
                        self.i += 1
                        break
                    self.expect(")")
                    term = GateApp(frame[1], tuple(frame[2]))
                elif kind == "box":
                    term = BoxIntro(frame[1], term)
                elif kind == "let":
                    self.expect("in")
                    frame[0] = "in"
                    frame.append(term)
                    break
                elif kind == "in":
                    term = frame[1](frame[2], term)
                elif kind == "paren":
                    if toks[self.i] == ",":
                        self.i += 1
                        frame[0] = "pair"
                        frame.append(term)
                        break
                    self.expect(")")
                elif kind == "pair":
                    self.expect(")")
                    term = Pair(frame[1], term)
                frames.pop()
            else:
                return term

    def parse_let_head(self) -> list:
        """What follows ``let`` up to ``=``; the frame's builder takes (scrutinee, body)."""
        token = self.toks[self.i]
        if token == "*":
            self.i += 1
            self.expect("=")
            return ["let", LetStar]
        if token == "box":
            self.i += 1
            grade = self.bracketed_int()
            x = self.name("binder")
            self.expect("=")
            return ["let", lambda s, b: LetBox(grade, x, s, b)]
        if token == "(":
            self.i += 1
            x = self.name("binder")
            self.expect(",")
            y = self.name("binder")
            self.expect(")")
            if x == y:
                raise self.fail(f"pair binders must be distinct, got {x!r} twice")
            self.expect("=")
            return ["let", lambda s, b: LetPair(x, y, s, b)]
        raise self.fail("expected '*', '(x, y)' or 'box' after 'let'")

    # declarations ------------------------------------------------------

    def parse_context(self) -> Context:
        entries: list[CtxEntry] = []
        if self.toks[self.i] == ")":
            return ()
        while True:
            name_at = self.i
            name = self.name("context variable")
            self.expect(":")
            self.expect("^")
            grade = self.integer()
            entries.append(CtxEntry(name, grade, self.parse_type()))
            if self.toks[self.i] != ",":
                break
            self.i += 1
        try:
            return make_context(entries)
        except ValueError as exc:
            raise self.fail(str(exc), name_at) from exc

    def parse_file(self) -> SourceFile:
        decls: list[Declaration] = []
        names: set[str] = set()
        while self.toks[self.i]:
            kw = self.i
            self.expect("schedule")
            name = self.name("schedule name")
            if name in names:
                raise self.fail(f"duplicate declaration {name!r}", kw)
            names.add(name)
            self.expect("(")
            ctx = self.parse_context()
            self.expect(")")
            self.expect(":")
            ty = self.parse_type()
            self.expect("=")
            term = self.parse_term()
            decls.append(Declaration(name, ctx, ty, term, *self.line_col(kw)))
        return SourceFile(tuple(decls))

    def parse_all(self, what: str):
        """A term or a type that takes up the whole text."""
        result = self.parse_term() if what == "term" else self.parse_type()
        if self.toks[self.i]:
            raise self.fail(f"trailing input after {what}: {self.toks[self.i]!r}")
        return result


def parse(text: str) -> SourceFile:
    """Parse a full source file; raises ParseError on the first bad token."""
    return _Parser(text).parse_file()


def parse_term(text: str) -> TermExpr:
    return _Parser(text).parse_all("term")


def parse_type(text: str) -> TypeExpr:
    return _Parser(text).parse_all("type")


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


def term_parts(t: TermExpr) -> tuple | list:
    """The one printing table, read by ``print_term`` and ``equality._spine_keys``:
    the text of ``t`` as strings and subterms, last first (stack order)."""
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
            stack += term_parts(item)
    return "".join(out)


def print_context(ctx: Context) -> str:
    return ", ".join(f"{e.name}:^{e.grade} {print_type(e.type)}" for e in ctx)


def print_judgement(j: Judgement) -> str:
    return f"({print_context(j.ctx)}) : {print_type(j.type)} = {print_term(j.term)}"


def print_declaration(d: Declaration) -> str:
    return f"schedule {d.name} {print_judgement(d.judgement)}"
