"""The flat-token parser against the token-tuple parser it replaced.

``RefParser`` is that parser, kept here with its lexer: a ``finditer`` loop
that built one ``(kind, text, offset)`` tuple per token, read through
``peek``/``next``/``expect_*`` calls.  ``parse``, ``parse_term`` and
``parse_type`` must give the same results, declaration positions included,
and the same ``ParseError`` text, line and column.
"""

from __future__ import annotations

import random
import re

from pstt import parse, parse_term, parse_type, print_context, print_term, print_type
from pstt.surface import (
    Declaration,
    Diagnostic,
    ParseError,
    SourceFile,
    _Parser,
    _line_col,
    _line_starts,
)
from pstt.syntax import (
    Box,
    BoxIntro,
    Context,
    CtxEntry,
    GateApp,
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
    binders,
    children,
    make_context,
)
from pstt.testkit import GenConfig, gen_judgement
from test_traversal import chain_source, units_source

_KEYWORDS = {"schedule", "let", "in", "box"}
TERMS = (Var, Star, LetStar, GateApp, Pair, LetPair, BoxIntro, LetBox)

# -------------------------------------------------------------- reference


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


def ref_lex(text: str) -> list[_Token]:
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


class RefParser:
    def __init__(self, text: str):
        self.text = text
        self.toks = ref_lex(text)
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


def ref_parse(text: str) -> SourceFile:
    """Parse a full source file; raises ParseError on the first bad token."""
    return RefParser(text).parse_file()


def ref_parse_term(text: str) -> TermExpr:
    p = RefParser(text)
    term = p.parse_term()
    if p.peek()[0] != "eof":
        raise p.fail(f"trailing input after term: {p.peek()[1]!r}")
    return term


def ref_parse_type(text: str) -> TypeExpr:
    p = RefParser(text)
    ty = p.parse_type()
    if p.peek()[0] != "eof":
        raise p.fail(f"trailing input after type: {p.peek()[1]!r}")
    return ty


# ------------------------------------------------------------- comparison


def shape(t: TermExpr) -> list[tuple]:
    """Each node's constructor, data and arity in preorder, read without recursion."""
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        kids = children(node)
        data = tuple(getattr(node, f, None) for f in ("name", "gate", "grade"))
        out.append((type(node), data, binders(node), len(kids)))
        stack.extend(reversed(kids))
    return out


def comparable(result):
    """A parse result in a form that ``==`` compares without recursion."""
    if type(result) is SourceFile:
        return [(d.name, d.ctx, d.type, d.line, d.column, shape(d.term)) for d in result.declarations]
    if isinstance(result, TERMS):
        return shape(result)
    return result


def outcome(f, text):
    """``f(text)``, or the type, text and diagnostic of the error it raises.

    An int token that ``int`` rejects (``²``) raises a plain ``ValueError``
    in the reference parser only.
    """
    try:
        return comparable(f(text))
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "diagnostic", None)


def assert_same_file(text):
    new, ref = outcome(parse, text), outcome(ref_parse, text)
    assert new == ref, repr(text)
    return ref


def assert_same_term_and_type(term_text, type_text):
    assert outcome(parse_term, term_text) == outcome(ref_parse_term, term_text), term_text
    assert outcome(parse_type, type_text) == outcome(ref_parse_type, type_text), type_text


def generated_sources(chip, seed, count):
    cfg = GenConfig(chip=chip, seed=seed, max_depth=6)
    rng = random.Random(seed)
    for i in range(count):
        j = gen_judgement(cfg, rng=rng)
        yield j, (
            f"# judgement {i}\nschedule s{i} ({print_context(j.ctx)}) :\n"
            f"  {print_type(j.type)} = {print_term(j.term)}  # done\n"
        )


def deep_shaped(rng):
    """Two-qubit chains of gates and delays joined by CX pair lets, with a box re-timing."""
    term = "(a, b)"
    for k in range(rng.randint(4, 12)):
        chains = []
        for q, v in (("q1", "a"), ("q2", "b")):
            chain = v
            for _ in range(10):
                gate = rng.choice(["H1", "K1", f"delay[{q},{rng.randint(1, 40)}]"])
                chain = f"{gate}({chain})"
            chains.append(chain)
        boxed = f"let box[{rng.randint(-90, 90)}] r{k} = box[{rng.randint(-90, 90)}] {chains[0]} in"
        term = f"{boxed} let (a, b) = CX(r{k}, {chains[1]}) in {term}"
    return f"schedule d (a:^-{rng.randint(0, 999)} q1, b:^-400 q2) : [40] (q1 * q2) = box[40] {term}\n"


def wide_shaped(rng):
    """One layer of single-qubit gates under unit lets, the context shuffled."""
    qubits = rng.sample(range(16), rng.randint(4, 12))
    units = [f"u{i}:^{rng.randint(-60, 60)} 1" for i in range(rng.randint(0, 3))]
    ctx = [f"x{q}:^-{rng.randint(10, 40)} q{q}" for q in qubits] + units
    rng.shuffle(ctx)
    term = f"X{qubits[-1]}(x{qubits[-1]})"
    for q in reversed(qubits[:-1]):
        term = f"(X{q}(x{q}), {term})"
    for i in range(len(units)):
        term = f"let * = u{i} in {term}"
    ty = " * ".join(f"q{q}" for q in qubits)
    return f"schedule wide ({', '.join(ctx)}) : {ty} = {term}\n"


def equiv_shaped(rng):
    """Two declarations: one core under a unit-let spine in two orders."""
    n = rng.randint(4, 20)
    ctx = ", ".join([f"x:^-40 q1"] + [f"u{i:02}:^{rng.randint(-60, 60)} 1" for i in range(n)])
    spines = [[f"let * = u{i:02} in " for i in range(n)]]
    spines.append(spines[0][::-1])
    return "".join(
        f"schedule side{k} ({ctx}) : q1 = {''.join(spine)}H1(K1(x))\n" for k, spine in enumerate(spines)
    )


# ------------------------------------------------------------------ tests


def test_corpus_parses_as_before(corpus_path):
    text = corpus_path.read_text()
    assert assert_same_file(text)
    assert_same_file(text.rstrip("\n") + "  # a comment at the end of the file")
    assert_same_file(text + "# a comment on the last line")
    assert_same_file(text.replace("\n", "\r\n").replace(" ", "\t"))
    assert_same_file(text.replace("\n", "\r\n").replace("  ", "\t") + "\r\n\t# end\r\n\t")


def test_generated_sources_parse_as_before(chip0):
    texts = []
    for j, text in generated_sources(chip0, 11, 200):
        assert assert_same_file(text)
        assert_same_term_and_type(print_term(j.term), print_type(j.type))
        texts.append(text)
    assert len(assert_same_file("".join(texts))) == 200


def test_bench_shaped_sources_parse_as_before():
    rng = random.Random(5)
    for _ in range(30):
        for shaped in (deep_shaped, wide_shaped, equiv_shaped):
            assert assert_same_file(shaped(rng))


def test_long_sources_parse_as_before():
    assert_same_file(chain_source(10_000))
    assert_same_file(units_source(2_000))


def ref_tokens(text):
    """``(start, end)`` of each token of ``text``, by the reference lexer."""
    return [(at, at + len(word)) for kind, word, at in ref_lex(text) if kind != "eof"]


def test_single_token_mutations_fail_as_before(corpus_path):
    # Each declaration alone, then the whole corpus, so that errors fall on
    # the first line and on later ones.
    text = corpus_path.read_text()
    sources = [line + "\n" for line in text.splitlines() if line.startswith("schedule")]
    sources.append(text)
    errors = set()
    for source in sources:
        for start, end in ref_tokens(source):
            word = source[start:end]
            for mutant in (
                source[:start] + source[end:],  # deleted
                source[:start] + word + " " + source[start:],  # duplicated
                source[:start],  # truncated before it
                source[:end],  # truncated after it
            ):
                result = assert_same_file(mutant)
                if type(result) is tuple:
                    errors.add(result[1].split(": ", 2)[-1].split(",")[0])
    assert len(errors) >= 10, errors


EDGE_CASES = [
    "",
    "# only a comment",
    "\n\n  # a comment on the third line",
    "schedule é (ǅ:^0 q1) : q1 = ǅ\n",  # non-ASCII identifiers
    "schedule s (x:^0 q1) : q1 = 一(x)\n",
    "schedule s (x:^12٣ q1) : q1 = x\n",  # a non-ASCII decimal digit in an int
    "schedule s (x:^-٣ q1) : q1 = x\n",
    "schedule s (x:^12é q1) : q1 = x\n",
    "schedule s (x:^0 q1) : q1 = x  # →\nschedule t () : 1 = * # ½",
    "schedule s (x:^0 q1) : q1 = x →\n",
    "schedule s (x:^0\xa0q1) : q1 = x\n",
    "schedule s (x:^0 q1) : q1 = x;\n",
    "schedule s (x:^- 0 q1) : q1 = x\n",
    "schedule s (x:^--1 q1) : q1 = x\n",
    "schedule s (x:^0 q1) : q1 = let (x, x) = p in (x, x)\n",
    "schedule s (x:^0 q1) : q1 = x\nschedule s (y:^0 q1) : q1 = y\n",  # duplicate declaration
    "schedule s (x:^0 q1, x:^1 q2) : q1 = x\n",  # duplicate context name
    "schedule s (x:^0 q1, y:^1 q2, x:^1 q2) : q1 = x\n",
    "schedule s (x:^0 q1) : q1 = x # ends in a comment",
    "schedule s (x:^0 q1) : q1 = let # a comment where a term should be",
    "schedule s (x:^0 q1) : q1 =\n# a comment, then the end of input",
    "schedule s (x:^0 q1) : q1 =\n# a comment, then blanks\n  ",
    "schedule\ts\t(x:^0\tq1)\t:\tq1\t=\tH1(x)\r\nschedule t () : 1 =\r\n",
    "schedule s (x:^0 q1) : -1 = x\n",
    "schedule s (x:^0 q1) : 2 = x\n",
    "schedule s (x:^0 q1) : q1 = delay[q1,007](x)\n",
    "schedule s (x:^0 q1) : q1 = delay[in,7](x)\n",
    "schedule s (x:^0 q1) : q1 = let box[1] in = x in in\n",
    "schedule s (x:^0 q1) : q1 = let y = x in y\n",
    "schedule s (x:^0 q1) : ((q1 * [3] ([2] 1))) = x\n",
    "schedule s (x:^0 q1) : q1 = ((x, (y, *)), box[-2] z)\n",
    "schedule s (x:^0 q1) : q1 = x\n)",
    "schedule s (x:^0 q1) : q1 = x\nschedule",
    "schedule s (x:^0 q1) : q1 = x\nschedule schedule",
]


def test_edge_cases_parse_or_fail_as_before():
    for text in EDGE_CASES:
        assert_same_file(text)
        # Every prefix, for errors at each point of a declaration.
        for cut in range(len(text)):
            assert_same_file(text[:cut])


def test_a_digit_that_is_not_decimal_is_a_parse_error():
    # The one input on which the parsers differ: the reference lets ``int``
    # raise a plain ``ValueError``.
    for text, line, col in (
        ("schedule s (x:^² q1) : q1 = x\n", 1, 16),
        ("schedule s (x:^0 q1) : q1 = x\nschedule t (x:^0 q1) : [0] q1 = box[²] x\n", 2, 37),
    ):
        for cut in range(text.index("²") + 1, len(text) + 1):
            assert outcome(ref_parse, text[:cut])[0] is ValueError
            message = "expected integer, found '²'"
            diagnostic = Diagnostic("error", message, line, col)
            assert outcome(parse, text[:cut]) == (ParseError, f"{line}:{col}: error: {message}", diagnostic)


def test_terms_and_types_alone_parse_or_fail_as_before():
    for term in ("x", "*", "H1(x) y", "(x, y", "let * = u in", "box[3] box[-4] x", "", "# c", "in"):
        for ty in ("q1", "1", "[3] q1 * 1", "q1 q2", "(q1", "", "2", "[x] q1"):
            assert_same_term_and_type(term, ty)


def test_positions_do_not_depend_on_the_order_they_are_asked_in(corpus_path):
    text = corpus_path.read_text()
    p = _Parser(text)
    forward = [p.line_col(k) for k in range(len(p.toks))]
    assert [p.line_col(k) for k in reversed(range(len(p.toks)))] == forward[::-1]
    starts = _line_starts(text)
    assert forward == [_line_col(starts, at) for _, _, at in ref_lex(text)]
