"""The regular-expression lexer against the character loop it replaced.

``reference_lex`` is that loop, kept here: it classifies characters with
``str.isalpha``/``isalnum``/``isdigit``.  ``_lex`` must give the same token
kinds, texts and ``line:col``, and the same ``ParseError`` text and position.
"""

import random

from pstt import print_context, print_term, print_type
from pstt.surface import Diagnostic, ParseError, _Parser
from pstt.testkit import GenConfig, gen_judgement

_PUNCT = "()[],:^=*"


def reference_lex(text):
    toks = []
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
            toks.append(("ident", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            toks.append(("punct", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(Diagnostic("error", f"unexpected character {ch!r}", line, col))
    toks.append(("eof", "", line, col))
    return toks


def outcome(lex, text):
    try:
        return lex(text)
    except ParseError as exc:
        return str(exc), exc.diagnostic.line, exc.diagnostic.column


# ``_lex`` gives token texts only: the parser tells a token's kind by its
# first character, and its position by the pieces cut before it.
def kind(token):
    if not token:
        return "eof"
    if token in _PUNCT:
        return "punct"
    return "int" if token[0] == "-" or token[0].isdigit() else "ident"


def lex_with_positions(text):
    p = _Parser(text)
    return [(kind(word), word, *p.line_col(k)) for k, word in enumerate(p.toks)]


def assert_same_tokens(text):
    assert outcome(lex_with_positions, text) == outcome(reference_lex, text), repr(text)


def test_corpus_lexes_as_before(corpus_path):
    text = corpus_path.read_text()
    assert_same_tokens(text)
    assert_same_tokens(text.rstrip("\n") + "  # no newline at the end")
    assert_same_tokens(text.replace("\n", "\r\n").replace("  ", "\t"))


def test_generated_sources_lex_as_before(chip0):
    cfg = GenConfig(chip=chip0, seed=11, max_depth=6)
    rng = random.Random(11)
    for i in range(200):
        j = gen_judgement(cfg, rng=rng)
        text = (
            f"# judgement {i}\nschedule s{i} ({print_context(j.ctx)}) :\n"
            f"  {print_type(j.type)} = {print_term(j.term)}  # done\n"
        )
        assert_same_tokens(text)


def test_bench_shaped_sources_lex_as_before():
    # Two-qubit chains of gates and delays joined by CX pair lets, with a box
    # re-timing, as a compile request has them.
    rng = random.Random(5)
    for _ in range(40):
        term = "(a, b)"
        for k in range(rng.randint(4, 12)):
            chains = []
            for q, v in (("q1", "a"), ("q2", "b")):
                chain = v
                for _ in range(10):
                    gate = rng.choice(["H1", "K1", f"delay[{q},{rng.randint(1, 40)}]"])
                    chain = f"{gate}({chain})"
                chains.append(chain)
            boxed = f"let box[{rng.randint(0, 90)}] r{k} = box[{rng.randint(0, 90)}] {chains[0]} in"
            term = f"{boxed} let (a, b) = CX(r{k}, {chains[1]}) in {term}"
        text = f"schedule d (a:^-{rng.randint(0, 999)} q1, b:^-400 q2) : [40] (q1 * q2) = box[40] {term}\n"
        assert_same_tokens(text)


def test_random_strings_lex_as_before():
    # Letters and digits beyond ASCII: "²" and "½" are digits or numerals
    # that are not decimal, "٣" is a decimal digit, "ǅ" a title-case letter.
    alphabet = list(" \t\r\n#-_()[],:^=*;.aZx019") + [
        "é", "ß", "ǅ", "一", "²", "½", "Ⅻ", "٣", "𝟙", "\xa0", " ", "→", "！",
    ]
    rng = random.Random(2024)
    for _ in range(20_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))
        assert_same_tokens(text)
