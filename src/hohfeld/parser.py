"""Operator-precedence parser for the formula language.

Grammar (whitespace-insensitive):

    formula := operand { BINARY operand }
    operand := "!" operand
             | "[" "pref" AG AG "]" operand | "<" "pref" AG AG ">" operand
             | "[" "act" ID ID "]" operand  | "<" "act" ID ID ">" operand
             | "U" operand | "E" operand
             | "do" AG operand
             | "O" AG AG "(" formula "/" formula ")"
             | "P" AG AG "(" formula "/" formula ")"
             | "true" | "false" | ATOM | "(" formula ")"

``BINARY`` is a connective of ``formula.INFIX``, whose binding powers and
grouping decide how a chain of them nests (``&`` binds tightest, then
``|``, ``->``, ``<->``; only ``->`` groups to the right); prefix operators
bind more tightly than all of them.  ``AG``/``ID``/``ATOM`` are identifier
tokens that are not reserved words.  Diamonds, ``E``, and ``P`` expand
into their negation-based definitions.
"""
from __future__ import annotations

import re
from functools import partial

from .errors import FormulaSyntaxError
from .formula import (
    BOT,
    INFIX,
    PREFIX_POWER,
    TOP,
    ActBox,
    Atom,
    CondObl,
    Does,
    Formula,
    Not,
    PrefBox,
    Univ,
    act_dia,
    exist,
    perm,
    pref_dia,
)

KEYWORDS = frozenset({"true", "false", "do", "pref", "act", "U", "E", "O", "P"})

# symbol -> (node class, least power of a frame it pops, power of its own frame)
_BINARY = {op: (kind, power + right, power) for kind, (op, power, right) in INFIX.items()}
_CONSTANT = {"true": TOP, "false": BOT}
_PREFIX = {"!": Not, "U": Univ, "E": exist}
_BOXES = {"[": ("]", PrefBox, ActBox), "<": (">", pref_dia, act_dia)}
_OBLIGATIONS = {"O": CondObl, "P": perm}

# one alternative per token kind; a character no other takes is "bad"
_TOKEN_RE = re.compile(
    r"(?P<op><->|->|[()\[\]<>!&|/])|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<space>\s+)|(?P<bad>.)",
    re.DOTALL,
)


def is_name(text: str) -> bool:
    """Does ``text`` read back as one name: an identifier token, not a keyword?"""
    match = _TOKEN_RE.fullmatch(text)
    return match is not None and match.lastgroup == "ident" and text not in KEYWORDS


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, column) per token, "op", "ident" or "end"."""
    tokens = []
    line = 1
    line_start = 0
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "space":
            lexeme = match.group()
            newlines = lexeme.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + lexeme.rindex("\n") + 1
        elif kind == "bad":
            raise FormulaSyntaxError(
                f"unexpected character {match.group()!r}", line, match.start() - line_start + 1
            )
        else:
            tokens.append((kind, match.group(), line, match.start() - line_start + 1))
    tokens.append(("end", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def fail(self, expected: set[str]) -> FormulaSyntaxError:
        kind, text, line, column = self.tokens[self.index]
        what = "end of input" if kind == "end" else repr(text)
        return FormulaSyntaxError(f"unexpected {what}", line, column, frozenset(expected))

    def expect_op(self, text: str) -> None:
        kind, found = self.tokens[self.index][:2]
        if kind != "op" or found != text:
            raise self.fail({f"'{text}'"})
        self.index += 1

    def expect_keyword(self, *words: str) -> str:
        kind, text = self.tokens[self.index][:2]
        if kind != "ident" or text not in words:
            raise self.fail({f"'{w}'" for w in words})
        self.index += 1
        return text

    def expect_name(self, role: str) -> str:
        kind, text = self.tokens[self.index][:2]
        if kind != "ident" or text in KEYWORDS:
            raise self.fail({role})
        self.index += 1
        return text

    # grammar ---------------------------------------------------------------

    def formula(self) -> Formula:
        """One formula, left to right.  What still waits for its last operand
        is a frame on one stack: (binding power, constructor of that operand,
        closing token).  Prefix operators and connectives have no closing
        token; brackets have power 0, so only their closing token pops them."""
        stack: list[tuple] = []
        while True:
            out = self.operand(stack)
            while True:
                binary = _BINARY.get(self.tokens[self.index][1])
                # a connective first completes each frame that binds at least as
                # tightly (strictly more for one that groups right); any other
                # token completes every frame above the innermost bracket
                least = 1 if binary is None else binary[1]
                while stack and stack[-1][0] >= least:
                    out = stack.pop()[1](out)
                if binary is not None:
                    self.index += 1
                    stack.append((binary[2], partial(binary[0], out), None))
                    break
                if not stack:
                    return out
                _, build, closer = stack.pop()
                self.expect_op(closer)
                if closer == "/":  # the consequent is done; read the condition
                    stack.append((0, partial(build, out), ")"))
                    break
                if build is not None:
                    out = build(out)

    def operand(self, stack: list) -> Formula:
        """Push the prefix operators and opening brackets in front of an
        operand onto ``stack``; return the atom or constant that ends it."""
        while True:
            tok = self.tokens[self.index]
            text = tok[1]
            self.index += 1
            if tok[0] == "ident" and text not in KEYWORDS:
                return Atom(text)
            if text in _CONSTANT:
                return _CONSTANT[text]
            if text in _PREFIX:
                stack.append((PREFIX_POWER, _PREFIX[text], None))
            elif text == "do":
                stack.append((PREFIX_POWER, partial(Does, self.expect_name("agent name")), None))
            elif text in _BOXES:
                closer, on_pref, on_act = _BOXES[text]
                if self.expect_keyword("pref", "act") == "pref":
                    build = partial(on_pref, self.expect_name("agent name"),
                                    self.expect_name("agent name"))
                else:
                    build = partial(on_act, self.expect_name("action-model name"),
                                    self.expect_name("action name"))
                self.expect_op(closer)
                stack.append((PREFIX_POWER, build, None))
            elif text == "(":
                stack.append((0, None, ")"))
            elif text in _OBLIGATIONS:
                i = self.expect_name("agent name")
                j = self.expect_name("agent name")
                self.expect_op("(")
                stack.append((0, partial(_OBLIGATIONS[text], i, j), "/"))
            else:
                self.index -= 1  # the error names the token itself
                raise self.fail({"formula"})


def parse(text: str) -> Formula:
    """Parse concrete syntax into a Formula; raise FormulaSyntaxError otherwise."""
    parser = _Parser(text)
    out = parser.formula()
    if parser.tokens[parser.index][0] != "end":
        raise parser.fail({"end of input"})
    return out
