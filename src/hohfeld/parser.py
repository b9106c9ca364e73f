"""Recursive-descent parser for the formula language.

Grammar (whitespace-insensitive; binding tightens downward, ``->`` is
right-associative, ``&``/``|``/``<->`` associate left):

    formula := iff
    iff     := imp { "<->" imp }
    imp     := or [ "->" imp ]
    or      := and { "|" and }
    and     := unary { "&" unary }
    unary   := "!" unary
             | "[" "pref" AG AG "]" unary | "<" "pref" AG AG ">" unary
             | "[" "act" ID ID "]" unary  | "<" "act" ID ID ">" unary
             | "U" unary | "E" unary
             | "do" AG unary
             | "O" AG AG "(" formula "/" formula ")"
             | "P" AG AG "(" formula "/" formula ")"
             | "true" | "false" | ATOM | "(" formula ")"

``AG``/``ID``/``ATOM`` are identifier tokens that are not reserved words.
Diamonds, ``E``, and ``P`` expand into their negation-based definitions.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import FormulaSyntaxError
from .formula import (
    BOT,
    TOP,
    ActBox,
    And,
    Atom,
    CondObl,
    Does,
    Formula,
    Iff,
    Imp,
    Not,
    Or,
    PrefBox,
    Univ,
    act_dia,
    exist,
    perm,
    pref_dia,
)

KEYWORDS = frozenset({"true", "false", "do", "pref", "act", "U", "E", "O", "P"})

_TOKEN_RE = re.compile(
    r"\s+|(?P<op><->|->|[()\[\]<>!&|/])|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
)


@dataclass(frozen=True)
class Token:
    kind: str          # "op", "ident", or "end"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise FormulaSyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        lexeme = match.group(0)
        if match.lastgroup is not None:
            kind = "op" if match.lastgroup == "op" else "ident"
            tokens.append(Token(kind, lexeme, line, pos - line_start + 1))
        else:
            for idx, ch in enumerate(lexeme):
                if ch == "\n":
                    line += 1
                    line_start = pos + idx + 1
        pos = match.end()
    tokens.append(Token("end", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def fail(self, expected: set[str]) -> FormulaSyntaxError:
        tok = self.peek()
        what = "end of input" if tok.kind == "end" else repr(tok.text)
        return FormulaSyntaxError(
            f"unexpected {what}", tok.line, tok.column, frozenset(expected)
        )

    def expect_op(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise self.fail({f"'{text}'"})
        return self.advance()

    def expect_keyword(self, *words: str) -> str:
        tok = self.peek()
        if tok.kind != "ident" or tok.text not in words:
            raise self.fail({f"'{w}'" for w in words})
        self.advance()
        return tok.text

    def expect_name(self, role: str) -> str:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in KEYWORDS:
            raise self.fail({role})
        self.advance()
        return tok.text

    # grammar rules -------------------------------------------------------

    def formula(self) -> Formula:
        out = self.imp()
        while self.peek().kind == "op" and self.peek().text == "<->":
            self.advance()
            out = Iff(out, self.imp())
        return out

    def imp(self) -> Formula:
        left = self.disjunction()
        if self.peek().kind == "op" and self.peek().text == "->":
            self.advance()
            return Imp(left, self.imp())
        return left

    def disjunction(self) -> Formula:
        out = self.conjunction()
        while self.peek().kind == "op" and self.peek().text == "|":
            self.advance()
            out = Or(out, self.conjunction())
        return out

    def conjunction(self) -> Formula:
        out = self.unary()
        while self.peek().kind == "op" and self.peek().text == "&":
            self.advance()
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "op":
            if tok.text == "!":
                self.advance()
                return Not(self.unary())
            if tok.text == "(":
                self.advance()
                inner = self.formula()
                self.expect_op(")")
                return inner
            if tok.text == "[":
                self.advance()
                word = self.expect_keyword("pref", "act")
                if word == "pref":
                    i = self.expect_name("agent name")
                    j = self.expect_name("agent name")
                    self.expect_op("]")
                    return PrefBox(i, j, self.unary())
                model = self.expect_name("action-model name")
                action = self.expect_name("action name")
                self.expect_op("]")
                return ActBox(model, action, self.unary())
            if tok.text == "<":
                self.advance()
                word = self.expect_keyword("pref", "act")
                if word == "pref":
                    i = self.expect_name("agent name")
                    j = self.expect_name("agent name")
                    self.expect_op(">")
                    return pref_dia(i, j, self.unary())
                model = self.expect_name("action-model name")
                action = self.expect_name("action name")
                self.expect_op(">")
                return act_dia(model, action, self.unary())
            raise self.fail({"formula"})
        if tok.kind == "ident":
            if tok.text == "true":
                self.advance()
                return TOP
            if tok.text == "false":
                self.advance()
                return BOT
            if tok.text == "U":
                self.advance()
                return Univ(self.unary())
            if tok.text == "E":
                self.advance()
                return exist(self.unary())
            if tok.text == "do":
                self.advance()
                agent = self.expect_name("agent name")
                return Does(agent, self.unary())
            if tok.text in ("O", "P"):
                self.advance()
                i = self.expect_name("agent name")
                j = self.expect_name("agent name")
                self.expect_op("(")
                consequent = self.formula()
                self.expect_op("/")
                condition = self.formula()
                self.expect_op(")")
                if tok.text == "O":
                    return CondObl(i, j, consequent, condition)
                return perm(i, j, consequent, condition)
            if tok.text in KEYWORDS:
                raise self.fail({"formula"})
            self.advance()
            return Atom(tok.text)
        raise self.fail({"formula"})


def parse(text: str) -> Formula:
    """Parse concrete syntax into a Formula; raise FormulaSyntaxError otherwise."""
    parser = _Parser(text)
    try:
        out = parser.formula()
    except RecursionError:
        tok = parser.peek()
        raise FormulaSyntaxError("formula nested too deeply", tok.line, tok.column) from None
    if parser.peek().kind != "end":
        raise parser.fail({"end of input"})
    return out
