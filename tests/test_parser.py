"""Concrete syntax: parsing, precedence, round-trips, error positions."""
from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from hohfeld.errors import FormulaSyntaxError
from hohfeld.formula import (
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
from hohfeld.parser import parse

from conftest import TOKENS, formulas

P, Q, R = Atom("p"), Atom("q"), Atom("r")


@pytest.mark.parametrize("text, expected", [
    ("p", P),
    ("true", TOP),
    ("false", BOT),
    ("!p", Not(P)),
    ("p & q", And(P, Q)),
    ("p | q", Or(P, Q)),
    ("p -> q", Imp(P, Q)),
    ("p <-> q", Iff(P, Q)),
    ("[pref i c] d", PrefBox("i", "c", Atom("d"))),
    ("<pref i c> d", pref_dia("i", "c", Atom("d"))),
    ("U p", Univ(P)),
    ("E p", exist(P)),
    ("do i d", Does("i", Atom("d"))),
    ("O i c (do i d / p)", CondObl("i", "c", Does("i", Atom("d")), P)),
    ("P i c (do i d / p)", perm("i", "c", Does("i", Atom("d")), P)),
    ("[act John a1] f", ActBox("John", "a1", Atom("f"))),
    ("<act John a1> f", act_dia("John", "a1", Atom("f"))),
    ("V", Atom("V")),
])
def test_basic_forms(text, expected):
    assert parse(text) == expected


@pytest.mark.parametrize("text, expected", [
    ("!p & q -> U r", Imp(And(Not(P), Q), Univ(R))),
    ("p & q | r & p", Or(And(P, Q), And(R, P))),
    ("p -> q -> r", Imp(P, Imp(Q, R))),
    ("p <-> q <-> r", Iff(Iff(P, Q), R)),
    ("p & q & r", And(And(P, Q), R)),
    ("!do i d", Not(Does("i", Atom("d")))),
    ("do i !d", Does("i", Not(Atom("d")))),
    ("U p & q", And(Univ(P), Q)),
    ("[pref i c] p & q", And(PrefBox("i", "c", P), Q)),
    ("(p | q) & r", And(Or(P, Q), R)),
    ("O j i (do j !O i k (f / true) / true)",
     CondObl("j", "i",
             Does("j", Not(CondObl("i", "k", Atom("f"), TOP))),
             TOP)),
])
def test_precedence_and_nesting(text, expected):
    assert parse(text) == expected


def test_whitespace_insensitive():
    dense = parse("O i c(do i d/p)&!q")
    spread = parse("  O  i  c ( do i d   /  p )\n &\n ! q ")
    assert dense == spread == And(CondObl("i", "c", Does("i", Atom("d")), P), Not(Q))


@pytest.mark.parametrize("bad, line, column", [
    ("p &", 1, 4),
    ("", 1, 1),
    ("(p", 1, 3),
    ("p $ q", 1, 3),
    ("[foo i c] p", 1, 2),
    ("O i (p / q)", 1, 5),
    ("do true p", 1, 4),
    ("p q", 1, 3),
    ("p &\n& q", 2, 1),
])
def test_error_positions(bad, line, column):
    with pytest.raises(FormulaSyntaxError) as err:
        parse(bad)
    assert err.value.line == line
    assert err.value.column == column


def test_error_reports_expected_tokens():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("[foo i c] p")
    assert err.value.expected == {"'pref'", "'act'"}
    with pytest.raises(FormulaSyntaxError) as err:
        parse("O i c (p | q)")
    assert err.value.expected == {"'/'"}


def _negations(depth: int, f=P):
    for _ in range(depth):
        f = Not(f)
    return f


@pytest.mark.parametrize("depth", [1200, 100_000])
def test_parse_answers_at_any_nesting_depth(depth):
    assert parse("!" * depth + "p") == _negations(depth)
    assert parse("(" * depth + "p" + ")" * depth) == P


def test_round_trip_at_depth():
    chain = Q
    for _ in range(250):
        chain = And(Q, chain)  # right-nested, so every level prints parentheses
    assert parse(str(chain)) == chain
    deep = _negations(100_000)
    assert parse(str(deep)) == deep


def test_keywords_cannot_be_atoms_or_agents():
    with pytest.raises(FormulaSyntaxError):
        parse("do do p")
    with pytest.raises(FormulaSyntaxError):
        parse("[pref true c] p")


@given(formulas)
def test_print_parse_round_trip(f):
    assert parse(str(f)) == f


def _parses_or_fails_cleanly(text):
    try:
        f = parse(text)
    except FormulaSyntaxError:
        return
    assert isinstance(f, Formula)
    assert parse(str(f)) == f


@given(st.text())
def test_parse_any_text(text):
    _parses_or_fails_cleanly(text)


@given(st.lists(st.sampled_from(TOKENS), max_size=40).map(" ".join))
def test_parse_any_token_sequence(text):
    _parses_or_fails_cleanly(text)
