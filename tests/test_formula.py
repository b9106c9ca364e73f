"""AST construction, derived forms, rendering, and obligation unfolding."""
from __future__ import annotations

import pytest
from hypothesis import given

from hohfeld.formula import (
    BOT,
    TOP,
    ActBox,
    And,
    Atom,
    CondObl,
    Does,
    Iff,
    Imp,
    Not,
    Or,
    PrefBox,
    Univ,
    act_dia,
    agent_names,
    atom_names,
    claim,
    conj,
    disj,
    exist,
    is_static,
    obligation,
    perm,
    pref_dia,
    privilege,
    size,
    subformulas,
    unfold_cond_obl,
    unfold_head,
)

from conftest import formulas


def test_nodes_are_hashable_and_comparable():
    a = CondObl("i", "c", Does("i", Atom("d")), Atom("p"))
    b = CondObl("i", "c", Does("i", Atom("d")), Atom("p"))
    assert a == b
    assert hash(a) == hash(b)
    assert a != CondObl("i", "c", Does("i", Atom("d")), TOP)
    assert len({a, b}) == 1


def test_equality_and_hash_work_at_any_depth():
    def chain(depth, agent="c"):
        f = Atom("p")
        for k in range(depth):
            f = Not(f) if k % 2 else PrefBox("i", agent if k == 0 else "c", f)
        return f

    a, b = chain(100_000), chain(100_000)
    assert a is not b and a == b
    assert hash(a) == hash(b)
    assert b in {a} and len({a, b}) == 1
    assert a != chain(100_000, agent="j")  # differs only in the innermost box's agent
    assert a != chain(99_999) and a != Not(Not(chain(99_999)))


@pytest.mark.parametrize("f, text", [
    (CondObl("i", "c", Not(Atom("p")), TOP),
     "CondObl(i='i', j='c', consequent=Not(arg=Atom(name='p')), condition=Top())"),
    (ActBox("John", "a1", Or(Univ(BOT), Does("i", Atom("f")))),
     "ActBox(model='John', action='a1', arg=Or(left=Univ(arg=Bot()), "
     "right=Does(agent='i', arg=Atom(name='f'))))"),
])
def test_repr_is_the_dataclass_text(f, text):
    assert repr(f) == text


def test_repr_works_at_any_depth():
    # every level names its own agent, so any two levels differ at their top
    # node, and comparing them (as pytest does to report a RecursionError) is cheap
    f = Atom("p")
    for k in range(50_000):
        f = Not(Does(f"i{k}", f))
    opened = "".join(f"Not(arg=Does(agent='i{k}', arg=" for k in reversed(range(50_000)))
    assert repr(f) == opened + "Atom(name='p')" + "))" * 50_000


@pytest.mark.parametrize("derived, core", [
    (pref_dia("i", "c", Atom("p")), Not(PrefBox("i", "c", Not(Atom("p"))))),
    (exist(Atom("p")), Not(Univ(Not(Atom("p"))))),
    (act_dia("A", "a1", Atom("p")), Not(ActBox("A", "a1", Not(Atom("p"))))),
    (perm("i", "c", Atom("p"), Atom("q")),
     Not(CondObl("i", "c", Not(Atom("p")), Atom("q")))),
    (obligation("i", "c", Atom("p")), CondObl("i", "c", Atom("p"), TOP)),
    (claim("i", "j", Atom("p")), CondObl("j", "i", Does("j", Atom("p")), TOP)),
    (privilege("i", "j", Atom("p")),
     Not(CondObl("i", "j", Does("i", Not(Atom("p"))), TOP))),
])
def test_derived_constructors_expand_to_core(derived, core):
    assert derived == core


def test_conj_and_disj_folds():
    assert conj([]) == TOP
    assert disj([]) == BOT
    assert conj([Atom("p")]) == Atom("p")
    assert conj([Atom("p"), Atom("q"), Atom("r")]) == And(And(Atom("p"), Atom("q")), Atom("r"))
    assert disj([Atom("p"), Atom("q")]) == Or(Atom("p"), Atom("q"))


def test_is_static_flags_dynamic_boxes():
    assert is_static(CondObl("i", "c", Does("i", Atom("d")), Atom("p")))
    assert not is_static(Not(ActBox("A", "a1", Atom("p"))))
    assert not is_static(Univ(And(TOP, act_dia("A", "a1", BOT))))


def test_name_collection():
    f = And(PrefBox("i", "c", Atom("p")), CondObl("j", "i", Does("k", Atom("q")), BOT))
    assert atom_names(f) == {"p", "q"}
    assert agent_names(f) == {"i", "c", "j", "k"}


@pytest.mark.parametrize("f, text", [
    (PrefBox("i", "c", Atom("d")), "[pref i c] d"),
    (CondObl("i", "c", Does("i", Atom("d")), TOP), "O i c (do i d / true)"),
    (Imp(And(Not(Atom("p")), Atom("q")), Univ(Atom("r"))), "!p & q -> U r"),
    (And(Atom("p"), Or(Atom("q"), Atom("r"))), "p & (q | r)"),
    (Or(And(Atom("p"), Atom("q")), Atom("r")), "p & q | r"),
    (Imp(Atom("p"), Imp(Atom("q"), Atom("r"))), "p -> q -> r"),
    (Imp(Imp(Atom("p"), Atom("q")), Atom("r")), "(p -> q) -> r"),
    (Iff(Iff(Atom("p"), Atom("q")), Atom("r")), "p <-> q <-> r"),
    (Not(And(Atom("p"), Atom("q"))), "!(p & q)"),
    (Univ(Imp(Atom("p"), Atom("q"))), "U (p -> q)"),
    (ActBox("John", "a1", Atom("f")), "[act John a1] f"),
])
def test_rendering(f, text):
    assert str(f) == text


def test_unfold_head_is_the_box_definition():
    f = CondObl("i", "c", Atom("s1"), Atom("c1"))
    phi, psi = Atom("c1"), Atom("s1")
    expected = PrefBox("i", "c", Imp(phi, pref_dia("i", "c", And(phi, PrefBox("i", "c", Imp(phi, psi))))))
    assert unfold_head(f) == expected


def test_unfold_removes_every_obligation_node():
    f = CondObl("i", "c",
                CondObl("j", "i", Atom("p"), Atom("q")),
                Or(Atom("r"), CondObl("i", "j", TOP, BOT)))
    out = unfold_cond_obl(f)
    assert not any(isinstance(g, CondObl) for g in subformulas(out))


def test_unfold_leaves_obligation_free_formulas_alone():
    f = Imp(PrefBox("i", "c", Atom("p")), Does("i", Univ(Atom("q"))))
    assert unfold_cond_obl(f) == f


@given(formulas)
def test_unfold_size_bound(f):
    count = sum(1 for g in subformulas(f) if isinstance(g, CondObl))
    out = unfold_cond_obl(f)
    assert not any(isinstance(g, CondObl) for g in subformulas(out))
    assert size(out) <= size(f) * 7 ** count


@given(formulas)
def test_unfold_is_idempotent(f):
    once = unfold_cond_obl(f)
    assert unfold_cond_obl(once) == once
