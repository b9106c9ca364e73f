"""The generic rewrite against the recursive definitions it replaced, and depth.

``oracle_unfold`` and ``oracle_translate`` are the direct structural
recursions: the rewrite-based ``unfold_cond_obl`` and ``translate`` must give
equal formulas, printed the same way.  The depth tests run chains far past
the recursion limit, which the recursive definitions cannot walk, through
the rewrites, the labeller and the printer.  The sharing tests pin how many
node objects the translations of ``[act John a1]^k U f`` hold against their
distinct subterms, and that they print as the tree they stand for.
"""
from __future__ import annotations

import hashlib
import time
from dataclasses import fields

import pytest
from hypothesis import given, settings

from hohfeld.actions import ActionModelEnv, make_action_model
from hohfeld.formula import (
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
    agent_names,
    atom_names,
    children,
    is_static,
    rebuild,
    rewrite,
    size,
    subformulas,
    unfold_cond_obl,
    unfold_head,
)
from hohfeld.model import closure
from hohfeld.parser import parse
from hohfeld.reduction import VARIANTS, reduce_step, translate
from hohfeld.semantics import evaluate, truth_set
import hohfeld.scenarios as scenarios

from conftest import formulas, static_formulas


def oracle_unfold(f: Formula) -> Formula:
    if isinstance(f, CondObl):
        return unfold_head(CondObl(f.i, f.j, oracle_unfold(f.consequent),
                                   oracle_unfold(f.condition)))
    if isinstance(f, (Not, Univ)):
        return type(f)(oracle_unfold(f.arg))
    if isinstance(f, (And, Or, Imp, Iff)):
        return type(f)(oracle_unfold(f.left), oracle_unfold(f.right))
    if isinstance(f, PrefBox):
        return PrefBox(f.i, f.j, oracle_unfold(f.arg))
    if isinstance(f, Does):
        return Does(f.agent, oracle_unfold(f.arg))
    if isinstance(f, ActBox):
        return ActBox(f.model, f.action, oracle_unfold(f.arg))
    return f


def oracle_translate(f: Formula, env: ActionModelEnv, variant: str) -> Formula:
    again = lambda g: oracle_translate(g, env, variant)
    if isinstance(f, ActBox):
        return again(reduce_step(env.get(f.model), f.action, again(f.arg), variant))
    if isinstance(f, (Not, Univ)):
        return type(f)(again(f.arg))
    if isinstance(f, (And, Or, Imp, Iff)):
        return type(f)(again(f.left), again(f.right))
    if isinstance(f, PrefBox):
        return PrefBox(f.i, f.j, again(f.arg))
    if isinstance(f, Does):
        return Does(f.agent, again(f.arg))
    if isinstance(f, CondObl):
        return CondObl(f.i, f.j, again(f.consequent), again(f.condition))
    return f


def _env():
    a_model = make_action_model(
        name="A", owner="x", actions=["a1", "a2"],
        rel={("i", "j"): closure([("a1", "a2")], ["a1", "a2"])},
        pre={"a1": parse("p"), "a2": parse("!p")},
        post={"a1": {"q": parse("true")}},
    )
    return ActionModelEnv([a_model, scenarios.john_action_model()])


def _same(got: Formula, expected: Formula) -> None:
    assert got == expected
    assert str(got) == str(expected)


@given(formulas)
def test_unfold_matches_the_recursive_definition(f):
    _same(unfold_cond_obl(f), oracle_unfold(f))


@given(static_formulas)
def test_unfold_matches_the_recursive_definition_on_static_formulas(f):
    _same(unfold_cond_obl(f), oracle_unfold(f))


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=40)
@given(f=formulas)
def test_translate_matches_the_recursive_definition(variant, f):
    env = _env()
    _same(translate(f, env, variant), oracle_translate(f, env, variant))


@pytest.mark.parametrize("variant", VARIANTS)
@given(f=static_formulas)
def test_translate_matches_the_recursive_definition_on_static_formulas(variant, f):
    env = _env()
    _same(translate(f, env, variant), oracle_translate(f, env, variant))
    _same(translate(ActBox("A", "a2", f), env, variant),
          oracle_translate(ActBox("A", "a2", f), env, variant))


@given(formulas)
def test_rebuild_over_the_same_children_gives_an_equal_node(f):
    assert rebuild(f, children(f)) == f


@given(formulas)
def test_identity_rewrite_shares_the_whole_input(f):
    assert rewrite(f, lambda g: g) is f


# -- depth ---------------------------------------------------------------------

DEEP = 5000
P = Atom("p")
_LAYERS = (
    Not,
    lambda g: PrefBox("i", "c", g),
    Univ,
    lambda g: Does("i", g),
    lambda g: And(g, P),
    lambda g: Or(P, g),
    lambda g: Imp(g, P),
    lambda g: Iff(P, g),
    lambda g: CondObl("i", "c", g, P),
)


def _chain(depth: int, bottom: Formula, layers=_LAYERS) -> Formula:
    f = bottom
    for k in range(depth):
        f = layers[k % len(layers)](f)
    return f


def test_traversals_walk_a_deep_chain():
    f = _chain(DEEP, ActBox("John", "a1", Atom("f")))
    binary = sum(1 for k in range(DEEP) if k % len(_LAYERS) >= 4)
    assert size(f) == DEEP + binary + 2
    assert sum(1 for _ in subformulas(f)) == size(f)
    assert not is_static(f)
    assert is_static(_chain(DEEP, P))


def test_unfold_walks_a_deep_chain():
    f = _chain(DEEP, P)
    obligations = sum(1 for g in subformulas(f) if isinstance(g, CondObl))
    out = unfold_cond_obl(f)
    assert not any(isinstance(g, CondObl) for g in subformulas(out))
    # each obligation over an atomic condition grows from 2 nodes to 11 besides its consequent
    assert size(out) == size(f) + 9 * obligations


def test_translate_walks_a_deep_chain():
    john = scenarios.john_action_model()
    f = _chain(DEEP, ActBox("John", "a1", Atom("f")))
    out = translate(f, ActionModelEnv([john]))
    assert is_static(out)
    # [act John a1] f becomes !d & p -> true: 6 nodes for 2
    assert size(out) == size(f) + 4
    park = scenarios.parking_model()
    assert truth_set(park, f, ActionModelEnv([john])) == truth_set(park, out)


@pytest.mark.parametrize("depth", [330, DEEP])
def test_translate_pushes_a_box_through_a_deep_chain(depth):
    f = ActBox("John", "a1", _chain(depth, Atom("f"), (Not,)))
    out = translate(f, ActionModelEnv([scenarios.john_action_model()]))
    assert is_static(out)
    # each level becomes !d & p -> !(...), and the bottom !d & p -> true
    assert size(out) == 6 * depth + 6


def test_evaluation_and_printing_walk_a_deep_chain():
    depth = 100_000
    f = _chain(depth, P, (Not,))
    park = scenarios.parking_model()
    assert truth_set(park, f) == {"w1", "w2"}
    assert evaluate(park, "w3", f) is False
    assert str(f) == "!" * depth + "p"


# -- sharing ---------------------------------------------------------------------

def _family(k: int) -> Formula:
    return parse("[act John a1] " * k + "U f")


def _dag_counts(f: Formula) -> tuple[int, int, int]:
    """(tree nodes, node objects, distinct subterms), one visit per object."""
    seen: dict[int, tuple[int, int]] = {}  # node id -> (value number, tree size)
    values: dict[tuple, int] = {}
    todo = [f]
    while todo:
        g = todo[-1]
        waiting = [kid for kid in children(g) if id(kid) not in seen]
        if waiting:
            todo += waiting
            continue
        todo.pop()
        if id(g) in seen:
            continue
        kids = [seen[id(kid)] for kid in children(g)]
        names = tuple(getattr(g, x.name) for x in fields(g)
                      if not isinstance(getattr(g, x.name), Formula))
        key = (type(g), names, *(number for number, _ in kids))
        seen[id(g)] = (values.setdefault(key, len(values)), 1 + sum(t for _, t in kids))
    return seen[id(f)][1], len(seen), len(values)


# k -> (tree nodes, distinct subterms, len and sha256 of str()) of the translation
FAMILY = {
    4: (15_592, 559, 35_225, "a4cb9a11000adc048c87b540fc93a8f806e2f0acb73d4d777b4bf647d95b2df2"),
    5: (166_629, 2_143, 375_785, "9940bca3bfb840c0505e723a2e02ff8393eded9c644ea9b95d92833ce51e4a81"),
    6: (1_809_078, 8_383, 4_078_705, "f0418d71d6dbd0a623ba10acdfbb8fb8790398c53daea4b76174e09060bc29bc"),
}


@pytest.mark.parametrize("k", sorted(FAMILY))
def test_translation_builds_each_distinct_subterm_about_once(k):
    tree, distinct, chars, digest = FAMILY[k]
    out = translate(_family(k), ActionModelEnv([scenarios.john_action_model()]))
    got_tree, objects, got_distinct = _dag_counts(out)
    assert (got_tree, got_distinct) == (tree, distinct)
    assert objects <= 1.25 * distinct
    text = str(out)
    assert len(text) == chars
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_tree_walking_helpers_visit_each_node_object_once():
    out = translate(_family(6), ActionModelEnv([scenarios.john_action_model()]))
    start = time.perf_counter()
    assert is_static(out)
    assert size(out) == FAMILY[6][0]
    assert atom_names(out) == {"d", "p"} and agent_names(out) == frozenset()
    # a walk of the 1 809 078-node tree takes over a second
    assert time.perf_counter() - start < 0.2


def test_separate_translations_compare_and_hash_equal():
    first, second = (translate(_family(6), ActionModelEnv([scenarios.john_action_model()]))
                     for _ in range(2))
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert first != translate(_family(6), ActionModelEnv([scenarios.john_action_model()]), "paper")


def test_rewrite_rewrites_equal_nodes_once():
    calls = []

    def step(g):
        calls.append(g)
        return Not(g) if isinstance(g, Atom) else g

    p = Atom("p")
    out = rewrite(And(Or(p, p), Or(p, p)), step)
    assert out == And(Or(Not(p), Not(p)), Or(Not(p), Not(p)))
    # p, the first Or and the And; the second Or reaches the same operands
    assert len(calls) == 3
    assert out.left is out.right and out.left.left is out.left.right


def test_a_shared_subterm_prints_in_each_place_as_the_tree_does():
    x = And(P, Atom("q"))
    f = Or(Not(x), Imp(x, x))
    assert str(f) == "!(p & q) | (p & q -> p & q)"
    assert parse(str(f)) == f
