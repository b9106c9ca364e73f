"""Lexicographic update: exact shapes, reversals, defaults, and error paths."""
from __future__ import annotations

import gc
import random
import weakref
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from hohfeld.actions import ActionModelEnv, make_action_model
from hohfeld.errors import EmptyProductError, ModelFormatError, NameResolutionError
from hohfeld.generators import GeneratorConfig, random_action_model, random_model
from hohfeld.isomorphism import isomorphic
from hohfeld.generators import random_static_formula
from hohfeld.model import PrefActionModel, blocks_to_relation, closure, make_model, validate
from hohfeld.modelio import dumps_model, model_to_dict
from hohfeld.parser import parse
from hohfeld.semantics import evaluate, pair_name, product, truth_set
import hohfeld.scenarios as scenarios
import hohfeld.semantics as semantics


# -- the two bundled updates, checked piece by piece -------------------------

def test_john_update_exact_shape(park, john):
    updated = product(park, john)
    m = updated.model
    expected = scenarios.parking_after_john()

    assert m.states == {"w1*a1", "w2*a2", "w3*a2", "w4*a2"}
    assert updated.provenance == {
        "w1*a1": ("w1", "a1"),
        "w2*a2": ("w2", "a2"),
        "w3*a2": ("w3", "a2"),
        "w4*a2": ("w4", "a2"),
    }
    assert m.val == expected.val
    assert m.val["f"] == {"w1*a1"}
    assert m.pref[("i", "c")] == expected.pref[("i", "c")]
    # materialized defaults for the other ordered pairs stay the identity
    for pair in (("i", "i"), ("c", "c"), ("c", "i")):
        assert m.pref[pair] == frozenset((w, w) for w in m.states)
    assert m.eq == expected.eq
    assert isomorphic(m, expected) is not None


def test_contract_update_exact_shape(contract, signing):
    updated = product(contract, signing)
    m = updated.model
    expected = scenarios.contract_after_update()

    assert m.states == {"w1*a1", "w2*a2", "w3*a2", "w4*a3"}
    assert updated.provenance == {
        "w1*a1": ("w1", "a1"),
        "w2*a2": ("w2", "a2"),
        "w3*a2": ("w3", "a2"),
        "w4*a3": ("w4", "a3"),
    }
    assert m.val == expected.val
    for pair in (("i", "k"), ("j", "i")):
        assert m.pref[pair] == expected.pref[pair]
    assert m.eq == expected.eq
    assert isomorphic(m, expected) is not None


def test_contract_update_inverts_the_ranking(contract, signing):
    before = contract.pref[("i", "k")]
    after = product(contract, signing).model.pref[("i", "k")]
    # w2 <= w1 before the update; w1*a1 <= w2*a2 after it, and not back
    assert ("w2", "w1") in before and ("w1", "w2") not in before
    assert ("w1*a1", "w2*a2") in after and ("w2*a2", "w1*a1") not in after
    assert ("w3*a2", "w4*a3") in after and ("w4*a3", "w3*a2") not in after


def test_mary_reversal_mapping_is_forced(park, john, mary):
    after_both = product(product(park, john).model, mary).model
    witness = isomorphic(after_both, park)
    assert witness is not None
    # each state carries a distinct valuation, so the mapping is unique
    assert witness.as_dict() == {
        "w1*a1*b1": "w1",
        "w2*a2*b2": "w2",
        "w3*a2*b2": "w3",
        "w4*a2*b2": "w4",
    }


def test_john_update_differs_from_original(park, john):
    assert isomorphic(product(park, john).model, park) is None


# -- identity update ---------------------------------------------------------

def test_identity_update_is_isomorphic(park):
    noop = make_action_model(
        name="Noop", owner="nobody", actions=["e"],
        rel={}, pre={"e": parse("true")}, post={},
    )
    updated = product(park, noop).model
    witness = isomorphic(updated, park)
    assert witness is not None
    assert witness.as_dict() == {f"{w}*e": w for w in ("w1", "w2", "w3", "w4")}


# -- postconditions and untouched atoms --------------------------------------

def test_untouched_atoms_keep_their_old_value(park, john):
    m = product(park, john).model
    # John's actions only assign f; d and p are read off the source states
    assert m.val["d"] == {"w2*a2", "w3*a2"}
    assert m.val["p"] == {"w1*a1", "w2*a2"}


def test_postconditions_can_read_the_old_state(park):
    swap = make_action_model(
        name="Swap", owner="nobody", actions=["e"],
        rel={}, pre={"e": parse("true")},
        post={"e": {"d": parse("!d"), "p": parse("d & p")}},
    )
    m = product(park, swap).model
    assert m.val["d"] == {"w1*e", "w4*e"}   # complement of the old d
    assert m.val["p"] == {"w2*e"}           # old d & p
    assert m.val["f"] == frozenset()


# -- error paths --------------------------------------------------------------

def test_empty_product_raises(park):
    never = make_action_model(
        name="Never", owner="nobody", actions=["e"],
        rel={}, pre={"e": parse("false")}, post={},
    )
    with pytest.raises(EmptyProductError):
        product(park, never)


def test_reserved_separator_in_action_id_rejected(park):
    bad = make_action_model(
        name="Bad", owner="nobody", actions=["a*1"],
        rel={}, pre={"a*1": parse("true")}, post={},
    )
    with pytest.raises(ModelFormatError):
        product(park, bad)


def test_missing_precondition_rejected(park):
    bad = make_action_model(
        name="Bad", owner="nobody", actions=["e"],
        rel={}, pre={}, post={},
    )
    with pytest.raises(ModelFormatError):
        product(park, bad)


def test_every_precondition_resolves_when_one_box_is_labelled(park):
    # all preconditions are labelled together, in sorted action order, even
    # where the boxed action is executable nowhere and the box holds vacuously
    act = make_action_model(
        name="A", owner="nobody", actions=["a1", "a2"],
        rel={}, pre={"a1": parse("false"), "a2": parse("nosuch")}, post={},
    )
    with pytest.raises(NameResolutionError, match="nosuch"):
        evaluate(park, "w1", parse("[act A a1] p"), ActionModelEnv([act]))


def test_post_targeting_unknown_atom_rejected(park):
    bad = make_action_model(
        name="Bad", owner="nobody", actions=["e"],
        rel={}, pre={"e": parse("true")}, post={"e": {"zz": parse("true")}},
    )
    with pytest.raises(NameResolutionError):
        product(park, bad)


# -- structural properties over seeded random instances ----------------------

def test_state_count_sums_precondition_extents():
    cfg = GeneratorConfig(sample_count=120)
    rng = random.Random(cfg.seed)
    nonempty = 0
    for _ in range(cfg.sample_count):
        model = random_model(cfg, rng)
        act = random_action_model(cfg, model, rng)
        expected = sum(
            len(truth_set(model, act.pre[a])) for a in sorted(act.actions)
        )
        if expected == 0:
            with pytest.raises(EmptyProductError):
                product(model, act)
            continue
        nonempty += 1
        assert len(product(model, act).model.states) == expected
    assert nonempty > 40


def test_products_validate_as_models():
    cfg = GeneratorConfig(sample_count=80)
    rng = random.Random(cfg.seed)
    checked = 0
    for _ in range(cfg.sample_count):
        model = random_model(cfg, rng)
        act = random_action_model(cfg, model, rng)
        try:
            m = product(model, act).model
        except EmptyProductError:
            continue
        checked += 1
        report = validate(m)
        assert report.ok, report.violations
    assert checked > 30


def test_product_is_deterministic(park, john):
    a = product(park, john)
    b = product(park, john)
    assert a.model == b.model
    assert a.provenance == b.provenance
    assert dumps_model(a.model) == dumps_model(b.model)


# -- environment memoization ---------------------------------------------------

def test_env_memoizes_per_model_identity(park, john):
    env = ActionModelEnv([john])
    f = parse("[act John a1] f & [act John a2] !f")  # two boxes of one action model
    with patch("hohfeld.semantics.compiled_product", wraps=semantics.compiled_product) as built:
        first = truth_set(park, f, env)
        assert built.call_count == 1
        assert truth_set(park, f, env) == first  # the same env: no product built
        assert built.call_count == 1
        assert truth_set(scenarios.parking_model(), f, env) == first  # a fresh copy: one more
        assert built.call_count == 2


def test_nested_updates_through_evaluate(park, john, mary):
    env = ActionModelEnv([john, mary])
    # fine then reverse: the fine is gone again
    f = parse("[act John a1] [act Mary b1] !f")
    assert evaluate(park, "w1", f, env) is True
    # fine without reversal leaves it in place
    assert evaluate(park, "w1", parse("[act John a1] f"), env) is True


def test_defaults_materialized_for_undeclared_pairs():
    # a model with NO declared ideality at all: every pair defaults to identity
    m = make_model(
        states=["u", "v"], agents=["x", "y"], pref={},
        eq={"x": blocks_to_relation([["u"], ["v"]]),
            "y": blocks_to_relation([["u", "v"]])},
        val={"q": ["u"]},
    )
    act = make_action_model(
        name="Two", owner="x", actions=["a", "b"],
        rel={("x", "y"): closure([("a", "b")], ["a", "b"])},
        pre={"a": parse("true"), "b": parse("true")}, post={},
    )
    out = product(m, act).model
    # declared pair (x,y): a strictly below b, so every a-copy sits below every b-copy
    assert ("u*a", "v*b") in out.pref[("x", "y")]
    assert ("v*b", "u*a") not in out.pref[("x", "y")]
    # undeclared pair (y,x): the action rel defaults to total (all actions
    # equivalent) and the model pref to identity, so two pairs are related
    # exactly when they come from the same source state
    assert out.pref[("y", "x")] == frozenset(
        (f"{w}*{a}", f"{w}*{b}")
        for w in ("u", "v") for a in ("a", "b") for b in ("a", "b")
    )


def test_ranks_split_the_actions_above_in_sorted_order():
    act = make_action_model(
        name="Three", owner="x", actions=["c", "b", "a"],
        rel={("x", "y"): closure([("a", "b"), ("b", "c"), ("c", "b")], ["a", "b", "c"])},
        pre={}, post={},
    )
    assert act.ranks("x", "y", "a") == (["b", "c"], ["a"])
    assert act.ranks("x", "y", "c") == ([], ["b", "c"])
    # an undeclared pair is total: nothing strictly above, everything as effective
    assert act.ranks("y", "x", "b") == ([], ["a", "b", "c"])


# -- the row-wise product against the pairwise rule ------------------------------

def pairwise_product(model, act):
    """The lexicographic update read straight off its definition, one pair of
    pair-states at a time: ``(w, a)`` sees ``(v, b)`` for ``i`` toward ``j``
    iff ``b`` is at least as effective as ``a``, and either strictly more
    effective or ``v`` at least as ideal as ``w``."""
    actions = sorted(act.actions)
    pre = {a: truth_set(model, act.pre[a]) for a in actions}
    pairs = [(w, a) for w in sorted(model.states) for a in actions if w in pre[a]]
    if not pairs:
        raise EmptyProductError("empty")
    names = {wa: pair_name(*wa) for wa in pairs}
    every = frozenset((a, b) for a in actions for b in actions)
    pref = {}
    for i in sorted(model.agents):
        for j in sorted(model.agents):
            base = model.ideality(i, j)
            le = act.rel.get((i, j), every)
            pref[(i, j)] = frozenset(
                (names[w, a], names[v, b])
                for (w, a) in pairs for (v, b) in pairs
                if (a, b) in le and ((b, a) not in le or (w, v) in base)
            )
    eq = {
        agent: frozenset((names[w, a], names[v, b])
                         for (w, a) in pairs for (v, b) in pairs if (w, v) in rel)
        for agent, rel in sorted(model.eq.items())
    }
    val = {}
    for atom in sorted(model.val):
        after = {}
        for a in sorted({a for _, a in pairs}):
            post = act.post_formula(a, atom)
            after[a] = model.val[atom] if post is None else truth_set(model, post)
        val[atom] = frozenset(names[w, a] for (w, a) in pairs if w in after[a])
    updated = PrefActionModel(states=frozenset(names.values()), agents=model.agents,
                              pref=pref, eq=eq, val=val)
    return updated, {names[wa]: wa for wa in pairs}


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1))
def test_product_matches_the_pairwise_rule(seed):
    cfg = GeneratorConfig(max_states=5)
    rng = random.Random(seed)
    model = random_model(cfg, rng)
    act = random_action_model(cfg, model, rng)
    try:
        expected, provenance = pairwise_product(model, act)
    except EmptyProductError:
        with pytest.raises(EmptyProductError):
            product(model, act)
        return
    # compared while its relations are still unread, then read one by one
    assert product(model, act).model == expected
    updated = product(model, act)
    assert list(updated.provenance.items()) == list(provenance.items())
    got = updated.model
    assert got.states == expected.states and got.agents == expected.agents
    assert list(got.pref) == list(expected.pref) and list(got.eq) == list(expected.eq)
    for key, rel in expected.pref.items():
        assert got.pref[key] == rel
    for key, rel in expected.eq.items():
        assert got.eq[key] == rel
    assert got.val == expected.val
    assert model_to_dict(got) == model_to_dict(expected)
    assert got == expected
    # labelling reads the product's masks, not its pairs
    f = random_static_formula(rng, tuple(sorted(model.val)), tuple(sorted(model.agents)), 3)
    assert truth_set(product(model, act).model, f) == truth_set(expected, f)


def test_models_and_products_are_freed_by_reference_counting(john):
    gc.disable()
    try:
        model = scenarios.parking_model()
        env = ActionModelEnv([john])
        truth_set(model, parse("[act John a1] O i c (f / p)"), env)
        updated = product(model, john)
        dumps_model(updated.model)  # every relation read
        alive = [weakref.ref(x) for x in (model, model.compiled, updated,
                                          updated.model, updated.model.compiled)]
        del model, env, updated
        assert [ref() for ref in alive] == [None] * len(alive)
    finally:
        gc.enable()
