"""Power, immunity, liability, and permissibility verdicts."""
from __future__ import annotations

import random

import pytest

from hohfeld.actions import ActionModelEnv, make_action_model
from hohfeld.errors import EmptyProductError, HohfeldError, NameResolutionError
from hohfeld.formula import TOP, ActBox, act_dia
from hohfeld.generators import (
    GeneratorConfig,
    random_action_model,
    random_model,
    random_static_formula,
)
from hohfeld.parser import parse
from hohfeld.positions import (
    PositionVerdict,
    global_immunity,
    global_power,
    liability,
    local_immunity,
    local_power,
    no_power,
    permissible,
    verdict,
)
from hohfeld.reduction import translate
from hohfeld.semantics import evaluate, product, truth_set
import hohfeld.scenarios as scenarios


# -- global scope on the contract scenario -----------------------------------

EXECUTABLE_BY_STATE = {
    "w1": ("a1",),
    "w2": ("a2",),
    "w3": ("a2",),
    "w4": ("a3",),
}


@pytest.mark.parametrize("state, expected", sorted(EXECUTABLE_BY_STATE.items()))
def test_global_power_witnesses(contract, signing, state, expected):
    verdict = global_power(contract, state, signing)
    assert verdict.kind == "power"
    assert verdict.scope == "global"
    assert verdict.holds is True
    assert verdict.witnesses == expected


@pytest.mark.parametrize("state", sorted(EXECUTABLE_BY_STATE))
def test_global_immunity_defeated_everywhere(contract, signing, state):
    verdict = global_immunity(contract, state, signing)
    assert verdict.kind == "immunity"
    assert verdict.holds is False
    assert verdict.witnesses == EXECUTABLE_BY_STATE[state]


def test_liability_and_no_power_restate_the_global_pair(contract, signing):
    for state in sorted(contract.states):
        power = global_power(contract, state, signing)
        liab = liability(contract, state, signing)
        assert (liab.kind, liab.scope) == ("liability", "global")
        assert liab.holds == power.holds
        assert liab.witnesses == power.witnesses
        disab = no_power(contract, state, signing)
        assert (disab.kind, disab.scope) == ("noPower", "global")
        assert disab.holds == (not power.holds)
        assert disab.witnesses == power.witnesses


def test_global_immunity_holds_when_nothing_executable(park):
    blocked = make_action_model(
        name="Blocked", owner="nobody", actions=["e"],
        rel={}, pre={"e": parse("false")}, post={},
    )
    verdict = global_immunity(park, "w1", blocked)
    assert verdict.holds is True
    assert verdict.witnesses == ()
    assert global_power(park, "w1", blocked).holds is False


# -- local scope ---------------------------------------------------------------

def test_local_power_over_repayment_duty(contract, signing):
    position = parse("O i k (f / true)")
    for state, expected in sorted(EXECUTABLE_BY_STATE.items()):
        verdict = local_power(contract, state, signing, position)
        assert verdict.scope == "local"
        assert verdict.current_truth is False
        assert verdict.holds is True
        assert verdict.witnesses == expected


def test_local_power_over_payment_duty_in_parking(park, john):
    position = parse("O i c (f / true)")
    at_w1 = local_power(park, "w1", john, position)
    assert at_w1.holds is True
    assert at_w1.witnesses == ("a1",)
    assert at_w1.current_truth is False
    # compliant states can only trigger the waiving action, which changes nothing
    at_w2 = local_power(park, "w2", john, position)
    assert at_w2.holds is False
    assert at_w2.witnesses == ()


def test_local_immunity_over_display_duty(park, john):
    position = parse("O i c (do i d / true)")
    verdict = local_immunity(park, "w1", john, position)
    assert verdict.holds is True
    assert verdict.witnesses == ()
    assert verdict.current_truth is False


def test_local_power_and_immunity_are_complements(contract, signing):
    position = parse("O j i (do j p / true)")
    for state in sorted(contract.states):
        power = local_power(contract, state, signing, position)
        immunity = local_immunity(contract, state, signing, position)
        assert power.holds == (not immunity.holds)
        assert power.witnesses == immunity.witnesses
        assert power.current_truth == immunity.current_truth


# -- permissibility --------------------------------------------------------------

def test_no_signing_action_is_permissible():
    model = scenarios.contract_model_with_violation()
    act = scenarios.contract_action_model_with_violation()
    for state in sorted(model.states):
        for action in sorted(act.actions):
            assert permissible(model, state, act, action) is False


def test_permissible_with_custom_violation_atom(park, john):
    # treat the fine itself as the violation marker
    assert permissible(park, "w2", john, "a2", violation_atom="f") is True
    assert permissible(park, "w1", john, "a1", violation_atom="f") is False
    # not executable here, hence not permissible
    assert permissible(park, "w1", john, "a2", violation_atom="f") is False


def test_permissible_unknown_action_raises(park, john):
    with pytest.raises(NameResolutionError):
        permissible(park, "w1", john, "zz", violation_atom="f")


@pytest.mark.parametrize("state", ["w1", "w2"])
def test_permissible_resolves_the_violation_atom_wherever_the_action_is(park, john, state):
    # a1 is executable at w1 only; the unknown atom is an error at both
    with pytest.raises(NameResolutionError, match="nosuch"):
        permissible(park, state, john, "a1", "nosuch")


# -- one action model per verdict -----------------------------------------------------

def test_an_environment_with_another_model_of_the_same_name_is_refused(park, john):
    other = make_action_model(
        name="John", owner="john", actions=["a1", "a2"], rel={},
        pre={"a1": parse("true"), "a2": parse("true")}, post={},
    )
    position = parse("O i c (f / true)")
    assert local_power(park, "w1", john, position, ActionModelEnv([john])).holds is True
    for call in (lambda env: local_power(park, "w1", john, position, env),
                 lambda env: global_power(park, "w1", john, env),
                 lambda env: permissible(park, "w1", john, "a1", "f", env)):
        with pytest.raises(NameResolutionError, match="John"):
            call(ActionModelEnv([other]))


def test_a_pair_outside_the_table_is_refused(park, john):
    with pytest.raises(NameResolutionError, match="global scope only"):
        verdict("liability", "local", park, "w1", john, parse("true"))
    with pytest.raises(NameResolutionError, match="unknown verdict kind 'claim'"):
        verdict("claim", "global", park, "w1", john)


def test_local_scope_without_a_position_is_refused(park, john):
    with pytest.raises(HohfeldError, match="local power needs a position"):
        verdict("power", "local", park, "w1", john)


# -- JSON rendering ----------------------------------------------------------------

def test_verdict_json_shapes(contract, signing):
    glob = global_power(contract, "w1", signing).to_json_dict()
    assert glob == {
        "kind": "power", "scope": "global", "holds": True, "witnesses": ["a1"],
    }
    loc = local_power(contract, "w1", signing, parse("O i k (f / true)")).to_json_dict()
    assert loc == {
        "kind": "power", "scope": "local", "holds": True,
        "witnesses": ["a1"], "currentTruth": False,
    }


# -- invariants over seeded random instances ----------------------------------------

def test_verdict_invariants_on_random_instances():
    cfg = GeneratorConfig(sample_count=100)
    rng = random.Random(cfg.seed)
    for _ in range(cfg.sample_count):
        model = random_model(cfg, rng)
        act = random_action_model(cfg, model, rng)
        state = rng.choice(sorted(model.states))
        atoms = tuple(sorted(model.val))
        agents = tuple(sorted(model.agents))
        position = random_static_formula(rng, atoms, agents, 3)

        power = global_power(model, state, act)
        immunity = global_immunity(model, state, act)
        assert power.holds == bool(power.witnesses)
        assert immunity.holds == (not immunity.witnesses)
        assert power.witnesses == immunity.witnesses
        assert liability(model, state, act).holds == power.holds
        assert no_power(model, state, act).holds == immunity.holds

        env = ActionModelEnv([act])
        lp = local_power(model, state, act, position, env)
        li = local_immunity(model, state, act, position, env)
        assert lp.holds == (not li.holds)
        assert lp.witnesses == li.witnesses
        assert set(lp.witnesses) <= set(power.witnesses)


# -- the verdict table against the product and against the reduction --------------

TABLE_PAIRS = [("power", "global"), ("immunity", "global"), ("liability", "global"),
               ("nopower", "global"), ("power", "local"), ("immunity", "local")]


def expected_verdict(kind, scope, doers, after, current):
    """The verdict from the executable actions, the position's truth after
    each of them, and its truth now."""
    if scope == "global":
        witnesses, current = tuple(doers), None
    else:
        witnesses = tuple(a for a in doers if after[a] != current)
    holds = bool(witnesses) if kind in ("power", "liability") else not witnesses
    return PositionVerdict({"nopower": "noPower"}.get(kind, kind), scope, holds, witnesses, current)


def test_every_table_verdict_is_the_product_one_and_the_reduced_one():
    cfg = GeneratorConfig(sample_count=200, max_states=4)
    rng = random.Random(cfg.seed)
    for _ in range(cfg.sample_count):
        model = random_model(cfg, rng)
        act = random_action_model(cfg, model, rng)
        position = random_static_formula(rng, tuple(sorted(model.val)),
                                         tuple(sorted(model.agents)), 3)
        env = ActionModelEnv([act])
        actions = sorted(act.actions)
        try:
            updated = product(model, act)
            pairs = {origin: name for name, origin in updated.provenance.items()}
        except EmptyProductError:
            updated, pairs = None, {}
        # [act A a] T and <act A a> true pushed through the sound rules: static
        reduced_after = {a: truth_set(model, translate(ActBox(act.name, a, position), env))
                         for a in actions}
        reduced_doers = {a: truth_set(model, translate(act_dia(act.name, a, TOP), env))
                         for a in actions}
        for w in sorted(model.states):
            current = evaluate(model, w, position)
            doers = [a for a in actions if (w, a) in pairs]
            after = {a: evaluate(updated.model, pairs[w, a], position) for a in doers}
            reduced = ([a for a in actions if w in reduced_doers[a]],
                       {a: w in reduced_after[a] for a in actions})
            for kind, scope in TABLE_PAIRS:
                expected = expected_verdict(kind, scope, doers, after, current)
                assert expected == expected_verdict(kind, scope, *reduced, current)
                assert verdict(kind, scope, model, w, act, position, env) == expected
