"""The bottom-up labeller against the per-state evaluator it replaced.

``oracle_eval`` is the direct reading of the truth conditions: it walks the
formula again at every state, follows each modality state by state, and
evaluates a dynamic box's scope at the one pair-state ``w*a`` of the
product.  ``truth_set`` must give the same set on random models, for static
formulas and for dynamic ones over two action models.
"""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from hohfeld.actions import ActionModelEnv, make_action_model
from hohfeld.errors import EmptyProductError, HohfeldError, NameResolutionError
from hohfeld.formula import (
    ActBox,
    And,
    Atom,
    Bot,
    CondObl,
    Does,
    Iff,
    Imp,
    Not,
    Or,
    PrefBox,
    Top,
    Univ,
    _SHAPE,
)
from hohfeld.generators import GeneratorConfig, random_model
from hohfeld.model import closure
from hohfeld.parser import parse
from hohfeld.semantics import _RULES, _mask, pair_name, product, truth_set
import hohfeld.scenarios as scenarios

from conftest import formulas, static_formulas


def above(rel, w):
    """The states ``w`` sees along a relation, read straight off its pairs."""
    return sorted(v for u, v in rel if u == w)


def oracle_eval(model, w, f, env):
    if isinstance(f, Atom):
        states = model.val.get(f.name)
        if states is None:
            raise NameResolutionError(f"atom {f.name!r} not in model vocabulary")
        return w in states
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Not):
        return not oracle_eval(model, w, f.arg, env)
    if isinstance(f, And):
        return oracle_eval(model, w, f.left, env) and oracle_eval(model, w, f.right, env)
    if isinstance(f, Or):
        return oracle_eval(model, w, f.left, env) or oracle_eval(model, w, f.right, env)
    if isinstance(f, Imp):
        return (not oracle_eval(model, w, f.left, env)) or oracle_eval(model, w, f.right, env)
    if isinstance(f, Iff):
        return oracle_eval(model, w, f.left, env) == oracle_eval(model, w, f.right, env)
    if isinstance(f, PrefBox):
        return all(oracle_eval(model, v, f.arg, env)
                   for v in above(model.ideality(f.i, f.j), w))
    if isinstance(f, Univ):
        return all(oracle_eval(model, v, f.arg, env) for v in sorted(model.states))
    if isinstance(f, Does):
        return all(oracle_eval(model, v, f.arg, env) for v in above(model.eq[f.agent], w))
    if isinstance(f, CondObl):
        return oracle_cond_obl(model, w, f.i, f.j, f.consequent, f.condition, env)
    if isinstance(f, ActBox):
        return oracle_dynamic(model, w, f, env)
    raise TypeError(f"not a formula node: {f!r}")


def oracle_cond_obl(model, w, i, j, consequent, condition, env):
    """The forall-exists-forall obligation clause, evaluated directly."""
    rel = model.ideality(i, j)
    for v in above(rel, w):
        if not oracle_eval(model, v, condition, env):
            continue
        witnessed = False
        for u in above(rel, v):
            if not oracle_eval(model, u, condition, env):
                continue
            if all(oracle_eval(model, s, consequent, env)
                   for s in above(rel, u)
                   if oracle_eval(model, s, condition, env)):
                witnessed = True
                break
        if not witnessed:
            return False
    return True


def oracle_dynamic(model, w, f, env):
    """Vacuously true when not executable, else truth after the update."""
    act = env.get(f.model)
    if not oracle_eval(model, w, act.pre[f.action], env):
        return True
    updated = product(model, act)
    return oracle_eval(updated.model, pair_name(w, f.action), f.arg, env)


def oracle_truth_set(model, f, env=None):
    return {w for w in model.states if oracle_eval(model, w, f, env)}


# the conftest vocabulary, plus the atoms John's action model reads and writes
ATOMS = ("V", "d", "f", "p", "q", "r")
AGENTS = ("c", "i", "j")


def _model(seed: int):
    cfg = GeneratorConfig(max_states=4)
    return random_model(cfg, random.Random(seed), atoms=ATOMS, agents=AGENTS)


def _env(nowhere: bool = False):
    """A and John; with ``nowhere``, no action of A is executable anywhere."""
    a_model = make_action_model(
        name="A", owner="x", actions=["a1", "a2"],
        rel={("i", "j"): closure([("a1", "a2")], ["a1", "a2"])},
        pre={"a1": parse("false" if nowhere else "p"), "a2": parse("false" if nowhere else "!p")},
        post={"a1": {"q": parse("true")}},
    )
    return ActionModelEnv([a_model, scenarios.john_action_model()])


@settings(max_examples=150)
@given(f=static_formulas, seed=st.integers(0, 2**32 - 1))
def test_labeller_matches_the_per_state_oracle_on_static_formulas(f, seed):
    model = _model(seed)
    assert truth_set(model, f) == oracle_truth_set(model, f)


@settings(max_examples=150)
@given(f=formulas, seed=st.integers(0, 2**32 - 1))
def test_labeller_matches_the_per_state_oracle_on_dynamic_formulas(f, seed):
    model = _model(seed)
    assert truth_set(model, f, _env()) == oracle_truth_set(model, f, _env())


def _separately(model, roots, env_of):
    """Each root's truth set from its own ``truth_set`` call, or the type and
    text of the error that call raises."""
    out = []
    for f in roots:
        try:
            out.append(truth_set(model, f, env_of()))
        except HohfeldError as err:
            out.append((type(err), str(err)))
    return out


@settings(max_examples=100)
@given(f=formulas, g=formulas, seed=st.integers(0, 2**32 - 1),
       narrow=st.booleans(), nowhere=st.booleans())
def test_one_multi_root_call_labels_as_separate_truth_set_calls(f, g, seed, narrow, nowhere):
    # ``narrow`` drops atom V and agent c, so some roots fail to resolve;
    # ``nowhere`` leaves A's product empty, so its boxes hold vacuously
    cfg = GeneratorConfig(max_states=4)
    model = random_model(cfg, random.Random(seed), atoms=ATOMS[1:] if narrow else ATOMS,
                         agents=AGENTS[1:] if narrow else AGENTS)
    box = ActBox("A", "a1", f)
    roots = (f, g, And(f, g), box, ActBox("John", "a2", f), Not(box), And(box, g))
    expected = _separately(model, roots, lambda: _env(nowhere))
    errors = [r for r in expected if type(r) is tuple]
    if errors:  # the roots are labelled in order, so the first failing one raises
        with pytest.raises(errors[0][0]) as caught:
            _mask(model.compiled, roots, _env(nowhere))
        assert str(caught.value) == errors[0][1]
    else:
        labels = _mask(model.compiled, roots, _env(nowhere))
        assert [model.compiled.states_of(labels[id(r)]) for r in roots] == expected


def test_multi_root_boxes_over_an_action_executable_nowhere_hold_vacuously():
    model, env = _model(3), _env(nowhere=True)
    with pytest.raises(EmptyProductError):
        product(model, env.get("A"))
    scope = Atom("p")
    roots = (ActBox("A", "a1", scope), Not(ActBox("A", "a2", scope)), scope)
    labels = _mask(model.compiled, roots, env)
    assert [labels[id(r)] for r in roots] == [model.compiled.full, 0, model.compiled.val["p"]]


def test_multi_root_call_raises_what_the_first_failing_root_raises():
    model = _model(5)
    roots = (Atom("p"), PrefBox("i", "nobody", Atom("p")), Atom("nothing"))
    with pytest.raises(NameResolutionError, match="nobody"):
        _mask(model.compiled, roots, None)


def test_every_node_class_has_exactly_one_labelling_rule():
    assert set(_RULES) == set(_SHAPE)
    for cls, (rule, operands) in _RULES.items():
        assert callable(rule)
        assert operands is None or operands is _SHAPE[cls][0]
