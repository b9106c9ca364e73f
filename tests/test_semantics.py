"""Static truth conditions on the bundled fixtures, plus error behavior."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from hohfeld.actions import ActionModelEnv
from hohfeld.errors import NameResolutionError
from hohfeld.formula import Atom, CondObl, unfold_cond_obl
from hohfeld.generators import GeneratorConfig, random_model, random_static_formula
from hohfeld.parser import parse
from hohfeld.semantics import evaluate, truth_set
import hohfeld.scenarios as scenarios

from conftest import static_formulas


# -- parking model: hand-checked truth values -------------------------------

PARK_CASES = [
    ("w1", "O i c (do i d / p)", True),
    ("w1", "O i c (do i d / !p)", False),
    ("w1", "O i c (!do i d / !p)", False),
    ("w1", "O i c (do i d / true)", False),
    ("w1", "O i c (do i p / true)", False),
    ("w1", "d", False),
    ("w2", "d", True),
    ("w1", "p", True),
    ("w4", "p", False),
    ("w1", "[pref i c] d", False),
    ("w1", "<pref i c> d", True),
    ("w2", "[pref i c] (d | !p)", True),
    ("w1", "U !f", True),
    ("w1", "E p", True),
    ("w1", "U p", False),
    ("w2", "do i d", True),
    ("w1", "do c !f", True),
    ("w1", "do c d", False),
    ("w1", "O i c (f / false)", True),   # vacuous condition
    ("w3", "O i c (d / d)", True),       # self-conditioned, always holds
    ("w1", "P i c (do i d / p)", True),  # permission is the dual of obligation
    ("w1", "P i c (!do i d / p)", False),
]


@pytest.mark.parametrize("state, text, expected", PARK_CASES)
def test_parking_static_truth(park, state, text, expected):
    assert evaluate(park, state, parse(text)) is expected


def test_parking_truth_sets(park):
    assert truth_set(park, parse("p")) == {"w1", "w2"}
    assert truth_set(park, parse("d")) == {"w2", "w3"}
    assert truth_set(park, parse("f")) == frozenset()
    assert truth_set(park, parse("O i c (do i d / p)")) == {"w1", "w2", "w3", "w4"}


# -- contract model: hand-checked truth values ------------------------------

CONTRACT_CASES = [
    ("w1", "O j i (do j !O i k (f / true) / true)", True),
    ("w2", "O j i (do j !O i k (f / true) / true)", True),
    ("w3", "O j i (do j !O i k (f / true) / true)", True),
    ("w4", "O j i (do j !O i k (f / true) / true)", True),
    ("w1", "E O i k (f / true)", False),
    ("w1", "do j !p", True),
    ("w2", "do j !p", False),
    ("w2", "!do j p & !do j !p", True),
    ("w4", "do j p", True),
]


@pytest.mark.parametrize("state, text, expected", CONTRACT_CASES)
def test_contract_static_truth(contract, state, text, expected):
    assert evaluate(contract, state, parse(text)) is expected


# -- error behavior ----------------------------------------------------------

def test_unknown_state_raises(park):
    with pytest.raises(NameResolutionError):
        evaluate(park, "zz", parse("p"))


def test_unknown_atom_raises(park):
    with pytest.raises(NameResolutionError):
        evaluate(park, "w1", parse("nosuchatom"))


def test_unknown_name_raises_whatever_the_other_operand(park):
    for text in ("true | nosuchatom", "false & nosuchatom", "false -> [pref i zz] p"):
        with pytest.raises(NameResolutionError):
            truth_set(park, parse(text))
        with pytest.raises(NameResolutionError):
            evaluate(park, "w1", parse(text))


def test_unknown_agent_raises(park):
    with pytest.raises(NameResolutionError):
        evaluate(park, "w1", parse("[pref i zz] p"))


def test_does_requires_declared_partition():
    m = scenarios.parking_model()
    stripped = type(m)(states=m.states, agents=m.agents, pref=m.pref,
                       eq={"i": m.eq["i"]}, val=m.val)
    with pytest.raises(NameResolutionError):
        evaluate(stripped, "w1", parse("do c d"))


def test_dynamic_formula_without_env_raises(park):
    with pytest.raises(NameResolutionError):
        evaluate(park, "w1", parse("[act John a1] f"))


def test_unknown_action_model_and_action_raise(park, john):
    env = ActionModelEnv([john])
    with pytest.raises(NameResolutionError):
        evaluate(park, "w1", parse("[act Nope a1] f"), env)
    with pytest.raises(NameResolutionError):
        evaluate(park, "w1", parse("[act John zz] f"), env)


# -- the obligation operator matches its box/diamond definition -------------

def test_definability_on_fixtures(park, contract):
    for model in (park, contract):
        agents = sorted(model.agents)
        texts = ("f", f"do {agents[0]} {sorted(model.val)[0]}")
        for i in agents:
            for j in agents:
                for text in texts:
                    f = CondObl(i, j, parse(text), parse("true"))
                    for w in sorted(model.states):
                        assert evaluate(model, w, f) == evaluate(model, w, unfold_cond_obl(f))


def test_definability_on_seeded_random_instances():
    cfg = GeneratorConfig(sample_count=150)
    rng = random.Random(cfg.seed)
    for _ in range(cfg.sample_count):
        model = random_model(cfg, rng)
        atoms = tuple(sorted(model.val))
        agents = tuple(sorted(model.agents))
        f = CondObl(rng.choice(agents), rng.choice(agents),
                    random_static_formula(rng, atoms, agents, 3),
                    random_static_formula(rng, atoms, agents, 3))
        unfolded = unfold_cond_obl(f)
        for w in sorted(model.states):
            assert evaluate(model, w, f) == evaluate(model, w, unfolded)


@settings(max_examples=60)
@given(static_formulas)
def test_definability_against_hypothesis_formulas(f):
    model = scenarios.parking_model()
    cond = CondObl("i", "c", f, Atom("p"))
    cond = _rename_foreign_names(cond)
    for w in sorted(model.states):
        assert evaluate(model, w, cond) == evaluate(model, w, unfold_cond_obl(cond))


def _rename_foreign_names(f):
    """Map strategy vocabulary onto the parking model's atoms and agents."""
    from hohfeld import formula as fm

    atom_map = {"p": "p", "q": "d", "r": "f", "V": "f"}
    agent_map = {"i": "i", "j": "c", "c": "c"}

    def walk(g):
        if isinstance(g, fm.Atom):
            return fm.Atom(atom_map[g.name])
        if isinstance(g, fm.Not):
            return fm.Not(walk(g.arg))
        if isinstance(g, fm.And):
            return fm.And(walk(g.left), walk(g.right))
        if isinstance(g, fm.Or):
            return fm.Or(walk(g.left), walk(g.right))
        if isinstance(g, fm.Imp):
            return fm.Imp(walk(g.left), walk(g.right))
        if isinstance(g, fm.Iff):
            return fm.Iff(walk(g.left), walk(g.right))
        if isinstance(g, fm.PrefBox):
            return fm.PrefBox(agent_map[g.i], agent_map[g.j], walk(g.arg))
        if isinstance(g, fm.Univ):
            return fm.Univ(walk(g.arg))
        if isinstance(g, fm.Does):
            return fm.Does(agent_map[g.agent], walk(g.arg))
        if isinstance(g, fm.CondObl):
            return fm.CondObl(agent_map[g.i], agent_map[g.j],
                              walk(g.consequent), walk(g.condition))
        return g

    return walk(f)
