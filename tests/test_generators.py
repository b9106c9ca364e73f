"""Seeded generators: determinism, validity, bounds, and degenerate coverage."""
from __future__ import annotations

import hashlib
import json
import random

import pytest

from hohfeld.actions import ActionModelEnv, make_action_model, validate_action_model
from hohfeld.errors import ConfigError, HohfeldError
from hohfeld.formula import ActBox, Atom, children, is_static, subformulas
from hohfeld.generators import (
    AGENT_POOL,
    ATOM_POOL,
    DEFAULT_SEED,
    GeneratorConfig,
    _exclusive_preconditions,
    random_action_model,
    random_dynamic_formula,
    random_model,
    random_static_formula,
)
from hohfeld.model import make_model, validate
from hohfeld.modelio import dumps_action_model, dumps_model, model_from_dict, model_to_dict
from hohfeld.parser import parse
from hohfeld.reduction import AXIOMS, VARIANTS, audit_axiom, check_equivalence
from hohfeld.semantics import evaluate
import hohfeld.generators as generators
import hohfeld.reduction as reduction
import hohfeld.scenarios as scenarios


def test_config_defaults():
    cfg = GeneratorConfig()
    assert cfg.seed == DEFAULT_SEED == 42
    assert cfg.max_states == 5
    assert cfg.max_actions == 3
    assert cfg.max_atoms == 3
    assert cfg.max_agents == 2
    assert cfg.max_formula_depth == 4
    assert cfg.sample_count == 500


@pytest.mark.parametrize("field, value", [
    ("max_states", 0), ("max_actions", 0), ("max_atoms", 0), ("max_agents", 0),
    ("max_formula_depth", -1), ("sample_count", 0), ("sample_count", -3),
    ("max_agents", len(AGENT_POOL) + 1), ("max_atoms", len(ATOM_POOL) + 1),
])
def test_config_rejects_bounds_the_generators_cannot_meet(field, value):
    with pytest.raises(ConfigError, match=field) as caught:
        GeneratorConfig(**{field: value})
    assert isinstance(caught.value, HohfeldError)


def test_config_accepts_the_extreme_valid_bounds():
    cfg = GeneratorConfig(max_states=1, max_actions=1, max_atoms=len(ATOM_POOL),
                          max_agents=len(AGENT_POOL), max_formula_depth=0, sample_count=1)
    rng = random.Random(cfg.seed)
    model = random_model(cfg, rng)
    assert len(model.states) == 1
    assert len(random_action_model(cfg, model, rng).actions) == 1


# sha256 digests of the seeded streams, computed before random models were
# drawn straight into compiled masks; a change to any draw changes them
STREAM_DIGEST = "bc5f402752117562fefc69095e159eeec643b39b7b78a5601c28af6b8dc2dbd4"
AUDIT_DIGEST = "3d30b171c903bfe1740ef55774652e1921457c0f05752bf03041330442d59c40"


def test_seeded_stream_is_pinned():
    # seeds 0-19 x 25 samples: model, action model and static formula dumps,
    # with the generator's state after each draw
    digest = hashlib.sha256()
    for seed in range(20):
        cfg = GeneratorConfig(seed=seed)
        rng = random.Random(seed)
        for _ in range(25):
            model = random_model(cfg, rng)
            digest.update(dumps_model(model).encode() + repr(rng.getstate()).encode())
            act = random_action_model(cfg, model, rng)
            digest.update(dumps_action_model(act).encode() + repr(rng.getstate()).encode())
            f = random_static_formula(rng, tuple(sorted(model.val)), tuple(sorted(model.agents)),
                                      cfg.max_formula_depth)
            digest.update(str(f).encode() + repr(rng.getstate()).encode())
    assert digest.hexdigest() == STREAM_DIGEST


def test_audit_reports_are_pinned():
    # every axiom in both variants at seeds 0-2, 60 samples of at most 4 states
    digest = hashlib.sha256()
    for seed in range(3):
        cfg = GeneratorConfig(seed=seed, sample_count=60, max_states=4)
        for name in sorted(AXIOMS):
            for variant in VARIANTS:
                report = audit_axiom(name, cfg, variant)
                text = "none" if report is None else json.dumps(report.to_json_dict(), sort_keys=True)
                digest.update(f"{name} {variant} {text}\n".encode())
    assert digest.hexdigest() == AUDIT_DIGEST


def _height(f):
    kids = children(f)
    return 1 + max(map(_height, kids)) if kids else 0


def test_audits_draw_no_formula_deeper_than_max_formula_depth(monkeypatch):
    drawn = []

    def recording(rng, atoms, agents, depth):
        drawn.append(random_static_formula(rng, atoms, agents, depth))
        return drawn[-1]

    # reduction draws scopes and instances, generators pre- and postconditions
    monkeypatch.setattr(generators, "random_static_formula", recording)
    monkeypatch.setattr(reduction, "random_static_formula", recording)
    heights = {}
    for depth in (1, 4):
        drawn.clear()
        cfg = GeneratorConfig(seed=7, sample_count=40, max_states=4, max_formula_depth=depth)
        for name in sorted(AXIOMS):
            for variant in VARIANTS:
                audit_axiom(name, cfg, variant)
        heights[depth] = max(map(_height, drawn))
    assert heights == {1: 1, 4: 3}


# computed before audits and equivalence checks drew compiled models only
EQUIVALENCE_DIGEST = "8808f0b0bafceb4c815e56a0bf5ad5916807886538e7d96a058b3ed543f55e16"


def test_equivalence_reports_are_pinned():
    # eight dynamic formulas in both variants at seeds 0-2, 40 samples of at
    # most 4 states; the paper variant falls on the U and do boxes
    toggle = make_action_model(
        name="B", owner="x", actions=["a", "b"], rel={},
        pre={"a": parse("true"), "b": parse("true")},
        post={"a": {"p": parse("true")}, "b": {"p": parse("false")}},
    )
    toggles = ActionModelEnv([toggle])
    bundle = ActionModelEnv([scenarios.john_action_model(), scenarios.mary_action_model()])
    cases = [(toggles, text) for text in (
        "[act B a] U p", "[act B a] do i p", "[act B b] [pref i j] !p")] + [
        (bundle, text) for text in (
            "[act John a1] U f", "[act Mary b1] do i d", "[act John a1] O i c (f / true)",
            "[act John a1] [act Mary b1] !f", "[act Mary b2] [pref i c] (d | f)")]
    digest = hashlib.sha256()
    for seed in range(3):
        cfg = GeneratorConfig(seed=seed, sample_count=40, max_states=4)
        for env, text in cases:
            for variant in VARIANTS:
                report = check_equivalence(parse(text), env, variant, cfg)
                out = "none" if report is None else json.dumps(report.to_json_dict(), sort_keys=True)
                digest.update(f"{text} {variant} {out}\n".encode())
    assert digest.hexdigest() == EQUIVALENCE_DIGEST


def test_random_models_come_compiled_and_read_as_their_relations():
    cfg = GeneratorConfig(max_states=4)
    rng = random.Random(9)
    for _ in range(40):
        model = random_model(cfg, rng)
        assert "compiled" in model.__dict__
        reloaded = model_from_dict(model_to_dict(model))
        assert reloaded == model
        for key in reloaded.pref:
            assert model.compiled.pref(*key) == reloaded.compiled.pref(*key)
        for agent in reloaded.eq:
            assert model.compiled.eq(agent) == reloaded.compiled.eq(agent)
        assert model.compiled.val == reloaded.compiled.val


def test_same_seed_reproduces_the_whole_stream():
    cfg = GeneratorConfig()
    first, second = random.Random(cfg.seed), random.Random(cfg.seed)
    for _ in range(25):
        m1 = random_model(cfg, first)
        m2 = random_model(cfg, second)
        assert m1 == m2
        assert dumps_model(m1) == dumps_model(m2)
        a1 = random_action_model(cfg, m1, first)
        a2 = random_action_model(cfg, m2, second)
        assert a1 == a2
        assert dumps_action_model(a1) == dumps_action_model(a2)


def test_fresh_rng_restarts_the_stream_and_seeds_diverge():
    cfg = GeneratorConfig()
    first = random_model(cfg, random.Random(1))
    assert random_model(cfg, random.Random(1)) == first
    assert any(
        random_model(cfg, random.Random(s)) != first
        for s in (2, 3, 4)
    )


def test_generated_models_and_action_models_validate():
    cfg = GeneratorConfig(sample_count=200)
    rng = random.Random(cfg.seed)
    for _ in range(cfg.sample_count):
        model = random_model(cfg, rng)
        report = validate(model)
        assert report.ok, report.violations
        act = random_action_model(cfg, model, rng)
        act_report = validate_action_model(act)
        assert act_report.ok, act_report.violations


def test_size_bounds_and_vocabulary():
    cfg = GeneratorConfig(sample_count=200)
    rng = random.Random(cfg.seed)
    for _ in range(cfg.sample_count):
        model = random_model(cfg, rng)
        assert 1 <= len(model.states) <= cfg.max_states
        assert 1 <= len(model.agents) <= cfg.max_agents
        assert 1 <= len(model.val) <= cfg.max_atoms
        assert model.agents <= set(AGENT_POOL)
        assert set(model.val) <= set(ATOM_POOL)
        assert set(model.eq) == set(model.agents)
        act = random_action_model(cfg, model, rng)
        assert 1 <= len(act.actions) <= cfg.max_actions
        assert set(act.pre) == set(act.actions)
        assert act.owner in model.agents
        assert all("*" not in a for a in act.actions)


def test_vocabulary_can_be_pinned():
    cfg = GeneratorConfig()
    rng = random.Random(7)
    model = random_model(cfg, rng, atoms=("p", "V"), agents=("i", "c"))
    assert set(model.val) == {"p", "V"}
    assert model.agents == {"i", "c"}


def test_degenerate_shapes_all_occur():
    cfg = GeneratorConfig(sample_count=300)
    rng = random.Random(cfg.seed)
    seen = {
        "one_state": False,
        "missing_pref_pair": False,
        "total_pref": False,
        "singleton_partition": False,
        "total_partition": False,
        "empty_val": False,
        "full_val": False,
    }
    for _ in range(cfg.sample_count):
        model = random_model(cfg, rng)
        n = len(model.states)
        if n == 1:
            seen["one_state"] = True
        pairs = [(i, j) for i in sorted(model.agents) for j in sorted(model.agents)]
        if any(pair not in model.pref for pair in pairs):
            seen["missing_pref_pair"] = True
        if n > 1:
            total = frozenset((a, b) for a in model.states for b in model.states)
            if any(rel == total for rel in model.pref.values()):
                seen["total_pref"] = True
            identity = frozenset((w, w) for w in model.states)
            if any(rel == identity for rel in model.eq.values()):
                seen["singleton_partition"] = True
            if any(rel == total for rel in model.eq.values()):
                seen["total_partition"] = True
            if any(v == frozenset() for v in model.val.values()):
                seen["empty_val"] = True
            if any(v == model.states for v in model.val.values()):
                seen["full_val"] = True
    missing = [k for k, v in seen.items() if not v]
    assert not missing, missing


def test_exclusive_preconditions_are_pairwise_exclusive():
    model = make_model(
        states=["s0", "s1", "s2", "s3"],
        agents=["i"],
        pref={},
        eq={"i": frozenset((w, w) for w in ("s0", "s1", "s2", "s3"))},
        val={"p": ["s1", "s3"], "q": ["s2", "s3"]},
    )
    pres = _exclusive_preconditions(("p", "q"), 3)
    assert len(pres) == 3
    for w in sorted(model.states):
        holds = [k for k, pre in enumerate(pres) if evaluate(model, w, pre)]
        assert len(holds) <= 1
    # every pattern is satisfiable somewhere on the full truth table
    for pre in pres:
        assert any(evaluate(model, w, pre) for w in sorted(model.states))
    # once the patterns run out the remainder is unexecutable
    overflow = _exclusive_preconditions(("p", "q"), 5)
    assert not any(evaluate(model, w, overflow[4]) for w in sorted(model.states))


def test_static_formula_invariants():
    rng = random.Random(11)
    for depth in (0, 1, 3, 5):
        for _ in range(100):
            f = random_static_formula(rng, ("p", "q"), ("i", "j"), depth)
            assert is_static(f)
            names = {g.name for g in subformulas(f) if isinstance(g, Atom)}
            assert names <= {"p", "q"}


def test_static_formula_with_no_atoms_uses_constants():
    rng = random.Random(5)
    for _ in range(100):
        f = random_static_formula(rng, (), ("i",), 3)
        assert not any(isinstance(g, Atom) for g in subformulas(f))


def test_dynamic_formula_always_contains_a_box():
    cfg = GeneratorConfig()
    rng = random.Random(cfg.seed)
    model = random_model(cfg, rng)
    act = random_action_model(cfg, model, rng)
    atoms = tuple(sorted(model.val))
    agents = tuple(sorted(model.agents))
    for depth in (0, 1, 4):
        for _ in range(60):
            f = random_dynamic_formula(rng, atoms, agents, act, depth)
            assert any(isinstance(g, ActBox) for g in subformulas(f))
            assert not is_static(f)
