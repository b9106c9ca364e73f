"""Reduction rules, whole-formula translation, and the axiom audits."""
from __future__ import annotations

import pytest
from hypothesis import example, given, settings

from hohfeld.actions import ActionModelEnv, make_action_model
from hohfeld.errors import HohfeldError, ModelFormatError, NameResolutionError
from hohfeld.formula import (
    BOT,
    TOP,
    ActBox,
    And,
    Atom,
    Bot,
    Does,
    Imp,
    Not,
    PrefBox,
    Univ,
    is_static,
    unfold_head,
)
from hohfeld.generators import GeneratorConfig
from hohfeld.model import blocks_to_relation, closure, make_model, validate
from hohfeld.modelio import model_from_dict, model_to_dict
from hohfeld.parser import parse
from hohfeld.reduction import (
    AXIOMS,
    PAPER_ERRATA,
    PAPER_FORM,
    SOUND_FORM,
    VARIANTS,
    audit_axiom,
    check_equivalence,
    reduce_step,
    translate,
)
from hohfeld.semantics import evaluate
import hohfeld.scenarios as scenarios

from conftest import dynamic_action_model, formulas


def _env(*acts):
    return ActionModelEnv(acts)


# -- one-step reduction shapes ------------------------------------------------

def test_atom_steps(john):
    pre = john.pre["a1"]
    # overridden atom: the box becomes the postcondition under the guard
    assert reduce_step(john, "a1", Atom("f")) == Imp(pre, TOP)
    # untouched atom: the box becomes the atom itself under the guard
    assert reduce_step(john, "a1", Atom("d")) == Imp(pre, Atom("d"))


def test_constant_steps(john):
    assert reduce_step(john, "a1", TOP) == TOP
    assert reduce_step(john, "a1", BOT) == Imp(john.pre["a1"], BOT)


def test_connective_steps(john):
    p, q = Atom("p"), Atom("d")
    pre = john.pre["a1"]
    box = lambda g: ActBox("John", "a1", g)
    assert reduce_step(john, "a1", Not(p)) == Imp(pre, Not(box(p)))
    assert reduce_step(john, "a1", And(p, q)) == And(box(p), box(q))
    assert reduce_step(john, "a1", parse("p | d")) == Imp(pre, parse("[act John a1] p | [act John a1] d"))
    assert reduce_step(john, "a1", parse("p -> d")) == Imp(pre, parse("[act John a1] p -> [act John a1] d"))


def test_universal_step_by_variant(john):
    pre = john.pre["a1"]
    p = Atom("p")
    sound = reduce_step(john, "a1", Univ(p), SOUND_FORM)
    assert sound == Imp(pre, Univ(And(ActBox("John", "a1", p), ActBox("John", "a2", p))))
    paper = reduce_step(john, "a1", Univ(p), PAPER_FORM)
    assert paper == Imp(pre, Univ(ActBox("John", "a1", p)))


def test_does_step_by_variant(john):
    pre = john.pre["a1"]
    p = Atom("p")
    sound = reduce_step(john, "a1", Does("i", p), SOUND_FORM)
    assert sound == Imp(pre, Does("i", And(ActBox("John", "a1", p), ActBox("John", "a2", p))))
    paper = reduce_step(john, "a1", Does("i", p), PAPER_FORM)
    assert paper == Imp(pre, Does("i", ActBox("John", "a1", p)))


def test_pref_step_splits_strict_and_equivalent(mary):
    # b1 sits strictly below b2: the strict part becomes a universal box
    p = Atom("p")
    out = reduce_step(mary, "b1", PrefBox("i", "c", p))
    expected = Imp(
        mary.pre["b1"],
        And(
            Univ(ActBox("Mary", "b2", p)),
            PrefBox("i", "c", ActBox("Mary", "b1", p)),
        ),
    )
    assert out == expected


def test_pref_step_on_undeclared_pair_treats_all_actions_equivalent(john):
    p = Atom("p")
    out = reduce_step(john, "a1", PrefBox("c", "i", p))
    expected = Imp(
        john.pre["a1"],
        And(
            PrefBox("c", "i", ActBox("John", "a1", p)),
            PrefBox("c", "i", ActBox("John", "a2", p)),
        ),
    )
    assert out == expected


def test_obligation_step_goes_through_the_unfolding(john):
    f = parse("O i c (d / p)")
    assert reduce_step(john, "a1", f) == reduce_step(john, "a1", unfold_head(f))


def test_reduce_step_rejects_dynamic_scope_and_bad_variant(john):
    with pytest.raises(ValueError):
        reduce_step(john, "a1", ActBox("John", "a2", TOP))
    with pytest.raises(ValueError):
        reduce_step(john, "a1", TOP, variant="zz")


def test_translate_and_check_equivalence_reject_a_bad_variant_on_static_formulas(john):
    env = ActionModelEnv([john])
    with pytest.raises(ValueError, match="bogus"):
        translate(parse("p"), env, "bogus")
    with pytest.raises(ValueError, match="bogus"):
        check_equivalence(parse("p"), env, "bogus")


# -- whole-formula translation --------------------------------------------------

def test_translate_worked_example(john):
    env = _env(john)
    out = translate(parse("[act John a1] [pref i c] f"), env)
    assert out == parse("!d & p -> [pref i c] (!d & p -> true)")


def test_translate_is_static_and_idempotent(park, john, mary):
    env = _env(john, mary)
    cases = [
        "[act John a1] O i c (f / true)",
        "[act John a1] [act Mary b1] !f",
        "[act John a2] (d | [act John a1] f)",
        "U [act John a1] do i f",
    ]
    for text in cases:
        out = translate(parse(text), env)
        assert is_static(out)
        assert translate(out, env) == out


def test_translate_preserves_truth_on_the_parking_model(park, john, mary):
    env = _env(john, mary)
    cases = [
        "[act John a1] O i c (f / true)",
        "[act John a1] [act Mary b1] !f",
        "[act John a2] (d | [act John a1] f)",
        "U [act John a1] do i f",
        "<act John a1> O i c ((!d & p) / true)",
    ]
    for text in cases:
        f = parse(text)
        g = translate(f, env)
        for w in sorted(park.states):
            assert evaluate(park, w, f, env) == evaluate(park, w, g, env), text


def test_translate_unknown_action_model_raises(john):
    with pytest.raises(NameResolutionError):
        translate(parse("[act Nope a1] p"), _env(john))


@pytest.mark.parametrize("where", ["pre", "post"])
@settings(max_examples=30)
@given(g=formulas.filter(lambda g: not is_static(g)))
@example(g=parse("[act A a1] p"))
def test_dynamic_pre_or_postcondition_fails_through_hohfeld_errors(where, g):
    env = _env(dynamic_action_model(where, g))
    f = parse("[act A a1] p")
    with pytest.raises(HohfeldError):
        evaluate(scenarios.parking_model(), "w1", f, env)
    with pytest.raises(ModelFormatError, match=f"{where}condition not static"):
        translate(f, env)


@settings(max_examples=60)
@given(formulas)
def test_translate_always_lands_in_the_static_fragment(f):
    a_model = make_action_model(
        name="A", owner="x", actions=["a1", "a2"],
        rel={("i", "j"): closure([("a1", "a2")], ["a1", "a2"])},
        pre={"a1": parse("p"), "a2": parse("!p")},
        post={"a1": {"q": parse("true")}},
    )
    env = _env(a_model, scenarios.john_action_model())
    out = translate(f, env)
    assert is_static(out)
    assert translate(out, env) == out


# -- a hand-built countermodel for the misprinted rules ---------------------------

def _one_state_model():
    return make_model(
        states=["w"], agents=["i"], pref={},
        eq={"i": blocks_to_relation([["w"]])},
        val={"p": []},
    )


def _toggle_actions():
    return make_action_model(
        name="B", owner="x", actions=["a", "b"],
        rel={}, pre={"a": parse("true"), "b": parse("true")},
        post={"a": {"p": parse("true")}, "b": {"p": parse("false")}},
    )


@pytest.mark.parametrize("text", ["[act B a] U p", "[act B a] do i p"])
def test_hand_counterexample_to_paper_rules(text):
    model = _one_state_model()
    act = _toggle_actions()
    env = _env(act)
    f = parse(text)
    assert evaluate(model, "w", f, env) is False
    assert evaluate(model, "w", translate(f, env, PAPER_FORM), env) is True
    assert evaluate(model, "w", translate(f, env, SOUND_FORM), env) is False


def test_equivalence_search_finds_the_paper_mismatch_immediately():
    act = _toggle_actions()
    f = parse("[act B a] U p")
    cfg = GeneratorConfig(sample_count=40)
    report = check_equivalence(f, _env(act), PAPER_FORM, cfg)
    assert report is not None
    assert report.sample_index == 0
    assert report.verify()
    assert check_equivalence(f, _env(act), SOUND_FORM, cfg) is None


def test_equivalence_holds_for_sound_translation_of_bundle_formulas(john, mary):
    env = _env(john, mary)
    cfg = GeneratorConfig(sample_count=60)
    for text in (
        "[act John a1] O i c (f / true)",
        "[act John a1] [act Mary b1] !f",
        "[act Mary b2] [pref i c] (d | f)",
    ):
        assert check_equivalence(parse(text), env, SOUND_FORM, cfg) is None, text


# -- axiom audits -----------------------------------------------------------------

SOUND_AXIOMS = sorted(AXIOMS)


@pytest.mark.parametrize("name", SOUND_AXIOMS)
def test_sound_variant_audits_find_nothing(name):
    cfg = GeneratorConfig(sample_count=150)
    assert audit_axiom(name, cfg, SOUND_FORM) is None


@pytest.mark.parametrize("name", ["atomRed", "negRed", "andRed", "prefRed"])
def test_variant_insensitive_reductions_survive_the_paper_form(name):
    cfg = GeneratorConfig(sample_count=150)
    assert audit_axiom(name, cfg, PAPER_FORM) is None


@pytest.mark.parametrize("name", ["univRed", "doRed"])
def test_paper_form_quantifier_rules_are_refuted(name):
    report = audit_axiom(name, GeneratorConfig(), PAPER_FORM)
    assert report is not None
    assert report.axiom == name
    assert report.variant == PAPER_FORM
    assert report.action_model is not None
    assert report.verify()
    # pinned by the default seed; a change here means the sample stream moved
    assert report.sample_index == {"univRed": 45, "doRed": 13}[name]
    payload = report.to_json_dict()
    assert set(payload) == {
        "axiom", "variant", "sampleIndex", "state", "lhs", "rhs",
        "lhsValue", "rhsValue", "model", "actionModel",
    }
    assert payload["lhsValue"] != payload["rhsValue"]


def _assert_full_public_model(report, env=None):
    # audits draw compiled models only; a reported sample gets its model
    # built, and a copy loaded from its dump must show the same disagreement
    model = report.model
    assert validate(model).ok
    reloaded = model_from_dict(model_to_dict(model))
    assert reloaded == model
    assert model_to_dict(reloaded) == model_to_dict(model)
    assert report.verify(env)
    assert report.verify()
    env = env or ActionModelEnv([report.action_model])
    assert evaluate(reloaded, report.state, report.lhs, env) == report.lhs_value
    assert evaluate(reloaded, report.state, report.rhs, env) == report.rhs_value


@pytest.mark.parametrize("name", sorted(PAPER_ERRATA))
def test_an_audit_reports_a_full_public_model(name):
    report = audit_axiom(name, GeneratorConfig(max_states=4), PAPER_FORM)
    assert report is not None
    _assert_full_public_model(report)


def test_an_equivalence_check_reports_a_full_public_model():
    env = _env(_toggle_actions())
    report = check_equivalence(parse("[act B a] do i p"), env, PAPER_FORM,
                               GeneratorConfig(seed=3, sample_count=40))
    assert report is not None and report.action_model is not None
    _assert_full_public_model(report, env)


def test_audit_rejects_unknown_names_and_variants():
    with pytest.raises(NameResolutionError):
        audit_axiom("nosuch")
    with pytest.raises(ValueError):
        audit_axiom("S5U", GeneratorConfig(sample_count=1), variant="zz")


def test_variant_field_is_none_for_insensitive_axioms():
    # force a tiny search that cannot find anything, then check a found one
    assert audit_axiom("S5U", GeneratorConfig(sample_count=5)) is None
    report = audit_axiom("univRed", GeneratorConfig(), PAPER_FORM)
    assert report is not None and report.variant == PAPER_FORM


def test_variants_tuple():
    assert VARIANTS == (SOUND_FORM, PAPER_FORM)
    assert SOUND_FORM == "sound" and PAPER_FORM == "paper"
