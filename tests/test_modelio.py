"""JSON formats: loading, closure flags, partitions, dumps, round-trips."""
from __future__ import annotations

import json
import re

import pytest
from hypothesis import example, given, strategies as st

from hohfeld.actions import validate_action_model
from hohfeld.errors import ModelFormatError, NameResolutionError
from hohfeld.model import closure, validate
from hohfeld.modelio import (
    action_model_from_dict,
    action_model_to_dict,
    dumps_action_model,
    dumps_model,
    load_action_model_file,
    load_model_file,
    model_from_dict,
    model_to_dict,
)
from hohfeld.parser import parse
import hohfeld.scenarios as scenarios

from conftest import TOKENS, formulas

PARK_DICT = {
    "states": ["w1", "w2", "w3", "w4"],
    "agents": ["i", "c"],
    "pref": {"i->c": {
        "edges": [["w1", "w2"], ["w1", "w4"], ["w3", "w4"],
                  ["w4", "w3"], ["w2", "w3"], ["w3", "w2"]],
        "closed": False,
    }},
    "eq": {
        "i": {"blocks": [["w1"], ["w2"], ["w3"], ["w4"]]},
        "c": {"blocks": [["w1", "w2", "w3", "w4"]]},
    },
    "val": {"d": ["w2", "w3"], "p": ["w1", "w2"], "f": []},
}

JOHN_DICT = {
    "name": "John",
    "owner": "john",
    "actions": ["a1", "a2"],
    "rel": {"i->c": {"edges": [], "closed": False}},
    "pre": {"a1": "!d & p", "a2": "d | !p"},
    "post": {"a1": {"f": "true"}, "a2": {"f": "false"}},
}


def test_model_file_reproduces_bundled_fixture():
    assert model_from_dict(PARK_DICT) == scenarios.parking_model()


def test_action_model_file_reproduces_bundled_fixture():
    assert action_model_from_dict(JOHN_DICT) == scenarios.john_action_model()


def test_loader_applies_closure_unless_marked_closed():
    open_rel = model_from_dict({
        "states": ["w1", "w2", "w3"], "agents": ["i"],
        "pref": {"i->i": {"edges": [["w1", "w2"], ["w2", "w3"]]}},
        "eq": {}, "val": {},
    })
    assert ("w1", "w3") in open_rel.pref[("i", "i")]
    assert ("w1", "w1") in open_rel.pref[("i", "i")]

    with pytest.raises(ModelFormatError, match="marked closed but lacks"):
        model_from_dict({
            "states": ["w1", "w2", "w3"], "agents": ["i"],
            "pref": {"i->i": {"edges": [["w1", "w2"], ["w2", "w3"]], "closed": True}},
            "eq": {}, "val": {},
        })


def test_loader_verifies_relations_marked_closed():
    edges = [["w1", "w1"], ["w1", "w2"], ["w2", "w2"]]
    loaded = model_from_dict({
        "states": ["w1", "w2"], "agents": ["i"],
        "pref": {"i->i": {"edges": edges, "closed": True}}, "eq": {}, "val": {},
    })
    assert loaded.pref[("i", "i")] == {tuple(e) for e in edges}
    with pytest.raises(ModelFormatError, match=r"rel i->c .* lacks \['a1', 'a1'\]"):
        action_model_from_dict({**JOHN_DICT, "rel": {"i->c": {"edges": [], "closed": True}}})


@given(st.lists(st.tuples(st.sampled_from(["w1", "w2", "w3", "w4"]),
                          st.sampled_from(["w1", "w2", "w3", "w4"])), max_size=16))
def test_a_relation_marked_closed_loads_iff_it_is_its_closure(edges):
    states = ["w1", "w2", "w3", "w4"]
    data = {"states": states, "agents": ["i"], "eq": {}, "val": {},
            "pref": {"i->i": {"edges": [list(e) for e in edges], "closed": True}}}
    full = closure(edges, states)
    if full == frozenset(edges):
        assert model_from_dict(data).pref[("i", "i")] == full
    else:
        with pytest.raises(ModelFormatError, match=re.escape(f"lacks {list(min(full - set(edges)))}")):
            model_from_dict(data)


@pytest.mark.parametrize("mutate, message_part", [
    (lambda d: d.update(states=[]), "nonempty"),
    (lambda d: d.update(states="w1"), "list"),
    (lambda d: d["pref"].update({"i-c": {"edges": []}}), "i->j"),
    (lambda d: d["pref"].update({"x->c": {"edges": []}}), "unknown agent"),
    (lambda d: d["pref"]["i->c"].update(edges=[["w1", "zz"]]), "unknown id"),
    (lambda d: d["pref"]["i->c"].update(edges=[["w1", ["w2"]]]), "edge endpoint"),
    (lambda d: d["eq"].update({"x": {"blocks": []}}), "unknown agent"),
    (lambda d: d["eq"]["i"].update(blocks=[["w1"], ["w1", "w2"], ["w3"], ["w4"]]), "overlap"),
    (lambda d: d["eq"]["i"].update(blocks=[["w1"]]), "cover"),
    (lambda d: d["val"].update({"p": ["zz"]}), "unknown state"),
    # every name must read back through the parser; state names stay free-form
    (lambda d: d.update(states=["w1", "w1", "w2", "w3", "w4"]), "'w1' more than once"),
    (lambda d: d.update(agents=["i", "c", "i"]), "'i' more than once"),
    (lambda d: d.update(agents=["i", "c", "c d"]), "name 'c d'"),
    (lambda d: d["val"].update({"true": []}), "name 'true'"),
    (lambda d: d["val"].update({"p q": []}), "name 'p q'"),
])
def test_model_format_errors(mutate, message_part):
    data = json.loads(json.dumps(PARK_DICT))
    mutate(data)
    with pytest.raises(ModelFormatError) as err:
        model_from_dict(data)
    assert message_part in str(err.value)


@pytest.mark.parametrize("mutate, message_part", [
    (lambda d: d.update(actions=[]), "nonempty"),
    (lambda d: d.update(actions=["a1", "a*2"]), "reserved"),
    (lambda d: d["pre"].pop("a1"), "no precondition"),
    (lambda d: d["pre"].update({"a1": "!d &"}), "pre a1"),
    (lambda d: d["pre"].update({"zz": "true"}), "unknown action"),
    (lambda d: d["post"].update({"zz": {}}), "unknown action"),
    (lambda d: d["pre"].update({"a1": "[act A a1] p"}), "precondition not static"),
    (lambda d: d["post"]["a2"].update({"f": "[act B b1] p"}), "postcondition not static"),
    (lambda d: d["rel"]["i->c"].update(edges=[["a1", ["a2"]]]), "edge endpoint"),
    (lambda d: d.update(actions=["a1", "a2", "a1"]), "'a1' more than once"),
    (lambda d: d.update(name="Jo hn"), "name 'Jo hn'"),
    (lambda d: d.update(actions=["a1", "a2", "true"], pre={**d["pre"], "true": "p"}),
     "name 'true'"),
    (lambda d: d["rel"].update({"i->O": {"edges": []}}), "name 'O'"),
    (lambda d: d["post"]["a1"].update({"f 2": "true"}), "name 'f 2'"),
])
def test_action_model_format_errors(mutate, message_part):
    data = json.loads(json.dumps(JOHN_DICT))
    mutate(data)
    with pytest.raises(ModelFormatError) as err:
        action_model_from_dict(data)
    assert message_part in str(err.value)


def test_model_dump_load_round_trip():
    m = scenarios.parking_model()
    assert model_from_dict(json.loads(dumps_model(m))) == m


def test_action_model_dump_load_round_trip():
    a = scenarios.contract_action_model()
    assert action_model_from_dict(json.loads(dumps_action_model(a))) == a


def test_dumps_are_deterministic():
    m = scenarios.contract_model()
    assert dumps_model(m) == dumps_model(m)
    rebuilt = model_from_dict(json.loads(dumps_model(m)))
    assert dumps_model(rebuilt) == dumps_model(m)


def test_dumped_relations_are_closed():
    data = json.loads(dumps_model(scenarios.parking_model()))
    assert data["pref"]["i->c"]["closed"] is True


def test_file_loading(tmp_path):
    model_path = tmp_path / "m.json"
    model_path.write_text(dumps_model(scenarios.parking_model()))
    assert load_model_file(model_path) == scenarios.parking_model()

    act_path = tmp_path / "a.json"
    act_path.write_text(dumps_action_model(scenarios.john_action_model()))
    assert load_action_model_file(act_path) == scenarios.john_action_model()

    with pytest.raises(ModelFormatError):
        load_model_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ModelFormatError):
        load_model_file(bad)


def test_updated_model_states_reload():
    # states of an update contain '*'; its dump must load back
    from hohfeld.semantics import product
    up = product(scenarios.parking_model(), scenarios.john_action_model()).model
    assert model_from_dict(json.loads(dumps_model(up))) == up


def test_formula_strings_in_dumps_reparse():
    data = action_model_to_dict(scenarios.contract_action_model())
    for text in data["pre"].values():
        parse(text)


# -- fuzz: any JSON loads as a valid model or fails with an input error -------------

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=12,
)
FORMULA_TEXT = formulas.map(str) | st.lists(st.sampled_from(TOKENS), max_size=12).map(" ".join)


def _paths(value, path=()):
    """The key path of every entry below a JSON value."""
    kids = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, kid in kids:
        yield path + (key,)
        yield from _paths(kid, path + (key,))


@st.composite
def _mutants(draw, base):
    """``base`` with one entry replaced or deleted, or, in an action model,
    one pre- or postcondition set to formula text."""
    doc = json.loads(json.dumps(base))
    if "pre" in doc and draw(st.booleans()):
        action = draw(st.sampled_from(doc["actions"]))
        if draw(st.booleans()):
            doc["pre"][action] = draw(FORMULA_TEXT)
        else:
            doc["post"].setdefault(action, {})[draw(st.sampled_from(["f", "p"]))] = draw(FORMULA_TEXT)
        return doc
    *head, key = draw(st.sampled_from(list(_paths(doc))))
    where = doc
    for step in head:
        where = where[step]
    if draw(st.booleans()):
        del where[key]
    else:
        where[key] = draw(JSON)
    return doc


def _loads_valid_or_fails_cleanly(load, check, data):
    try:
        loaded = load(data)
    except (ModelFormatError, NameResolutionError):
        return
    report = check(loaded)
    assert report.ok, str(report)


@given(JSON | _mutants(PARK_DICT))
def test_model_loader_on_any_json(data):
    _loads_valid_or_fails_cleanly(model_from_dict, validate, data)


@given(JSON | _mutants(JOHN_DICT))
# random draws hit a dynamic pre- or postcondition in only a few percent of examples
@example({**JOHN_DICT, "pre": {"a1": "[act A a1] p", "a2": "d | !p"}})
@example({**JOHN_DICT, "post": {"a1": {"f": "true"}, "a2": {"p": "[act B b1] p"}}})
def test_action_model_loader_on_any_json(data):
    _loads_valid_or_fails_cleanly(action_model_from_dict, validate_action_model, data)
