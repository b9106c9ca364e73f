"""Relation closure, model helpers, and frame validation."""
from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from hohfeld.errors import NameResolutionError
from hohfeld.model import (
    blocks_to_relation,
    closure,
    make_model,
    relation_to_blocks,
    validate,
)
from hohfeld.parser import parse
from hohfeld.semantics import truth_set


def naive_closure(edges, states):
    """Independent oracle: iterate matrix joins until nothing changes."""
    rel = {(w, w) for w in states} | set(edges)
    while True:
        extra = {(a, d) for (a, b) in rel for (c, d) in rel if b == c} - rel
        if not extra:
            return frozenset(rel)
        rel |= extra


STATES = ["w1", "w2", "w3", "w4"]
PARK_EDGES = [("w1", "w2"), ("w1", "w4"), ("w3", "w4"), ("w4", "w3"), ("w2", "w3"), ("w3", "w2")]


@pytest.mark.parametrize("edges, states", [
    ([], ["w"]),
    ([("w1", "w2")], ["w1", "w2"]),
    ([("w1", "w2"), ("w2", "w3")], STATES),
    (PARK_EDGES, STATES),
])
def test_closure_matches_naive_oracle(edges, states):
    assert closure(edges, states) == naive_closure(edges, states)


def test_closure_of_empty_is_identity():
    assert closure([], ["w"]) == {("w", "w")}


def test_parking_closure_shape():
    rel = closure(PARK_EDGES, STATES)
    # w1 reaches everything, the other three form one cluster
    assert {v for (w, v) in rel if w == "w1"} == set(STATES)
    for w in ("w2", "w3", "w4"):
        assert {v for (a, v) in rel if a == w} == {"w2", "w3", "w4"}


edge_sets = st.lists(
    st.tuples(st.sampled_from(STATES), st.sampled_from(STATES)), max_size=12
)


@given(edge_sets)
def test_closure_is_a_preorder_extending_input(edges):
    rel = closure(edges, STATES)
    assert set(edges) <= rel
    for w in STATES:
        assert (w, w) in rel
    for (a, b) in rel:
        for (c, d) in rel:
            if b == c:
                assert (a, d) in rel
    assert closure(rel, STATES) == rel


@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.permutations([f"s{k}" for k in range(n)]),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))))
def test_closure_matches_the_naive_oracle_in_any_state_order(case):
    states, pairs = case
    edges = [(states[a], states[b]) for a, b in pairs]
    assert closure(edges, states) == naive_closure(edges, states)


def test_blocks_round_trip():
    blocks = [["w1"], ["w2", "w3"], ["w4"]]
    rel = blocks_to_relation(blocks)
    assert relation_to_blocks(rel, STATES) == [["w1"], ["w2", "w3"], ["w4"]]
    assert ("w2", "w3") in rel and ("w3", "w2") in rel
    assert ("w1", "w2") not in rel


def simple_model(**overrides):
    base = dict(
        states=["w1", "w2"],
        agents=["i", "c"],
        pref={("i", "c"): closure([("w1", "w2")], ["w1", "w2"])},
        eq={"i": blocks_to_relation([["w1"], ["w2"]])},
        val={"p": ["w1"]},
    )
    base.update(overrides)
    return make_model(**base)


def test_validate_accepts_well_formed_model():
    assert validate(simple_model()).ok


def test_validate_reports_missing_reflexive_loop():
    broken = simple_model(pref={("i", "c"): [("w1", "w1")]})  # no (w2, w2)
    report = validate(broken)
    assert not report.ok
    assert any(
        v.property == "reflexivity" and v.witness == ("w2",) and v.relation == "pref i->c"
        for v in report.violations
    )


def test_validate_reports_transitivity_gap():
    broken = simple_model(
        states=["w1", "w2", "w3"],
        pref={("i", "c"): [("w1", "w1"), ("w2", "w2"), ("w3", "w3"), ("w1", "w2"), ("w2", "w3")]},
        eq={"i": blocks_to_relation([["w1"], ["w2"], ["w3"]])},
        val={},
    )
    report = validate(broken)
    assert any(v.property == "transitivity" and v.witness == ("w1", "w2", "w3")
               for v in report.violations)


def test_validate_reports_asymmetric_eq():
    broken = simple_model(eq={"i": [("w1", "w1"), ("w2", "w2"), ("w1", "w2")]})
    report = validate(broken)
    assert any(v.property == "symmetry" for v in report.violations)


def test_validate_reports_unknown_agent_and_stray_state():
    broken = simple_model(
        pref={("x", "c"): closure([], ["w1", "w2"])},
        val={"p": ["w9"]},
    )
    report = validate(broken)
    assert any(v.property == "unknown agent" for v in report.violations)
    assert any(v.relation == "val p" and v.witness == ("w9",) for v in report.violations)


def test_validate_reports_empty_state_set():
    report = validate(make_model(states=[], agents=[], pref={}, eq={}, val={}))
    assert any(v.relation == "states" for v in report.violations)


def test_pref_box_reads_an_undeclared_pair_as_the_identity():
    m = simple_model(pref={})
    # p holds at w1 only; every state sees just itself
    assert truth_set(m, parse("[pref i c] p")) == {"w1"}
    assert truth_set(m, parse("[pref c i] !p")) == {"w2"}


def test_ideality_reads_an_undeclared_pair_as_the_identity():
    m = simple_model()
    assert m.ideality("i", "c") == {("w1", "w1"), ("w1", "w2"), ("w2", "w2")}
    assert m.ideality("c", "i") == {("w1", "w1"), ("w2", "w2")}


def test_pref_box_unknown_agent_raises():
    with pytest.raises(NameResolutionError, match="agent 'zz' not in model"):
        truth_set(simple_model(), parse("[pref i zz] p"))


def test_do_requires_declared_relation():
    m = simple_model()
    assert truth_set(m, parse("do i p")) == {"w1"}
    with pytest.raises(NameResolutionError, match="no action-indistinguishability relation"):
        truth_set(m, parse("do c p"))  # agent exists, relation undeclared
    with pytest.raises(NameResolutionError, match="agent 'zz' not in model"):
        truth_set(m, parse("do zz p"))
