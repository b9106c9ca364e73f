"""Shared fixtures and hypothesis strategies."""
from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from hohfeld.actions import DeonticActionModel, make_action_model
from hohfeld.formula import (
    BOT,
    INFIX,
    TOP,
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
)
from hohfeld.parser import KEYWORDS
import hohfeld.scenarios as scenarios

settings.register_profile("ci", max_examples=200, deadline=None)
settings.register_profile("dev", max_examples=50, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

ATOMS = st.sampled_from(["p", "q", "r", "V"])
AGENTS = st.sampled_from(["i", "j", "c"])
ACTION_MODELS = st.sampled_from(["A", "John"])
ACTIONS = st.sampled_from(["a1", "a2"])


def _extend(children):
    unary = st.one_of(
        st.builds(Not, children),
        st.builds(Univ, children),
        st.builds(PrefBox, AGENTS, AGENTS, children),
        st.builds(Does, AGENTS, children),
        st.builds(ActBox, ACTION_MODELS, ACTIONS, children),
    )
    binary = st.one_of(
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Imp, children, children),
        st.builds(Iff, children, children),
        st.builds(CondObl, AGENTS, AGENTS, children, children),
    )
    return st.one_of(unary, binary)


formulas = st.recursive(
    st.one_of(st.builds(Atom, ATOMS), st.just(TOP), st.just(BOT)),
    _extend,
    max_leaves=25,
)


def _static_extend(children):
    unary = st.one_of(
        st.builds(Not, children),
        st.builds(Univ, children),
        st.builds(PrefBox, AGENTS, AGENTS, children),
        st.builds(Does, AGENTS, children),
    )
    binary = st.one_of(
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Imp, children, children),
        st.builds(Iff, children, children),
        st.builds(CondObl, AGENTS, AGENTS, children, children),
    )
    return st.one_of(unary, binary)


static_formulas = st.recursive(
    st.one_of(st.builds(Atom, ATOMS), st.just(TOP), st.just(BOT)),
    _static_extend,
    max_leaves=20,
)


# the grammar's tokens, for fuzzing the parser with token sequences
TOKENS = sorted(KEYWORDS) + [op for op, _, _ in INFIX.values()] + [
    "(", ")", "[", "]", "<", ">", "!", "/", "p", "q", "i", "c", "John", "a1"]


def dynamic_action_model(where: str, g: Formula) -> DeonticActionModel:
    """Action model A whose one action a1 has ``g`` as its precondition, or
    as its postcondition of p; ``make_action_model`` does not validate."""
    return make_action_model(
        name="A", owner="x", actions=["a1"], rel={},
        pre={"a1": g if where == "pre" else TOP},
        post={"a1": {"p": g}} if where == "post" else {},
    )


@pytest.fixture
def park():
    return scenarios.parking_model()


@pytest.fixture
def john():
    return scenarios.john_action_model()


@pytest.fixture
def mary():
    return scenarios.mary_action_model()


@pytest.fixture
def contract():
    return scenarios.contract_model()


@pytest.fixture
def signing():
    return scenarios.contract_action_model()
