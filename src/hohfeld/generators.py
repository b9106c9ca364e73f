"""Seeded random models, action models, and formulas for audits.

All sampling flows through one ``random.Random`` instance, so a fixed
config yields an identical sequence of instances on every run.  Degenerate
shapes come up with positive probability on purpose: identity and total
preorders, singleton and total partitions, empty and full valuations,
constant postconditions, and mutually exclusive preconditions.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate

from .actions import DeonticActionModel
from .formula import (
    BOT,
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
    act_dia,
    conj,
    is_static,
)
from .model import PrefActionModel, blocks_to_relation, closure

AGENT_POOL = ("i", "j", "k", "l", "m", "n")
ATOM_POOL = ("p", "q", "r", "s", "t", "u1")

DEFAULT_SEED = 42


def _cumulative(names: tuple[str, ...], weights: tuple[int, ...]) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """A draw table: the names and their running weight totals, in the order
    ``rng.choices`` reads them; reordering an entry changes every seeded draw."""
    return names, tuple(accumulate(weights))


def _draw(rng: random.Random, table: tuple) -> str:
    """One weighted draw; ``choices`` given the running totals draws what it
    draws given the weights, without summing them at each call."""
    return rng.choices(table[0], cum_weights=table[1])[0]


_PREORDER_MODES = _cumulative(("absent", "identity", "total", "chain", "random"), (15, 15, 15, 15, 40))
_PARTITION_MODES = _cumulative(("singletons", "total", "random"), (25, 25, 50))
_VALUATION_MODES = _cumulative(("empty", "full", "random"), (20, 20, 60))
_PRE_MODES = _cumulative(("top", "exclusive", "random"), (25, 30, 45))
_POST_MODES = _cumulative(("top", "bot", "formula"), (30, 30, 40))


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = DEFAULT_SEED
    max_states: int = 5
    max_actions: int = 3
    max_atoms: int = 3
    max_agents: int = 2
    max_formula_depth: int = 4
    sample_count: int = 500


def _random_preorder(rng: random.Random, members: list[str]) -> frozenset | None:
    """A preorder over members, or None meaning "leave undeclared"."""
    mode = _draw(rng, _PREORDER_MODES)
    if mode == "absent":
        return None
    if mode == "identity":
        return closure([], members)
    if mode == "total":
        return frozenset((a, b) for a in members for b in members)
    if mode == "chain":
        order = list(members)
        rng.shuffle(order)
        return closure([(order[k], order[k + 1]) for k in range(len(order) - 1)], members)
    edges = [
        (a, b)
        for a in members
        for b in members
        if a != b and rng.random() < 0.35
    ]
    return closure(edges, members)


def _random_partition(rng: random.Random, members: list[str]) -> frozenset:
    mode = _draw(rng, _PARTITION_MODES)
    if mode == "singletons":
        return blocks_to_relation([[w] for w in members])
    if mode == "total":
        return blocks_to_relation([members])
    order = list(members)
    rng.shuffle(order)
    blocks: list[list[str]] = [[order[0]]]
    for w in order[1:]:
        if rng.random() < 0.5:
            blocks.append([w])
        else:
            rng.choice(blocks).append(w)
    return blocks_to_relation(blocks)


def random_model(cfg: GeneratorConfig, rng: random.Random | None = None,
                 atoms: tuple[str, ...] | None = None,
                 agents: tuple[str, ...] | None = None) -> PrefActionModel:
    """One random model; vocabulary can be pinned for equivalence checks."""
    if rng is None:
        rng = random.Random(cfg.seed)
    states = [f"w{k}" for k in range(rng.randint(1, cfg.max_states))]
    if agents is None:
        agents = AGENT_POOL[: rng.randint(1, cfg.max_agents)]
    if atoms is None:
        atoms = ATOM_POOL[: rng.randint(1, cfg.max_atoms)]

    pref = {}
    for i in agents:
        for j in agents:
            rel = _random_preorder(rng, states)
            if rel is not None:
                pref[(i, j)] = rel

    # every agent gets a partition: random formulas may apply "do" to any of them
    eq = {agent: _random_partition(rng, states) for agent in agents}

    val = {}
    for atom in atoms:
        mode = _draw(rng, _VALUATION_MODES)
        if mode == "empty":
            val[atom] = frozenset()
        elif mode == "full":
            val[atom] = frozenset(states)
        else:
            val[atom] = frozenset(w for w in states if rng.random() < 0.5)

    return PrefActionModel(
        states=frozenset(states),
        agents=frozenset(agents),
        pref=pref,
        eq=eq,
        val=val,
    )


def _exclusive_preconditions(atoms: tuple[str, ...], count: int) -> list[Formula]:
    """Pairwise exclusive conjunctions of literals (falsum once patterns run out)."""
    width = 1
    while 2 ** width < count and width < len(atoms):
        width += 1
    out: list[Formula] = []
    for k in range(count):
        if k >= 2 ** width:
            out.append(BOT)
            continue
        literals = []
        for bit in range(width):
            atom: Formula = Atom(atoms[bit])
            literals.append(atom if (k >> bit) & 1 == 0 else Not(atom))
        out.append(conj(literals))
    return out


def random_action_model(cfg: GeneratorConfig, model: PrefActionModel,
                        rng: random.Random | None = None,
                        name: str = "A") -> DeonticActionModel:
    """One random action model over the model's vocabulary."""
    if rng is None:
        rng = random.Random(cfg.seed)
    atoms = tuple(sorted(model.val))
    agents = tuple(sorted(model.agents))
    actions = [f"a{k}" for k in range(rng.randint(1, cfg.max_actions))]

    rel = {}
    for i in agents:
        for j in agents:
            relation = _random_preorder(rng, actions)
            if relation is not None:
                rel[(i, j)] = relation

    pre_mode = _draw(rng, _PRE_MODES)
    if pre_mode == "top":
        pre = {a: TOP for a in actions}
    elif pre_mode == "exclusive" and atoms:
        pre = dict(zip(actions, _exclusive_preconditions(atoms, len(actions))))
    else:
        pre = {
            a: random_static_formula(rng, atoms, agents, depth=min(2, cfg.max_formula_depth))
            for a in actions
        }

    post: dict[str, dict[str, Formula]] = {}
    for a in actions:
        overrides = {}
        for atom in rng.sample(atoms, rng.randint(0, min(2, len(atoms)))):
            kind = _draw(rng, _POST_MODES)
            if kind == "top":
                overrides[atom] = TOP
            elif kind == "bot":
                overrides[atom] = BOT
            else:
                overrides[atom] = random_static_formula(rng, atoms, agents, depth=2)
        if overrides:
            post[a] = overrides

    owner = rng.choice(agents)
    return DeonticActionModel(
        name=name,
        owner=owner,
        actions=frozenset(actions),
        rel=rel,
        pre=pre,
        post=post,
    )


# Node kinds and their weights per generator mode.
_STATIC_KINDS = _cumulative(("not", "and", "or", "imp", "iff", "pref", "univ", "does", "obl"),
                            (15, 13, 13, 10, 6, 14, 9, 10, 10))
_DYNAMIC_KINDS = _cumulative(("box", "dia", "not", "and", "or", "imp", "pref", "univ", "does", "obl"),
                             (18, 10, 12, 11, 11, 8, 10, 7, 7, 6))
_LEAVES = _cumulative(("atom", "top", "bot"), (70, 15, 15))
_BINARY = {"and": And, "or": Or, "imp": Imp, "iff": Iff}


def random_static_formula(rng: random.Random, atoms: tuple[str, ...],
                          agents: tuple[str, ...], depth: int) -> Formula:
    """Random formula without dynamic boxes, depth-bounded."""
    return _random_formula(rng, atoms, agents, depth, _STATIC_KINDS, None)


def random_dynamic_formula(rng: random.Random, atoms: tuple[str, ...],
                           agents: tuple[str, ...], act: DeonticActionModel,
                           depth: int) -> Formula:
    """Random formula guaranteed to contain at least one dynamic operator."""
    f = _random_formula(rng, atoms, agents, depth, _DYNAMIC_KINDS, act)
    if not is_static(f):
        return f
    action = rng.choice(sorted(act.actions))
    wrap = ActBox if rng.random() < 0.5 else act_dia
    return wrap(act.name, action, f)


def _random_formula(rng: random.Random, atoms: tuple[str, ...], agents: tuple[str, ...],
                    depth: int, kinds: tuple[tuple[str, ...], tuple[int, ...]],
                    act: DeonticActionModel | None) -> Formula:
    if depth <= 0 or rng.random() < 0.2:
        leaf = _draw(rng, _LEAVES)
        if leaf == "atom" and atoms:
            return Atom(rng.choice(atoms))
        return TOP if leaf != "bot" else BOT
    node = _draw(rng, kinds)
    sub = lambda: _random_formula(rng, atoms, agents, depth - 1, kinds, act)
    if node in ("box", "dia"):
        wrap = ActBox if node == "box" else act_dia
        return wrap(act.name, rng.choice(sorted(act.actions)), sub())
    if node == "not":
        return Not(sub())
    if node in _BINARY:
        return _BINARY[node](sub(), sub())
    if node == "pref":
        return PrefBox(rng.choice(agents), rng.choice(agents), sub())
    if node == "univ":
        return Univ(sub())
    if node == "does":
        return Does(rng.choice(agents), sub())
    return CondObl(rng.choice(agents), rng.choice(agents), sub(), sub())
