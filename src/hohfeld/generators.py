"""Seeded random models, action models, and formulas for audits.

All sampling flows through one ``random.Random`` instance, so a fixed
config yields an identical sequence of instances on every run.  Degenerate
shapes come up with positive probability on purpose: identity and total
preorders, singleton and total partitions, empty and full valuations,
constant postconditions, and mutually exclusive preconditions.

A random model is drawn straight into its compiled form: state ``w<k>`` is
bit ``k`` and every relation a list of successor masks, so an audit labels
it without building a relation of state pairs; those are built when read.
"""
from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .actions import DeonticActionModel
from .errors import ConfigError
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
from .model import CompiledModel, PrefActionModel, view, warshall

AGENT_POOL = ("i", "j", "k", "l", "m", "n")
ATOM_POOL = ("p", "q", "r", "s", "t", "u1")

DEFAULT_SEED = 42


def _cumulative(names: tuple[str, ...], weights: tuple[int, ...]) -> tuple:
    """A draw table: the names, their running weight totals, the grand total
    and the last index; reordering an entry changes every seeded draw."""
    totals = tuple(accumulate(weights))
    return names, totals, float(totals[-1]), len(totals) - 1


def _draw(rng: random.Random, table: tuple) -> str:
    """One weighted draw: one ``random()`` read against the running totals,
    which is the draw ``rng.choices`` makes given them."""
    names, totals, total, last = table
    return names[bisect_right(totals, rng.random() * total, 0, last)]


_PREORDER_MODES = _cumulative(("absent", "identity", "total", "chain", "random"), (15, 15, 15, 15, 40))
_PARTITION_MODES = _cumulative(("singletons", "total", "random"), (25, 25, 50))
_VALUATION_MODES = _cumulative(("empty", "full", "random"), (20, 20, 60))
_PRE_MODES = _cumulative(("top", "exclusive", "random"), (25, 30, 45))
_POST_MODES = _cumulative(("top", "bot", "formula"), (30, 30, 40))


@dataclass(frozen=True)
class GeneratorConfig:
    """Bounds of the random instances and the number of audit samples.

    Every ``max_*`` bound and ``sample_count`` must be at least 1,
    ``max_formula_depth`` at least 0, and ``max_agents``/``max_atoms`` at
    most their pool of six names; anything else raises ``ConfigError``.
    """

    seed: int = DEFAULT_SEED
    max_states: int = 5
    max_actions: int = 3
    max_atoms: int = 3
    max_agents: int = 2
    max_formula_depth: int = 4
    sample_count: int = 500

    def __post_init__(self) -> None:
        least = {"max_states": 1, "max_actions": 1, "max_atoms": 1, "max_agents": 1,
                 "max_formula_depth": 0, "sample_count": 1}
        for name, low in least.items():
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be at least {low}, got {getattr(self, name)}")
        for name, pool in (("max_agents", AGENT_POOL), ("max_atoms", ATOM_POOL)):
            if getattr(self, name) > len(pool):
                raise ConfigError(
                    f"{name} must be at most {len(pool)}, the size of its name pool, "
                    f"got {getattr(self, name)}")


def _preorder_rows(rng: random.Random, n: int) -> list[int] | None:
    """A preorder over the positions of ``n`` members as successor masks, or
    None meaning "leave undeclared"; positions follow the members' order."""
    mode = _draw(rng, _PREORDER_MODES)
    if mode == "absent":
        return None
    if mode == "identity":
        return [1 << p for p in range(n)]
    if mode == "total":
        return [(1 << n) - 1] * n
    if mode == "chain":  # each member sees itself and every later one
        order = list(range(n))
        rng.shuffle(order)
        rows, above = [0] * n, 0
        for p in reversed(order):
            above |= 1 << p
            rows[p] = above
        return rows
    rows = [1 << p for p in range(n)]
    for p in range(n):
        for q in range(n):
            if p != q and rng.random() < 0.35:
                rows[p] |= 1 << q
    return warshall(rows)


def _partition_rows(rng: random.Random, n: int) -> list[int]:
    """A partition of the positions of ``n`` members: each row its class."""
    mode = _draw(rng, _PARTITION_MODES)
    if mode == "singletons":
        return [1 << p for p in range(n)]
    if mode == "total":
        return [(1 << n) - 1] * n
    order = list(range(n))
    rng.shuffle(order)
    blocks: list[list[int]] = [[order[0]]]
    for p in order[1:]:
        if rng.random() < 0.5:
            blocks.append([p])
        else:
            rng.choice(blocks).append(p)
    rows = [0] * n
    for block in blocks:
        mask = sum(1 << p for p in block)
        for p in block:
            rows[p] = mask
    return rows


def random_model(cfg: GeneratorConfig, rng: random.Random | None = None,
                 atoms: tuple[str, ...] | None = None,
                 agents: tuple[str, ...] | None = None) -> PrefActionModel:
    """One random model; vocabulary can be pinned for equivalence checks.

    It comes compiled, and its ``pref``/``eq`` relations are built as state
    pairs only when read.
    """
    if rng is None:
        rng = random.Random(cfg.seed)
    return view(random_compiled_model(cfg, rng, atoms, agents))


def random_compiled_model(cfg: GeneratorConfig, rng: random.Random,
                          atoms: tuple[str, ...] | None = None,
                          agents: tuple[str, ...] | None = None) -> CompiledModel:
    """The compiled form of the model ``random_model`` draws, drawn the same
    way; ``model.view`` of it is that model."""
    states = [f"w{k}" for k in range(rng.randint(1, cfg.max_states))]
    n, full = len(states), (1 << len(states)) - 1
    if agents is None:
        agents = AGENT_POOL[: rng.randint(1, cfg.max_agents)]
    if atoms is None:
        atoms = ATOM_POOL[: rng.randint(1, cfg.max_atoms)]

    pref = {}
    for i in agents:
        for j in agents:
            rows = _preorder_rows(rng, n)
            if rows is not None:
                pref[(i, j)] = rows

    # every agent gets a partition: random formulas may apply "do" to any of them
    eq = {agent: _partition_rows(rng, n) for agent in agents}

    val = {}
    for atom in atoms:
        mode = _draw(rng, _VALUATION_MODES)
        if mode == "empty":
            val[atom] = 0
        elif mode == "full":
            val[atom] = full
        else:
            val[atom] = sum(1 << p for p in range(n) if rng.random() < 0.5)

    return CompiledModel(states, frozenset(agents), pref, eq, val, {**pref, **eq}.get)


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


def random_action_model(cfg: GeneratorConfig, model: PrefActionModel | CompiledModel,
                        rng: random.Random | None = None,
                        name: str = "A") -> DeonticActionModel:
    """One random action model over the vocabulary of a model or of its
    compiled form, which name the same atoms and agents."""
    if rng is None:
        rng = random.Random(cfg.seed)
    atoms = tuple(sorted(model.val))
    agents = tuple(sorted(model.agents))
    actions = [f"a{k}" for k in range(rng.randint(1, cfg.max_actions))]
    depth = min(2, cfg.max_formula_depth)  # of each random pre- and postcondition

    rel = {}
    for i in agents:
        for j in agents:
            rows = _preorder_rows(rng, len(actions))
            if rows is not None:
                rel[(i, j)] = frozenset((a, b) for a, row in zip(actions, rows)
                                        for q, b in enumerate(actions) if row >> q & 1)

    pre_mode = _draw(rng, _PRE_MODES)
    if pre_mode == "top":
        pre = {a: TOP for a in actions}
    elif pre_mode == "exclusive" and atoms:
        pre = dict(zip(actions, _exclusive_preconditions(atoms, len(actions))))
    else:
        pre = {a: random_static_formula(rng, atoms, agents, depth) for a in actions}

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
                overrides[atom] = random_static_formula(rng, atoms, agents, depth)
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
                    depth: int, kinds: tuple,
                    act: DeonticActionModel | None) -> Formula:
    if depth <= 0 or rng.random() < 0.2:
        leaf = _draw(rng, _LEAVES)
        if leaf == "atom" and atoms:
            return Atom(rng.choice(atoms))
        return TOP if leaf != "bot" else BOT
    node = _draw(rng, kinds)
    depth -= 1  # operands are drawn left to right, after the node's names
    if node in ("box", "dia"):
        wrap = ActBox if node == "box" else act_dia
        action = rng.choice(sorted(act.actions))
        return wrap(act.name, action, _random_formula(rng, atoms, agents, depth, kinds, act))
    if node == "not":
        return Not(_random_formula(rng, atoms, agents, depth, kinds, act))
    if node in _BINARY:
        left = _random_formula(rng, atoms, agents, depth, kinds, act)
        return _BINARY[node](left, _random_formula(rng, atoms, agents, depth, kinds, act))
    if node == "pref":
        i, j = rng.choice(agents), rng.choice(agents)
        return PrefBox(i, j, _random_formula(rng, atoms, agents, depth, kinds, act))
    if node == "univ":
        return Univ(_random_formula(rng, atoms, agents, depth, kinds, act))
    if node == "does":
        return Does(rng.choice(agents), _random_formula(rng, atoms, agents, depth, kinds, act))
    i, j = rng.choice(agents), rng.choice(agents)
    psi = _random_formula(rng, atoms, agents, depth, kinds, act)
    return CondObl(i, j, psi, _random_formula(rng, atoms, agents, depth, kinds, act))
