"""Truth evaluation on preference-action models and lexicographic updates.

The obligation clause is the best-states reading suited to preorders that
need not be converse well-founded:

    O i j (psi / phi) holds at w  iff  for every v above w satisfying phi
    there is a u above v satisfying phi such that psi holds at every
    phi-state above u,

where "above" means at-least-as-ideal along the pair's relation.

Updating with an action model keeps the executable (state, action) pairs
and ranks them lexicographically: an action strictly more effective wins
outright; between equally effective actions the old ideality decides.
"""
from __future__ import annotations

from dataclasses import dataclass

from .actions import ActionModelEnv, DeonticActionModel
from .errors import EmptyProductError, ModelFormatError, NameResolutionError
from .formula import (
    ActBox,
    And,
    Atom,
    Bot,
    CondObl,
    Does,
    Formula,
    Iff,
    Imp,
    Not,
    Or,
    PrefBox,
    Top,
    Univ,
    children,
)
from .model import PrefActionModel

PAIR_SEPARATOR = "*"


def pair_name(state: str, action: str) -> str:
    return state + PAIR_SEPARATOR + action


@dataclass(frozen=True)
class UpdatedModel:
    """A product model together with the origin of each pair-state."""

    model: PrefActionModel
    provenance: dict[str, tuple[str, str]]


def evaluate(model: PrefActionModel, state: str, formula: Formula,
             env: ActionModelEnv | None = None) -> bool:
    """Truth of ``formula`` at ``state``.

    ``env`` supplies the action models referenced by dynamic boxes; leaving
    it out is fine for static formulas.
    """
    if state not in model.states:
        raise NameResolutionError(f"state {state!r} not in model")
    return state in truth_set(model, formula, env)


def truth_set(model: PrefActionModel, formula: Formula,
              env: ActionModelEnv | None = None) -> frozenset[str]:
    """All states where the formula holds.

    Each node is labelled once, after its operands, on an explicit stack.
    A dynamic box's operand is its scope on the product, built only if the
    action is executable somewhere.  Each label keeps its node alive.
    """
    base = (model, {}, {})  # a model, its labels by node id, its successor maps
    products: dict[int, tuple] = {}
    todo: list[tuple] = [(base, formula, None, None)]
    while todo:
        here, f, kids, there = todo.pop()
        if kids is None:
            if id(f) in here[1]:
                continue
            kids, there = _operands(here, f, env, products)
            if kids:
                todo.append((here, f, kids, there))
                todo.extend([(there, g, None, None) for g in kids])
                continue
        args = [there[1][id(g)][1] for g in kids]
        here[1][id(f)] = (f, _label(here, f, args, there))
    return base[1][id(formula)][1]


def _operands(here: tuple, f: Formula, env: ActionModelEnv | None, products: dict) -> tuple:
    """The nodes ``f``'s label is computed from, and the model they are labelled on."""
    if not isinstance(f, ActBox):
        return children(f), here
    if env is None:
        raise NameResolutionError(
            f"formula mentions action model {f.model!r} but no action models were supplied"
        )
    act = env.get(f.model)
    if f.action not in act.actions:
        raise NameResolutionError(f"action {f.action!r} not in action model {act.name!r}")
    if not truth_set(here[0], act.pre[f.action]):  # static, as in ``product``
        return (), None
    after = env.product_of(here[0], f.model, product).model
    return (f.arg,), products.setdefault(id(after), (after, {}, {}))


def _label(here: tuple, f: Formula, args: list, there: tuple | None) -> frozenset[str]:
    m, _, maps = here
    everywhere = m.states
    kind = type(f)
    if kind is Atom:
        states = m.val.get(f.name)
        if states is None:
            raise NameResolutionError(f"atom {f.name!r} not in model vocabulary")
        return states & everywhere
    if kind is Imp:
        return (everywhere - args[0]) | args[1]
    if kind is And:
        return args[0] & args[1]
    if kind is Not:
        return everywhere - args[0]
    if kind is Top:
        return everywhere
    if kind is Or:
        return args[0] | args[1]
    if kind is Iff:
        return everywhere - (args[0] ^ args[1])
    if kind is Bot:
        return frozenset()
    if kind is Univ:
        return everywhere if args[0] == everywhere else frozenset()
    if kind is ActBox:  # false where the pair-state w*a exists and the scope fails
        fails = there[0].states - args[0] if there else ()
        return frozenset(w for w in everywhere if pair_name(w, f.action) not in fails)
    key = f.agent if kind is Does else (f.i, f.j)
    if key not in maps:  # built once per model and relation
        maps[key] = m.eq_map(f.agent) if kind is Does else m.pref_map(f.i, f.j)
    succ = maps[key]
    if kind is CondObl:
        psi, phi = args
        witnesses = {u for u in phi if succ[u] & phi <= psi}
        return frozenset(w for w in everywhere
                         if all(succ[v] & witnesses for v in succ[w] & phi))
    return frozenset(w for w in everywhere if succ[w] <= args[0])


def executable(model: PrefActionModel, state: str, act: DeonticActionModel,
               action: str, env: ActionModelEnv | None = None) -> bool:
    """Does the action's precondition hold at the state?"""
    if action not in act.actions:
        raise NameResolutionError(f"action {action!r} not in action model {act.name!r}")
    if state not in model.states:
        raise NameResolutionError(f"state {state!r} not in model")
    return state in truth_set(model, act.pre[action], env)


def product(model: PrefActionModel, act: DeonticActionModel) -> UpdatedModel:
    """Lexicographic update of a model with an action model.

    States are the executable (state, action) pairs, named "w*a".  For every
    ordered agent pair the new ideality relation is materialized explicitly,
    reading undeclared pairs through their defaults (identity on the model,
    total on the action model); leaving them implicit would corrupt them,
    since the product of those defaults is not the identity.
    """
    for action in sorted(act.actions):
        if PAIR_SEPARATOR in action:
            raise ModelFormatError(
                f"action id {action!r} contains the reserved pair separator"
            )
        if action not in act.pre:
            raise ModelFormatError(f"action {action!r} has no precondition")
    for action, assign in sorted(act.post.items()):
        for atom in sorted(assign):
            if atom not in model.val:
                raise NameResolutionError(
                    f"postcondition of {action!r} targets atom {atom!r} "
                    "outside the model vocabulary"
                )

    actions = sorted(act.actions)
    pre = {a: truth_set(model, act.pre[a]) for a in actions}
    pairs = [(w, a) for w in sorted(model.states) for a in actions if w in pre[a]]
    if not pairs:
        raise EmptyProductError(
            f"no action of {act.name!r} is executable anywhere in the model"
        )
    names = {wa: pair_name(*wa) for wa in pairs}

    every = frozenset((a, b) for a in actions for b in actions)
    new_pref: dict[tuple[str, str], frozenset[tuple[str, str]]] = {}
    for i in sorted(model.agents):
        for j in sorted(model.agents):
            base = model.ideality(i, j)
            le = act.rel.get((i, j), every)
            new_pref[(i, j)] = frozenset(
                (names[w, a], names[v, b])
                for (w, a) in pairs for (v, b) in pairs
                if (a, b) in le and ((b, a) not in le or (w, v) in base)
            )

    new_eq = {
        agent: frozenset(
            (names[w, a], names[v, b])
            for (w, a) in pairs
            for (v, b) in pairs
            if (w, v) in rel
        )
        for agent, rel in sorted(model.eq.items())
    }

    new_val = {}
    for atom in sorted(model.val):
        after = {}
        for a in sorted({a for _, a in pairs}):
            post = act.post_formula(a, atom)
            after[a] = model.val[atom] if post is None else truth_set(model, post)
        new_val[atom] = frozenset(names[w, a] for (w, a) in pairs if w in after[a])

    updated = PrefActionModel(
        states=frozenset(names.values()),
        agents=model.agents,
        pref=new_pref,
        eq=new_eq,
        val=new_val,
    )
    return UpdatedModel(model=updated, provenance={names[wa]: wa for wa in pairs})
