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
    return _eval(model, state, formula, env)


def truth_set(model: PrefActionModel, formula: Formula,
              env: ActionModelEnv | None = None) -> frozenset[str]:
    """All states where the formula holds."""
    return frozenset(w for w in model.states if _eval(model, w, formula, env))


def _eval(model: PrefActionModel, w: str, f: Formula, env: ActionModelEnv | None) -> bool:
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
        return not _eval(model, w, f.arg, env)
    if isinstance(f, And):
        return _eval(model, w, f.left, env) and _eval(model, w, f.right, env)
    if isinstance(f, Or):
        return _eval(model, w, f.left, env) or _eval(model, w, f.right, env)
    if isinstance(f, Imp):
        return (not _eval(model, w, f.left, env)) or _eval(model, w, f.right, env)
    if isinstance(f, Iff):
        return _eval(model, w, f.left, env) == _eval(model, w, f.right, env)
    if isinstance(f, PrefBox):
        return all(_eval(model, v, f.arg, env) for v in model.pref_successors(f.i, f.j, w))
    if isinstance(f, Univ):
        return all(_eval(model, v, f.arg, env) for v in sorted(model.states))
    if isinstance(f, Does):
        return all(_eval(model, v, f.arg, env) for v in model.eq_class(f.agent, w))
    if isinstance(f, CondObl):
        return eval_cond_obl(model, w, f.i, f.j, f.consequent, f.condition, env)
    if isinstance(f, ActBox):
        return eval_dynamic(model, w, f, env)
    raise TypeError(f"not a formula node: {f!r}")


def eval_cond_obl(model: PrefActionModel, w: str, i: str, j: str,
                  consequent: Formula, condition: Formula,
                  env: ActionModelEnv | None = None) -> bool:
    """The forall-exists-forall obligation clause, evaluated directly."""
    for v in model.pref_successors(i, j, w):
        if not _eval(model, v, condition, env):
            continue
        witnessed = False
        for u in model.pref_successors(i, j, v):
            if not _eval(model, u, condition, env):
                continue
            if all(_eval(model, s, consequent, env)
                   for s in model.pref_successors(i, j, u)
                   if _eval(model, s, condition, env)):
                witnessed = True
                break
        if not witnessed:
            return False
    return True


def executable(model: PrefActionModel, state: str, act: DeonticActionModel,
               action: str, env: ActionModelEnv | None = None) -> bool:
    """Does the action's precondition hold at the state?"""
    if action not in act.actions:
        raise NameResolutionError(f"action {action!r} not in action model {act.name!r}")
    if state not in model.states:
        raise NameResolutionError(f"state {state!r} not in model")
    return _eval(model, state, act.pre[action], env)


def eval_dynamic(model: PrefActionModel, w: str, f: ActBox,
                 env: ActionModelEnv | None) -> bool:
    """Dynamic box: vacuously true when not executable, else truth after update."""
    if env is None:
        raise NameResolutionError(
            f"formula mentions action model {f.model!r} but no action models were supplied"
        )
    act = env.get(f.model)
    if not executable(model, w, act, f.action, env):
        return True
    updated = env.product_of(model, f.model, product)
    return _eval(updated.model, pair_name(w, f.action), f.arg, env)


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

    pairs = [
        (w, a)
        for w in sorted(model.states)
        for a in sorted(act.actions)
        if _eval(model, w, act.pre[a], None)
    ]
    if not pairs:
        raise EmptyProductError(
            f"no action of {act.name!r} is executable anywhere in the model"
        )
    names = {wa: pair_name(*wa) for wa in pairs}

    new_pref: dict[tuple[str, str], frozenset[tuple[str, str]]] = {}
    for i in sorted(model.agents):
        for j in sorted(model.agents):
            base = model.ideality(i, j)
            edges = set()
            for (w, a) in pairs:
                for (v, b) in pairs:
                    if act.strictly_below(i, j, a, b):
                        edges.add((names[w, a], names[v, b]))
                    elif act.equivalent(i, j, a, b) and (w, v) in base:
                        edges.add((names[w, a], names[v, b]))
            new_pref[(i, j)] = frozenset(edges)

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
        holds = set()
        for (w, a) in pairs:
            post = act.post_formula(a, atom)
            if post is None:
                value = w in model.val[atom]
            else:
                value = _eval(model, w, post, None)
            if value:
                holds.add(names[w, a])
        new_val[atom] = frozenset(holds)

    updated = PrefActionModel(
        states=frozenset(names.values()),
        agents=model.agents,
        pref=new_pref,
        eq=new_eq,
        val=new_val,
    )
    return UpdatedModel(model=updated, provenance={names[wa]: wa for wa in pairs})
