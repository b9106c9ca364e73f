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
from functools import partial
from typing import Mapping

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
from .model import CompiledModel, CompiledRelations, PrefActionModel

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
    return bool(_mask(model, (formula,), env)[id(formula)] >> model.compiled.index[state] & 1)


def truth_set(model: PrefActionModel, formula: Formula,
              env: ActionModelEnv | None = None) -> frozenset[str]:
    """All states where the formula holds."""
    return model.compiled.states_of(_mask(model, (formula,), env)[id(formula)])


def _mask(model: PrefActionModel, roots: tuple[Formula, ...],
          env: ActionModelEnv | None) -> dict[int, int]:
    """The states of the roots and of every node under them on the model's
    compiled form, as bit masks by node id; ``[id(root)]`` reads a root's.

    Each node object is labelled once, after its operands, on an explicit
    stack, whichever roots share it; the roots keep every node alive, so
    labels are keyed by id.  The roots are labelled in order, so the first
    one that fails raises.  A dynamic box's operand is its scope on the
    product, built only if the action is executable somewhere; every box
    that reaches one product shares that product's labels.
    """
    base = (model, model.compiled, {})  # a model, its compiled form, its labels by node id
    products: dict[int, tuple] = {}
    todo: list[tuple] = []
    for f in reversed(roots):  # a loop, not a comprehension: one root costs no call
        todo.append((base, f, None, None))
    while todo:
        here, f, kids, there = todo.pop()
        if kids is None:
            if id(f) in here[2]:
                continue
            if type(f) is ActBox:
                kids, there = _box_operands(here, f, env, products)
            else:
                kids, there = children(f), here
            if kids:
                todo.append((here, f, kids, there))
                todo += [(there, g, None, None) for g in kids]
                continue
        labels = there[2] if kids else None
        here[2][id(f)] = _label(here[1], f, [labels[id(g)] for g in kids], there)
    return base[2]


def _box_operands(here: tuple, f: ActBox, env: ActionModelEnv | None, products: dict) -> tuple:
    """A box's scope and the product it is labelled on; none where the
    action is executable nowhere."""
    if env is None:
        raise NameResolutionError(
            f"formula mentions action model {f.model!r} but no action models were supplied"
        )
    act = env.get(f.model)
    if f.action not in act.actions:
        raise NameResolutionError(f"action {f.action!r} not in action model {act.name!r}")
    if not _precondition(here[0], act, f.action):
        return (), None
    after = env.product_of(here[0], f.model, product).model
    return (f.arg,), products.setdefault(id(after), (after, after.compiled, {}))


def _precondition(model: PrefActionModel, act: DeonticActionModel, action: str) -> int:
    """Where the action is executable, labelled once per (model, action
    model) and without action models, as preconditions are static."""
    compiled = model.compiled
    hit = compiled.pre.get(id(act))
    if hit is None:  # the entry pins ``act``, so its id is not reused
        hit = compiled.pre[id(act)] = (act, {})
    masks = hit[1]
    mask = masks.get(action)
    if mask is None:
        pre = act.pre[action]
        mask = masks[action] = _mask(model, (pre,), None)[id(pre)]
    return mask


def _label(c: CompiledModel, f: Formula, args: list, there: tuple | None) -> int:
    full = c.full
    kind = type(f)
    if kind is Atom:
        states = c.val.get(f.name)
        if states is None:
            raise NameResolutionError(f"atom {f.name!r} not in model vocabulary")
        return states
    if kind is Imp:
        return (full ^ args[0]) | args[1]
    if kind is And:
        return args[0] & args[1]
    if kind is Not:
        return full ^ args[0]
    if kind is Top:
        return full
    if kind is Or:
        return args[0] | args[1]
    if kind is Iff:
        return full ^ args[0] ^ args[1]
    if kind is Bot:
        return 0
    if kind is Univ:
        return full if args[0] == full else 0
    if kind is ActBox:  # false where the pair-state w*a exists and the scope fails
        if there is None:
            return full
        after = there[1]
        return full ^ ((after.full ^ args[0]) >> after.shift[f.action] & full)
    bits, rows = c.bits, c.eq(f.agent) if kind is Does else c.pref(f.i, f.j)
    if kind is CondObl:  # the phi-states with a witness, those without, who sees none
        psi, phi = args
        fails = phi & ~psi
        witnesses = sum(b for b, succ in zip(bits, rows) if b & phi and not succ & fails)
        unwitnessed = sum(b for b, succ in zip(bits, rows) if b & phi and not succ & witnesses)
        return sum(b for b, succ in zip(bits, rows) if not succ & unwitnessed)
    fails = full ^ args[0]
    return sum(b for b, succ in zip(bits, rows) if not succ & fails)


def executable(model: PrefActionModel, state: str, act: DeonticActionModel,
               action: str, env: ActionModelEnv | None = None) -> bool:
    """Does the action's precondition hold at the state?

    The precondition is static and is labelled as ``product`` labels it,
    without action models; ``env`` is accepted and not needed.
    """
    if action not in act.actions:
        raise NameResolutionError(f"action {action!r} not in action model {act.name!r}")
    if state not in model.states:
        raise NameResolutionError(f"state {state!r} not in model")
    return bool(_precondition(model, act, action) >> model.compiled.index[state] & 1)


def product(model: PrefActionModel, act: DeonticActionModel) -> UpdatedModel:
    """Lexicographic update of a model with an action model.

    States are the executable (state, action) pairs, named "w*a".  For every
    ordered agent pair the new ideality relation is materialized explicitly,
    reading undeclared pairs through their defaults (identity on the model,
    total on the action model); leaving them implicit would corrupt them,
    since the product of those defaults is not the identity.

    The product is compiled as it is built: pair ``(w, a)`` is bit
    ``k * n + p``, for ``a`` the ``k``-th action in sorted order and ``w``
    at bit ``p`` of the model's ``n``.  Its relations are built as masks
    row by row when first labelled, and as ``frozenset``s when first read.
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

    base = model.compiled
    width = len(base.names)
    shift = {a: k * width for k, a in enumerate(sorted(act.actions))}
    pre = {a: _precondition(model, act, a) for a in shift}
    names: list[str | None] = [None] * (width * len(shift))
    provenance = {}
    for w in sorted(model.states):
        p = base.index[w]
        for a, k in shift.items():
            if pre[a] >> p & 1:
                name = names[k + p] = pair_name(w, a)
                provenance[name] = (w, a)
    if not provenance:
        raise EmptyProductError(
            f"no action of {act.name!r} is executable anywhere in the model"
        )

    val = {}
    for atom in sorted(model.val):
        val[atom] = 0
        for a, k in shift.items():
            if pre[a]:
                post = act.post_formula(a, atom)
                after = base.val[atom] if post is None else _mask(model, (post,), None)[id(post)]
                val[atom] |= (after & pre[a]) << k
    compiled = CompiledModel(names, model.agents, model.eq, val,
                             partial(_lex_rows, base, act.rel, pre, shift), shift)
    agents = sorted(model.agents)
    updated = PrefActionModel(
        states=frozenset(provenance),
        agents=model.agents,
        pref=CompiledRelations(compiled, [(i, j) for i in agents for j in agents]),
        eq=CompiledRelations(compiled, sorted(model.eq)),
        val={atom: compiled.states_of(mask) for atom, mask in val.items()},
    )
    updated.__dict__["compiled"] = compiled  # what the cached property would hold
    return UpdatedModel(model=updated, provenance=provenance)


def _lex_rows(base: CompiledModel, rel: Mapping, pre: dict[str, int], shift: dict[str, int],
              key: object) -> list[int]:
    """Successor masks of one product relation, row by row.

    For ideality, ``(w, a)`` sees every pair whose action is strictly above
    ``a``, and the pairs ``(v, b)`` with ``v`` above ``w`` and ``b``
    equivalent to ``a``.  Indistinguishability ignores the actions: it reads
    as ideality under the total preorder, which is also an undeclared pair's.
    """
    if type(key) is tuple:
        succ, le = base.pref(*key), rel.get(key)
    else:
        succ, le = base.eq(key), None
    rows = [0] * (len(base.names) * len(shift))
    lifted: dict[tuple, list[int]] = {}  # a class of equivalent actions -> its rows by source
    for a, k in shift.items():
        above = [b for b in shift if le is None or (a, b) in le]
        same = tuple(b for b in above if le is None or (b, a) in le)
        strict = sum(pre[b] << shift[b] for b in above if b not in same)
        lift = lifted.get(same)
        if lift is None:
            lift = lifted[same] = [sum((s & pre[b]) << shift[b] for b in same) for s in succ]
        for p, bit in enumerate(base.bits):
            if bit & pre[a]:
                rows[k + p] = strict | lift[p]
    return rows
