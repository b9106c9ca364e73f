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
    _SHAPE,
)
from .model import CompiledModel, PrefActionModel, view

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
    compiled = model.compiled
    return bool(label(compiled, formula, env) >> compiled.index[state] & 1)


def truth_set(model: PrefActionModel, formula: Formula,
              env: ActionModelEnv | None = None) -> frozenset[str]:
    """All states where the formula holds."""
    compiled = model.compiled
    return compiled.states_of(label(compiled, formula, env))


def label(compiled: CompiledModel, formula: Formula, env: ActionModelEnv | None = None) -> int:
    """The states of a compiled model where the formula holds, as a bit mask."""
    return _mask(compiled, (formula,), env)[id(formula)]


def _mask(compiled: CompiledModel, roots: tuple[Formula, ...],
          env: ActionModelEnv | None) -> dict[int, int]:
    """The states of the roots and of every node under them on a compiled
    model, as bit masks by node id; ``[id(root)]`` reads a root's.

    One stack holds a node still to visit, or ``(rule, node)`` for a node
    whose operands are labelled; ``_RULES`` gives each node class its rule
    and its operands.  Each node object is labelled once, whichever roots
    share it; the roots keep every node alive, so labels are keyed by id.
    The roots are labelled in order, so the first one that fails raises.

    A dynamic box's scope is labelled on the product, built only if the
    action is executable somewhere and with the product's own stack: the
    outer stack waits in ``waiting`` meanwhile.  Every box that reaches one
    product shares that product's labels.
    """
    labels: dict[int, int] = {}
    products: dict[int, dict[int, int]] = {}  # id(product) -> its labels
    waiting: list[tuple] = []  # (compiled, labels, stack) of the models below a box
    c = compiled
    todo: list = []
    for f in reversed(roots):  # a loop, not a comprehension: one root costs no call
        todo.append(f)
    while True:
        while todo:
            f = todo.pop()
            if type(f) is tuple:
                rule, f = f
                labels[id(f)] = rule(c, labels, f)
                continue
            rule, operands = _RULES[type(f)]
            if operands is None:
                labels[id(f)] = rule(c, labels, f)
            elif id(f) not in labels:
                if rule is _act_box:
                    after = _box_product(c, f, env)
                    if after is None:  # executable nowhere: the box holds vacuously
                        labels[id(f)] = c.full
                        continue
                    scoped = products.setdefault(id(after), {})
                    todo.append((partial(_act_box, after, scoped), f))
                    waiting.append((c, labels, todo))
                    c, labels, todo = after, scoped, [f.arg]
                    continue
                todo.append((rule, f))
                todo += operands(f)
        if not waiting:
            return labels
        c, labels, todo = waiting.pop()


def _box_product(c: CompiledModel, f: ActBox, env: ActionModelEnv | None) -> CompiledModel | None:
    """The product a box's scope is labelled on; none where the action is
    executable nowhere."""
    if env is None:
        raise NameResolutionError(
            f"formula mentions action model {f.model!r} but no action models were supplied"
        )
    act = env.get(f.model)
    if f.action not in act.actions:
        raise NameResolutionError(f"action {f.action!r} not in action model {act.name!r}")
    if not _precondition(c, act, f.action):
        return None
    return env.product_of(c, f.model, compiled_product)


def _precondition(c: CompiledModel, act: DeonticActionModel, action: str) -> int:
    """Where the action is executable, labelled once per (model, action
    model) and without action models, as preconditions are static."""
    hit = c.pre.get(id(act))
    if hit is None:  # the entry pins ``act``, so its id is not reused
        hit = c.pre[id(act)] = (act, {})
    masks = hit[1]
    mask = masks.get(action)
    if mask is None:
        mask = masks[action] = label(c, act.pre[action])
    return mask


# ---------------------------------------------------------------------------
# Labelling rules.  ``_RULES`` gives each node class of ``formula._SHAPE``
# its rule, ``rule(compiled, labels, node)``, which reads its operands'
# labels by id, and the class's operand getter from ``_SHAPE``, or None for
# a leaf, which is labelled as soon as it is met.

def _atom(c: CompiledModel, labels: dict, f: Atom) -> int:
    states = c.val.get(f.name)
    if states is None:
        raise NameResolutionError(f"atom {f.name!r} not in model vocabulary")
    return states


def _sees_none(bits: list[int], rows: list[int], mask: int) -> int:
    """The states none of whose successors is in ``mask``."""
    return sum([b for b, succ in zip(bits, rows) if not succ & mask])


def _cond_obl(c: CompiledModel, labels: dict, f: CondObl) -> int:
    # the phi-states with a witness, those without, and who sees none of those
    bits, rows = c.bits, c.pref(f.i, f.j)
    psi, phi = labels[id(f.consequent)], labels[id(f.condition)]
    fails = phi & ~psi
    witnesses = sum([b for b, succ in zip(bits, rows) if b & phi and not succ & fails])
    unwitnessed = sum([b for b, succ in zip(bits, rows) if b & phi and not succ & witnesses])
    return _sees_none(bits, rows, unwitnessed)


def _act_box(after: CompiledModel, scoped: dict, c: CompiledModel, labels: dict, f: ActBox) -> int:
    # false where the pair-state w*a exists and the scope fails there, as
    # labelled on the product ``after``
    full = c.full
    return full ^ ((after.full ^ scoped[id(f.arg)]) >> after.shift[f.action] & full)


_RULES = {cls: (rule, None if cls in (Atom, Top, Bot) else _SHAPE[cls][0]) for cls, rule in {
    Atom: _atom,
    Top: lambda c, labels, f: c.full,
    Bot: lambda c, labels, f: 0,
    Not: lambda c, labels, f: c.full ^ labels[id(f.arg)],
    And: lambda c, labels, f: labels[id(f.left)] & labels[id(f.right)],
    Or: lambda c, labels, f: labels[id(f.left)] | labels[id(f.right)],
    Imp: lambda c, labels, f: (c.full ^ labels[id(f.left)]) | labels[id(f.right)],
    Iff: lambda c, labels, f: c.full ^ labels[id(f.left)] ^ labels[id(f.right)],
    Univ: lambda c, labels, f: c.full if labels[id(f.arg)] == c.full else 0,
    PrefBox: lambda c, labels, f: _sees_none(c.bits, c.pref(f.i, f.j), c.full ^ labels[id(f.arg)]),
    Does: lambda c, labels, f: _sees_none(c.bits, c.eq(f.agent), c.full ^ labels[id(f.arg)]),
    CondObl: _cond_obl,
    ActBox: _act_box,  # met by ``_mask`` before its rule, which takes the product first
}.items()}


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
    compiled = model.compiled
    return bool(_precondition(compiled, act, action) >> compiled.index[state] & 1)


def product(model: PrefActionModel, act: DeonticActionModel) -> UpdatedModel:
    """Lexicographic update of a model with an action model.

    States are the executable (state, action) pairs, named "w*a".  For every
    ordered agent pair the new ideality relation is materialized explicitly,
    reading undeclared pairs through their defaults (identity on the model,
    total on the action model); leaving them implicit would corrupt them,
    since the product of those defaults is not the identity.

    This is ``compiled_product`` with the model over it and the origin of
    each pair-state, in sorted state order, then sorted action order.
    """
    base = model.compiled
    after = compiled_product(base, act)
    provenance = {}
    for w in sorted(base.index):
        p = base.index[w]
        for a, k in after.shift.items():
            name = after.names[k + p]
            if name is not None:
                provenance[name] = (w, a)
    return UpdatedModel(model=view(after), provenance=provenance)


def compiled_product(base: CompiledModel, act: DeonticActionModel) -> CompiledModel:
    """The compiled form of ``product``, from the model's compiled form.

    Pair ``(w, a)`` is bit ``k * n + p``, for ``a`` the ``k``-th action in
    sorted order and ``w`` at bit ``p`` of the model's ``n``.  Its relations
    are built as masks row by row when first labelled.
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
            if atom not in base.val:
                raise NameResolutionError(
                    f"postcondition of {action!r} targets atom {atom!r} "
                    "outside the model vocabulary"
                )

    width = len(base.names)
    shift = {a: k * width for k, a in enumerate(sorted(act.actions))}
    pre = {a: _precondition(base, act, a) for a in shift}
    if not any(pre.values()):
        raise EmptyProductError(
            f"no action of {act.name!r} is executable anywhere in the model"
        )
    names: list[str | None] = [None] * (width * len(shift))
    for p, w in enumerate(base.names):
        for a, k in shift.items():
            if pre[a] >> p & 1:
                names[k + p] = pair_name(w, a)

    val = {}
    for atom in sorted(base.val):
        val[atom] = 0
        for a, k in shift.items():
            if pre[a]:
                post = act.post_formula(a, atom)
                after = base.val[atom] if post is None else label(base, post)
                val[atom] |= (after & pre[a]) << k
    agents = sorted(base.agents)
    return CompiledModel(names, base.agents, [(i, j) for i in agents for j in agents],
                         sorted(base.eq_agents), val,
                         partial(_lex_rows, base, act.rel, pre, shift), shift)


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
