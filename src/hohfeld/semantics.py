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

from .actions import PAIR_SEPARATOR, ActionModelEnv, DeonticActionModel
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
    return truths(model, state, (formula,), env)[0]


def truths(model: PrefActionModel, state: str, roots: tuple[Formula, ...],
           env: ActionModelEnv | None = None) -> list[bool]:
    """Truth of each root at ``state``, all labelled in one pass."""
    if state not in model.states:
        raise NameResolutionError(f"state {state!r} not in model")
    compiled = model.compiled
    labels, p = _mask(compiled, roots, env), compiled.index[state]
    return [bool(labels[id(f)] >> p & 1) for f in roots]


def truth_set(model: PrefActionModel, formula: Formula,
              env: ActionModelEnv | None = None) -> frozenset[str]:
    """All states where the formula holds."""
    compiled = model.compiled
    return compiled.states_of(_mask(compiled, (formula,), env)[id(formula)])


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
    """The product a box's scope is labelled on, built once per environment
    and kept in ``env.products``; none where the action is executable nowhere."""
    if env is None:
        raise NameResolutionError(
            f"formula mentions action model {f.model!r} but no action models were supplied"
        )
    act = env.get(f.model)
    if f.action not in act.actions:
        raise NameResolutionError(f"action {f.action!r} not in action model {act.name!r}")
    if not _preconditions(c, act)[f.action]:
        return None
    key = (id(c), f.model)
    hit = env.products.get(key)
    if hit is None:  # the entry pins ``c``, so its id is not reused
        hit = env.products[key] = (c, compiled_product(c, act))
    return hit[1]


def _preconditions(c: CompiledModel, act: DeonticActionModel) -> dict[str, int]:
    """Where each action is executable, in sorted action order; labelled in that
    order in one pass per (model, action model), without action models, as they are static."""
    hit = c.pre.get(id(act))
    if hit is None:  # the entry pins ``act``, so its id is not reused
        actions = sorted(act.actions)
        for action in actions:
            if action not in act.pre:
                raise ModelFormatError(f"action {action!r} has no precondition")
        labels = _mask(c, tuple(act.pre[a] for a in actions), None)
        hit = c.pre[id(act)] = (act, {a: labels[id(act.pre[a])] for a in actions})
    return hit[1]


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
               action: str) -> bool:
    """Does the action's precondition hold at the state?  It is static and
    labelled as ``product`` labels it, without action models."""
    if action not in act.actions:
        raise NameResolutionError(f"action {action!r} not in action model {act.name!r}")
    if state not in model.states:
        raise NameResolutionError(f"state {state!r} not in model")
    compiled = model.compiled
    return bool(_preconditions(compiled, act)[action] >> compiled.index[state] & 1)


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
    are built as masks row by row when first labelled.  The postconditions
    are labelled in one pass, atom by atom in sorted order.
    """
    for action in sorted(act.actions):
        if PAIR_SEPARATOR in action:
            raise ModelFormatError(
                f"action id {action!r} contains the reserved pair separator"
            )
    for action, assign in sorted(act.post.items()):
        for atom in sorted(assign):
            if atom not in base.val:
                raise NameResolutionError(
                    f"postcondition of {action!r} targets atom {atom!r} "
                    "outside the model vocabulary"
                )

    pre = _preconditions(base, act)
    shift = {a: k * len(base.names) for k, a in enumerate(pre)}
    if not any(pre.values()):
        raise EmptyProductError(
            f"no action of {act.name!r} is executable anywhere in the model"
        )
    names: list[str | None] = [None] * (len(base.names) * len(shift))
    for p, w in enumerate(base.names):
        for a, k in shift.items():
            if pre[a] >> p & 1:
                names[k + p] = pair_name(w, a)

    posts = [(atom, a, act.post_formula(a, atom)) for atom in sorted(base.val)
             for a in shift if pre[a]]
    labels = _mask(base, tuple(f for _, _, f in posts if f is not None), None)
    val = dict.fromkeys(sorted(base.val), 0)
    for atom, a, post in posts:
        after = base.val[atom] if post is None else labels[id(post)]
        val[atom] |= (after & pre[a]) << shift[a]
    agents = sorted(base.agents)
    return CompiledModel(names, base.agents, [(i, j) for i in agents for j in agents],
                         sorted(base.eq_agents), val,
                         partial(_lex_rows, base, act, pre, shift), shift)


def _lex_rows(base: CompiledModel, act: DeonticActionModel, pre: dict[str, int],
              shift: dict[str, int], key: object) -> list[int]:
    """Successor masks of one product relation, row by row.

    For ideality, ``(w, a)`` sees every pair whose action is strictly above
    ``a``, and the pairs ``(v, b)`` with ``v`` above ``w`` and ``b`` as
    effective as ``a``, as ``act.ranks`` splits them.  Indistinguishability
    ignores the actions: it puts every action in ``a``'s class.
    """
    if type(key) is tuple:
        succ, ranks = base.pref(*key), partial(act.ranks, *key)
    else:
        succ, ranks = base.eq(key), lambda a: ((), list(shift))
    rows = [0] * (len(base.names) * len(shift))
    lifted: dict[tuple, list[int]] = {}  # equally effective actions -> their rows by source
    for a, k in shift.items():
        stricts, same = ranks(a)
        same = tuple(same)
        strict = sum(pre[b] << shift[b] for b in stricts)
        lift = lifted.get(same)
        if lift is None:
            lift = lifted[same] = [sum((s & pre[b]) << shift[b] for b in same) for s in succ]
        for p, bit in enumerate(base.bits):
            if bit & pre[a]:
                rows[k + p] = strict | lift[p]
    return rows
