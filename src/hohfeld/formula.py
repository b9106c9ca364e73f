"""Formula AST for the normative language, with rendering and rewrites.

Core nodes: atoms, boolean connectives, the per-pair ideality box
``[pref i j]``, the universal modality ``U``, the agency operator
``do i``, the conditional obligation ``O i j (consequent / condition)``,
and the dynamic box ``[act MODEL ACTION]``.  Diamonds, permission, claim,
and privilege are derived constructors, not AST nodes.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import is_not
from typing import Callable, Iterator, Sequence


class Formula:
    """Base class for AST nodes.  Nodes are frozen, hashable, comparable."""

    __slots__ = ()

    def __str__(self) -> str:
        return _render(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class PrefBox(Formula):
    """Truth in every state at least as ideal, judged for agent ``i`` toward ``j``."""

    i: str
    j: str
    arg: Formula


@dataclass(frozen=True)
class Univ(Formula):
    """Truth in every state of the model."""

    arg: Formula


@dataclass(frozen=True)
class Does(Formula):
    """Truth in every state the agent cannot distinguish by its own action."""

    agent: str
    arg: Formula


@dataclass(frozen=True)
class CondObl(Formula):
    """Conditional obligation of ``i`` toward ``j``: consequent given condition."""

    i: str
    j: str
    consequent: Formula
    condition: Formula


@dataclass(frozen=True)
class ActBox(Formula):
    """After executing ``action`` of the named action model, if executable."""

    model: str
    action: str
    arg: Formula


TOP = Top()
BOT = Bot()


# ---------------------------------------------------------------------------
# Derived constructors.  These expand immediately; the AST never stores them.

def pref_dia(i: str, j: str, arg: Formula) -> Formula:
    """Truth in some state at least as ideal."""
    return Not(PrefBox(i, j, Not(arg)))


def exist(arg: Formula) -> Formula:
    """Truth in some state of the model."""
    return Not(Univ(Not(arg)))


def act_dia(model: str, action: str, arg: Formula) -> Formula:
    """Action executable and the scope true afterwards."""
    return Not(ActBox(model, action, Not(arg)))


def perm(i: str, j: str, consequent: Formula, condition: Formula) -> Formula:
    """Conditional permission: no obligation toward the negated consequent."""
    return Not(CondObl(i, j, Not(consequent), condition))


def obligation(i: str, j: str, consequent: Formula) -> Formula:
    """Unconditional obligation: condition fixed to truth."""
    return CondObl(i, j, consequent, TOP)


def claim(i: str, j: str, arg: Formula, condition: Formula = TOP) -> Formula:
    """``i``'s claim against ``j`` that ``j`` sees to ``arg``."""
    return CondObl(j, i, Does(j, arg), condition)


def privilege(i: str, j: str, arg: Formula, condition: Formula = TOP) -> Formula:
    """``i``'s privilege against ``j``: no duty to see to the opposite."""
    return Not(CondObl(i, j, Does(i, Not(arg)), condition))


def conj(parts) -> Formula:
    """Left-folded conjunction of a sequence; empty sequence collapses to truth."""
    parts = list(parts)
    if not parts:
        return TOP
    out = parts[0]
    for part in parts[1:]:
        out = And(out, part)
    return out


def disj(parts) -> Formula:
    """Left-folded disjunction of a sequence; empty sequence collapses to falsity."""
    parts = list(parts)
    if not parts:
        return BOT
    out = parts[0]
    for part in parts[1:]:
        out = Or(out, part)
    return out


# ---------------------------------------------------------------------------
# Structure.  For each node class: its children, and the node rebuilt over
# new children with its other fields kept.  This is the only place that
# lists them; only the printer and the evaluator keep rules per node class.

_SAME_CLASS = lambda f, kids: type(f)(*kids)

_SHAPE = {
    **dict.fromkeys((Atom, Top, Bot), (lambda f: (), lambda f, kids: f)),
    **dict.fromkeys((Not, Univ), (lambda f: (f.arg,), _SAME_CLASS)),
    **dict.fromkeys((And, Or, Imp, Iff), (lambda f: (f.left, f.right), _SAME_CLASS)),
    PrefBox: (lambda f: (f.arg,), lambda f, kids: PrefBox(f.i, f.j, *kids)),
    Does: (lambda f: (f.arg,), lambda f, kids: Does(f.agent, *kids)),
    CondObl: (lambda f: (f.consequent, f.condition), lambda f, kids: CondObl(f.i, f.j, *kids)),
    ActBox: (lambda f: (f.arg,), lambda f, kids: ActBox(f.model, f.action, *kids)),
}


def children(f: Formula) -> tuple[Formula, ...]:
    return _SHAPE[type(f)][0](f)


def rebuild(f: Formula, kids: Sequence[Formula]) -> Formula:
    """The node ``f`` over new children, its other fields unchanged."""
    return _SHAPE[type(f)][1](f, kids)


def rewrite(f: Formula, step: Callable[[Formula], Formula],
            expand: Callable[[Formula], Formula] | None = None) -> Formula:
    """Rebuild ``f`` bottom-up: each node, once its children are rewritten,
    is replaced by ``step`` of it.

    ``expand``, if given, acts on the way down: each node reached is first
    replaced by ``expand`` of it, whose children are then visited.  A node
    whose children all come back as the same objects is kept, so untouched
    subformulas are shared with the input.  The walk keeps its own stack,
    so no depth overflows it.
    """
    done: list[Formula] = []
    todo = [(f, None)]
    while todo:
        g, kids = todo.pop()
        if kids is None:
            if expand is not None:
                g = expand(g)
            kids = children(g)
            if kids:
                todo.append((g, kids))
                todo.extend([(kid, None) for kid in reversed(kids)])
                continue
        else:
            new = done[-len(kids):]
            del done[-len(kids):]
            if any(map(is_not, new, kids)):
                g = rebuild(g, new)
        done.append(step(g))
    return done[0]


def subformulas(f: Formula) -> Iterator[Formula]:
    """Yield ``f`` and every node below it, preorder."""
    todo = [f]
    while todo:
        g = todo.pop()
        yield g
        todo.extend(reversed(children(g)))


def size(f: Formula) -> int:
    return sum(1 for _ in subformulas(f))


def is_static(f: Formula) -> bool:
    """True when no dynamic box occurs anywhere in the formula."""
    return not any(isinstance(g, ActBox) for g in subformulas(f))


def atom_names(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Atom))


def agent_names(f: Formula) -> frozenset[str]:
    names: set[str] = set()
    for g in subformulas(f):
        if isinstance(g, (PrefBox, CondObl)):
            names.add(g.i)
            names.add(g.j)
        elif isinstance(g, Does):
            names.add(g.agent)
    return frozenset(names)


# ---------------------------------------------------------------------------
# Conditional obligation is definable through the ideality box alone.

def unfold_head(f: CondObl) -> Formula:
    """Rewrite one obligation node into its box/diamond definition.

    O i j (psi / phi) becomes
    [pref i j](phi -> <pref i j>(phi & [pref i j](phi -> psi))).
    """
    i, j, psi, phi = f.i, f.j, f.consequent, f.condition
    return PrefBox(i, j, Imp(phi, pref_dia(i, j, And(phi, PrefBox(i, j, Imp(phi, psi))))))


def unfold_cond_obl(f: Formula) -> Formula:
    """Eliminate every obligation node, innermost first.

    The output contains no CondObl node and is evaluation-equivalent to the
    input.  Size grows by at most a factor of 7 per eliminated node.
    """
    return rewrite(f, lambda g: unfold_head(g) if isinstance(g, CondObl) else g)


# ---------------------------------------------------------------------------
# Rendering.  str(f) emits concrete syntax that reparses to an equal AST.

_PREC_TOP = 0     # <->
_PREC_IMP = 1     # ->  (right associative)
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNARY = 4


_INFIX = {        # operator, its precedence, the precedences its operands print at
    And: (" & ", _PREC_AND, _PREC_AND, _PREC_AND + 1),
    Or: (" | ", _PREC_OR, _PREC_OR, _PREC_OR + 1),
    Imp: (" -> ", _PREC_IMP, _PREC_IMP + 1, _PREC_IMP),
    Iff: (" <-> ", _PREC_TOP, _PREC_TOP, _PREC_TOP + 1),
}
_TEXT = {         # a leaf's text, or what comes before the one operand
    Atom: lambda f: f.name,
    Top: lambda f: "true",
    Bot: lambda f: "false",
    Not: lambda f: "!",
    PrefBox: lambda f: f"[pref {f.i} {f.j}] ",
    Univ: lambda f: "U ",
    Does: lambda f: f"do {f.agent} ",
    ActBox: lambda f: f"[act {f.model} {f.action}] ",
}


def _render(f: Formula) -> str:
    """Concrete syntax, left to right, off a stack of what is still to be
    written: literal text, or an operand with the precedence it prints at."""
    out: list[str] = []
    todo: list = [(f, _PREC_TOP)]
    while todo:
        piece = todo.pop()
        if type(piece) is str:
            out.append(piece)
            continue
        g, prec = piece
        kind = type(g)
        if kind in _INFIX:
            op, own, left, right = _INFIX[kind]
            if prec > own:
                out.append("(")
                todo.append(")")
            todo += [(g.right, right), op, (g.left, left)]
        elif kind is CondObl:
            out.append(f"O {g.i} {g.j} (")
            todo += [")", (g.condition, _PREC_TOP), " / ", (g.consequent, _PREC_TOP)]
        else:
            out.append(_TEXT[kind](g))
            if kind not in (Atom, Top, Bot):
                todo.append((g.arg, _PREC_UNARY))
    return "".join(out)
