"""Formula AST for the normative language, with rendering and rewrites.

Core nodes: atoms, boolean connectives, the per-pair ideality box
``[pref i j]``, the universal modality ``U``, the agency operator
``do i``, the conditional obligation ``O i j (consequent / condition)``,
and the dynamic box ``[act MODEL ACTION]``.  Diamonds, permission, claim,
and privilege are derived constructors, not AST nodes.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from operator import is_not
from typing import Callable, Iterator, Sequence


class Formula:
    """Base class for AST nodes: frozen, and compared, hashed and repr'd by
    structure at any depth."""

    __slots__ = ()

    def __str__(self) -> str:
        return _render(self)

    def __repr__(self) -> str:
        # the dataclass repr text, written off one stack of literal text and
        # nodes still to write
        out: list[str] = []
        todo: list = [self]
        while todo:
            g = todo.pop()
            if isinstance(g, str):
                out.append(g)
                continue
            pieces = [f"{type(g).__name__}("]
            for k, field in enumerate(fields(g)):
                value = getattr(g, field.name)
                pieces += [f"{', ' if k else ''}{field.name}=",
                           value if isinstance(value, Formula) else repr(value)]
            pieces.append(")")
            todo += reversed(pieces)
        return "".join(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        compared: set[tuple[int, int]] = set()  # self and other keep these ids' nodes alive
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            pair = (id(a), id(b))
            if a is not b and pair not in compared:
                compared.add(pair)
                if type(a) is not type(b) or _SHAPE[type(a)][1](a) != _SHAPE[type(b)][1](b):
                    return False
                todo += zip(children(a), children(b))
        return True

    def __hash__(self) -> int:
        # bottom-up over (class, names, operand hashes), once per node object
        hashes: dict[int, int] = {}
        todo: list = [self]
        while todo:
            g = todo.pop()
            if type(g) is tuple:  # a node whose operands are hashed
                g, shape, kids = g
                hashes[id(g)] = hash((type(g), shape[1](g), *[hashes[id(kid)] for kid in kids]))
            elif id(g) not in hashes:
                shape = _SHAPE[type(g)]
                kids = shape[0](g)
                todo.append((g, shape, kids))
                todo += kids
        return hashes[id(self)]


@dataclass(frozen=True, eq=False, repr=False)
class Atom(Formula):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Top(Formula):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Bot(Formula):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True, eq=False, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class PrefBox(Formula):
    """Truth in every state at least as ideal, judged for agent ``i`` toward ``j``."""

    i: str
    j: str
    arg: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Univ(Formula):
    """Truth in every state of the model."""

    arg: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Does(Formula):
    """Truth in every state the agent cannot distinguish by its own action."""

    agent: str
    arg: Formula


@dataclass(frozen=True, eq=False, repr=False)
class CondObl(Formula):
    """Conditional obligation of ``i`` toward ``j``: consequent given condition."""

    i: str
    j: str
    consequent: Formula
    condition: Formula


@dataclass(frozen=True, eq=False, repr=False)
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
# Structure.  For each node class: its operands, and the names it carries,
# which its constructor takes first.  This is the only place that lists them;
# only the printer and the evaluator (``semantics._RULES``) keep rules per
# node class.

_NO_NAMES = lambda f: ()

_SHAPE = {
    Atom: (lambda f: (), lambda f: (f.name,)),
    **dict.fromkeys((Top, Bot), (lambda f: (), _NO_NAMES)),
    **dict.fromkeys((Not, Univ), (lambda f: (f.arg,), _NO_NAMES)),
    **dict.fromkeys((And, Or, Imp, Iff), (lambda f: (f.left, f.right), _NO_NAMES)),
    PrefBox: (lambda f: (f.arg,), lambda f: (f.i, f.j)),
    Does: (lambda f: (f.arg,), lambda f: (f.agent,)),
    CondObl: (lambda f: (f.consequent, f.condition), lambda f: (f.i, f.j)),
    ActBox: (lambda f: (f.arg,), lambda f: (f.model, f.action)),
}


def children(f: Formula) -> tuple[Formula, ...]:
    return _SHAPE[type(f)][0](f)


def rebuild(f: Formula, kids: Sequence[Formula]) -> Formula:
    """The node ``f`` over new children, its names unchanged."""
    return type(f)(*_SHAPE[type(f)][1](f), *kids)


def rewrite(f: Formula, step: Callable[[Formula], Formula],
            expand: Callable[[Formula], Formula] | None = None) -> Formula:
    """Rebuild ``f`` bottom-up: each node, once its children are rewritten,
    is replaced by ``step`` of it.

    ``expand``, if given, acts on the way down: each node reached is first
    replaced by ``expand`` of it, whose children are then visited.  A node
    whose children all come back as the same objects is kept, so untouched
    subformulas are shared with the input.  The walk keeps its own stack,
    so no depth overflows it.

    The work is hash-consed for the length of the call.  Nodes reached with
    the same class, names and operand objects are rewritten once, and nodes
    built over the same class, names and new operand objects are one object;
    so a DAG input costs its distinct nodes, not its tree size, and the
    output is a DAG.  The tables keep their nodes alive, so no id they key
    on is reused before the call returns.
    """
    reached: dict[tuple, tuple[Formula, Formula]] = {}  # key -> (first node, its rewrite)
    built: dict[tuple, Formula] = {}
    done: list[Formula] = []
    todo: list = [f]
    while todo:
        g = todo.pop()
        if type(g) is tuple:  # a node whose operands are rewritten
            key, g, h, kids = g
            new = done[-len(kids):]
            del done[-len(kids):]
            if any(map(is_not, new, kids)):
                cls = type(h)
                names = _SHAPE[cls][1](h)
                made = (cls, names, *map(id, new))
                h = built.get(made)
                if h is None:
                    h = built[made] = cls(*names, *new)
        else:
            shape = _SHAPE[type(g)]
            kids = shape[0](g)
            key = (type(g), shape[1](g), *map(id, kids))
            hit = reached.get(key)
            if hit is not None:
                # an equal node: its rewrite, or itself where that is the rewrite
                done.append(g if hit[1] is hit[0] else hit[1])
                continue
            h = g
            if expand is not None:
                h = expand(g)
                if h is not g:
                    kids = children(h)
            if kids:
                todo.append((key, g, h, kids))
                todo += reversed(kids)
                continue
        out = step(h)
        reached[key] = (g, out)
        done.append(out)
    return done[0]


def subformulas(f: Formula) -> Iterator[Formula]:
    """Yield ``f`` and every node below it, preorder, shared nodes once per
    occurrence."""
    todo = [f]
    while todo:
        g = todo.pop()
        yield g
        todo.extend(reversed(children(g)))


def _nodes(f: Formula) -> Iterator[Formula]:
    """Yield each node object below ``f`` once, however often it occurs."""
    seen = {id(f)}
    todo = [f]
    while todo:
        g = todo.pop()
        yield g
        for kid in _SHAPE[type(g)][0](g):
            if id(kid) not in seen:
                seen.add(id(kid))
                todo.append(kid)


def size(f: Formula) -> int:
    """The number of nodes in the tree ``f`` spells out, counted bottom-up
    once per node object."""
    sizes: dict[int, int] = {}
    todo: list = [f]
    while todo:
        g = todo.pop()
        if type(g) is tuple:  # a node whose operands are counted
            g, kids = g
            sizes[id(g)] = 1 + sum([sizes[id(kid)] for kid in kids])
        elif id(g) not in sizes:
            kids = _SHAPE[type(g)][0](g)
            todo.append((g, kids))
            todo += kids
    return sizes[id(f)]


def is_static(f: Formula) -> bool:
    """True when no dynamic box occurs anywhere in the formula."""
    return not any(type(g) is ActBox for g in _nodes(f))


def atom_names(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in _nodes(f) if type(g) is Atom)


def agent_names(f: Formula) -> frozenset[str]:
    names: set[str] = set()
    for g in _nodes(f):
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
    input.  It shares its subterms: each new distinct subterm is built once,
    and the unfolding refers to the condition three times, so the node
    objects grow additively per eliminated node, while the tree size, and
    the ``str()`` text, grow by up to a factor of 7.
    """
    return rewrite(f, lambda g: unfold_head(g) if isinstance(g, CondObl) else g)


# ---------------------------------------------------------------------------
# Concrete syntax.  Binary connectives: node class -> (symbol, binding power,
# groups right?), read by the parser and the printer alike.  Prefix operators
# bind more tightly than all four.

INFIX = {
    Iff: ("<->", 1, False),
    Imp: ("->", 2, True),
    Or: ("|", 3, False),
    And: ("&", 4, False),
}
PREFIX_POWER = 5

# Rendering.  str(f) emits concrete syntax that reparses to an equal AST.

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
    written: literal text, an operand with the precedence it prints at, or
    the mark where the text of a node met again later ends.  Such a node is
    written once and its text copied at each later visit; every other node
    streams, so a deep tree prints in memory linear in its size."""
    again = _met_again(f)
    texts: dict[int, str] = {}
    out: list[str] = []
    todo: list = [(f, 0)]
    while todo:
        piece = todo.pop()
        if type(piece) is str:
            out.append(piece)
            continue
        if type(piece) is list:  # [node, where its text starts in out]
            g, start = piece
            text = texts[id(g)] = "".join(out[start:])
            out[start:] = [text]
            continue
        g, prec = piece
        kind = type(g)
        if kind in INFIX:
            op, power, right = INFIX[kind]
            if prec > power:
                out.append("(")
                todo.append(")")
        if id(g) in again:
            text = texts.get(id(g))
            if text is not None:
                out.append(text)
                continue
            todo.append([g, len(out)])
        if kind in INFIX:
            # the operand on the grouping side may hold the same connective bare
            todo += [(g.right, power + (not right)), f" {op} ", (g.left, power + right)]
        elif kind is CondObl:
            out.append(f"O {g.i} {g.j} (")
            todo += [")", (g.condition, 0), " / ", (g.consequent, 0)]
        else:
            out.append(_TEXT[kind](g))
            if kind not in (Atom, Top, Bot):
                todo.append((g.arg, PREFIX_POWER))
    return "".join(out)


def _met_again(f: Formula) -> set[int]:
    """Ids of the nodes below ``f`` that more than one operand refers to."""
    seen: set[int] = set()
    again: set[int] = set()
    todo = [f]
    while todo:
        g = todo.pop()
        for kid in _SHAPE[type(g)][0](g):
            key = id(kid)
            if key in seen:
                again.add(key)
            else:
                seen.add(key)
                todo.append(kid)
    return again
