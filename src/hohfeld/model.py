"""Preference-action models: finite states, per-pair ideality preorders,
per-agent action-indistinguishability partitions, and a valuation.

Relations are stored extensionally as frozensets of ordered state pairs.
A pair of agents absent from ``pref`` denotes the identity relation; an
agent absent from ``eq`` has no indistinguishability relation at all and
may not be used in a ``do`` formula.

Evaluation reads a model through its compiled form: each state a bit
position, each atom's states and each state's successors Python ints.  It
is built once per model object, on first use, so a model's mappings must
not be mutated after construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, Mapping

from .errors import NameResolutionError

Edge = tuple[str, str]
Relation = frozenset[Edge]


def closure(edges: Iterable[Edge], states: Iterable[str]) -> Relation:
    """Reflexive-transitive closure of ``edges`` over ``states``; every
    endpoint must be one of the states."""
    states = list(states)
    index = {w: p for p, w in enumerate(states)}
    rows = [1 << p for p in range(len(states))]
    for a, b in edges:
        rows[index[a]] |= 1 << index[b]
    pairs = []
    for w, row in zip(states, warshall(rows)):
        while row:
            low = row & -row
            pairs.append((w, states[low.bit_length() - 1]))
            row ^= low
    return frozenset(pairs)


def warshall(rows: list[int]) -> list[int]:
    """Close successor masks under transitivity, in place, and return them
    (Warshall's algorithm: after step ``k``, paths through ``k`` are
    shortcut).  Row ``p`` is the successors of bit ``p``."""
    for k, through in enumerate(rows):
        bit = 1 << k
        for p, row in enumerate(rows):
            if row & bit:
                rows[p] = row | through
    return rows


def blocks_to_relation(blocks: Iterable[Iterable[str]]) -> Relation:
    """Total relation inside each block, nothing across blocks."""
    edges = set()
    for block in blocks:
        block = list(block)
        for a in block:
            for b in block:
                edges.add((a, b))
    return frozenset(edges)


def relation_to_blocks(rel: Relation, states: Iterable[str]) -> list[list[str]]:
    """Partition induced by an equivalence relation, sorted for stable output."""
    seen: set[str] = set()
    out: list[list[str]] = []
    for w in sorted(states):
        if w in seen:
            continue
        block = sorted(v for v in {b for a, b in rel if a == w} | {w})
        seen.update(block)
        out.append(block)
    return sorted(out)


@dataclass(frozen=True)
class PrefActionModel:
    states: frozenset[str]
    agents: frozenset[str]
    pref: Mapping[tuple[str, str], Relation]
    eq: Mapping[str, Relation]
    val: Mapping[str, frozenset[str]]

    def ideality(self, i: str, j: str) -> Relation:
        """The ideality preorder of ``i`` toward ``j``; an undeclared pair means the identity."""
        rel = self.pref.get((i, j))
        return self.compiled.relation((i, j)) if rel is None else rel

    @cached_property
    def compiled(self) -> CompiledModel:
        """The model as bit masks, built on first use and kept with the model.

        States take bits in sorted order; each relation stays the model's own
        ``frozenset`` until its masks are first asked for.
        """
        names = sorted(self.states)
        index = {w: p for p, w in enumerate(names)}
        val = {atom: sum(1 << index[w] for w in ws if w in index) for atom, ws in self.val.items()}
        source = partial(_relation_rows, self.pref, self.eq, index)
        return CompiledModel(names, self.agents, self.pref, self.eq, val, source)


def make_model(
    states: Iterable[str],
    agents: Iterable[str],
    pref: Mapping[tuple[str, str], Iterable[Edge]],
    eq: Mapping[str, Iterable[Edge]],
    val: Mapping[str, Iterable[str]],
) -> PrefActionModel:
    """Freeze plain containers into a PrefActionModel (no closure applied)."""
    return PrefActionModel(
        states=frozenset(states),
        agents=frozenset(agents),
        pref={pair: frozenset(rel) for pair, rel in pref.items()},
        eq={agent: frozenset(rel) for agent, rel in eq.items()},
        val={atom: frozenset(ws) for atom, ws in val.items()},
    )


class CompiledModel:
    """A model's states as bit positions, its valuation and relations as masks.

    ``names[p]`` is the state at bit ``p``, or None where no state is (a
    product leaves such gaps); ``bits[p]`` is ``1 << p`` at a state and 0 at
    a gap.  A relation is a list of successor masks by position, built by
    ``source(key)`` when first asked for; ``key`` is ``(i, j)`` for
    ideality and the agent for indistinguishability.  A source returns None
    for an undeclared pair, which ``rows`` reads as the identity.
    ``pref_keys`` and ``eq_agents`` are the declared relations, in order.
    Nothing here refers back to the model, so reference counting alone
    frees both; ``view`` builds a model over a compiled form.
    """

    __slots__ = ("names", "bits", "full", "index", "agents", "pref_keys", "eq_agents", "val",
                 "shift", "pre", "_source", "_rows", "__weakref__")

    def __init__(self, names: list[str | None], agents: frozenset[str],
                 pref_keys: Iterable[tuple[str, str]], eq_agents: Iterable[str],
                 val: dict[str, int], source: Callable[[object], list[int] | None],
                 shift: dict[str, int] | None = None):
        self.names = names
        self.bits = [0 if w is None else 1 << p for p, w in enumerate(names)]
        self.full = sum(self.bits)
        self.index = {w: p for p, w in enumerate(names) if w is not None}
        self.agents = agents
        self.pref_keys = tuple(pref_keys)
        self.eq_agents = dict.fromkeys(eq_agents)  # ordered, with a set's lookups
        self.val = val
        self.shift = shift or {}  # a product's first bit of each action's pairs
        self.pre: dict[int, tuple] = {}  # id(action model) -> (it, precondition masks)
        self._source = source
        self._rows: dict[object, list[int]] = {}

    def pref(self, i: str, j: str) -> list[int]:
        """Successor masks of the ideality preorder of ``i`` toward ``j``."""
        for agent in (i, j):
            if agent not in self.agents:
                raise NameResolutionError(f"agent {agent!r} not in model")
        return self.rows((i, j))

    def eq(self, agent: str) -> list[int]:
        """Successor masks of the agent's indistinguishability relation."""
        if agent not in self.agents:
            raise NameResolutionError(f"agent {agent!r} not in model")
        if agent not in self.eq_agents:
            raise NameResolutionError(
                f"agent {agent!r} has no action-indistinguishability relation"
            )
        return self.rows(agent)

    def rows(self, key: object) -> list[int]:
        rows = self._rows.get(key)
        if rows is None:  # a source gives None for an undeclared pair: the identity
            rows = self._rows[key] = self._source(key) or list(self.bits)
        return rows

    def states_of(self, mask: int) -> frozenset[str]:
        names = self.names
        return frozenset(names[p] for p in _positions(mask))

    def relation(self, key: object) -> Relation:
        """The relation ``key`` as state pairs."""
        names, rows = self.names, self.rows(key)
        return frozenset((w, names[q]) for w, p in self.index.items()
                         for q in _positions(rows[p]))


def view(compiled: CompiledModel) -> PrefActionModel:
    """The model over a compiled form, whose ``compiled`` it is: states and
    valuation read off the masks, relations built as state pairs when read."""
    model = PrefActionModel(
        states=frozenset(compiled.index),
        agents=compiled.agents,
        pref=CompiledRelations(compiled, compiled.pref_keys),
        eq=CompiledRelations(compiled, compiled.eq_agents),
        val={atom: compiled.states_of(mask) for atom, mask in compiled.val.items()},
    )
    model.__dict__["compiled"] = compiled  # what the cached property would hold
    return model


def _positions(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _relation_rows(pref: Mapping, eq: Mapping, index: dict[str, int],
                   key: object) -> list[int] | None:
    rel = pref.get(key) if type(key) is tuple else eq[key]
    if rel is None:
        return None
    rows = [0] * len(index)
    for a, b in rel:
        if a in index and b in index:
            rows[index[a]] |= 1 << index[b]
    return rows


class CompiledRelations(Mapping):
    """Relations read off a compiled form: each ``frozenset`` is built when
    first read and kept."""

    __slots__ = ("_compiled", "_keys", "_built")

    def __init__(self, compiled: CompiledModel, keys: Iterable):
        self._compiled = compiled
        self._keys = dict.fromkeys(keys)
        self._built: dict = {}

    def __getitem__(self, key) -> Relation:
        rel = self._built.get(key)
        if rel is None:
            if key not in self._keys:
                raise KeyError(key)
            rel = self._built[key] = self._compiled.relation(key)
        return rel

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass(frozen=True)
class Violation:
    relation: str      # e.g. "pref i->c", "eq i", "val p", "states"
    property: str      # e.g. "reflexivity", "transitivity", "symmetry"
    witness: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.relation}: {self.property} fails at ({', '.join(self.witness)})"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


def _check_preorder(name: str, rel: Relation, states: frozenset[str], report: ValidationReport,
                    symmetric: bool = False) -> None:
    for a, b in sorted(rel):
        if a not in states or b not in states:
            report.violations.append(Violation(name, "edge outside state set", (a, b)))
    for w in sorted(states):
        if (w, w) not in rel:
            report.violations.append(Violation(name, "reflexivity", (w,)))
    for a, b in sorted(rel):
        for c in sorted(states):
            if (b, c) in rel and (a, c) not in rel:
                report.violations.append(Violation(name, "transitivity", (a, b, c)))
    if symmetric:
        for a, b in sorted(rel):
            if (b, a) not in rel:
                report.violations.append(Violation(name, "symmetry", (a, b)))


def validate(model: PrefActionModel) -> ValidationReport:
    """Check every frame condition; the report is empty iff all hold.

    Ideality relations must be preorders, indistinguishability relations
    equivalences, valuations subsets of the state set, and every agent
    mentioned by a relation key must be declared.
    """
    report = ValidationReport()
    if not model.states:
        report.violations.append(Violation("states", "nonempty", ()))
    for (i, j), rel in sorted(model.pref.items()):
        name = f"pref {i}->{j}"
        if i not in model.agents:
            report.violations.append(Violation(name, "unknown agent", (i,)))
        if j not in model.agents:
            report.violations.append(Violation(name, "unknown agent", (j,)))
        _check_preorder(name, rel, model.states, report)
    for agent, rel in sorted(model.eq.items()):
        name = f"eq {agent}"
        if agent not in model.agents:
            report.violations.append(Violation(name, "unknown agent", (agent,)))
        _check_preorder(name, rel, model.states, report, symmetric=True)
    for atom, ws in sorted(model.val.items()):
        for w in sorted(ws):
            if w not in model.states:
                report.violations.append(Violation(f"val {atom}", "state outside model", (w,)))
    return report
