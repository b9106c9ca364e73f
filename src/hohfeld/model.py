"""Preference-action models: finite states, per-pair ideality preorders,
per-agent action-indistinguishability partitions, and a valuation.

Relations are stored extensionally as frozensets of ordered state pairs.
A pair of agents absent from ``pref`` denotes the identity relation; an
agent absent from ``eq`` has no indistinguishability relation at all and
may not be used in a ``do`` formula.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import NameResolutionError

Edge = tuple[str, str]
Relation = frozenset[Edge]


def closure(edges: Iterable[Edge], states: Iterable[str]) -> Relation:
    """Reflexive-transitive closure of ``edges`` over ``states`` (Warshall's
    algorithm: after step ``k``, paths through ``k`` are shortcut)."""
    states = list(states)
    succ: dict[str, set[str]] = {w: {w} for w in states}
    for a, b in edges:
        succ[a].add(b)
    for k in states:
        for w in states:
            if k in succ[w]:
                succ[w] |= succ[k]
    return frozenset((w, v) for w in states for v in succ[w])


def equivalence_closure(edges: Iterable[Edge], states: Iterable[str]) -> Relation:
    """Reflexive-symmetric-transitive closure of ``edges`` over ``states``."""
    sym = set()
    for a, b in edges:
        sym.add((a, b))
        sym.add((b, a))
    return closure(sym, states)


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
        return frozenset((w, w) for w in self.states) if rel is None else rel

    def pref_map(self, i: str, j: str) -> dict[str, set[str]]:
        """Each state's states at least as ideal, for the pair ``i`` toward ``j``."""
        if i not in self.agents or j not in self.agents:
            missing = i if i not in self.agents else j
            raise NameResolutionError(f"agent {missing!r} not in model")
        return _successors(self.ideality(i, j), self.states)

    def eq_map(self, agent: str) -> dict[str, set[str]]:
        """Each state's states the agent cannot distinguish from it by its own conduct."""
        if agent not in self.agents:
            raise NameResolutionError(f"agent {agent!r} not in model")
        rel = self.eq.get(agent)
        if rel is None:
            raise NameResolutionError(
                f"agent {agent!r} has no action-indistinguishability relation"
            )
        return _successors(rel, self.states)

    def pref_successors(self, i: str, j: str, w: str) -> list[str]:
        """States at least as ideal as ``w`` for the pair ``i`` toward ``j``."""
        return sorted(self.pref_map(i, j).get(w, ()))

    def eq_class(self, agent: str, w: str) -> list[str]:
        """States the agent cannot distinguish from ``w`` by its own conduct."""
        return sorted(self.eq_map(agent).get(w, ()))


def _successors(rel: Relation, states: frozenset[str]) -> dict[str, set[str]]:
    """The relation as a map from each state to its successors, in one pass."""
    succ: dict[str, set[str]] = {w: set() for w in states}
    for a, b in rel:
        if a in succ and b in succ:
            succ[a].add(b)
    return succ


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
