"""Exact isomorphism between two models, by pruned backtracking search.

Agent and atom names are held fixed; only states may be renamed.  Ideality
relations are compared by effective content, so a pair left undeclared on
one side matches an explicitly-identity relation on the other.  The search
is exact but intended for desk-sized models; beyond the guaranteed bound
it refuses rather than degrade silently.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeLimitError
from .model import PrefActionModel

EXACT_STATE_BOUND = 10


@dataclass(frozen=True)
class IsoWitness:
    """A state bijection from the first model onto the second."""

    mapping: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict[str, str]:
        return dict(self.mapping)


def _signatures(model: PrefActionModel, pref_keys, eq_keys) -> dict[str, tuple]:
    """Each state's atoms, its out- and in-degree along each ideality
    relation and its class size along each partition, read off the compiled
    successor masks as popcounts."""
    c = model.compiled
    rows = [c.rows(key) for key in pref_keys]
    into = [[sum(row >> p & 1 for row in succ) for p in range(len(succ))] for succ in rows]
    classes = [c.rows(agent) for agent in eq_keys]
    atoms = sorted(c.val.items())
    return {
        w: (tuple(atom for atom, mask in atoms if mask >> p & 1),
            tuple((succ[p].bit_count(), ins[p]) for succ, ins in zip(rows, into)),
            tuple(succ[p].bit_count() for succ in classes))
        for w, p in c.index.items()
    }


def isomorphic(a: PrefActionModel, b: PrefActionModel) -> IsoWitness | None:
    """A witness bijection, or None when the models are not isomorphic."""
    if len(a.states) > EXACT_STATE_BOUND or len(b.states) > EXACT_STATE_BOUND:
        raise SizeLimitError(
            f"exact isomorphism supports at most {EXACT_STATE_BOUND} states per side"
        )
    if len(a.states) != len(b.states) or a.agents != b.agents:
        return None
    if set(a.val) != set(b.val) or set(a.eq) != set(b.eq):
        return None

    pref_keys = sorted(set(a.pref) | set(b.pref))
    eq_keys = sorted(a.eq)
    rels_a = {key: a.ideality(*key) for key in pref_keys}
    rels_b = {key: b.ideality(*key) for key in pref_keys}

    sig_a = _signatures(a, pref_keys, eq_keys)
    sig_b = _signatures(b, pref_keys, eq_keys)
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return None

    # most-constrained-first: rarest signatures get assigned early
    rarity = {w: sum(1 for v in b.states if sig_b[v] == sig_a[w]) for w in a.states}
    order = sorted(a.states, key=lambda w: (rarity[w], w))
    relations = [rels_a[key] for key in pref_keys] + [a.eq[agent] for agent in eq_keys]
    images = [rels_b[key] for key in pref_keys] + [b.eq[agent] for agent in eq_keys]

    assignment: dict[str, str] = {}
    used: set[str] = set()

    def compatible(w: str, x: str) -> bool:
        if sig_a[w] != sig_b[x]:
            return False
        for rel, img in zip(relations, images):
            if ((w, w) in rel) != ((x, x) in img):
                return False
            for v, y in assignment.items():
                if ((w, v) in rel) != ((x, y) in img):
                    return False
                if ((v, w) in rel) != ((y, x) in img):
                    return False
        return True

    def search(k: int) -> bool:
        if k == len(order):
            return True
        w = order[k]
        for x in sorted(b.states):
            if x in used or not compatible(w, x):
                continue
            assignment[w] = x
            used.add(x)
            if search(k + 1):
                return True
            del assignment[w]
            used.remove(x)
        return False

    if not search(0):
        return None
    return IsoWitness(tuple(sorted(assignment.items())))


def verify_isomorphism(a: PrefActionModel, b: PrefActionModel,
                       mapping: dict[str, str]) -> bool:
    """Directly check that a claimed state bijection is an isomorphism."""
    if set(mapping) != a.states or set(mapping.values()) != b.states:
        return False
    if len(set(mapping.values())) != len(mapping):
        return False
    if a.agents != b.agents or set(a.val) != set(b.val) or set(a.eq) != set(b.eq):
        return False
    for atom, ws in a.val.items():
        if {mapping[w] for w in ws} != b.val[atom]:
            return False
    pref_keys = set(a.pref) | set(b.pref)
    for key in pref_keys:
        rel_a = a.ideality(*key)
        rel_b = b.ideality(*key)
        if {(mapping[u], mapping[v]) for u, v in rel_a} != rel_b:
            return False
    for agent in a.eq:
        if {(mapping[u], mapping[v]) for u, v in a.eq[agent]} != b.eq[agent]:
            return False
    return True
