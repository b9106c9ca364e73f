"""Deontic action models: finite actions ranked by per-pair effectivity
preorders, with static pre- and postconditions.

An agent pair absent from ``rel`` denotes the total preorder (all actions
mutually equivalent), which leaves the underlying ideality relation intact
under update.  Postconditions are finitely supported: an atom an action
does not mention keeps its current truth value.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ModelFormatError, NameResolutionError
from .formula import Formula, is_static
from .model import CompiledModel, Relation, ValidationReport, Violation, _check_preorder

# Joins a state and an action into the name of their product pair-state.
PAIR_SEPARATOR = "*"


@dataclass(frozen=True)
class DeonticActionModel:
    name: str
    owner: str
    actions: frozenset[str]
    rel: Mapping[tuple[str, str], Relation]        # over action ids
    pre: Mapping[str, Formula]
    post: Mapping[str, Mapping[str, Formula]]

    def ranks(self, i: str, j: str, a: str) -> tuple[list[str], list[str]]:
        """The actions strictly more effective than ``a`` for the pair, and
        those exactly as effective (``a`` among them), each in sorted order.
        An undeclared pair is total: every action is as effective as ``a``."""
        actions = sorted(self.actions)
        rel = self.rel.get((i, j))
        if rel is None:
            return [], actions
        above = [b for b in actions if (a, b) in rel]
        return [b for b in above if (b, a) not in rel], [b for b in above if (b, a) in rel]

    def post_formula(self, action: str, atom: str) -> Formula | None:
        """The assigned postcondition, or None when the atom is untouched."""
        return self.post.get(action, {}).get(atom)


def make_action_model(
    name: str,
    owner: str,
    actions: Iterable[str],
    rel: Mapping[tuple[str, str], Iterable[tuple[str, str]]],
    pre: Mapping[str, Formula],
    post: Mapping[str, Mapping[str, Formula]],
) -> DeonticActionModel:
    return DeonticActionModel(
        name=name,
        owner=owner,
        actions=frozenset(actions),
        rel={pair: frozenset(edges) for pair, edges in rel.items()},
        pre=dict(pre),
        post={action: dict(assign) for action, assign in post.items()},
    )


def validate_action_model(act: DeonticActionModel) -> ValidationReport:
    """Frame and format conditions for an action model.

    Effectivity relations must be preorders over the action set, every
    action needs a static precondition, postconditions must be static,
    and action ids may not contain ``PAIR_SEPARATOR``.
    """
    report = ValidationReport()
    if not act.actions:
        report.violations.append(Violation("actions", "nonempty", ()))
    for action in sorted(act.actions):
        if PAIR_SEPARATOR in action:
            report.violations.append(
                Violation("actions", f"reserved character {PAIR_SEPARATOR!r}", (action,)))
        if action not in act.pre:
            report.violations.append(Violation("pre", "no precondition", (action,)))
    for action, formula in sorted(act.pre.items()):
        if action not in act.actions:
            report.violations.append(Violation("pre", "unknown action", (action,)))
        elif not is_static(formula):
            report.violations.append(Violation("pre", "precondition not static", (action,)))
    for action, assign in sorted(act.post.items()):
        if action not in act.actions:
            report.violations.append(Violation("post", "unknown action", (action,)))
            continue
        for atom, formula in sorted(assign.items()):
            if not is_static(formula):
                report.violations.append(Violation("post", "postcondition not static", (action, atom)))
    for (i, j), rel in sorted(act.rel.items()):
        _check_preorder(f"rel {i}->{j}", rel, act.actions, report)
    return report


def require_valid(act: DeonticActionModel) -> DeonticActionModel:
    """``act`` itself, or ``ModelFormatError`` naming every violation."""
    report = validate_action_model(act)
    if not report.ok:
        raise ModelFormatError(f"action model {act.name!r}: " + "; ".join(map(str, report.violations)))
    return act


class ActionModelEnv:
    """Named action models available during evaluation.

    ``products`` is the memo ``semantics`` keeps of the updates evaluation
    builds: it maps (id of a compiled model, action-model name) to (that
    model, its compiled product), so every box and power verdict that asks
    for one update under this environment shares one product.  The entry
    pins the model, so its id is not reused while the entry exists.
    """

    def __init__(self, models: Iterable[DeonticActionModel] = ()):
        self._by_name: dict[str, DeonticActionModel] = {}
        for act in models:
            if act.name in self._by_name:
                raise NameResolutionError(f"duplicate action-model name {act.name!r}")
            self._by_name[act.name] = act
        self.products: dict[tuple[int, str], tuple[CompiledModel, CompiledModel]] = {}

    def names(self) -> list[str]:
        return sorted(self._by_name)

    def get(self, name: str) -> DeonticActionModel:
        act = self._by_name.get(name)
        if act is None:
            known = ", ".join(self.names()) or "none"
            raise NameResolutionError(f"unknown action model {name!r} (loaded: {known})")
        return act
