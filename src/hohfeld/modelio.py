"""JSON reading and writing for models and action models.

Model files:

    {"states": ["w1", "w2"],
     "agents": ["i", "c"],
     "pref": {"i->c": {"edges": [["w1", "w2"]], "closed": false}},
     "eq":   {"i": {"blocks": [["w1"], ["w2"]]}},
     "val":  {"p": ["w1"]}}

Action model files:

    {"name": "John", "owner": "john",
     "actions": ["a1", "a2"],
     "rel":  {"i->c": {"edges": [], "closed": false}},
     "pre":  {"a1": "!d & p", "a2": "d | !p"},
     "post": {"a1": {"f": "true"}, "a2": {"f": "false"}}}

The loader takes the reflexive-transitive closure of the listed edges; a
relation marked ``"closed": true`` must already equal it (for ``eq`` the
blocks are a partition, so no closure question arises).  A loaded action
model passes ``validate_action_model``, so its pre- and postconditions are
static.  Dumps are deterministic: keys and lists are sorted, relations are
written closed.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .actions import DeonticActionModel, require_valid
from .errors import FormulaSyntaxError, ModelFormatError
from .formula import Formula
from .model import (
    PrefActionModel,
    Relation,
    blocks_to_relation,
    closure,
    relation_to_blocks,
)
from .parser import is_name, parse


def _require(value: Any, kind: type, what: str):
    if not isinstance(value, kind):
        raise ModelFormatError(f"{what} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def _string_list(value: Any, what: str) -> list[str]:
    _require(value, list, what)
    for item in value:
        _require(item, str, f"entry of {what}")
    return value


def _unique(value: Any, what: str) -> list[str]:
    items = _string_list(value, what)
    if len(set(items)) < len(items):
        twice = next(x for k, x in enumerate(items) if x in items[:k])
        raise ModelFormatError(f"{what} lists {twice!r} more than once")
    return items


def _require_names(names: list[str]) -> None:
    """Atom, agent, action and action-model names are what formulas can write."""
    for name in names:
        if not is_name(name):
            raise ModelFormatError(f"name {name!r} is not an identifier formulas can use")


def _parse_pair_key(key: str, what: str) -> tuple[str, str]:
    parts = key.split("->")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ModelFormatError(f"{what} key {key!r} is not of the form 'i->j'")
    return parts[0], parts[1]


def _load_relation(entry: Any, members: frozenset[str], what: str) -> Relation:
    _require(entry, dict, what)
    edges_raw = entry.get("edges", [])
    _require(edges_raw, list, f"{what} edges")
    edges = []
    for edge in edges_raw:
        _require(edge, list, f"{what} edge")
        if len(edge) != 2:
            raise ModelFormatError(f"{what} edge {edge!r} is not a pair")
        a, b = edge
        for endpoint in (a, b):
            _require(endpoint, str, f"{what} edge endpoint")
            if endpoint not in members:
                raise ModelFormatError(f"{what} edge mentions unknown id {endpoint!r}")
        edges.append((a, b))
    if entry.get("closed", False):
        # a preorder iff reflexive and each edge's target sees no more than its source
        succ: dict[str, set[str]] = {m: set() for m in members}
        for a, b in edges:
            succ[a].add(b)
        if all(m in succ[m] for m in members) and all(succ[b] <= succ[a] for a, b in edges):
            return frozenset(edges)
        missing = list(min(closure(edges, members) - frozenset(edges)))
        raise ModelFormatError(f"{what} is marked closed but lacks {missing} of its closure")
    return closure(edges, members)


def model_from_dict(data: Any) -> PrefActionModel:
    _require(data, dict, "model")
    states = frozenset(_unique(data.get("states"), "states"))
    if not states:
        raise ModelFormatError("states must be nonempty")
    agents = frozenset(_unique(data.get("agents"), "agents"))

    pref = {}
    for key, entry in _require(data.get("pref", {}), dict, "pref").items():
        i, j = _parse_pair_key(key, "pref")
        for agent in (i, j):
            if agent not in agents:
                raise ModelFormatError(f"pref key {key!r} mentions unknown agent {agent!r}")
        pref[(i, j)] = _load_relation(entry, states, f"pref {key}")

    eq = {}
    for agent, entry in _require(data.get("eq", {}), dict, "eq").items():
        if agent not in agents:
            raise ModelFormatError(f"eq mentions unknown agent {agent!r}")
        _require(entry, dict, f"eq {agent}")
        blocks = _require(entry.get("blocks"), list, f"eq {agent} blocks")
        seen: set[str] = set()
        for block in blocks:
            for w in _string_list(block, f"eq {agent} block"):
                if w not in states:
                    raise ModelFormatError(f"eq {agent} mentions unknown state {w!r}")
                if w in seen:
                    raise ModelFormatError(f"eq {agent} blocks overlap at {w!r}")
                seen.add(w)
        if seen != states:
            missing = sorted(states - seen)
            raise ModelFormatError(f"eq {agent} blocks do not cover states {missing}")
        eq[agent] = blocks_to_relation(blocks)

    val = {}
    for atom, ws in _require(data.get("val", {}), dict, "val").items():
        members = _string_list(ws, f"val {atom}")
        for w in members:
            if w not in states:
                raise ModelFormatError(f"val {atom} mentions unknown state {w!r}")
        val[atom] = frozenset(members)

    _require_names([*data["agents"], *val])
    return PrefActionModel(states=states, agents=agents, pref=pref, eq=eq, val=val)


def model_to_dict(model: PrefActionModel) -> dict:
    return {
        "states": sorted(model.states),
        "agents": sorted(model.agents),
        "pref": {
            f"{i}->{j}": {"edges": [list(e) for e in sorted(rel)], "closed": True}
            for (i, j), rel in sorted(model.pref.items())
        },
        "eq": {
            agent: {"blocks": relation_to_blocks(rel, model.states)}
            for agent, rel in sorted(model.eq.items())
        },
        "val": {atom: sorted(ws) for atom, ws in sorted(model.val.items())},
    }


def _parse_formula_field(text: Any, what: str) -> Formula:
    _require(text, str, what)
    try:
        return parse(text)
    except FormulaSyntaxError as err:
        raise ModelFormatError(f"{what}: {err}") from err


def action_model_from_dict(data: Any) -> DeonticActionModel:
    _require(data, dict, "action model")
    name = _require(data.get("name"), str, "name")
    owner = _require(data.get("owner"), str, "owner")
    actions = frozenset(_unique(data.get("actions"), "actions"))

    rel = {}
    for key, entry in _require(data.get("rel", {}), dict, "rel").items():
        pair = _parse_pair_key(key, "rel")
        rel[pair] = _load_relation(entry, actions, f"rel {key}")

    pre = {
        action: _parse_formula_field(text, f"pre {action}")
        for action, text in _require(data.get("pre", {}), dict, "pre").items()
    }
    post = {}
    for action, assign in _require(data.get("post", {}), dict, "post").items():
        _require(assign, dict, f"post {action}")
        post[action] = {
            atom: _parse_formula_field(text, f"post {action} {atom}")
            for atom, text in assign.items()
        }

    act = require_valid(DeonticActionModel(
        name=name, owner=owner, actions=actions, rel=rel, pre=pre, post=post
    ))
    # after validation, which reports an action's '*' as reserved
    _require_names([name, *data["actions"], *(i for pair in rel for i in pair), *(
        atom for assign in post.values() for atom in assign)])
    return act


def action_model_to_dict(act: DeonticActionModel) -> dict:
    return {
        "name": act.name,
        "owner": act.owner,
        "actions": sorted(act.actions),
        "rel": {
            f"{i}->{j}": {"edges": [list(e) for e in sorted(rel)], "closed": True}
            for (i, j), rel in sorted(act.rel.items())
        },
        "pre": {action: str(f) for action, f in sorted(act.pre.items())},
        "post": {
            action: {atom: str(f) for atom, f in sorted(assign.items())}
            for action, assign in sorted(act.post.items())
        },
    }


def dumps_model(model: PrefActionModel) -> str:
    return json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n"


def dumps_action_model(act: DeonticActionModel) -> str:
    return json.dumps(action_model_to_dict(act), indent=2, sort_keys=True) + "\n"


def load_model_file(path: str | Path) -> PrefActionModel:
    return model_from_dict(_read_json(path))


def load_action_model_file(path: str | Path) -> DeonticActionModel:
    return action_model_from_dict(_read_json(path))


def _read_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ModelFormatError(f"cannot read {path}: {err}") from err
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ModelFormatError(f"{path}: invalid JSON: {err}") from err
    except RecursionError:  # the decoder recurses once per nested array or object
        raise ModelFormatError(f"{path}: JSON nested too deeply") from None
