"""The three benchmark workloads: seeded inputs, the ops run on them, checks.

A workload is an endless sequence of blocks.  Block ``k`` of seed ``s`` is
drawn from its own ``random.Random`` keyed by (workload, s, k), so it is
the same whichever blocks ran before it, and every block has the same
structural mix (sizes, preorder shapes, formula shapes); only the random
details differ.  That keeps run-to-run and seed-to-seed figures close while
no generated input repeats within a run (the fixed ``[act John a1]^k U f``
family and the two scenario bundles recur in every dynamic-update block).

Each op runs calls into the package through a tracer (``t.call(layer, fn,
*args)``), returns what they returned, and is then checked, outside the
timed region, against the reference semantics in ``reference.py`` or a
known answer.  ``account`` adds the op's work counts to a counter dict;
with ``detail`` false it may skip counts that cost more than the op.
"""
from __future__ import annotations

import dataclasses
import json
import random

import hohfeld
from hohfeld import (
    BUNDLES,
    ActionModelEnv,
    GeneratorConfig,
    action_model_from_dict,
    audit_axiom,
    evaluate,
    isomorphic,
    local_power,
    model_from_dict,
    parse,
    product,
    run_scenario,
    translate,
    truth_set,
    verify_isomorphism,
)

import reference as ref

AGENTS = ("i", "c")
ATOMS = ("p", "q", "r")

# Generator parameters, printed with every run.
PARAMS = {
    "static-check": {
        "states": [8, 12, 16],
        "preorders": ["chain", "random", "total"],
        "agents": list(AGENTS),
        "atoms": list(ATOMS),
        "atom_density": "exactly half the states",
        "random_preorder_edges": "one random edge per state, then closure",
        "queries_per_model": ["modal", "modal", "modal", "obl1", "obl1", "obl2"],
        # A doubly nested obligation on a 16-state total preorder took up to
        # 0.35 s (3.5 s over modal arguments), and a few of those per run
        # moved ops_per_s by 8% from seed to seed; 16-state models get a
        # third single obligation in that slot instead.
        "obl2_max_states": 12,
        "modal_depth_max": 3,
        "iso_ops_per_model_up_to_states": 10,
        "block": "9 models (3 sizes x 3 preorders), each loaded once then queried",
    },
    "dynamic-update": {
        "states": [4, 5, 6],
        "box_depth": [1, 2],
        "actions": [2, 3],
        # Scopes under the boxes have depth 2 with one modality.  With depth
        # 3 and two modalities, translations reached 125 000 nodes, and
        # evaluating one took long enough to cut a run's ops by a factor of
        # three at some seeds; at this size the largest random translation
        # stays below the 15 592 nodes of the family's k = 4 member.
        "scope": "depth 2, one modality",
        "agents": list(AGENTS),
        "atoms": list(ATOMS),
        "family": "[act John a1]^k U f on the parking model, k = 1..4",
        "scenarios": ["parking", "contract"],
        # Two random ops per (size, box depth, action count) keep the fixed
        # family's k = 4 member, the slowest op, under 10% of the ops, so
        # op_p90_ms falls among the random ops rather than at its edge.
        "repeats": 2,
        "block": "24 random ops (3 sizes x 2 box depths x 2 action counts x 2) + 4 family ops"
                 " + 2 scenario ops",
    },
    "audit-sweep": {
        "axioms": 13,
        "variants": ["sound", "paper"],
        # Each sample's cost is heavy-tailed; 300 samples per audit average
        # it out within an op.  At 100, op_p90_ms and ops_per_s spread by 13%
        # (quartile distance over median) across five seeds; at 300, by 5-6%.
        "sample_count": 300,
        # The default bound of 5 states let one sample in ten thousand or so
        # (nested obligations on 5 states) take 4.5 s, and ops_per_s fell from
        # 15.5 to 6.3 between seeds; at 4 states no audit took over 0.5 s.
        "max_states": 4,
        "generator": "GeneratorConfig defaults otherwise",
        "block": "26 audits (13 axioms x 2 variants), each at its own derived seed",
    },
}


def block_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


# ---------------------------------------------------------------------------
# Seeded models and formulas, in the benchmark's own representation.

def _preorder_edges(rng: random.Random, states: list[str], kind: str) -> list[list[str]]:
    """Generating edges; the loader closes them reflexively and transitively."""
    order = list(states)
    rng.shuffle(order)
    if kind == "chain":
        return [[a, b] for a, b in zip(order, order[1:])]
    if kind == "total":
        return [[a, b] for a, b in zip(order, order[1:] + order[:1])]
    edges = set()
    while len(edges) < len(states):
        a, b = rng.sample(states, 2)
        edges.add((a, b))
    return [list(e) for e in sorted(edges)]


def _partition(rng: random.Random, states: list[str]) -> list[list[str]]:
    order = list(states)
    rng.shuffle(order)
    blocks, start = [], 0
    while start < len(order):
        width = rng.randint(1, 3)
        blocks.append(order[start:start + width])
        start += width
    return blocks


def gen_model(rng: random.Random, n: int, kinds) -> dict:
    """A model file dict; ``kinds`` gives a preorder shape per agent pair."""
    states = [f"w{k}" for k in range(n)]
    pref = {}
    for i in AGENTS:
        for j in AGENTS:
            kind = kinds if isinstance(kinds, str) else rng.choice(kinds)
            pref[f"{i}->{j}"] = {"edges": _preorder_edges(rng, states, kind), "closed": False}
    return {
        "states": states,
        "agents": list(AGENTS),
        "pref": pref,
        "eq": {agent: {"blocks": _partition(rng, states)} for agent in AGENTS},
        "val": {atom: sorted(rng.sample(states, n // 2)) for atom in ATOMS},
    }


def _literal(rng: random.Random):
    atom = ("atom", rng.choice(ATOMS))
    return ("not", atom) if rng.random() < 0.3 else atom


def gen_static(rng: random.Random, depth: int, modal: int):
    """Random static formula: at most ``depth`` levels, ``modal`` nested modalities."""
    if depth <= 0 or rng.random() < 0.2:
        return _literal(rng)
    kinds = ["not", "and", "or", "imp", "iff"]
    if modal > 0:
        kinds += ["pref", "pdia", "U", "E", "do", "pref", "do"]
    kind = rng.choice(kinds)
    if kind == "not":
        return ("not", gen_static(rng, depth - 1, modal))
    if kind in ref.BINARY:
        return (kind, gen_static(rng, depth - 1, modal), gen_static(rng, depth - 1, modal))
    if kind in ("pref", "pdia"):
        return (kind, rng.choice(AGENTS), rng.choice(AGENTS), gen_static(rng, depth - 1, modal - 1))
    if kind in ("U", "E"):
        return (kind, gen_static(rng, depth - 1, modal - 1))
    return ("do", rng.choice(AGENTS), gen_static(rng, depth - 1, modal - 1))


def gen_obligation(rng: random.Random, nesting: int):
    """``O``/``P`` over modal-depth-1 arguments, or ``O`` nested twice over
    literals, as in ``O i c (O i c (p / p) / p)``."""
    i, j = rng.choice(AGENTS), rng.choice(AGENTS)
    if nesting <= 1:
        kind = "O" if rng.random() < 0.75 else "P"
        return (kind, i, j, gen_static(rng, 2, 1), gen_static(rng, 2, 1))
    inner = ("O", rng.choice(AGENTS), rng.choice(AGENTS), _literal(rng), _literal(rng))
    if rng.random() < 0.7:
        return ("O", i, j, inner, _literal(rng))
    return ("O", i, j, _literal(rng), inner)


def gen_query(rng: random.Random, shape: str):
    if shape == "modal":
        return gen_static(rng, 4, 3)
    return gen_obligation(rng, 2 if shape == "obl2" else 1)


def gen_dynamic(rng: random.Random, act_name: str, actions: list[str], boxes: int):
    """A formula with exactly ``boxes`` nested dynamic boxes on its deepest path."""
    if boxes == 0:
        return gen_static(rng, 2, 1)
    kind = "act" if rng.random() < 0.65 else "adia"
    box = (kind, act_name, rng.choice(actions), gen_dynamic(rng, act_name, actions, boxes - 1))
    wrap = rng.choice(["none", "and", "imp", "not", "pref", "do", "U"])
    if wrap == "and":
        return ("and", box, gen_static(rng, 1, 1))
    if wrap == "imp":
        return ("imp", gen_static(rng, 1, 1), box)
    if wrap == "not":
        return ("not", box)
    if wrap == "pref":
        return ("pref", rng.choice(AGENTS), rng.choice(AGENTS), box)
    if wrap == "do":
        return ("do", rng.choice(AGENTS), box)
    if wrap == "U":
        return ("U", box)
    return box


def gen_action_model(rng: random.Random, name: str, count: int) -> dict:
    """An action-model file dict.  ``a0`` needs ``p`` or more, and ``p`` holds
    at half the states, so the update is never empty."""
    actions = [f"a{k}" for k in range(count)]
    rel = {}
    for i in AGENTS:
        for j in AGENTS:
            kind = rng.choice(["absent", "chain", "total", "random"])
            if kind != "absent":
                rel[f"{i}->{j}"] = {"edges": _preorder_edges(rng, actions, kind), "closed": False}
    pre = {a: gen_static(rng, 2, 1) for a in actions}
    pre["a0"] = ("or", ("atom", "p"), pre["a0"])
    post = {}
    for a in actions:
        assign = {}
        for atom in rng.sample(ATOMS, rng.randint(0, 2)):
            assign[atom] = rng.choice([("top",), ("bot",), gen_static(rng, 1, 1)])
        if assign:
            post[a] = assign
    return {
        "name": name,
        "owner": "o",
        "actions": actions,
        "rel": rel,
        "pre": {a: ref.render(f) for a, f in pre.items()},
        "post": {a: {atom: ref.render(f) for atom, f in assign.items()} for a, assign in post.items()},
        "_pre": pre,
        "_post": post,
    }


def ref_action_model(data: dict) -> dict:
    actions = list(data["actions"])
    return {
        "name": data["name"],
        "actions": actions,
        "rel": {tuple(key.split("->")): ref.closure([tuple(e) for e in entry["edges"]], actions)
                for key, entry in data["rel"].items()},
        "pre": data["_pre"],
        "post": data["_post"],
    }


def _public(data: dict) -> dict:
    return {key: value for key, value in data.items() if not key.startswith("_")}


# ---------------------------------------------------------------------------
# Checks shared by the workloads.

def model_matches(model, expected: dict) -> bool:
    """Does a loaded or built model equal the reference model dict?"""
    as_sets = lambda mapping: {key: set(value) for key, value in mapping.items()}
    return (
        set(model.states) == set(expected["states"])
        and set(model.agents) == set(expected["agents"])
        and as_sets(model.pref) == as_sets(expected["pref"])
        and as_sets(model.eq) == as_sets(expected["eq"])
        and as_sets(model.val) == as_sets(expected["val"])
    )


_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _fields(node) -> list:
    cls = type(node)
    names = _FIELD_NAMES.get(cls)
    if names is None:
        if dataclasses.is_dataclass(cls):
            names = tuple(f.name for f in dataclasses.fields(cls))
        else:
            names = tuple(s for c in cls.__mro__ for s in getattr(c, "__slots__", ()))
        _FIELD_NAMES[cls] = names
    return [getattr(node, name) for name in names] if names else list(vars(node).values())


def formula_counts(root) -> tuple[int, int, int]:
    """(tree nodes, nodes distinct by value, node objects distinct by id).

    Iterative post-order with a memo by object id, so shared subterms are
    visited once and deep formulas cannot overflow the stack.
    """
    formula = hohfeld.Formula
    seen: dict[int, tuple[int, int]] = {}      # id -> (value number, tree size)
    values: dict[tuple, int] = {}
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in seen:
            stack.pop()
            continue
        fields = _fields(node)
        pending = [v for v in fields if isinstance(v, formula) and id(v) not in seen]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        scalars, kids, tree = [], [], 1
        for value in fields:
            if isinstance(value, formula):
                number, size = seen[id(value)]
                kids.append(number)
                tree += size
            else:
                scalars.append(value)
        key = (type(node), tuple(scalars), tuple(kids))
        seen[id(node)] = (values.setdefault(key, len(values)), tree)
    return seen[id(root)][1], len(values), len(seen)


_UNARY = {"Not": "not", "Univ": "U"}
_BINARY = {"And": "and", "Or": "or", "Imp": "imp", "Iff": "iff"}


def to_reference(f):
    """A package formula as a reference tuple, read off its public node classes."""
    name = type(f).__name__
    if name == "Atom":
        return ("atom", f.name)
    if name == "Top":
        return ("top",)
    if name == "Bot":
        return ("bot",)
    if name in _UNARY:
        return (_UNARY[name], to_reference(f.arg))
    if name in _BINARY:
        return (_BINARY[name], to_reference(f.left), to_reference(f.right))
    if name == "PrefBox":
        return ("pref", f.i, f.j, to_reference(f.arg))
    if name == "Does":
        return ("do", f.agent, to_reference(f.arg))
    if name == "CondObl":
        return ("O", f.i, f.j, to_reference(f.consequent), to_reference(f.condition))
    if name == "ActBox":
        return ("act", f.model, f.action, to_reference(f.arg))
    raise ValueError(f"unknown formula node {name}")


# ---------------------------------------------------------------------------
# static-check

class LoadModel:
    kind = "load"

    def __init__(self, text: str, expected: dict, group: dict):
        self.text, self.expected, self.group = text, expected, group

    def run(self, t):
        model = t.call("modelio", lambda: model_from_dict(json.loads(self.text)))
        self.group["model"] = model
        return model

    def check(self, model) -> bool:
        return model_matches(model, self.expected)

    def account(self, model, counts: dict, detail: bool) -> None:
        counts["modelio.states"] += len(model.states)


class Query:
    kind = "query"

    def __init__(self, formula, state: str, group: dict, labeller: ref.Labeller):
        self.formula, self.state, self.group, self.labeller = formula, state, group, labeller
        self.text = ref.render(formula)

    def run(self, t):
        model = self.group["model"]
        f = t.call("parser", parse, self.text)
        states = t.call("semantics.eval_static", truth_set, model, f)
        at_state = t.call("semantics.eval_static", evaluate, model, self.state, f)
        return states, at_state

    def check(self, result) -> bool:
        expected = self.labeller.label(self.formula)
        states, at_state = result
        return set(states) == expected and at_state == (self.state in expected)

    def account(self, result, counts: dict, detail: bool) -> None:
        counts["parser.chars"] += len(self.text)
        counts["semantics.eval_static.calls"] += 2
        counts["semantics.eval_static.node_states"] += (
            2 * ref.size(self.formula) * len(self.labeller.all))


class Isomorphic:
    kind = "iso"

    def __init__(self, other, expect_witness: bool, group: dict):
        self.other, self.expect_witness, self.group = other, expect_witness, group

    def run(self, t):
        return t.call("isomorphism", isomorphic, self.group["model"], self.other)

    def check(self, witness) -> bool:
        if not self.expect_witness:
            return witness is None
        return witness is not None and verify_isomorphism(
            self.group["model"], self.other, witness.as_dict())

    def account(self, witness, counts: dict, detail: bool) -> None:
        counts["isomorphism.calls"] += 1
        counts["isomorphism.accepted"] += witness is not None


def _relabelled(rng: random.Random, data: dict) -> dict:
    names = [f"v{k}" for k in range(len(data["states"]))]
    rng.shuffle(names)
    rename = dict(zip(data["states"], names))
    return {
        "states": sorted(names),
        "agents": data["agents"],
        "pref": {key: {"edges": [[rename[a], rename[b]] for a, b in entry["edges"]],
                       "closed": False} for key, entry in data["pref"].items()},
        "eq": {agent: {"blocks": [[rename[w] for w in block] for block in entry["blocks"]]}
               for agent, entry in data["eq"].items()},
        "val": {atom: sorted(rename[w] for w in ws) for atom, ws in data["val"].items()},
    }


def _flipped(rng: random.Random, data: dict) -> dict:
    atom, state = rng.choice(ATOMS), rng.choice(data["states"])
    val = {a: list(ws) for a, ws in data["val"].items()}
    val[atom] = sorted(set(val[atom]) ^ {state})
    return dict(data, val=val)


def static_block(seed: int, index: int) -> list:
    rng = block_rng("static-check", seed, index)
    ops = []
    params = PARAMS["static-check"]
    for n in params["states"]:
        for kind in params["preorders"]:
            data = gen_model(rng, n, kind)
            expected = ref.model_from_json(data)
            labeller = ref.Labeller(expected)
            group: dict = {}
            ops.append(LoadModel(json.dumps(data), expected, group))
            for shape in params["queries_per_model"]:
                if shape == "obl2" and n > params["obl2_max_states"]:
                    shape = "obl1"
                ops.append(Query(gen_query(rng, shape), rng.choice(data["states"]), group, labeller))
            if n <= params["iso_ops_per_model_up_to_states"]:
                ops.append(Isomorphic(model_from_dict(_relabelled(rng, data)), True, group))
                ops.append(Isomorphic(model_from_dict(_flipped(rng, data)), False, group))
    return ops


# ---------------------------------------------------------------------------
# dynamic-update

PARKING = {
    "states": ["w1", "w2", "w3", "w4"],
    "agents": ["i", "c"],
    "pref": {"i->c": {"edges": [["w1", "w2"], ["w1", "w4"], ["w3", "w4"], ["w4", "w3"],
                                ["w2", "w3"], ["w3", "w2"]], "closed": False}},
    "eq": {"i": {"blocks": [["w1"], ["w2"], ["w3"], ["w4"]]},
           "c": {"blocks": [["w1", "w2", "w3", "w4"]]}},
    "val": {"d": ["w2", "w3"], "p": ["w1", "w2"], "f": []},
}

JOHN = {
    "name": "John",
    "owner": "john",
    "actions": ["a1", "a2"],
    "rel": {"i->c": {"edges": [], "closed": False}},
    "pre": {"a1": "!d & p", "a2": "d | !p"},
    "post": {"a1": {"f": "true"}, "a2": {"f": "false"}},
    "_pre": {"a1": ("and", ("not", ("atom", "d")), ("atom", "p")),
             "a2": ("or", ("atom", "d"), ("not", ("atom", "p")))},
    "_post": {"a1": {"f": ("top",)}, "a2": {"f": ("bot",)}},
}

# checks per bundle, as the README lists them
SCENARIO_CHECKS = {"parking": 18, "contract": 12}


class Update:
    """product, direct dynamic truth set, local power everywhere, sound
    translation, its rendering, and the truth set of the translation."""

    kind = "update"

    def __init__(self, model_data: dict, act_data: dict, formula, position):
        self.model = model_from_dict(model_data)
        self.act = action_model_from_dict(_public(act_data))
        self.formula_ref, self.position_ref = formula, position
        self.formula = parse(ref.render(formula))
        self.position = parse(ref.render(position))
        self.states = sorted(model_data["states"])
        self.expected_model = ref.model_from_json(model_data)
        self.expected_act = ref_action_model(act_data)

    def run(self, t):
        env = ActionModelEnv([self.act])
        updated = t.call("semantics.product", product, self.model, self.act)
        direct = t.call("semantics.eval_dynamic", truth_set, self.model, self.formula, env)
        powers = [t.call("positions", local_power, self.model, w, self.act, self.position, env)
                  for w in self.states]
        static = t.call("reduction.translate", translate, self.formula, env, "sound")
        text = t.call("formula.render", str, static)
        translated = t.call("semantics.eval_translated", truth_set, self.model, static)
        return updated, direct, powers, static, text, translated

    def check(self, result) -> bool:
        updated, direct, powers, _, text, translated = result
        lab = ref.Labeller(self.expected_model, {self.expected_act["name"]: self.expected_act})
        expected_product, _ = lab.product(self.expected_act["name"])
        expected = lab.label(self.formula_ref)
        verdicts = [(v.kind, v.scope, v.holds, v.witnesses, v.current_truth) for v in powers]
        return (
            model_matches(updated.model, expected_product)
            and dict(updated.provenance) == expected_product["provenance"]
            and set(direct) == expected
            and set(translated) == expected
            and bool(text)
            and verdicts == [("power", "local") + ref.local_power(
                lab, w, self.expected_act["name"], self.position_ref) for w in self.states]
        )

    def account(self, result, counts: dict, detail: bool) -> None:
        updated, _, powers, static, text, _ = result
        counts["formula.render.chars"] += len(text)
        counts["semantics.product.pair_states"] += len(updated.model.states)
        counts["semantics.product.candidates"] += len(self.states) * len(self.act.actions)
        counts["positions.calls"] += len(powers)
        if detail:
            tree, distinct, objects = formula_counts(static)
            counts["translate_nodes"] += tree
            counts["reduction.translate.out_distinct"] += distinct
            counts["reduction.translate.out_objects"] += objects
            counts["reduction.translate.in_nodes"] += formula_counts(self.formula)[0]


class Scenario:
    kind = "scenario"

    def __init__(self, name: str):
        self.name = name

    def run(self, t):
        return t.call("scenarios", lambda: run_scenario(BUNDLES[self.name]()))

    def check(self, report) -> bool:
        return (report.passed and len(report.results) == SCENARIO_CHECKS[self.name]
                and all(r.passed for r in report.results))

    def account(self, report, counts: dict, detail: bool) -> None:
        pass


def dynamic_block(seed: int, index: int) -> list:
    rng = block_rng("dynamic-update", seed, index)
    params = PARAMS["dynamic-update"]
    ops = []
    for n in params["states"]:
        for boxes in params["box_depth"]:
            for actions in params["actions"] * params["repeats"]:
                model = gen_model(rng, n, ("chain", "random", "total"))
                act = gen_action_model(rng, "A", actions)
                formula = gen_dynamic(rng, "A", act["actions"], boxes)
                ops.append(Update(model, act, formula, gen_obligation(rng, 1)))
    position = ("O", "i", "c", ("atom", "f"), ("top",))
    for k in range(1, 5):
        formula = ("U", ("atom", "f"))
        for _ in range(k):
            formula = ("act", "John", "a1", formula)
        ops.append(Update(PARKING, JOHN, formula, position))
    ops += [Scenario(name) for name in params["scenarios"]]
    return ops


# ---------------------------------------------------------------------------
# audit-sweep

AXIOM_NAMES = ("atomRed", "negRed", "andRed", "univRed", "doRed", "prefRed", "S4pref",
               "S5U", "S5Do", "inclUPref", "inclUDo", "qualifiedD", "normalO")
REFUTABLE = {("univRed", "paper"), ("doRed", "paper")}


class Audit:
    kind = "audit"

    def __init__(self, name: str, variant: str, seed: int, samples: int, max_states: int):
        self.name, self.variant, self.seed, self.samples = name, variant, seed, samples
        self.max_states = max_states

    def run(self, t):
        cfg = GeneratorConfig(seed=self.seed, sample_count=self.samples,
                              max_states=self.max_states)
        return t.call("reduction.audit", audit_axiom, self.name, cfg, self.variant)

    def check(self, report) -> bool:
        if report is None:
            return True
        if (self.name, self.variant) not in REFUTABLE or report.axiom != self.name:
            return False
        if not report.verify():
            return False
        act = report.action_model
        actions = {}
        if act is not None:
            actions[act.name] = {
                "name": act.name,
                "actions": sorted(act.actions),
                "rel": {key: set(rel) for key, rel in act.rel.items()},
                "pre": {a: to_reference(f) for a, f in act.pre.items()},
                "post": {a: {atom: to_reference(f) for atom, f in assign.items()}
                         for a, assign in act.post.items()},
            }
        model = {
            "states": sorted(report.model.states),
            "agents": sorted(report.model.agents),
            "pref": {key: set(rel) for key, rel in report.model.pref.items()},
            "eq": {key: set(rel) for key, rel in report.model.eq.items()},
            "val": {key: set(ws) for key, ws in report.model.val.items()},
        }
        lab = ref.Labeller(model, actions)
        lhs = report.state in lab.label(to_reference(report.lhs))
        rhs = report.state in lab.label(to_reference(report.rhs))
        return lhs == report.lhs_value and rhs == report.rhs_value and lhs != rhs

    def account(self, report, counts: dict, detail: bool) -> None:
        counts["reduction.audit.samples"] += (
            self.samples if report is None else report.sample_index + 1)
        counts["reduction.audit.counterexamples"] += report is not None
        if report is not None:
            counts["refuted:" + self.name] += 1


def audit_block(seed: int, index: int) -> list:
    """One audit per axiom and variant, each at its own derived seed."""
    rng = block_rng("audit-sweep", seed, index)
    params = PARAMS["audit-sweep"]
    return [Audit(name, variant, rng.randrange(2 ** 31), params["sample_count"],
                  params["max_states"])
            for name in AXIOM_NAMES for variant in ("sound", "paper")]


def audit_gates(counts: dict) -> list[str]:
    """The paper variants of univRed and doRed must each fall at least once."""
    return [f"paper {name} never refuted" for name, _ in sorted(REFUTABLE)
            if not counts["refuted:" + name]]


WORKLOADS = {
    "static-check": (static_block, None),
    "dynamic-update": (dynamic_block, None),
    "audit-sweep": (audit_block, audit_gates),
}
