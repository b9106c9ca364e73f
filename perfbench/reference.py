"""Reference semantics the benchmark checks answers against.

It is written from the clauses in the repository README and shares no code
with the package under test: formulas are plain tuples, models are plain
dicts of sets, and every operator is labelled bottom-up over the whole
state set, once per distinct subformula.

Formula tuples:

    ("atom", name)  ("top",)  ("bot",)  ("not", f)
    ("and", f, g)  ("or", f, g)  ("imp", f, g)  ("iff", f, g)
    ("pref", i, j, f)  ("pdia", i, j, f)  ("U", f)  ("E", f)  ("do", agent, f)
    ("O", i, j, consequent, condition)  ("P", i, j, consequent, condition)
    ("act", model, action, f)  ("adia", model, action, f)

A model is a dict with "states" (list), "agents" (list), "pref"
({(i, j): set of pairs}, a missing pair meaning the identity), "eq"
({agent: set of pairs}) and "val" ({atom: set}).  An action model is a
dict with "name", "actions" (list), "rel" ({(i, j): set of pairs}, a
missing pair meaning the total preorder), "pre" ({action: formula}) and
"post" ({action: {atom: formula}}).
"""
from __future__ import annotations

BINARY = ("and", "or", "imp", "iff")
SYMBOL = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}


def render(f) -> str:
    """Concrete syntax for a formula tuple; binary nodes are parenthesized."""
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind == "top":
        return "true"
    if kind == "bot":
        return "false"
    if kind == "not":
        return "!" + render(f[1])
    if kind in BINARY:
        return f"({render(f[1])} {SYMBOL[kind]} {render(f[2])})"
    if kind == "pref":
        return f"[pref {f[1]} {f[2]}] " + render(f[3])
    if kind == "pdia":
        return f"<pref {f[1]} {f[2]}> " + render(f[3])
    if kind == "U":
        return "U " + render(f[1])
    if kind == "E":
        return "E " + render(f[1])
    if kind == "do":
        return f"do {f[1]} " + render(f[2])
    if kind in ("O", "P"):
        return f"{kind} {f[1]} {f[2]} ({render(f[3])} / {render(f[4])})"
    if kind == "act":
        return f"[act {f[1]} {f[2]}] " + render(f[3])
    if kind == "adia":
        return f"<act {f[1]} {f[2]}> " + render(f[3])
    raise ValueError(f"unknown formula tuple {f!r}")


def size(f) -> int:
    """Node count of the parsed form: diamonds, E and P expand to two or three nodes."""
    extra = {"pdia": 2, "E": 2, "adia": 2, "P": 2}.get(f[0], 0)
    return 1 + extra + sum(size(g) for g in f[1:] if isinstance(g, tuple))


def closure(edges, states) -> set:
    """Reflexive-transitive closure by Warshall's algorithm."""
    reach = {w: {w} for w in states}
    for a, b in edges:
        reach[a].add(b)
    for k in states:
        for w in states:
            if k in reach[w]:
                reach[w] |= reach[k]
    return {(w, v) for w in states for v in reach[w]}


def model_from_json(data: dict) -> dict:
    """The reference reading of a model file, closing relations as the README says."""
    states = list(data["states"])
    pref = {}
    for key, entry in data.get("pref", {}).items():
        i, j = key.split("->")
        edges = [tuple(e) for e in entry["edges"]]
        pref[(i, j)] = set(edges) if entry.get("closed") else closure(edges, states)
    eq = {
        agent: {(a, b) for block in entry["blocks"] for a in block for b in block}
        for agent, entry in data.get("eq", {}).items()
    }
    val = {atom: set(ws) for atom, ws in data.get("val", {}).items()}
    return {"states": states, "agents": list(data["agents"]), "pref": pref, "eq": eq, "val": val}


def _successors(rel, states) -> dict:
    succ = {w: set() for w in states}
    for a, b in rel:
        succ[a].add(b)
    return succ


class Labeller:
    """Truth sets of formulas on one model, memoized per subformula."""

    def __init__(self, model: dict, actions: dict | None = None):
        self.model = model
        self.actions = actions or {}
        self.all = frozenset(model["states"])
        self._memo: dict = {}
        self._succ: dict = {}
        self._products: dict = {}

    def pref_succ(self, i: str, j: str) -> dict:
        key = ("pref", i, j)
        if key not in self._succ:
            rel = self.model["pref"].get((i, j))
            if rel is None:
                self._succ[key] = {w: {w} for w in self.all}
            else:
                self._succ[key] = _successors(rel, self.all)
        return self._succ[key]

    def eq_succ(self, agent: str) -> dict:
        key = ("eq", agent)
        if key not in self._succ:
            self._succ[key] = _successors(self.model["eq"][agent], self.all)
        return self._succ[key]

    def product(self, name: str) -> tuple:
        """(product model, its labeller) for the named action model."""
        if name not in self._products:
            prod = product(self.model, self.actions[name], self)
            self._products[name] = (prod, Labeller(prod, self.actions))
        return self._products[name]

    def label(self, f) -> frozenset:
        hit = self._memo.get(f)
        if hit is None:
            hit = frozenset(self._label(f))
            self._memo[f] = hit
        return hit

    def _label(self, f):
        kind = f[0]
        states = self.all
        if kind == "atom":
            return self.model["val"][f[1]]
        if kind == "top":
            return states
        if kind == "bot":
            return ()
        if kind == "not":
            return states - self.label(f[1])
        if kind in BINARY:
            a, b = self.label(f[1]), self.label(f[2])
            if kind == "and":
                return a & b
            if kind == "or":
                return a | b
            if kind == "imp":
                return (states - a) | b
            return {w for w in states if (w in a) == (w in b)}
        if kind in ("pref", "pdia"):
            inner = self.label(f[3])
            succ = self.pref_succ(f[1], f[2])
            if kind == "pref":
                return {w for w in states if succ[w] <= inner}
            return {w for w in states if succ[w] & inner}
        if kind == "U":
            return states if self.label(f[1]) == states else ()
        if kind == "E":
            return states if self.label(f[1]) else ()
        if kind == "do":
            inner = self.label(f[2])
            succ = self.eq_succ(f[1])
            return {w for w in states if succ[w] <= inner}
        if kind in ("O", "P"):
            if kind == "P":
                return states - self.label(("O", f[1], f[2], ("not", f[3]), f[4]))
            succ = self.pref_succ(f[1], f[2])
            psi, phi = self.label(f[3]), self.label(f[4])
            # the forall-exists-forall clause: every phi-state above w sees a
            # phi-state above it all of whose phi-successors satisfy psi
            good = {u for u in phi if (succ[u] & phi) <= psi}
            return {w for w in states if all(succ[v] & good for v in succ[w] & phi)}
        if kind in ("act", "adia"):
            name, action = f[1], f[2]
            executable = self.label(self.actions[name]["pre"][action])
            prod, inner = self.product(name)
            after = inner.label(f[3])
            ok = {w for w in executable if pair(w, action) in after}
            if kind == "act":
                return (states - executable) | ok
            return ok
        raise ValueError(f"unknown formula tuple {f!r}")


def pair(state: str, action: str) -> str:
    return state + "*" + action


def _act_le(act: dict, i: str, j: str, a: str, b: str) -> bool:
    rel = act["rel"].get((i, j))
    return True if rel is None else (a, b) in rel


def product(model: dict, act: dict, labeller: Labeller | None = None) -> dict:
    """The lexicographic update of the README, as a reference model dict."""
    lab = labeller or Labeller(model)
    pairs = [(w, a) for a in act["actions"] for w in sorted(lab.label(act["pre"][a]))]
    agents = model["agents"]
    pref = {}
    for i in agents:
        for j in agents:
            base = model["pref"].get((i, j))
            edges = set()
            for w, a in pairs:
                for v, b in pairs:
                    up, down = _act_le(act, i, j, a, b), _act_le(act, i, j, b, a)
                    if up and not down:
                        edges.add((pair(w, a), pair(v, b)))
                    elif up and down and ((w, v) in base if base is not None else w == v):
                        edges.add((pair(w, a), pair(v, b)))
            pref[(i, j)] = edges
    eq = {
        agent: {(pair(w, a), pair(v, b)) for w, a in pairs for v, b in pairs if (w, v) in rel}
        for agent, rel in model["eq"].items()
    }
    val = {}
    for atom, holds in model["val"].items():
        val[atom] = set()
        for w, a in pairs:
            post = act["post"].get(a, {}).get(atom)
            if (w in lab.label(post)) if post is not None else (w in holds):
                val[atom].add(pair(w, a))
    return {
        "states": [pair(w, a) for w, a in pairs],
        "agents": list(agents),
        "pref": pref,
        "eq": eq,
        "val": val,
        "provenance": {pair(w, a): (w, a) for w, a in pairs},
    }


def local_power(lab: Labeller, state: str, name: str, position) -> tuple:
    """(holds, flipping actions, current truth) of the README's local power."""
    act = lab.actions[name]
    current = state in lab.label(position)
    _, inner = lab.product(name)
    after = inner.label(position)
    flips = tuple(
        a for a in sorted(act["actions"])
        if state in lab.label(act["pre"][a]) and (pair(state, a) in after) != current
    )
    return bool(flips), flips, current
