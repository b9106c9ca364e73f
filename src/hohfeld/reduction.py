"""Reduction of dynamic boxes to static formulas, plus randomized audits.

``reduce_step`` applies one rewrite to a box over a static scope, leaving
residual boxes over strictly smaller scopes; ``translate`` drives it to a
fixpoint, innermost boxes first, producing a static formula.

Two rule variants exist for the universal and the agency modality.  The
"paper" variant keeps the box's own action on the right-hand side:

    [A,a] U phi   ->   pre(a) -> U [A,a] phi

which is unsound, because states of the updated model built from other
actions escape the quantifier.  The "sound" variant closes over every
action:

    [A,a] U phi   ->   pre(a) -> U (AND_c [A,c] phi)

The ideality-box rule is the same in both variants: actions strictly above
``a`` contribute universal conjuncts, actions equivalent to ``a`` keep the
old box.  ``audit_axiom`` hunts for countermodels to named axiom schemas
over seeded random instances; sound schemas should survive, the paper
variants of the universal/agency rules (``PAPER_ERRATA``) should not.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .actions import ActionModelEnv, DeonticActionModel, require_valid
from .errors import NameResolutionError
from .formula import (
    TOP,
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
    agent_names,
    atom_names,
    children,
    conj,
    pref_dia,
    rebuild,
    rewrite,
    unfold_head,
)
from .generators import (
    AGENT_POOL,
    ATOM_POOL,
    GeneratorConfig,
    random_action_model,
    random_compiled_model,
    random_static_formula,
)
from .model import CompiledModel, PrefActionModel, view
from .modelio import action_model_to_dict, model_to_dict
from .semantics import _mask, evaluate

SOUND_FORM = "sound"
PAPER_FORM = "paper"
VARIANTS = (SOUND_FORM, PAPER_FORM)

# The axioms whose rule the paper variant states differently, and gets wrong:
# their paper-variant audits, and only those, should find a counterexample.
PAPER_ERRATA = frozenset({"univRed", "doRed"})


def expected_counterexample(axiom: str, variant: str) -> bool:
    """Should the audit of the axiom in the variant find a counterexample?"""
    return axiom in PAPER_ERRATA and variant == PAPER_FORM


def _check_variant(variant: str) -> None:
    """``ValueError`` unless the variant is one of ``VARIANTS``."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")


def reduce_step(act: DeonticActionModel, action: str, scope: Formula,
                variant: str = SOUND_FORM) -> Formula:
    """One rewrite of ``[act, action] scope`` for a static scope."""
    _check_variant(variant)
    pre = act.pre[action]
    name = act.name
    if isinstance(scope, Atom):
        post = act.post_formula(action, scope.name)
        return Imp(pre, post if post is not None else scope)
    if isinstance(scope, Top):
        return TOP
    if isinstance(scope, And):
        return And(ActBox(name, action, scope.left), ActBox(name, action, scope.right))
    if isinstance(scope, (Bot, Not, Or, Imp, Iff)):
        boxed = [ActBox(name, action, child) for child in children(scope)]
        return Imp(pre, rebuild(scope, boxed))
    if isinstance(scope, (Univ, Does)):
        actions = [action] if variant == PAPER_FORM else sorted(act.actions)
        boxes = conj([ActBox(name, c, scope.arg) for c in actions])
        return Imp(pre, rebuild(scope, [boxes]))
    if isinstance(scope, PrefBox):
        stricts, same = act.ranks(scope.i, scope.j, action)
        parts = [Univ(ActBox(name, c, scope.arg)) for c in stricts]
        parts += [PrefBox(scope.i, scope.j, ActBox(name, c, scope.arg)) for c in same]
        return Imp(pre, conj(parts))
    if isinstance(scope, CondObl):
        return reduce_step(act, action, unfold_head(scope), variant)
    if isinstance(scope, ActBox):
        raise ValueError("reduce_step requires a static scope")
    raise TypeError(f"not a formula node: {scope!r}")


def translate(f: Formula, env: ActionModelEnv, variant: str = SOUND_FORM) -> Formula:
    """Rewrite every dynamic box away; the result is static.

    With the sound variant the output is evaluation-equivalent to the input
    on every model; the paper variant reproduces the printed rule table,
    mismatches included.  Each action model pushed through is first checked
    with ``validate_action_model``, once per call: a dynamic pre- or
    postcondition would have the rewrite meet its own box again.

    Boxes go innermost first.  A box over a translated scope is stepped on
    the way down: each residual box over a child of the scope is stepped in
    turn, so the scope is not walked again.  Pre- and postconditions are
    static, so those residual boxes are the only boxes met there.

    The output shares its subterms: ``rewrite`` builds each new distinct
    subterm once and pushes each box through each distinct subterm once.
    The rules copy a scope under every action, so the tree grows
    exponentially with nested boxes, but the node objects grow only with
    the distinct subterms; ``str()`` still writes out the whole tree.
    """
    _check_variant(variant)
    checked: dict[str, DeonticActionModel] = {}

    def push(g: Formula) -> Formula:
        if isinstance(g, ActBox):
            act = checked.get(g.model)
            if act is None:
                act = checked[g.model] = require_valid(env.get(g.model))
            return reduce_step(act, g.action, g.arg, variant)
        return g

    def step(g: Formula) -> Formula:
        if isinstance(g, ActBox):
            return rewrite(g, lambda h: h, push)
        return g

    return rewrite(f, step)


@dataclass
class CounterexampleReport:
    """A model/state where two supposedly equivalent formulas disagree."""

    axiom: str
    variant: str | None
    lhs: Formula
    rhs: Formula
    model: PrefActionModel
    state: str
    lhs_value: bool
    rhs_value: bool
    action_model: DeonticActionModel | None = None
    sample_index: int = 0

    def verify(self, env: ActionModelEnv | None = None) -> bool:
        """Re-evaluate both sides; True when the disagreement reproduces.

        Pass the environment the formulas were checked against when they
        mention action models beyond the single stored one.
        """
        if env is None and self.action_model is not None:
            env = ActionModelEnv([self.action_model])
        lhs = evaluate(self.model, self.state, self.lhs, env)
        rhs = evaluate(self.model, self.state, self.rhs, env)
        return lhs == self.lhs_value and rhs == self.rhs_value and lhs != rhs

    def to_json_dict(self) -> dict:
        out = {
            "axiom": self.axiom,
            "variant": self.variant,
            "sampleIndex": self.sample_index,
            "state": self.state,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "lhsValue": self.lhs_value,
            "rhsValue": self.rhs_value,
            "model": model_to_dict(self.model),
        }
        if self.action_model is not None:
            out["actionModel"] = action_model_to_dict(self.action_model)
        return out


def _search(cfg: GeneratorConfig, draw: Callable, **fields) -> CounterexampleReport | None:
    """The first seeded sample whose two sides differ somewhere, or None.

    ``draw(rng)`` gives one sample: a compiled model, the two sides, and
    the action models they may mention, which get a fresh environment per
    sample.  Both sides are labelled in one pass, so a subterm they share is
    labelled once.  Only a sample that is reported gets its model built
    over the compiled form; the report names the least state where the
    sides differ, and is re-verified.
    """
    rng = random.Random(cfg.seed)
    for index in range(cfg.sample_count):
        compiled, lhs, rhs, acts = draw(rng)
        env = ActionModelEnv(acts)
        labels = _mask(compiled, (lhs, rhs), env)
        left, right = labels[id(lhs)], labels[id(rhs)]
        if left != right:
            w = min(compiled.states_of(left ^ right))
            bit = 1 << compiled.index[w]
            report = CounterexampleReport(
                lhs=lhs, rhs=rhs, model=view(compiled), state=w, lhs_value=bool(left & bit),
                rhs_value=bool(right & bit), action_model=acts[0] if len(acts) == 1 else None,
                sample_index=index, **fields)
            if not report.verify(env):
                raise AssertionError("counterexample failed to reproduce")
            return report
    return None


def check_equivalence(f: Formula, env: ActionModelEnv, variant: str = SOUND_FORM,
                      cfg: GeneratorConfig = GeneratorConfig()) -> CounterexampleReport | None:
    """Search random models for a state where ``f`` and its translation differ."""
    translated = translate(f, env, variant)
    acts = [env.get(name) for name in env.names()]
    atoms, agents = _vocabulary(f, acts)
    return _search(cfg, lambda rng: (random_compiled_model(cfg, rng, atoms, agents),
                                     f, translated, acts),
                   axiom="translation", variant=variant)


def _vocabulary(f: Formula, acts: list[DeonticActionModel]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The atoms and agents that ``f`` and the action models mention, each
    falling back to its pool's first name when there are none."""
    posts = [assign for act in acts for assign in act.post.values()]
    parts = [f, *(g for act in acts for g in act.pre.values()),
             *(g for assign in posts for g in assign.values())]
    atoms = set().union(*posts, *map(atom_names, parts))
    agents = {name for act in acts for pair in act.rel for name in pair}.union(
        *map(agent_names, parts))
    return tuple(sorted(atoms)) or ATOM_POOL[:1], tuple(sorted(agents)) or AGENT_POOL[:1]


# ---------------------------------------------------------------------------
# Axiom audits.  Every builder takes (rng, model, cap), the model compiled and
# ``cap`` the audit's ``max_formula_depth``, and draws names before formulas:
# the draws are the seeded sample stream, so their order is fixed.


def _agents(rng: random.Random, model: CompiledModel, count: int) -> list[str]:
    agents = sorted(model.agents)
    return [rng.choice(agents) for _ in range(count)]


def _static(rng: random.Random, model: CompiledModel, cap: int, depth: int = 3) -> Formula:
    return random_static_formula(rng, tuple(sorted(model.val)), tuple(sorted(model.agents)),
                                 min(depth, cap))


def _box(cls: type, arity: int) -> Callable:
    """A picker of random ``cls`` boxes: it draws the box's ``arity`` agents
    and returns the box as a function of its scope."""
    def pick(rng, model):
        names = _agents(rng, model, arity)
        return lambda phi: cls(*names, phi)
    return pick


_PREF, _UNIV, _DOES = _box(PrefBox, 2), _box(Univ, 0), _box(Does, 1)


def _boxed(pick: Callable) -> Callable:
    return lambda rng, model, cap: pick(rng, model)(_static(rng, model, cap, 2))


def _box_laws(pick: Callable, s5: bool) -> Callable:
    """K, T and 4 for a random box, and 5 too when ``s5``."""
    def build(rng, model, cap):
        box = pick(rng, model)
        phi, psi = _static(rng, model, cap), _static(rng, model, cap)
        boxed = box(phi)  # one node, labelled once wherever the laws use it
        k_axiom = Imp(box(Imp(phi, psi)), Imp(boxed, box(psi)))
        t_axiom = Imp(boxed, phi)
        four = Imp(boxed, box(boxed))
        if not s5:
            return And(And(k_axiom, t_axiom), four)
        unboxed = Not(boxed)
        return And(And(k_axiom, t_axiom), And(four, Imp(unboxed, box(unboxed))))
    return build


def _inclusion(pick: Callable) -> Callable:
    """U phi implies a random box over phi."""
    def build(rng, model, cap):
        box = pick(rng, model)
        phi = _static(rng, model, cap)
        return Imp(Univ(phi), box(phi))
    return build


def _qualified_d(rng, model, cap):
    i, j = _agents(rng, model, 2)
    phi, psi = _static(rng, model, cap), _static(rng, model, cap)
    return Imp(
        pref_dia(i, j, phi),
        Imp(CondObl(i, j, psi, phi), Not(CondObl(i, j, Not(psi), phi))),
    )


def _normal_obl(rng, model, cap):
    i, j = _agents(rng, model, 2)
    phi = _static(rng, model, cap)
    psi, chi = _static(rng, model, cap), _static(rng, model, cap)
    return Iff(
        CondObl(i, j, And(psi, chi), phi),
        And(CondObl(i, j, psi, phi), CondObl(i, j, chi, phi)),
    )


# axiom -> a random static scope; the audit pushes a random [act A a] through it
REDUCTIONS: dict[str, Callable] = {
    "atomRed": lambda rng, model, cap: Atom(rng.choice(sorted(model.val))),
    "negRed": lambda rng, model, cap: Not(_static(rng, model, cap, 2)),
    "andRed": lambda rng, model, cap: And(_static(rng, model, cap, 2), _static(rng, model, cap, 2)),
    "univRed": _boxed(_UNIV),
    "doRed": _boxed(_DOES),
    "prefRed": _boxed(_PREF),
}

# axiom -> a random instance, which must hold at every state
VALIDITIES: dict[str, Callable] = {
    "S4pref": _box_laws(_PREF, s5=False),
    "S5U": _box_laws(_UNIV, s5=True),
    "S5Do": _box_laws(_DOES, s5=True),
    "inclUPref": _inclusion(_PREF),
    "inclUDo": _inclusion(_DOES),
    "qualifiedD": _qualified_d,
    "normalO": _normal_obl,
}

AXIOMS: dict[str, Callable] = {**REDUCTIONS, **VALIDITIES}


def audit_axiom(name: str, cfg: GeneratorConfig = GeneratorConfig(),
                variant: str = SOUND_FORM) -> CounterexampleReport | None:
    """Search seeded random instances for a countermodel to the named axiom.

    Returns the first verified counterexample, or None when the whole suite
    passes.  Axiom names: atomRed, negRed, andRed, univRed, prefRed, doRed,
    S4pref, S5U, S5Do, inclUPref, inclUDo, qualifiedD, normalO.  The report
    names its variant only for the axioms in ``PAPER_ERRATA``.
    """
    if name not in AXIOMS:
        raise NameResolutionError(
            f"unknown axiom {name!r} (known: {', '.join(sorted(AXIOMS))})"
        )
    _check_variant(variant)

    def draw(rng):
        model = random_compiled_model(cfg, rng)
        if name in VALIDITIES:
            return model, VALIDITIES[name](rng, model, cfg.max_formula_depth), TOP, ()
        act = random_action_model(cfg, model, rng)
        action = rng.choice(sorted(act.actions))
        scope = REDUCTIONS[name](rng, model, cfg.max_formula_depth)
        rhs = reduce_step(act, action, scope, variant)
        return model, ActBox(act.name, action, scope), rhs, (act,)

    return _search(cfg, draw, axiom=name,
                   variant=variant if name in PAPER_ERRATA else None)
