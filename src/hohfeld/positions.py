"""Power and immunity verdicts over a normative position.

Global scope asks whether the agent owning the action model can execute
anything at all at the state: ability to change the normative system,
realized by any executable action.  Local scope fixes a target position T
and asks whether some executable action flips T's truth value there
(establishes T when it fails, cancels it when it holds).  Immunity is the
complement of the matching power; liability and no-power restate global
power and global immunity from the counterparty's side.
"""
from __future__ import annotations

from dataclasses import dataclass

from .actions import ActionModelEnv, DeonticActionModel
from .errors import NameResolutionError
from .formula import ActBox, Atom, Formula
from .semantics import executable, truths


@dataclass(frozen=True)
class PositionVerdict:
    kind: str                       # "power" | "immunity" | "liability" | "noPower"
    scope: str                      # "global" | "local"
    holds: bool
    witnesses: tuple[str, ...]      # realizing/flipping actions; for immunity
                                    # kinds the actions defeating the immunity
    current_truth: bool | None = None   # local scope only

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "scope": self.scope,
            "holds": self.holds,
            "witnesses": list(self.witnesses),
        }
        if self.scope == "local":
            out["currentTruth"] = self.current_truth
        return out


# (kind, scope) -> (the verdict's kind, whether it holds when some action is a
# witness: an executable one, for local scope one that flips the position).
VERDICTS = {
    ("power", "global"): ("power", True),
    ("immunity", "global"): ("immunity", False),
    ("liability", "global"): ("liability", True),
    ("nopower", "global"): ("noPower", False),
    ("power", "local"): ("power", True),
    ("immunity", "local"): ("immunity", False),
}


def verdict(kind: str, scope: str, model, state: str, act: DeonticActionModel,
            position: Formula | None = None,
            env: ActionModelEnv | None = None) -> PositionVerdict:
    """The ``VERDICTS`` entry ``(kind, scope)`` at the state; local scope
    needs the position, whose truth after an action ``a`` is that of
    ``[act A a] position``.  ``env``, if given, must map ``act.name`` to ``act``."""
    if (kind, scope) not in VERDICTS:
        scopes = [s for k, s in VERDICTS if k == kind]
        raise NameResolutionError(f"{kind} is defined for {' and '.join(scopes)} scope only"
                                  if scopes else f"unknown verdict kind {kind!r}")
    if scope == "local" and position is None:
        raise NameResolutionError(f"local {kind} needs a position: the formula it may flip")
    name, on_witness = VERDICTS[kind, scope]
    env = _checked_env(act, env)
    witnesses = [a for a in sorted(act.actions) if executable(model, state, act, a)]
    current = None
    if scope == "local":
        current, *after = truths(model, state, (position, *(
            ActBox(act.name, a, position) for a in witnesses)), env)
        witnesses = [a for a, t in zip(witnesses, after) if t != current]
    return PositionVerdict(name, scope, bool(witnesses) == on_witness, tuple(witnesses), current)


def _checked_env(act: DeonticActionModel, env: ActionModelEnv | None) -> ActionModelEnv:
    if env is not None and env.get(act.name) is not act:
        raise NameResolutionError(f"the environment maps {act.name!r} to another action model")
    return env if env is not None else ActionModelEnv([act])


def global_power(model, state, act: DeonticActionModel,
                 env: ActionModelEnv | None = None) -> PositionVerdict:
    """Some action is executable at the state."""
    return verdict("power", "global", model, state, act, env=env)


def global_immunity(model, state, act: DeonticActionModel,
                    env: ActionModelEnv | None = None) -> PositionVerdict:
    """No action is executable at the state."""
    return verdict("immunity", "global", model, state, act, env=env)


def liability(model, state, act: DeonticActionModel,
              env: ActionModelEnv | None = None) -> PositionVerdict:
    """The counterparty's exposure: same test as global power."""
    return verdict("liability", "global", model, state, act, env=env)


def no_power(model, state, act: DeonticActionModel,
             env: ActionModelEnv | None = None) -> PositionVerdict:
    """The counterparty's disability: same test as global immunity."""
    return verdict("nopower", "global", model, state, act, env=env)


def local_power(model, state, act: DeonticActionModel, position: Formula,
                env: ActionModelEnv | None = None) -> PositionVerdict:
    """Some executable action flips the truth value of the position."""
    return verdict("power", "local", model, state, act, position, env)


def local_immunity(model, state, act: DeonticActionModel, position: Formula,
                   env: ActionModelEnv | None = None) -> PositionVerdict:
    """No executable action can flip the truth value of the position."""
    return verdict("immunity", "local", model, state, act, position, env)


def permissible(model, state, act: DeonticActionModel, action: str,
                violation_atom: str = "V",
                env: ActionModelEnv | None = None) -> bool:
    """Executable and leading to a state clear of the designated violation
    atom, which resolves against the model's vocabulary at every state."""
    env = _checked_env(act, env)
    violation = Atom(violation_atom)
    doable = executable(model, state, act, action)
    _, violated = truths(model, state, (violation, ActBox(act.name, action, violation)), env)
    return doable and not violated
