"""Event-driven automaton contract and hierarchical composition.

Every protocol is a deterministic Automaton: step(event) -> list of actions.
A Composite hosts a core automaton plus tagged children; inbound messages
carry an instance path (tuple of string segments) that routes them to exactly
one automaton. Child indications surface to the core as Request events whose
args are prefixed with the child's tag.

Paths are absolute. When a Composite is attached (as the root, as a
constructor child or through `spawn`) it records its path, once, on itself,
its core and its children, down the whole tree. An automaton builds each
Send, Broadcast and SetTimer with its own `path` in front, so a parent passes
its children's actions up unchanged. A timer id is its owner's path plus a
sequence number, and the owner stores and compares that absolute id. A
Composite at depth d routes a message by its `path` and a firing timer by
`timer_id[:-1]`, with one rule: to the core when that path ends at d, else
to the child tagged `path[d]`, passing the event on unchanged.

The root walks an event down to its target in one loop, applying each
nested Composite's entry check (`ignores`). Output comes back up only if
there is any, through each level's lift of indications into its core and
output check (`emit`); output of pass-up actions alone is returned as it
is, unless an abandoned composite is on the way.

Halting is `Automaton.step`'s alone: it drops every action after a Halt and
answers every later event with []. Only the root's core emits Halt.

Abandon is a runtime operation. The view loop sends Request("abandon") to a
per-view core when it moves to a later view or finishes; `Automaton.step`
answers it with `abandon()`, which a Composite applies to its core and every
child, down the whole tree. From then on the automaton keeps its state and
keeps processing messages and requests, but `step` mutes it: only
CancelTimer and Indicate("validate") leave it. Validations outlive the view
because the next view is proposed with a value the old view's validation
broadcast validated; they come from message arrivals, so an abandoned
automaton ignores its timers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Payload

# -- events -----------------------------------------------------------------


@dataclass(frozen=True)
class MessageArrival:
    sender: int
    payload: Payload
    path: tuple = ()


@dataclass(frozen=True)
class TimerFired:
    timer_id: tuple


@dataclass(frozen=True)
class Request:
    name: str
    args: tuple = ()


# -- actions ----------------------------------------------------------------


@dataclass(frozen=True)
class Send:
    to: int
    payload: Payload
    path: tuple = ()


@dataclass(frozen=True)
class Broadcast:
    payload: Payload
    path: tuple = ()


@dataclass(frozen=True)
class SetTimer:
    duration: int
    timer_id: tuple


@dataclass(frozen=True)
class CancelTimer:
    timer_id: tuple


@dataclass(frozen=True)
class Indicate:
    name: str
    args: tuple = ()


@dataclass(frozen=True)
class Halt:
    pass


@dataclass(frozen=True)
class ToChild:
    """Core-internal action: deliver an event to the named child."""

    tag: str
    event: object


# actions a parent passes up from a child unchanged
_PASS_UP = (Send, Broadcast, SetTimer, CancelTimer)


class Automaton:
    """Deterministic event-driven state machine. Halt is absorbing; an
    abandoned automaton is muted (see the module docstring).

    `path` is this automaton's absolute instance path, recorded by the
    Composite it is attached to; the actions it sends or sets carry it.
    """

    path: tuple = ()

    def __init__(self):
        self.halted = False
        self.abandoned = False
        self._timer_seq = 0

    def attach(self, path: tuple):
        self.path = path

    def step(self, event) -> list:
        if isinstance(event, Request) and event.name == "abandon" \
                and not self.halted:
            return self.abandon()
        # only a halted or abandoned automaton ignores events
        if (self.halted or self.abandoned) and self.ignores(event):
            return []
        actions = self.on_event(event)
        return self.emit(actions) if actions else []

    def ignores(self, event) -> bool:
        """Entry check of `step`: a halted automaton ignores every event, an
        abandoned one its timers."""
        return self.halted or self.abandoned and isinstance(event, TimerFired)

    def emit(self, actions) -> list:
        """Output check of `step`: an abandoned automaton passes only
        CancelTimer and Indicate("validate"); actions after a Halt are cut."""
        if self.abandoned:
            # validations outlive a view: OperCore._try_advance proposes
            # view V with view V-1's validated value
            return [a for a in actions if isinstance(a, CancelTimer)
                    or isinstance(a, Indicate) and a.name == "validate"]
        for i, a in enumerate(actions):
            if isinstance(a, Halt):
                self.halted = True
                return actions[:i + 1]
        return actions

    def abandon(self) -> list:
        """Mute this automaton; returns the actions that wind it down."""
        self.abandoned = True
        return []

    def on_event(self, event):  # pragma: no cover - abstract
        """Returns a list of actions (or None for none)."""
        raise NotImplementedError

    def new_timer(self, duration: int):
        """Returns (SetTimer action, timer id). The id is absolute, this
        automaton's path plus a sequence number, and is the one its
        TimerFired and CancelTimer carry."""
        self._timer_seq += 1
        tid = self.path + (self._timer_seq,)
        return SetTimer(duration, tid), tid


class Composite(Automaton):
    """Core automaton plus the children it routes to. A routed event or a
    core's ToChild whose tag names no child goes to `_route_unknown`, which
    counts it as misrouted; only the view loop (`oper.Oper`) overrides that,
    to spawn, buffer or refuse a child."""

    buffer_dropped = 0   # events a buffering subclass dropped at its cap

    def __init__(self, core: Automaton, children=None):
        super().__init__()
        self.core = core
        self.children: dict[str, Automaton] = dict(children or {})
        self.misrouted = 0
        self.attach(())

    def attach(self, path: tuple):
        self.path = path
        self.depth = len(path)
        self.core.attach(path)
        for tag, child in self.children.items():
            child.attach(path + (tag,))

    # -- public --------------------------------------------------------

    def abandon(self) -> list:
        """Abandon the core and every child, down the whole tree."""
        out = super().abandon() + self.core.abandon()
        for child in self.children.values():
            out.extend(child.abandon())
        return out

    def spawn(self, tag: str, child: Automaton, events=()) -> list:
        """Register and attach a child, then step it through `events`."""
        if tag in self.children:
            raise ValueError(f"duplicate child tag {tag!r}")
        self.children[tag] = child
        child.attach(self.path + (tag,))
        out = []
        for event in events:
            out.extend(self._step_child(tag, event))
        return out

    def on_event(self, event):
        if isinstance(event, MessageArrival):
            path = event.path
        elif isinstance(event, TimerFired):
            path = event.timer_id[:-1]
        else:
            return self._absorb_core(self.core.step(event))
        # walk down to the automaton the path names, applying each nested
        # Composite's entry check; `muted` if any of them is abandoned
        node, way, muted = self, [], False
        while len(path) > node.depth:
            target = node.children.get(path[node.depth])
            if type(target) is not Composite:
                break
            if (target.halted or target.abandoned) and target.ignores(event):
                return []
            way.append(node)
            node = target
            muted = muted or target.abandoned
        else:
            target = node.core
        if target is None:
            out = node._route_unknown(path[node.depth], event)
        else:
            actions = target.step(event)
            if not actions:
                return []
            if not muted:
                for a in actions:
                    if not isinstance(a, _PASS_UP):
                        break
                else:
                    return actions   # every level would pass it up unchanged
            out = node._absorb_core(actions) if target is node.core \
                else node._lift(path[node.depth], actions)
        # lift the output back up, with each nested Composite's output check
        while way and out:
            parent = way.pop()
            out = parent._lift(path[parent.depth], node.emit(out))
            node = parent
        return out

    # -- internals -----------------------------------------------------

    def _absorb_core(self, actions) -> list:
        out = []
        for a in actions:
            if isinstance(a, ToChild):
                out.extend(self._step_child(a.tag, a.event)
                           if a.tag in self.children
                           else self._route_unknown(a.tag, a.event))
            else:
                out.append(a)
        return out

    def _route_unknown(self, tag, event) -> list:
        """An event for child `tag`, which this composite does not have."""
        self.misrouted += 1
        return []

    def _step_child(self, tag: str, event) -> list:
        return self._lift(tag, self.children[tag].step(event))

    def _lift(self, tag: str, actions) -> list:
        """Child `tag`'s actions, already on absolute paths, pass up
        unchanged; its indications become tag-prefixed requests to the core."""
        out = []
        for a in actions:
            if isinstance(a, _PASS_UP):
                out.append(a)
            elif isinstance(a, Indicate):
                out.extend(self._absorb_core(
                    self.core.step(Request(a.name, (tag,) + a.args))))
            elif isinstance(a, ToChild):  # pragma: no cover - cores only
                raise TypeError("ToChild emitted by a non-core automaton")
            else:  # pragma: no cover
                raise TypeError(f"unknown action {a!r}")
        return out
