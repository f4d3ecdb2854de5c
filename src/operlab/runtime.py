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

from collections import deque
from dataclasses import dataclass, field

from .core import Payload

# Messages buffered per not-yet-spawned child tag; the oldest is dropped first.
BUFFER_CAP = 256

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
        if self.halted:
            return []
        if isinstance(event, Request) and event.name == "abandon":
            return self.abandon()
        if self.abandoned and isinstance(event, TimerFired):
            return []
        actions = self.on_event(event)
        if not actions:
            return []
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
    """Core automaton plus routed children.

    factory(tag) may return a fresh automaton to spawn on first use of an
    unknown tag; buffer_tags(tag) marks tags whose early messages are buffered
    (up to BUFFER_CAP per tag, oldest dropped) and replayed when the tag is
    spawned. Anything else is dropped and counted as misrouted.
    """

    def __init__(self, core: Automaton, children=None, factory=None,
                 buffer_tags=None):
        super().__init__()
        self.core = core
        self.children: dict[str, Automaton] = dict(children or {})
        self.factory = factory
        self.buffer_tags = buffer_tags
        self.pending: dict[str, deque] = {}
        self.misrouted = 0
        self.buffer_dropped = 0
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

    def spawn(self, tag: str, child: Automaton, event=None) -> list:
        """Register a child, replay its buffered messages in arrival order,
        then deliver `event` (the one that caused the spawn), if given."""
        if tag in self.children:
            raise ValueError(f"duplicate child tag {tag!r}")
        self.children[tag] = child
        child.attach(self.path + (tag,))
        out = []
        for buffered in self.pending.pop(tag, ()):
            out.extend(self._step_child(tag, buffered))
        if event is not None:
            out.extend(self._step_child(tag, event))
        return out

    def on_event(self, event):
        if isinstance(event, MessageArrival):
            path = event.path
        elif isinstance(event, TimerFired):
            path = event.timer_id[:-1]
        else:
            return self._step_core(event)
        if len(path) <= self.depth:
            return self._step_core(event)
        tag = path[self.depth]
        out = self._deliver_to_child(tag, event)
        if out is not None:
            return out
        if self.buffer_tags is not None and self.buffer_tags(tag):
            buf = self.pending.setdefault(tag, deque(maxlen=BUFFER_CAP))
            if len(buf) == BUFFER_CAP:
                self.buffer_dropped += 1
            buf.append(event)
            return []
        self.misrouted += 1
        return []

    # -- internals -----------------------------------------------------

    def _step_core(self, event) -> list:
        return self._absorb_core(self.core.step(event))

    def _absorb_core(self, actions) -> list:
        out = []
        for a in actions:
            if isinstance(a, ToChild):
                delivered = self._deliver_to_child(a.tag, a.event)
                if delivered is None:
                    self.misrouted += 1
                else:
                    out.extend(delivered)
            else:
                out.append(a)
        return out

    def _deliver_to_child(self, tag: str, event):
        """Step child `tag`, spawning it through the factory on first use.
        None when there is no such child and the factory declines."""
        if tag in self.children:
            return self._step_child(tag, event)
        child = self.factory(tag) if self.factory is not None else None
        if child is None:
            return None
        return self.spawn(tag, child, event)

    def _step_child(self, tag: str, event) -> list:
        """The child's actions, already on absolute paths, pass up unchanged;
        its indications become tag-prefixed requests to the core."""
        out = []
        for a in self.children[tag].step(event):
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
