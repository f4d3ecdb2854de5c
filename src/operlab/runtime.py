"""Event-driven automaton contract and hierarchical composition.

Every protocol is a deterministic Automaton: step(event) -> list of actions.
A Composite hosts a core automaton plus tagged children; inbound messages
carry an instance path (tuple of string segments) that routes them to exactly
one automaton. Child indications surface to the core as Request events whose
args are prefixed with the child's tag.

Paths are absolute. When a Composite is attached (as the root or as a
child) it records its path, once, on itself, its core and its children, down
the whole tree. An automaton builds each Multicast, Broadcast and SetTimer
with its own `path` in front, so a parent passes its children's actions up
unchanged. A Multicast is one payload to a tuple of destinations; a
message to one process is a Multicast to a one-tuple. A timer id is its
owner's path plus a sequence number, and the owner stores and compares
that absolute id. A message goes by its `path` and a firing
timer by `timer_id[:-1]`: at a composite of depth d, to the core when that
path ends at d, else to the child tagged `path[d]`.

Only the root routes: one dict lookup in a route table it alone holds,
filled by `attach`, never by a message. Only the view loop (`oper.Oper`)
attaches a child after construction. The table maps each automaton's path
(a composite's own path: its core) to it and to the composites below the
root down to its owner, so a nested composite only steps requests from its
parent's core. Other paths resolve by their longest registered prefix: a
leaf, or a composite without child `path[d]`. A routed event is a message
or a timer, never a request, so the root calls a live target's `on_event`
directly; only an abandoned target goes through `Automaton.step`, which
mutes it. An empty output returns at once. Other output comes back up
through each level's lift, if there is any that is not a multicast,
broadcast or timer; those alone return as they are.

Only the root's core emits Halt; the simulator stops a process at its first
Halt, so the runtime keeps no halt state. A root has no parent to abandon
it, so the simulator calls its `on_event` directly.

Abandon is a runtime operation. The view loop sends Request("abandon") to a
per-view core when it moves to a later view or finishes; `Automaton.step`
answers it with [] after `abandon()`, which a Composite applies to its core
and every child, down the whole tree; only the root, which is never
abandoned, gains children later. So an abandoned subtree is abandoned
throughout, and routing checks only its target's `abandoned` flag. From then
on each automaton in it keeps its state and keeps processing messages and
requests, but `step` mutes it: only Indicate("validate") leaves it.
Validations outlive the view because the next view is proposed with a value
the old view's validation broadcast validated; they come from message
arrivals, so `step` drops an abandoned automaton's timers.

Timers are never cancelled: a timer of an abandoned instance fires and is
ignored, so `step` is the one place that mutes an instance.

Records: the events and actions below and `core.Payload` are slotted
dataclasses, equal by class and fields. None is edited after it is built,
since the simulator shares one payload and one arrival among every copy of
a broadcast; `dataclasses.replace` makes a changed copy. They are not
frozen because a frozen dataclass sets each field through
`object.__setattr__`, which makes a record two to four times as costly to
build, and a run builds tens of thousands.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Payload

# -- events -----------------------------------------------------------------


@dataclass(slots=True)
class MessageArrival:
    sender: int
    payload: Payload
    path: tuple = ()


@dataclass(slots=True)
class TimerFired:
    timer_id: tuple


@dataclass(slots=True)
class Request:
    name: str
    args: tuple = ()


# -- actions ----------------------------------------------------------------


@dataclass(slots=True)
class Multicast:
    """One copy of `payload` to each of `dests`, a tuple, in order."""

    dests: tuple
    payload: Payload
    path: tuple = ()


@dataclass(slots=True)
class Broadcast:
    payload: Payload
    path: tuple = ()


@dataclass(slots=True)
class SetTimer:
    duration: int
    timer_id: tuple


@dataclass(slots=True)
class Indicate:
    name: str
    args: tuple = ()


@dataclass(slots=True)
class Halt:
    pass


@dataclass(slots=True)
class ToChild:
    """Core-internal action: deliver an event to the named child."""

    tag: str
    event: object


# action types a parent passes up from a child unchanged
_PASS_UP = frozenset((Multicast, Broadcast, SetTimer))


class Automaton:
    """Deterministic event-driven state machine; an abandoned one passes
    only validations (see the module docstring).

    `path` is this automaton's absolute instance path, recorded by the
    Composite it is attached to; the actions it sends or sets carry it.
    """

    path: tuple = ()

    def __init__(self):
        self.abandoned = False
        self._timer_seq = 0

    def attach(self, path: tuple, root, way=()):
        self.path = path
        root.routes[path] = (self, way)

    def step(self, event) -> list:
        if isinstance(event, Request) and event.name == "abandon":
            self.abandon()
            return []
        if not self.abandoned:
            return self.on_event(event) or []
        if isinstance(event, TimerFired):
            return []
        # validations outlive a view: OperCore._try_advance proposes view V
        # with view V-1's validated value
        return [a for a in self.on_event(event) or ()
                if isinstance(a, Indicate) and a.name == "validate"]

    def abandon(self):
        """Mute this automaton."""
        self.abandoned = True

    def on_event(self, event):  # pragma: no cover - abstract
        """Returns a list of actions (or None for none)."""
        raise NotImplementedError

    def new_timer(self, duration: int):
        """Returns (SetTimer action, timer id). The id is absolute, this
        automaton's path plus a sequence number, and is the one its
        TimerFired carries."""
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

    def attach(self, path: tuple, root=None, way=()):
        """Record `path`; enter this subtree in `root`'s route table below
        the composites `way` (no root: hold the table). No way holds a root,
        so no reference cycle forms."""
        self.path, self.depth = path, len(path)
        self.routes = {} if root is None else None
        way, root = (way + (self,), root) if root else ((), self)
        self.core.attach(path, root, way)
        for tag, child in self.children.items():
            child.attach(path + (tag,), root, way)

    # -- public --------------------------------------------------------

    def abandon(self):
        """Abandon the core and every child, down the whole tree."""
        super().abandon()
        self.core.abandon()
        for child in self.children.values():
            child.abandon()

    def on_event(self, event):
        cls = type(event)
        if cls is MessageArrival:
            path = event.path
        elif cls is TimerFired:
            path = event.timer_id[:-1]
        else:
            return self._absorb_core(self.core.step(event))
        target, way = self.routes.get(path) or self._longest_prefix(path)
        node = way[-1] if way else self
        if target is None:
            out = node._route_unknown(path[node.depth], event)
        else:
            # a routed event is never a request: only a muted target needs step
            actions = target.step(event) if target.abandoned \
                else target.on_event(event)
            if not actions:
                return []
            if _PASS_UP.issuperset(map(type, actions)):
                return actions   # every level would pass it up unchanged
            out = node._absorb_core(actions) if target is node.core \
                else node._lift(path[node.depth], actions)
        while out and way:   # lift the output back up
            *way, child = way
            node = way[-1] if way else self
            out = node._lift(path[node.depth], out)
        return out

    # -- internals -----------------------------------------------------

    def _longest_prefix(self, path):
        """Route of the longest registered prefix of `path` (registered
        paths are prefix-closed); no target if it names a composite."""
        routes, k = self.routes, self.depth + 1
        while path[:k] in routes:
            k += 1
        target, way = routes[path[:k - 1]]
        return (None if target is (way[-1] if way else self).core
                else target), way

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
            if type(a) in _PASS_UP:
                out.append(a)
            elif isinstance(a, Indicate):
                out.extend(self._absorb_core(
                    self.core.step(Request(a.name, (tag,) + a.args))))
            elif isinstance(a, ToChild):  # pragma: no cover - cores only
                raise TypeError("ToChild emitted by a non-core automaton")
            else:  # pragma: no cover
                raise TypeError(f"unknown action {a!r}")
        return out
