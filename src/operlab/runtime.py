"""Event-driven automaton contract and hierarchical composition.

Every protocol is a deterministic Automaton: step(event) -> list of actions.
A Composite hosts a core automaton plus tagged children; inbound messages
carry an instance path (tuple of string segments) that names the one
automaton they are for. Child indications surface to the core as Request
events whose args are prefixed with the child's tag.

Paths are absolute. When a Composite is attached (as the root or as a
child) it records its path, once, on itself, its core and its children, down
the whole tree. An automaton builds each Multicast, Broadcast and SetTimer
with its own `path` in front, so a parent passes its children's actions up
unchanged. A Multicast is one payload to a tuple of destinations; a
message to one process is a Multicast to a one-tuple. A timer id is its
owner's path plus a sequence number, and the owner stores and compares
that absolute id.

Only the root routes: one dict lookup in a route table it alone holds,
filled by `attach`, never by a message. Only the view loop (`oper.Oper`)
attaches a child after construction. The table maps each automaton's path
(a composite's own path: its core) to it and to the composites below the
root down to its owner. A message goes by its exact `path` and a firing
timer by its exact `timer_id[:-1]`; a path the table lacks, a path below
an existing automaton included, goes to the root's `_route_unknown`. A
routed event is a message or a timer, never a request, so the root calls
a live target's `on_event` directly; only an abandoned target goes
through `Automaton.step`, which mutes it. An empty output returns at once.
Other output comes back up through each level's lift, if there is any
that is not a multicast, broadcast or timer; those alone return as they
are.

Only the root's core emits Halt; the simulator stops a process at its first
Halt, so the runtime keeps no halt state. A root has no parent to abandon
it, so the simulator calls its `on_event` directly, read once per run. The
view loop's is `Composite.on_event`, held as `Oper`'s own class entry: the
benchmark's tracer would leave a wrapper on a subclass that inherits it.

Abandon is a runtime operation. The view loop sends Request("abandon") to a
per-view core when it moves to a later view or finishes; `Automaton.step`
answers it with [] after `abandon()`, which a Composite applies to its core
and every child, down the whole tree. Only the root, never abandoned, gains
children later, so a subtree is abandoned throughout and routing checks only
its target's `abandoned` flag. An abandoned automaton keeps its state and keeps
processing messages and requests, but `step` mutes it: only
Indicate("validate") leaves it, since the next view is proposed with a value
the old view's validation broadcast validated. Validations come from message
arrivals, so `step` drops its timers; timers are never cancelled, so `step`
is the one place that mutes an instance.

An automaton handles only the events that reach it, with no fallback: a
timer only if it set one, a request only from its parent or (at a core) as
a child's indication, never `abandon`, which `step` takes, and `propose` at
most once, which its parent guarantees. The simulator proposes to each root
once; `OperCore` to view 1 at its own proposal and to a later view only in
`_try_advance`, where views strictly increase; `CruxCore` to gc1, as and
gc2, and asks vb to broadcast, once each, each step gated on a one-shot
timer and a one-shot indication; `LockstepGC` proposes when it is built.

Records: the events and actions below and `core.Payload` are slotted
dataclasses, equal by class and fields. The simulator shares one payload
and one arrival among the copies of a send, so none is edited once built
(`dataclasses.replace` copies). None is frozen: that would set each field
through `object.__setattr__`, making a record 2-4 times as costly to build.
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
    """Core automaton plus the children it routes to. A message or timer
    goes by its exact path alone: a path the root's route table lacks goes
    to the root's `_route_unknown`, and a core's ToChild whose tag names no
    child to its composite's. That counts it as misrouted; only the view
    loop (`oper.Oper`) overrides it, to spawn, buffer or refuse a child."""

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
            return self._lift(None, self.core.step(event))
        route = self.routes.get(path)
        if route is None:   # () always routes, so path[0] exists
            return self._route_unknown(path[0], event)
        target, way = route
        # a routed event is never a request: only a muted target needs step
        actions = target.step(event) if target.abandoned \
            else target.on_event(event)
        if not actions:
            return []
        if _PASS_UP.issuperset(map(type, actions)):
            return actions   # every level would pass it up unchanged
        node = way[-1] if way else self
        out = node._lift(None if target is node.core else path[node.depth],
                         actions)
        while out and way:   # lift the output back up
            way = way[:-1]
            node = way[-1] if way else self
            out = node._lift(path[node.depth], out)
        return out

    # -- internals -----------------------------------------------------

    def _route_unknown(self, tag, event) -> list:
        """An event for child `tag`, which this composite does not have, or
        (at the root) for a path below `tag` that the route table lacks."""
        self.misrouted += 1
        return []

    def _lift(self, tag, actions) -> list:
        """Walk the actions of child `tag` (None: of the core). A core's
        ToChild steps that child; a child's indication becomes a
        tag-prefixed request to the core; the rest, already on absolute
        paths, passes up unchanged."""
        out = []
        for a in actions:
            if type(a) is ToChild:
                child = self.children.get(a.tag)
                out.extend(self._route_unknown(a.tag, a.event) if child is None
                           else self._lift(a.tag, child.step(a.event)))
            elif tag is None or type(a) is not Indicate:
                out.append(a)
            else:
                out.extend(self._lift(None, self.core.step(
                    Request(a.name, (tag,) + a.args))))
        return out
