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
unchanged. A Multicast is one payload to a tuple or range of ids; a
message to one process is a Multicast to a one-tuple. A timer id is its
owner's path plus a sequence number, and the owner stores and compares
that absolute id.

Only the root routes: one dict lookup in a route table it alone holds,
filled by `attach`, never by a message. Only the view loop (`oper.Oper`)
attaches a child after construction. The table maps each automaton's path
(a composite's own path: its core) to the automaton and its lift chain: one
`(composite, tag)` pair per composite between it and the root, innermost
first, the tag None where the automaton is that composite's core. A message
goes by its exact `path` and a firing timer by its exact `timer_id[:-1]`; a
path the table lacks, a path below an existing automaton included, goes to
the root's `_route_unknown`. A routed event is a message or a timer, never
a request, so the root calls its target's `on_event` directly. An empty
output returns at once. Other output, if there is any that is not a
multicast, broadcast or timer, is lifted along the chain and then by the
root; those alone return as they are.

Only the root's core emits Halt; the simulator stops a process at its first
Halt, so the runtime keeps no halt state. A root has no parent to abandon
it, so the simulator calls its `on_event` directly, read once per run. The
view loop's is `Composite.on_event`, held as `Oper`'s own class entry: the
benchmark's tracer would leave a wrapper on a subclass that inherits it.

Abandon is a runtime operation. The view loop sends Request("abandon") to a
per-view core when it moves to a later view; `Automaton.step` answers it
with [] after `abandon()`, which a Composite applies to its core and every
child, down the whole tree, since routing reaches each directly.
`abandon()` swaps in `stopped`, the no-op handler of a halted process too:
the state stays as it is, and every later event, a timer included, gets [].

No validation needs to leave an abandoned view. `OperCore` advances when
`pending_target > view`, `pending_target - 1` is validated and it has
proposed. That never stays true outside `_try_advance`: each event that can
make it true calls it (a higher 2t+1 START-VIEW quorum, or the validation of
`pending_target - 1`), and `validated` is empty until the proposal spawns
view 1. A process abandons only the view it is in, so a validation of a
view w < view would only add an entry that `_try_advance`, reading
`pending_target - 1 >= view > w`, never reads; it would return [].

A handler dispatches on the exact event class, read once as `type(event)`
and compared with `is`, the message class first where it takes messages:
no event class is subclassed, and messages are most of the traffic.

An automaton handles only the events that reach it, with no fallback: a
timer only if it set one, a request only from its parent or (at a core) as
a child's indication, never `abandon`, which `step` takes, and `propose` at
most once, which its parent guarantees. The simulator proposes to each root
once; `OperCore` to view 1 at its own proposal and to a later view only in
`_try_advance`, where views strictly increase; `CruxCore` to gc1, as and
gc2, and asks vb to broadcast, once each, each step gated on a one-shot
timer and a one-shot indication.

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
    """One copy of `payload` per id of `dests`, a tuple or range, in order."""

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


def stopped(event):
    """Handler of an abandoned automaton or halted process: not a bound
    method, which would make each holder a reference cycle."""


class Automaton:
    """Deterministic event-driven state machine, silent once abandoned.

    `path` is this automaton's absolute instance path, recorded by the
    Composite it is attached to; the actions it sends or sets carry it.
    """

    path: tuple = ()

    def __init__(self):
        self._timer_seq = 0

    def attach(self, path: tuple, root, lifts=()):
        self.path = path
        root.routes[path] = (self, lifts)

    def step(self, event) -> list:
        if type(event) is Request and event.name == "abandon":
            self.abandon()
            return []
        return self.on_event(event) or []

    def abandon(self):
        """Stop this automaton: its state stays as it is."""
        self.on_event = stopped

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

    def attach(self, path: tuple, root=None, lifts=()):
        """Record `path`; enter this subtree in `root`'s route table (no root:
        hold the table). An entry is an automaton and its lift chain, the
        `(composite, tag)` pairs between it and the root, innermost first;
        `lifts` is this composite's. No chain holds the root: no cycle."""
        self.path = path
        self.routes = {} if root is None else None
        for tag, auto in ((None, self.core), *self.children.items()):
            auto.attach(path if tag is None else path + (tag,), root or self,
                        lifts if root is None else ((self, tag),) + lifts)

    # -- public --------------------------------------------------------

    def abandon(self):
        """Abandon this composite, its core and every child, down the tree."""
        super().abandon()
        for auto in (self.core, *self.children.values()):
            auto.abandon()

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
        target, lifts = route
        actions = target.on_event(event)   # a routed event is never a request
        if not actions:
            return []
        if _PASS_UP.issuperset(map(type, actions)):
            return actions   # every level would pass it up unchanged
        for node, tag in lifts:   # lift the output back up
            actions = node._lift(tag, actions)
        return self._lift(path[0] if path else None, actions)

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
