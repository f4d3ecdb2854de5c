"""Single-view agreement core combining both safety guards with a
round-simulated synchronous agreement in the middle.

Seven sequential steps per proposal: (1) first graded consensus; (2) the
recursive synchronous agreement simulated for exactly R rounds of
delta_sync each under a bit cap; (3) the estimate rule; (4) second graded
consensus; (5) decide iff the second grade is 1; (6) broadcast the second
value through the validation broadcast; (7) completed once that broadcast
completes. Both graded consensus instances pass one gate: the core acts on
an instance's (value, grade) once it has decided and delta_shift +
gate_window has passed since its proposal. A live core relays each
validation outward; an abandoned one relays nothing (see `runtime`).
"""

from __future__ import annotations

from .core import BOT, DEFAULT_VALUE_WIDTH, Record, ValidityPredicate
from .graded_consensus import GradedConsensus
from .runtime import (Automaton, Composite, Indicate, Request, TimerFired,
                      ToChild)
from .sync_ba import RoundSimAdapter, budget, rounds
from .validation_broadcast import make_validation_broadcast

# Message depth of the graded consensus after GST, in delta: acceptance
# criterion 8 measures its lock-step latency (6) and checks it is at most this.
GC_DEPTH = 7


class CruxParams(Record):
    __slots__ = ("n", "t", "delta", "value_width")

    def __init__(self, n: int, t: int, delta: int,
                 value_width: int = DEFAULT_VALUE_WIDTH):
        self.n, self.t, self.delta, self.value_width = n, t, delta, value_width

    @property
    def delta_shift(self) -> int:
        """Start-time spread a view's timers must absorb: 2 * delta."""
        return 2 * self.delta

    @property
    def gate_window(self) -> int:
        """A graded consensus's gate timer runs delta_shift + this."""
        return GC_DEPTH * self.delta

    @property
    def delta_sync(self) -> int:
        return self.delta_shift + self.delta

    @property
    def R(self) -> int:
        return rounds(self.n)

    @property
    def B(self) -> int:
        return budget(self.n, self.value_width)

    @property
    def bit_cap(self) -> int:
        return 2 * self.B

    @property
    def delta_total(self) -> int:
        return (2 * (self.delta_shift + self.gate_window)
                + self.R * self.delta_sync)


def est_rule(own, v1, g1, v_a, pred: ValidityPredicate):
    """Pick the estimate for the second guard."""
    if g1 == 1:
        return v1
    if v_a is not BOT and pred.check(v_a):
        return v_a
    return own


class CruxCore(Automaton):
    def __init__(self, params: CruxParams, pred: ValidityPredicate):
        super().__init__()
        self.params = params
        self.pred = pred
        self.own = None
        self.decisions = {}     # "gc1"/"gc2" -> (value, grade)
        self.gates = {}         # gate timer id -> "gc1"/"gc2"
        self.fired = set()      # tags whose gate timer has fired
        self.gc2_started = False
        self.decided = False

    def on_event(self, event):
        cls = type(event)
        if cls is Request:
            return self._request(event)
        if cls is TimerFired:   # a gate timer: the core sets no other
            tag = self.gates[event.timer_id]
            self.fired.add(tag)
            return self._gate(tag)
        return []

    def _request(self, event):
        name, args = event.name, event.args
        if name == "propose":
            self.own = args[0]
            return self._start("gc1", args[0])
        # child indications, tag-prefixed; each child guards its own
        # one-shot indications (validate comes once per value)
        if name == "decide":   # gc1's or gc2's, possibly before its start
            self.decisions[args[0]] = (args[1], args[2])
            return self._gate(args[0])
        if name == "sync-done":
            self.gc2_started = True
            v1, g1 = self.decisions["gc1"]
            return self._start(
                "gc2", est_rule(self.own, v1, g1, args[1], self.pred))
        if name == "validate":
            return [Indicate("validate", (args[1],))]
        # the one request left: vb's completed
        return [Indicate("completed")]

    def _start(self, tag, v):
        """Propose v to graded consensus `tag` and set its gate timer."""
        timer, timer_id = self.new_timer(
            self.params.delta_shift + self.params.gate_window)
        self.gates[timer_id] = tag
        return [ToChild(tag, Request("propose", (v,))), timer]

    def _gate(self, tag):
        """Act on `tag`'s (value, grade) once its gate timer has fired and
        it has decided: gc1's value goes to the sync BA; gc2's is decided on
        grade 1 and broadcast through vb."""
        if tag not in self.fired or tag not in self.decisions:
            return []
        v, g = self.decisions[tag]
        if tag == "gc1":
            return [ToChild("as", Request("propose", (v,)))]
        out = []
        if g == 1:
            self.decided = True
            out.append(Indicate("decide", (v,)))
        out.append(ToChild("vb", Request("broadcast", (v,))))
        return out


def make_crux(params: CruxParams, pid: int, default,
              pred: ValidityPredicate | None = None) -> Composite:
    """Assemble one view's agreement instance for process pid.

    default is the value substituted for BOT validations (the process's own
    proposal when embedded in the view-based protocol).
    """
    pred = pred or ValidityPredicate.always_true()
    children = {
        "gc1": GradedConsensus(params.n, params.t),
        "gc2": GradedConsensus(params.n, params.t),
        "as": RoundSimAdapter(params, pid),
        "vb": make_validation_broadcast(params.t, default),
    }
    return Composite(CruxCore(params, pred), children=children)
