"""Single-view agreement core combining both safety guards with a
round-simulated synchronous agreement in the middle.

Seven sequential steps per proposal: (1) first graded consensus, gated on
both a delta_shift + delta1 timer and an actual decision; (2) the recursive
synchronous agreement simulated for exactly R rounds of delta_sync each
under a bit cap; (3) the estimate rule; (4) second graded consensus, gated
the same way; (5) decide iff the second grade is 1; (6) broadcast the second
value through the validation broadcast; (7) completed once that broadcast
completes. A live core relays each validation outward; an abandoned one
relays nothing (see `runtime`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BOT, DEFAULT_VALUE_WIDTH, ValidityPredicate
from .graded_consensus import GradedConsensus
from .runtime import (Automaton, Composite, Indicate, Request, TimerFired,
                      ToChild)
from .sync_ba import RoundSimAdapter, budget, rounds
from .validation_broadcast import make_validation_broadcast

# Message depth of the graded consensus after GST, in delta: acceptance
# criterion 8 measures its lock-step latency (6) and checks it is at most this.
GC_DEPTH = 7


@dataclass(frozen=True)
class CruxParams:
    n: int
    t: int
    delta: int
    value_width: int = DEFAULT_VALUE_WIDTH

    @property
    def delta_shift(self) -> int:
        """Start-time spread a view's timers must absorb: 2 * delta."""
        return 2 * self.delta

    @property
    def delta1(self) -> int:
        return GC_DEPTH * self.delta

    @property
    def delta2(self) -> int:
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
        return ((self.delta_shift + self.delta1)
                + self.R * self.delta_sync
                + (self.delta_shift + self.delta2))


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
        self.gc1_out = None       # (v1, g1)
        self.v_a = None           # sync BA's value, indicated after R rounds
        self.gc2_out = None       # (v2, g2)
        self.timer1_done = False
        self.timer2_done = False
        self.gc2_started = False
        self.decided = False
        self._timer1 = None
        self._timer2 = None

    def on_event(self, event):
        cls = type(event)
        if cls is Request:
            return self._request(event)
        if cls is TimerFired:
            if event.timer_id == self._timer1:
                self.timer1_done = True
                return self._after_gc1()
            if event.timer_id == self._timer2:
                self.timer2_done = True
                return self._after_gc2()
        return []

    def _request(self, event):
        name, args = event.name, event.args
        if name == "propose":
            return self._propose(args[0])
        # child indications, tag-prefixed; each child guards its own
        # one-shot indications (validate comes once per value)
        if name == "decide" and args[0] == "gc1":
            self.gc1_out = (args[1], args[2])
            return self._after_gc1()
        if name == "sync-done" and args[0] == "as":
            self.v_a = args[1]
            return self._after_sync()
        if name == "decide" and args[0] == "gc2":
            self.gc2_out = (args[1], args[2])
            return self._after_gc2()
        if name == "validate" and args[0] == "vb":
            return [Indicate("validate", (args[1],))]
        # the one request left: vb's completed
        return [Indicate("completed")]

    def _propose(self, v):
        self.own = v
        timer, self._timer1 = self.new_timer(
            self.params.delta_shift + self.params.delta1)
        return [ToChild("gc1", Request("propose", (v,))), timer]

    def _after_gc1(self):
        if not (self.timer1_done and self.gc1_out is not None):
            return []
        v1, _ = self.gc1_out
        return [ToChild("as", Request("propose", (v1,)))]

    def _after_sync(self):
        self.gc2_started = True
        v1, g1 = self.gc1_out
        est = est_rule(self.own, v1, g1, self.v_a, self.pred)
        timer, self._timer2 = self.new_timer(
            self.params.delta_shift + self.params.delta2)
        return [ToChild("gc2", Request("propose", (est,))), timer]

    def _after_gc2(self):
        if not (self.timer2_done and self.gc2_out is not None):
            return []
        v2, g2 = self.gc2_out
        out = []
        if g2 == 1:
            self.decided = True
            out.append(Indicate("decide", (v2,)))
        out.append(ToChild("vb", Request("broadcast", (v2,))))
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
