"""Per-layer measurement for the operlab benchmark, taken from outside the
library.

Two sources feed the per-layer ledger:

- `Spans` wraps public entry points of each layer (automaton `on_event`,
  the lock-step machine's `outbound`/`absorb`, every `state_digest`,
  `simnet.run`, `harness.check_trace`) and charges each call's self time
  (its duration minus the time of wrapped calls nested inside it) to a
  layer. Self times are disjoint, so they sum to the duration of the
  outermost wrapped calls.
- `row_ledger` reads `Trace.rows` (`collect_rows=True`) and charges
  messages and bits to a layer by the instance path they were sent on.

Nothing here changes the library: wrappers are installed for a traced run
and removed afterwards.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

_VIEW_CHILD_LAYER = {
    ("gc1",): "graded_consensus.gc1",
    ("gc2",): "graded_consensus.gc2",
    ("as",): "sync_ba",
    ("vb",): "validation_broadcast",
    ("vb", "rb"): "reducing_broadcast",
}


def tag_view(tag):
    """View number of a `crux@V` path segment, or None."""
    if isinstance(tag, str) and tag.startswith("crux@"):
        try:
            return int(tag[len("crux@"):])
        except ValueError:
            return None
    return None


def path_layer(path) -> str:
    """Ledger layer that owns a message sent on `path`."""
    if not path:
        return "oper"              # START-VIEW is sent by the view loop
    if path[0] == "fin":
        return "finisher"
    if tag_view(path[0]) is not None:
        return _VIEW_CHILD_LAYER.get(tuple(path[1:]), "other")
    return "other"


def row_ledger(trace, bit_cap: int) -> dict:
    """Steps, messages and post-GST bits per layer from one run's rows.

    Messages count every copy a correct process sent (a broadcast is n
    copies). Bits follow `Trace.pbit`: correct senders, sent at or after
    GST. `cap_share` is the largest `as`-layer wire bits any correct
    process sent in one view, over the whole run, divided by `bit_cap`.
    """
    cfg = trace.config
    correct = set(cfg.correct)
    msgs: Counter = Counter()
    bits: Counter = Counter()
    as_bits: Counter = Counter()
    deliveries = timer_fires = sv_msgs = 0
    for (time, pid, kind, path, pkind, nbits) in trace.rows:
        if kind == "deliver":
            deliveries += 1
        elif kind == "timer-fire":
            timer_fires += 1
        elif kind in ("send", "broadcast") and pid in correct:
            layer = path_layer(path)
            msgs[layer] += cfg.n if kind == "broadcast" else 1
            if pkind == "START-VIEW":
                sv_msgs += cfg.n if kind == "broadcast" else 1
            if time >= cfg.gst:
                bits[layer] += nbits
            if layer == "sync_ba":
                as_bits[(pid, tag_view(path[0]))] += nbits
    return {
        "deliveries": deliveries,
        "timer_fires": timer_fires,
        # every process gets exactly one proposal event, and the event loop
        # cannot stop before all of them are processed (they are queued
        # first, at time zero or the scenario's start times)
        "events": deliveries + timer_fires + cfg.n,
        "msgs": msgs,
        "bits": bits,
        "sv_msgs": sv_msgs,
        "cap_share": max(as_bits.values(), default=0) / bit_cap,
    }


def bits_ledger_error(ledger: dict, trace):
    """None if per-layer bits add up to `Trace.pbit`, else a message."""
    layered = sum(ledger["bits"].values())
    pbit = sum(trace.pbit.values())
    if layered != pbit:
        return f"per-layer bits {layered} != sum of Trace.pbit {pbit}"
    return None


class Spans:
    """Self-time accounting over wrapped callables."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self._stack: list = []       # wrapped time of children, per open span
        self._patches: list = []     # (owner, name, original)

    def timed(self, fn, layer):
        """Wrap fn; `layer` is a name or a function of fn's first argument."""
        stack, self_s = self._stack, self.self_s
        fixed = layer if isinstance(layer, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                inner = stack.pop()
                self_s[fixed or layer(args[0])] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
        return wrapper

    def patch(self, owner, name, replacement):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def wrap(self, owner, name, layer):
        self.patch(owner, name, self.timed(getattr(owner, name), layer))

    def restore(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


class LayerTracer:
    """Installs the spans of every layer and collects per-run state counts.

    `ol` is a namespace holding the imported operlab modules (`harness`,
    `oper`, `crux`, `runtime`, `graded_consensus`, `sync_ba`,
    `validation_broadcast`, `reducing_broadcast`, `finisher`).
    """

    def __init__(self, ol):
        self.ol = ol
        self.spans = Spans()
        self.roles: dict = {}     # id(GradedConsensus) -> layer
        self.opers: list = []     # (pid, Oper) built in the current run
        self.cruxes: list = []    # (pid, per-view Composite) built in it

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.spans.restore()
            raise
        return self

    def _install(self):
        ol, spans = self.ol, self.spans
        roles = self.roles
        spans.wrap(ol.harness, "run", "simnet")
        spans.wrap(ol.harness, "check_trace", "harness")

        make_oper = ol.harness.make_oper

        def registered_oper(n, t, delta, pid, **kwargs):
            oper = make_oper(n, t, delta, pid, **kwargs)
            self.opers.append((pid, oper))
            return oper
        spans.patch(ol.harness, "make_oper",
                    spans.timed(registered_oper, "oper"))

        make_crux = ol.oper.make_crux

        def registered_crux(params, pid, default, pred=None):
            comp = make_crux(params, pid, default, pred=pred)
            roles[id(comp.children["gc1"])] = "graded_consensus.gc1"
            roles[id(comp.children["gc2"])] = "graded_consensus.gc2"
            self.cruxes.append((pid, comp))
            return comp
        spans.patch(ol.oper, "make_crux", spans.timed(registered_crux, "crux"))

        spans.wrap(ol.runtime.Composite, "on_event", "runtime")
        spans.wrap(ol.oper.Oper, "on_event", "oper")
        spans.wrap(ol.oper.OperCore, "on_event", "oper")
        spans.wrap(ol.crux.CruxCore, "on_event", "crux")
        # graded consensus outside a per-view core runs inside the lock-step
        # machine, so it is sync_ba work
        spans.wrap(ol.graded_consensus.GradedConsensus, "on_event",
                   lambda gc: roles.get(id(gc), "sync_ba"))
        spans.wrap(ol.sync_ba.RoundSimAdapter, "on_event", "sync_ba")
        for cls in (ol.sync_ba.SyncMachine, ol.sync_ba.LockstepGC):
            spans.wrap(cls, "outbound", "sync_ba")
            spans.wrap(cls, "absorb", "sync_ba")
        for cls in (ol.sync_ba.SyncMachine, ol.sync_ba.LockstepGC,
                    ol.graded_consensus.GradedConsensus):
            spans.wrap(cls, "state_digest", "sync_ba.digest")
        spans.wrap(ol.validation_broadcast.ValidationCore, "on_event",
                   "validation_broadcast")
        spans.wrap(ol.reducing_broadcast.ReducingBroadcast, "on_event",
                   "reducing_broadcast")
        spans.wrap(ol.finisher.Finisher, "on_event", "finisher")

    def __exit__(self, *exc):
        self.spans.restore()
        self.roles.clear()
        self.opers.clear()
        self.cruxes.clear()

    def state_counts(self, config) -> dict:
        """Counters read from the correct processes' automata after a run."""
        Composite = self.ol.runtime.Composite
        faulty = config.faulty
        composites = []

        def walk(auto):
            if isinstance(auto, Composite):
                composites.append(auto)
                for child in auto.children.values():
                    walk(child)
        opers = [o for (pid, o) in self.opers if pid not in faulty]
        for oper in opers:
            walk(oper)
        cores = [c for (pid, c) in self.cruxes if pid not in faulty]
        return {
            "crux_instances": len(cores),
            "gc2_reached": sum(1 for c in cores if c.core.gc2_started),
            "crux_decided": sum(1 for c in cores if c.core.decided),
            "sync_rounds": sum(c.children["as"].round for c in cores),
            "values_tracked": sum(len(o.children["fin"].finish_from)
                                  for o in opers),
            "misrouted": sum(c.misrouted for c in composites),
            "buffer_dropped": sum(c.buffer_dropped for c in composites),
        }
