"""Shared test drivers: asynchronous-round lock-step execution of automata
networks, a request-renaming wrapper, the lock-step oracle's negative
control, a probe for arrivals during an adapter's idle run, and the
scenarios the harness and CLI tests share."""

import json

from operlab.oracle import lockstep_run
from operlab.runtime import (Automaton, Broadcast, Indicate, MessageArrival,
                             Multicast, Request, SetTimer)
from operlab.sync_ba import RoundSimAdapter


BASE = {"n": 4, "delta": 10, "proposal": 7}
ORACLE = {"n": 4, "t": 1, "delta": 10,
          "proposals": {"0": 1, "1": 2, "2": 3, "3": 4}}


def write_scn(tmp_path, obj, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class Renamed(Automaton):
    """Forwards events to an inner automaton, renaming request names."""

    def __init__(self, inner, mapping):
        super().__init__()
        self.inner = inner
        self.mapping = mapping

    def on_event(self, event):
        if isinstance(event, Request) and event.name in self.mapping:
            event = Request(self.mapping[event.name], event.args)
        return self.inner.step(event)


class ParityFlipAdapter(RoundSimAdapter):
    """An adapter that reads each arriving SYNC-ROUND message as if it
    carried the other round parity: the oracle's negative control, injected
    in place of `oracle.RoundSimAdapter`, which must make it diverge."""

    def on_event(self, event):
        if isinstance(event, MessageArrival) \
                and event.payload.kind == "SYNC-ROUND":
            p = event.payload
            event = event.replace(payload=p.replace(parity=p.parity ^ 1))
        return super().on_event(event)


def wake_round(adapter, event):
    """The round that `adapter`, waiting out an idle run, wakes for, if
    `event` is a SYNC-ROUND arrival in that round's parity; else None."""
    r = adapter.round
    if type(event) is MessageArrival and adapter.machine is not None \
            and r < adapter.total_rounds and not adapter.machine.active(r) \
            and event.payload.kind == "SYNC-ROUND" \
            and event.payload.parity == (r + 1) & 1:
        return r + 1
    return None


def lockstep_sent(machines, total_rounds, inject=None):
    """Runs oracle.lockstep_run (with its `inject`) and returns pid ->
    messages each machine sent: the copies of its outbound runs, one per
    destination."""
    sent = dict.fromkeys(machines, 0)
    for pid, m in machines.items():
        def outbound(r, pid=pid, inner=m.outbound):
            out = inner(r)
            sent[pid] += sum(len(dests) for _, dests in out)
            return out
        m.outbound = outbound
    lockstep_run(machines, total_rounds, inject=inject)
    return sent


def lockstep_network(autos, start_events, max_rounds):
    """Run automata in asynchronous lock-step rounds.

    Messages produced in round r (and by the start events, which count as
    round 0 sends) are delivered to their destinations (a broadcast: every
    process) at the start of round r+1. Timers never fire; any other action
    raises TypeError. Returns {pid: [(round, name, args), ...]} indications.
    """
    indications = {pid: [] for pid in autos}
    pending = []   # (sender, dests or None for all, payload, path)

    def collect(pid, actions, r):
        for a in actions:
            if isinstance(a, Broadcast):
                pending.append((pid, None, a.payload, a.path))
            elif isinstance(a, Multicast):
                pending.append((pid, a.dests, a.payload, a.path))
            elif isinstance(a, Indicate):
                indications[pid].append((r, a.name, a.args))
            elif not isinstance(a, SetTimer):
                raise TypeError(f"lock-step network cannot run {a!r}")

    for pid, event in start_events:
        collect(pid, autos[pid].step(event), 0)
    for r in range(1, max_rounds + 1):
        batch, pending[:] = list(pending), []
        if not batch:
            break
        for sender, dests, payload, path in batch:
            targets = autos if dests is None else \
                [dest for dest in dests if dest in autos]
            for pid in targets:
                collect(pid, autos[pid].step(
                    MessageArrival(sender, payload, path)), r)
    return indications


def drive(auto, events):
    """Step one automaton through a list of events, returning all actions."""
    out = []
    for e in events:
        out.extend(auto.step(e))
    return out
