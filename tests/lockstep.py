"""Shared test drivers: asynchronous-round lock-step execution of automata
networks and a request-renaming wrapper."""

from operlab.runtime import (Automaton, Broadcast, Indicate, MessageArrival,
                             Request, Send)
from operlab.sync_ba import lockstep_run


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


def lockstep_sent(machines, total_rounds):
    """Runs sync_ba.lockstep_run and returns pid -> messages each machine
    sent, the summed lengths of its outbound batches."""
    sent = dict.fromkeys(machines, 0)
    for pid, m in machines.items():
        def outbound(r, pid=pid, inner=m.outbound):
            out = inner(r)
            sent[pid] += len(out)
            return out
        m.outbound = outbound
    lockstep_run(machines, total_rounds)
    return sent


def lockstep_network(autos, start_events, max_rounds):
    """Run automata in asynchronous lock-step rounds.

    Messages produced in round r (and by the start events, which count as
    round 0 sends) are delivered to every process at the start of round r+1.
    Timers never fire. Returns {pid: [(round, name, args), ...]} indications.
    """
    indications = {pid: [] for pid in autos}
    pending = []   # (sender, dest-or-None, payload, path)

    def collect(pid, actions, r):
        for a in actions:
            if isinstance(a, Broadcast):
                pending.append((pid, None, a.payload, a.path))
            elif isinstance(a, Send):
                pending.append((pid, a.to, a.payload, a.path))
            elif isinstance(a, Indicate):
                indications[pid].append((r, a.name, a.args))

    for pid, event in start_events:
        collect(pid, autos[pid].step(event), 0)
    for r in range(1, max_rounds + 1):
        batch, pending[:] = list(pending), []
        if not batch:
            break
        for sender, dest, payload, path in batch:
            targets = autos if dest is None else \
                ([dest] if dest in autos else [])
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
