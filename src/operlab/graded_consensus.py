"""Asynchronous Byzantine graded consensus via a five-stage echo cascade.

The cascade treats the no-value symbol like any other candidate: a process
echoes any candidate (including BOT) with t+1 backers, echoes BOT when the
spread of stage-1 echoes proves the proposers were not unanimous, and
approves candidates with n-t backers. Stages 2-5 each forward one value,
driven by n-t quorums; the mixed branches require either two approvals or
an approved BOT. The terminal outcome is one of (v,2), (v,1), (BOT,0); the
module boundary maps it onto (value, grade) with grade in {0,1}:
(v,2) -> (v,1), (v,1) -> (v,0), (BOT,0) -> (own,0).
"""

from __future__ import annotations

from .core import BOT, Payload, value_sort_key
from .runtime import Automaton, Broadcast, Indicate, MessageArrival, Request

_STAGE_KIND = {1: "ECHO", 2: "ECHO2", 3: "ECHO3", 4: "ECHO4", 5: "ECHO5"}
_KIND_STAGE = {v: k for k, v in _STAGE_KIND.items()}


class GradedConsensus(Automaton):
    def __init__(self, n: int, t: int):
        super().__init__()
        self.n = n
        self.t = t
        self.own = None
        self.proposed = False
        self.approved: set = set()
        # stage 1: value -> senders, one count per (sender, value);
        # stages 2-5: only a sender's first message counts
        self.counts: dict[int, dict] = {k: {} for k in _STAGE_KIND}
        self.senders: dict[int, set] = {k: set() for k in _STAGE_KIND}
        self.sent1: set = set()        # stage-1 values echoed (own, amplified, BOT)
        self.sent: dict[int, object] = {}   # stage >= 2 -> value sent
        self.gbca_outcome = None       # raw (value-or-BOT, grade in {0,1,2})
        self.decided = False

    # -- events --------------------------------------------------------

    def on_event(self, event):
        if isinstance(event, Request):
            if event.name == "propose":
                return self._propose(event.args[0])
            return []
        if isinstance(event, MessageArrival):
            return self._receive(event.sender, event.payload)
        return []

    def _propose(self, v):
        if self.proposed:
            return []
        self.proposed = True
        self.own = v
        self.sent1.add(v)
        return [Broadcast(Payload("ECHO", value=v), self.path)] \
            + self._evaluate()

    def _receive(self, sender, payload):
        stage = _KIND_STAGE.get(payload.kind)
        if stage is None:
            return []
        v = payload.value
        if stage == 1:
            backers = self.counts[1].setdefault(v, set())
            if sender in backers:
                return []
            backers.add(sender)
        else:
            if sender in self.senders[stage]:
                return []
            self.counts[stage].setdefault(v, set()).add(sender)
        self.senders[stage].add(sender)
        return self._evaluate()

    # -- rules ---------------------------------------------------------

    def _evaluate(self):
        out = []
        progressed = True
        while progressed:
            progressed = False
            for rule in (self._amplify, self._gap_echo, self._approve,
                         self._stage3, self._stage4, self._stage5,
                         self._resolve_decision):
                a = rule()
                if a:
                    out.extend(a)
                    progressed = True
        return out

    def _mixed(self) -> bool:
        return len(self.approved) > 1 or BOT in self.approved

    def _amplify(self):
        out = []
        for v in sorted(self.counts[1], key=value_sort_key):
            if v not in self.sent1 and len(self.counts[1][v]) >= self.t + 1:
                self.sent1.add(v)
                out.append(Broadcast(Payload("ECHO", value=v), self.path))
        return out

    def _gap_echo(self):
        # spread evidence: the non-plurality echoes alone exceed the fault
        # budget, so the proposers cannot have been unanimous
        if BOT in self.sent1 or not self.counts[1]:
            return []
        total = sum(len(s) for s in self.counts[1].values())
        top = max(len(s) for s in self.counts[1].values())
        if total - top >= self.t + 1:
            self.sent1.add(BOT)
            return [Broadcast(Payload("ECHO", value=BOT), self.path)]
        return []

    def _approve(self):
        out = []
        for v in sorted(self.counts[1], key=value_sort_key):
            if v in self.approved or len(self.counts[1][v]) < self.n - self.t:
                continue
            self.approved.add(v)
            if 2 not in self.sent:
                self.sent[2] = v
                out.append(Broadcast(Payload("ECHO2", value=v), self.path))
            if len(self.approved) > 1 and 3 not in self.sent:
                self.sent[3] = BOT
                out.append(Broadcast(Payload("ECHO3", value=BOT), self.path))
        return out

    def _quorum_value(self, stage):
        for v in sorted(self.counts[stage], key=value_sort_key):
            if len(self.counts[stage][v]) >= self.n - self.t:
                return v
        return None

    def _stage3(self):
        if 3 in self.sent:
            return []
        v = self._quorum_value(2)
        if v is None:
            return []
        self.sent[3] = v
        return [Broadcast(Payload("ECHO3", value=v), self.path)]

    def _stage4(self):
        if 4 in self.sent:
            return []
        # the mixed branch takes precedence at this stage
        if len(self.senders[3]) >= self.n - self.t and self._mixed():
            send = BOT
        else:
            send = self._quorum_value(3)
            if send is None:
                return []
        self.sent[4] = send
        return [Broadcast(Payload("ECHO4", value=send), self.path)]

    def _stage5(self):
        if 5 in self.sent:
            return []
        send = self._quorum_value(4)
        if send is None:
            if len(self.senders[4]) >= self.n - self.t and self._mixed():
                send = BOT
            else:
                return []
        self.sent[5] = send
        return [Broadcast(Payload("ECHO5", value=send), self.path)]

    def _resolve_decision(self):
        if self.decided:
            return []
        for v in sorted(self.counts[5], key=value_sort_key):
            if v is not BOT and len(self.counts[5][v]) >= self.n - self.t:
                return self._decide(v, 2)
        if len(self.senders[5]) >= self.n - self.t and self._mixed():
            for w in sorted(self.counts[5], key=value_sort_key):
                if w is not BOT and self.counts[5][w] \
                        and len(self.counts[4].get(w, ())) >= self.t + 1:
                    return self._decide(w, 1)
        if len(self.counts[5].get(BOT, ())) >= self.n - self.t:
            return self._decide(BOT, 0)
        return []

    def _decide(self, v, g):
        self.decided = True
        self.gbca_outcome = (v, g)
        mapped = map_decision((v, g), self.own)
        if mapped is None:
            return []
        return [Indicate("decide", mapped)]

    def state_digest(self):
        """Canonical snapshot used by the lock-step equivalence oracle."""
        def freeze(m):
            return tuple((value_sort_key(v), tuple(sorted(s)))
                         for v, s in sorted(m.items(),
                                            key=lambda kv: value_sort_key(kv[0])))
        return (
            value_sort_key(self.own) if self.own is not None else None,
            tuple(sorted(value_sort_key(v) for v in self.approved)),
            tuple(sorted(value_sort_key(v) for v in self.sent1)),
            tuple((k, value_sort_key(v)) for k, v in sorted(self.sent.items())),
            tuple((k, freeze(self.counts[k])) for k in sorted(self.counts)),
            (value_sort_key(self.gbca_outcome[0]), self.gbca_outcome[1])
            if self.gbca_outcome else None,
        )


def map_decision(outcome, own):
    """Collapse cascade grades {0,1,2} onto module grades {0,1}."""
    v, g = outcome
    if g == 2:
        return (v, 1)
    if g == 1:
        return (v, 0)
    if own is None:
        return None  # never proposed; nothing safe to substitute
    return (own, 0)
