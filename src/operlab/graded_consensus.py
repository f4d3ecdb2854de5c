"""Asynchronous Byzantine graded consensus via a five-stage echo cascade.

The cascade treats the no-value symbol like any other candidate: a process
echoes any candidate (including BOT) with t+1 backers, echoes BOT when the
spread of stage-1 echoes proves the proposers were not unanimous, and
approves candidates with n-t backers. Stages 2-5 each forward one value,
driven by n-t quorums; the mixed branches require either two approvals or
an approved BOT. The terminal outcome is one of (v,2), (v,1), (BOT,0); the
module boundary maps it onto (value, grade) with grade in {0,1}:
(v,2) -> (v,1), (v,1) -> (v,0), (BOT,0) -> (own,0).

Each stage counts in a `Tally`; an arrival runs only the rules that read its
stage, and they react to the crossings of the one value that moved.
"""

from __future__ import annotations

from .core import BOT, Payload, Tally, value_sort_key
from .runtime import Automaton, Broadcast, Indicate, MessageArrival

_STAGE_KIND = {1: "ECHO", 2: "ECHO2", 3: "ECHO3", 4: "ECHO4", 5: "ECHO5"}
_KIND_STAGE = {v: k for k, v in _STAGE_KIND.items()}


class GradedConsensus(Automaton):
    def __init__(self, n: int, t: int):
        super().__init__()
        self.n = n
        self.t = t
        self.own = None
        self.approved: set = set()
        # stage 1 counts each (sender, value) once; stages 2-5 only a
        # sender's first message
        self.tallies = {k: Tally(first_only=k > 1) for k in _STAGE_KIND}
        self.sent1: set = set()        # stage-1 values echoed (own, amplified, BOT)
        self.sent: dict[int, object] = {}   # stage >= 2 -> value sent
        self.gbca_outcome = None       # raw (value-or-BOT, grade in {0,1,2})

    # -- events --------------------------------------------------------

    def on_event(self, event):
        if type(event) is not MessageArrival:
            return self._propose(event.args[0])   # propose, the one request
        # each rule reads tallies at or below its own stage, plus `approved`
        payload = event.payload
        stage = _KIND_STAGE.get(payload.kind)
        v = payload.value
        support = stage and self.tallies[stage].add(event.sender, v)
        if not support:   # not a cascade kind, or not counted
            return []
        if stage == 1:
            return self._stage1(v, support)
        if stage == 2:
            return self._stage3(v, support)
        if stage == 3:
            return self._stage4(v, support)
        if stage == 4:
            return self._stage5(v, support) + self._resolve_decision(v)
        # the grade-1 branch opens with the (n-t)-th ECHO5 sender
        return self._resolve_decision(
            v, support, scan=self.tallies[5].total == self.n - self.t)

    def _propose(self, v):
        self.own = v
        out = self._echo(v)
        # a cascade that ended in (BOT, 0) before the proposal had no own
        # value to map onto; graded outcomes were indicated when decided
        if self.gbca_outcome == (BOT, 0):
            out.append(Indicate("decide", map_decision(self.gbca_outcome, v)))
        return out

    def _echo(self, v):
        self.sent1.add(v)
        return [Broadcast(Payload("ECHO", value=v), self.path)]

    def _send(self, stage, v):
        self.sent[stage] = v
        return [Broadcast(Payload(_STAGE_KIND[stage], value=v), self.path)]

    # -- rules ---------------------------------------------------------

    def _mixed(self) -> bool:
        return len(self.approved) > 1 or BOT in self.approved

    def _stage1(self, v, support):
        echo1 = self.tallies[1]
        out = []
        if support >= self.t + 1 and v not in self.sent1:   # amplify
            out += self._echo(v)
        # spread evidence: the non-plurality echoes alone exceed the fault
        # budget, so the proposers cannot have been unanimous
        if BOT not in self.sent1 and echo1.total - echo1.top >= self.t + 1:
            out += self._echo(BOT)
        if support < self.n - self.t or v in self.approved:
            return out
        self.approved.add(v)
        if 2 not in self.sent:
            out += self._send(2, v)
        if len(self.approved) > 1 and 3 not in self.sent:
            out += self._send(3, BOT)
        # the approval may have opened the mixed branches of stages 4 and 5
        # and of the decision; no ECHO3-5 support moved
        return out + self._stage4(None, 0) + self._stage5(None, 0) \
            + self._resolve_decision(None, scan=True)

    # At most one value can hold an n-t quorum of first messages, so a
    # quorum rule checks only the new support of the value that arrived.

    def _stage3(self, v, support):
        if 3 in self.sent or support < self.n - self.t:
            return []
        return self._send(3, v)

    def _stage4(self, v, support):
        if 4 in self.sent:
            return []
        echo3 = self.tallies[3]
        # the mixed branch takes precedence at this stage
        if echo3.total >= self.n - self.t and self._mixed():
            return self._send(4, BOT)
        if support >= self.n - self.t:
            return self._send(4, v)
        return []

    def _stage5(self, v, support):
        if 5 in self.sent:
            return []
        echo4 = self.tallies[4]
        if support >= self.n - self.t:
            return self._send(5, v)
        if echo4.total >= self.n - self.t and self._mixed():
            return self._send(5, BOT)
        return []

    def _resolve_decision(self, v, support=0, scan=False):
        """Grade 2, else 1, else 0, once v's ECHO4 or ECHO5 support grew.
        Only v can be a new grade-1 candidate, unless the branch just opened
        (scan). `support` is v's new ECHO5 support (0 from other stages):
        the ECHO5 that completes an n-t quorum decides grade 2 or 0."""
        if self.gbca_outcome is not None:
            return []
        echo4, echo5 = self.tallies[4], self.tallies[5]
        if v is not BOT and support >= self.n - self.t:
            return self._decide(v, 2)
        if echo5.total >= self.n - self.t and self._mixed():
            w = min((c for c in (echo5.backers if scan else (v,))
                     if c is not BOT and echo5.count(c)
                     and echo4.count(c) >= self.t + 1),
                    key=value_sort_key, default=None)
            if w is not None:
                return self._decide(w, 1)
        if v is BOT and support >= self.n - self.t:
            return self._decide(BOT, 0)
        return []

    def _decide(self, v, g):
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
            tuple((k, freeze(self.tallies[k].backers))
                  for k in sorted(self.tallies)),
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
