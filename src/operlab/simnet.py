"""Deterministic discrete-event simulator of the partially synchronous model.

Virtual time is integer ticks. Messages sent at time s are delivered by
max(s, gst) + delta; timers set at s >= gst fire at exactly s + d, while
timers set before gst may drift anywhere in (s, max(s, gst) + d]. The
adversary picks delivery times and drift within those envelopes, and drives
the faulty processes through pluggable strategies. Events run in order of
tick and, within a tick, in the order they were queued. One run is a pure
function of (config, adversary, seed).
"""

from __future__ import annotations

import random
from fractions import Fraction
from heapq import heappop, heappush
from itertools import islice

from .core import (DEFAULT_VALUE_WIDTH, Payload, Record, ValidityPredicate,
                   path_bits, payload_bits)
from .runtime import (Broadcast, Halt, Indicate, MessageArrival, Multicast,
                      Request, SetTimer, TimerFired, stopped)


class SimConfig(Record):
    __slots__ = ("n", "t", "faulty", "delta", "gst", "seed", "accounting",
                 "value_width", "validity", "proposals", "propose_at")

    def __init__(self, n: int, t: int, faulty=frozenset(), delta: int = 10,
                 gst: int = 0, seed: int = 0, accounting="payload-only",
                 value_width: int = DEFAULT_VALUE_WIDTH,
                 validity=ValidityPredicate(), proposals=None,
                 propose_at=None):
        self.n, self.t, self.faulty, self.delta, self.gst, self.seed = \
            n, t, faulty, delta, gst, seed
        self.accounting, self.value_width, self.validity = \
            accounting, value_width, validity
        self.proposals = {} if proposals is None else proposals
        self.propose_at = {} if propose_at is None else propose_at
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.t < 0:
            raise ValueError("t must be >= 0")
        if self.value_width < 1:
            raise ValueError("value_width must be >= 1")
        if self.n < 3 * self.t + 1:
            raise ValueError("need n >= 3t + 1")
        if len(self.faulty) > self.t:
            raise ValueError("more faulty processes than the fault budget")
        if self.delta <= 0:
            raise ValueError("delta must be a positive tick count")
        if self.gst < 0:
            raise ValueError("gst must be >= 0")
        if self.seed < 0:   # random.Random(-s) is random.Random(s)
            raise ValueError(f"seed must be >= 0, not {self.seed!r}")
        if self.accounting not in ("payload-only", "full"):
            raise ValueError(f"unknown accounting policy {self.accounting!r}")
        for pid in (*self.faulty, *self.proposals, *self.propose_at):
            if type(pid) is not int or not 0 <= pid < self.n:
                raise ValueError(f"process id {pid!r} not in 0..{self.n - 1}")
        for pid, v in self.proposals.items():
            if type(v) is not int or not 0 <= v < 2 ** self.value_width:
                raise ValueError(f"process {pid} proposes {v!r}, not a "
                                 f"{self.value_width}-bit value")
        for pid in self.correct:   # a process without a proposal proposes 0
            v = self.proposals.get(pid, 0)
            if not self.validity.check(v):
                raise ValueError(f"correct process {pid} proposes invalid {v!r}")
        for pid, at in self.propose_at.items():
            if type(at) is not int or at < 0:
                raise ValueError(f"process {pid} proposes at {at!r}, "
                                 "not a time >= 0")

    @property
    def correct(self):
        return [p for p in range(self.n) if p not in self.faulty]


class AdversarySpec(Record):
    """A spec of DELAYS, a spec of DRIFTS and pid -> a STRATEGIES spec."""

    __slots__ = ("pre_gst_delay", "drift", "strategies")

    def __init__(self, pre_gst_delay=("uniform",), drift=("none",),
                 strategies=None):
        self.pre_gst_delay, self.drift = pre_gst_delay, drift
        self.strategies = {} if strategies is None else strategies


def draw(getrandbits, low, width):
    """Random.randint(low, low + width - 1): the stdlib's value from its
    getrandbits calls (Python 3.10-3.13), faster. `run` draws each
    delivery's tick the same way, inline."""
    k = width.bit_length()
    r = getrandbits(k)
    while r >= width:
        r = getrandbits(k)
    return low + r


# -- delay and drift rules ----------------------------------------------------
# Each adversary spec is a (kind, *args). One table per spec family maps each
# kind to the argument counts it takes and its builder; `run` builds every
# spec once, before the first event.

# builder(*args) -> window(now, bound): the (low, width) ticks in which a copy
# sent at `now` may arrive, bound = max(now, gst) + delta; `run` takes the
# fixed tick `low` when width is 1, else draws per copy
DELAYS = {
    "uniform": ((0,), lambda: lambda now, bound: (now, bound - now + 1)),
    "max": ((0,), lambda: lambda now, bound: (bound, 1)),
    "exact": ((1,), lambda d: lambda now, bound: (min(now + d, bound), 1)),
}

# builder(getrandbits) -> fire(now, d, bound): the tick in (now, bound] at
# which a timer of duration d set at now < gst fires, bound = gst + d; a
# timer set at or after gst fires at exactly now + d
DRIFTS = {
    "none": ((0,), lambda getrandbits:
             lambda now, d, bound: min(now + max(d, 1), bound)),
    "uniform": ((0,), lambda getrandbits: lambda now, d, bound:
                draw(getrandbits, now + 1, bound - now)),
    "max": ((0,), lambda getrandbits: lambda now, d, bound: bound),
}


# -- Byzantine strategies ---------------------------------------------------


class Strategy:
    """Driver for a faulty process, not an automaton: steps the wrapped root
    `inner` and sends the list `self.rewrite(a)` in place of each action `a`
    of its output. It is built with the run's `config`, `rng` and a `clock`
    that returns the virtual time, then its spec's arguments. A wrapper costs
    its process one frame per event: a delayer is its root, unwrapped, and
    flood hands every event but its own timer straight to the root."""

    def __init__(self, inner, config, rng, clock):
        self.inner, self.rng, self.clock = inner, rng, clock
        self.n, self.gst = config.n, config.gst
        self.max_value = (1 << config.value_width) - 1

    def on_event(self, event):
        out = []
        rewrite = self.rewrite
        for a in self.inner.on_event(event) or ():
            out += rewrite(a)
        return out


class SilentStrategy(Strategy):
    def on_event(self, event):
        return []


class CrashStrategy(Strategy):
    def __init__(self, inner, config, rng, clock, at):
        super().__init__(inner, config, rng, clock)
        self.at = at

    def rewrite(self, a):
        if self.clock() >= self.at and isinstance(
                a, (Multicast, Broadcast, Indicate)):
            return []
        return [a]


class EquivocateStrategy(Strategy):
    """Splits every value-carrying broadcast by receiver parity, one
    single-destination multicast per process; all else passes as it is, so
    SYNC-ROUND multicasts, and the sync BA in them, see it behave honestly."""

    def rewrite(self, a):
        if not (isinstance(a, Broadcast) and isinstance(a.payload.value, int)):
            return [a]
        alt = a.payload.replace(value=(a.payload.value + 1) & self.max_value)
        return [Multicast((dest,), a.payload if dest % 2 == 0 else alt, a.path)
                for dest in range(self.n)]


class FloodStrategy(Strategy):
    """Broadcasts random well-formed payloads every `interval` ticks (delta
    by default) pre-GST."""

    def __init__(self, inner, config, rng, clock, interval=None):
        super().__init__(inner, config, rng, clock)
        self.interval = config.delta if interval is None else interval

    def on_event(self, event):
        cls = type(event)
        if cls is TimerFired and event.timer_id == ("flood",):
            return self._flood()   # the strategy's own timer, not the inner's
        actions = self.inner.on_event(event)   # flood rewrites nothing
        if cls is Request and event.name == "propose":
            actions = actions + [SetTimer(self.interval, ("flood",))]
        return actions

    def _flood(self):
        if self.clock() >= self.gst:
            return []
        getrandbits = self.rng.getrandbits   # rng.choice and rng.randint draws
        kind = ("INIT", "ECHO", "ECHO3", "FINISH")[draw(getrandbits, 0, 4)]
        value = draw(getrandbits, 0, self.max_value + 1)
        return [Broadcast(Payload(kind, value=value),
                          path=((), ("fin",))[draw(getrandbits, 0, 2)]),
                SetTimer(self.interval, ("flood",))]


class RandomStrategy(Strategy):
    """Keeps, drops, duplicates, or value-mutates each outgoing message;
    a multicast is rolled copy by copy, as single-destination multicasts."""

    def rewrite(self, a):
        if isinstance(a, Multicast) and len(a.dests) != 1:   # per copy
            return [b for dest in a.dests for b in self.rewrite(
                Multicast((dest,), a.payload, a.path))]
        if not isinstance(a, (Multicast, Broadcast)):
            return [a]
        roll = self.rng.random()
        if roll < 0.2:
            return []  # drop
        if roll < 0.3 and isinstance(a.payload.value, int):
            mutated = a.payload.replace(
                value=self.rng.randint(0, self.max_value))
            a = a.replace(payload=mutated)
        return [a, a] if roll > 0.9 else [a]  # duplicate


class SyncJunkStrategy(Strategy):
    """Runs the sync BA honestly and, after each SYNC-ROUND multicast,
    multicasts `COPIES` more to the same destinations: the same round parity
    and inner kind, each with an inner value drawn from the run's rng."""

    COPIES = 3

    def rewrite(self, a):
        out = [a]
        if type(a) is Multicast and a.payload.kind == "SYNC-ROUND":
            p = a.payload
            for _ in range(self.COPIES):
                inner = p.inner.replace(value=draw(
                    self.rng.getrandbits, 0, self.max_value + 1))
                out.append(Multicast(a.dests, p.replace(inner=inner), a.path))
        return out


class GcSprayStrategy(Strategy):
    """Runs its root honestly and, after each ECHO broadcast on a `gc1` or
    `gc2` path, broadcasts t+1 more ECHOs there, one for each of the t+1
    least values of the run's width that no correct process proposes."""

    def __init__(self, inner, config, rng, clock):
        super().__init__(inner, config, rng, clock)
        proposed = {config.proposals.get(p, 0) for p in config.correct}
        self.spray = [Payload("ECHO", value=v) for v in islice(
            (v for v in range(self.max_value + 1) if v not in proposed),
            config.t + 1)]

    def rewrite(self, a):
        if type(a) is Broadcast and a.payload.kind == "ECHO" \
                and a.path[-1:] in (("gc1",), ("gc2",)):
            return [a] + [Broadcast(p, a.path) for p in self.spray]
        return [a]


STRATEGIES = {   # builder(inner, config, rng, clock, *args)
    "silent": ((0,), SilentStrategy), "crash": ((1,), CrashStrategy),
    "equivocate": ((0,), EquivocateStrategy),
    "delayer": ((0,), lambda inner, config, rng, clock: inner),
    "flood": ((0, 1), FloodStrategy), "random": ((0,), RandomStrategy),
    "sync-junk": ((0,), SyncJunkStrategy), "gc-spray": ((0,), GcSprayStrategy)}


def _check_spec(name, table, spec):
    """Raise ValueError unless `spec` is a (kind, *args) that `table`
    allows: a known kind, then as many arguments as it takes, each an
    int >= 0 (a flood interval >= 1)."""
    kind = spec[0] if isinstance(spec, (tuple, list)) and spec else None
    counts = table[kind][0] if isinstance(kind, str) and kind in table else ()
    least = 1 if kind == "flood" else 0
    if not counts or len(spec) - 1 not in counts or any(
            type(a) is not int or a < least for a in spec[1:]):
        raise ValueError(f"bad {name} spec {spec!r}")


def check_adversary(adversary, faulty):
    """Raise ValueError unless the delay rule, the drift rule and every
    strategy of `adversary` are specs that `DELAYS`, `DRIFTS` and
    `STRATEGIES` allow, and each strategy drives a faulty process. `run`
    and `harness.load_scenario` call it before anything runs, so a spec
    that reaches a builder is a known kind with the arguments it takes."""
    _check_spec("pre_gst_delay", DELAYS, adversary.pre_gst_delay)
    _check_spec("drift", DRIFTS, adversary.drift)
    for pid, spec in adversary.strategies.items():
        if pid not in faulty:
            raise ValueError(f"strategy for process {pid}, not faulty")
        _check_spec("strategies", STRATEGIES, spec)


def _build(table, spec, *context):
    """What `spec` = (kind, *args) of `table` builds from `context`."""
    return table[spec[0]][1](*context, *spec[1:])


def make_strategy(spec, inner, config, rng, clock):
    """Strategy `spec` = (kind, *args) wrapping `inner` (a delayer is `inner`
    itself); it draws from `rng` and reads the virtual time from `clock()`."""
    return _build(STRATEGIES, spec, inner, config, rng, clock)


# -- trace ------------------------------------------------------------------


class Trace(Record):
    """`rows` (time, pid, kind, path, pkind, bits), `decisions` pid -> (value,
    time), `enters` (time, pid, view), `sv_counts` (pid, view) -> broadcasts,
    `pbit` pid -> bits sent >= gst."""

    __slots__ = ("config", "rows", "decisions", "enters", "sv_counts", "pbit")

    def __init__(self, config: SimConfig, rows=None, decisions=None,
                 enters=None, sv_counts=None, pbit=None):
        self.config = config
        self.rows = [] if rows is None else rows
        self.decisions = {} if decisions is None else decisions
        self.enters = [] if enters is None else enters
        self.sv_counts = {} if sv_counts is None else sv_counts
        self.pbit = {} if pbit is None else pbit

    @property
    def terminated(self) -> bool:
        """Every correct process decided."""
        return all(p in self.decisions for p in self.config.correct)


def latency(trace: Trace) -> Fraction:
    if not trace.terminated:
        raise ValueError("latency undefined: NON-TERMINATED trace")
    last = max(trace.decisions[p][1] for p in trace.config.correct)
    return max(Fraction(last - trace.config.gst, trace.config.delta),
               Fraction(0))


# -- event loop -------------------------------------------------------------


def run(config: SimConfig, adversary: AdversarySpec, root_factory,
        max_time: int, collect_rows=False) -> Trace:
    """Execute one deterministic simulation, up to virtual time max_time.

    root_factory(pid) builds the protocol automaton for each process; a
    faulty process's is wrapped in its strategy, unless it is a delayer.
    """
    check_adversary(adversary, config.faulty)
    rng = random.Random(config.seed)
    getrandbits = rng.getrandbits
    trace = Trace(config)

    def clock():
        return now

    autos = [root_factory(pid) for pid in range(config.n)]
    # each process's delivery window; a delayer's copies all take the
    # maximal delay, which is the "max" rule
    window = [_build(DELAYS, adversary.pre_gst_delay)] * config.n
    for pid in config.faulty:   # a strategy draws nothing when built
        spec = adversary.strategies.get(pid, ("silent",))
        autos[pid] = make_strategy(spec, autos[pid], config, rng, clock)
        if spec[0] == "delayer":
            window[pid] = _build(DELAYS, ("max",))
    drift = _build(DRIFTS, adversary.drift, getrandbits)

    n, gst, delta = config.n, config.gst, config.delta
    # calendar queue: the events of each pending tick in push order, as one
    # flat list pid, event, pid, event, ... (no tuple per event), and a heap
    # that holds each pending tick once; events are queued inline. Every
    # process is kicked off with its proposal, in pid order within a tick,
    # and a sorted list is a heap.
    calendar: dict = {}
    for pid in range(n):
        calendar.setdefault(config.propose_at.get(pid, 0), []).extend(
            (pid, Request("propose", (config.proposals.get(pid, 0),))))
    ticks = sorted(calendar)

    rows, pbit = trace.rows, trace.pbit
    accounting, value_width = config.accounting, config.value_width

    def absorb(now, pid, actions):
        correct = pid not in config.faulty
        counted = correct and now >= gst
        low = None
        for a in actions:
            cls = type(a)
            if cls is Multicast or cls is Broadcast:
                payload, path = a.payload, a.path
                bits = payload_bits(payload, accounting, value_width) \
                    + path_bits(path, accounting)
                arrival = MessageArrival(pid, payload, path)
                if low is None:   # every copy of the step, one window
                    low, width = window[pid](now, max(now, gst) + delta)
                    k = width.bit_length()
                dests = a.dests if cls is Multicast else range(n)
                if cls is Broadcast and correct \
                        and payload.kind == "START-VIEW":
                    key = (pid, payload.view)
                    trace.sv_counts[key] = trace.sv_counts.get(key, 0) + 1
                if counted:
                    pbit[pid] = pbit.get(pid, 0) + bits * len(dests)
                if collect_rows:   # a multicast has a send row per copy
                    rows.extend([(now, pid, "broadcast", path, payload.kind,
                                  bits * n)] if cls is Broadcast else
                                [(now, pid, "send", path, payload.kind,
                                  bits)] * len(dests))
                # one arrival, shared by every copy; a window one tick wide
                # is a fixed tick, which draws nothing, else each copy draws
                # as `draw` does; a copy to a process out of range is
                # charged, never delivered
                for dest in dests:
                    if 0 <= dest < n:
                        at = low
                        if width != 1:
                            r = getrandbits(k)
                            while r >= width:
                                r = getrandbits(k)
                            at += r
                        if (bucket := calendar.get(at)) is None:
                            calendar[at] = [dest, arrival]
                            heappush(ticks, at)
                        else:
                            bucket += dest, arrival
            elif cls is SetTimer:   # only a timer set before gst drifts
                d = a.duration
                at = now + d if now >= gst else drift(now, d, gst + d)
                if (bucket := calendar.get(at)) is None:
                    calendar[at] = [pid, TimerFired(a.timer_id)]
                    heappush(ticks, at)
                else:
                    bucket += pid, TimerFired(a.timer_id)
            elif cls is Indicate:
                if collect_rows:
                    rows.append((now, pid, "indicate:" + a.name, (), "-", 0))
                if a.name == "decide" and pid not in trace.decisions:
                    trace.decisions[pid] = (a.args[0], now)
                elif a.name == "enter-view":
                    trace.enters.append((now, pid, a.args[0]))
            elif cls is Halt:   # the process stops: drop the rest
                if collect_rows:
                    rows.append((now, pid, "halt", (), "-", 0))
                step[pid] = stopped   # it steps no more
                running.discard(pid)
                return

    # each process's handler, read once per run, after any class patch made
    # before it (a root has no parent to abandon it: no Automaton.step); the
    # loop ends once every correct process has halted, even mid-tick
    step = [auto.on_event for auto in autos]
    running = set(config.correct)
    while ticks and running:
        now = heappop(ticks)
        if now > max_time:
            break
        # an event pushed onto this tick while it runs joins the end of its
        # list, so it is stepped after every event already there
        events = iter(calendar[now])
        for pid, event in zip(events, events):
            # every event is recorded; a halted process's handler is a no-op
            if collect_rows:
                if isinstance(event, TimerFired):
                    rows.append((now, pid, "timer-fire", event.timer_id,
                                 "-", 0))
                elif isinstance(event, MessageArrival):
                    p = event.payload
                    rows.append((now, pid, "deliver", event.path, p.kind,
                                 payload_bits(p, accounting, value_width)))
            if actions := step[pid](event):
                absorb(now, pid, actions)
                if not running:
                    break
        del calendar[now]
    return trace


# -- exports ----------------------------------------------------------------


def trace_lines(trace: Trace):
    """Line-oriented export: time, process, event-kind, path, payload-kind, bits."""
    for (time, pid, kind, path, pkind, bits) in trace.rows:
        path_txt = "/".join(str(s) for s in path) or "-"
        yield f"{time}\t{pid}\t{kind}\t{path_txt}\t{pkind}\t{bits}"


CSV_HEADER = "seed,n,t,gst,delta,pbit_max,pbit_mean,latency,views_max,terminated"


def csv_row(trace: Trace) -> str:
    c = trace.config
    bits = [trace.pbit.get(p, 0) for p in c.correct]
    pbit_max = max(bits, default=0)
    pbit_mean = Fraction(sum(bits), len(bits)) if bits else Fraction(0)
    try:
        lat = latency(trace)
    except ValueError:
        lat = ""
    views_max = max((v for (_, _, v) in trace.enters), default=0)
    return ",".join(str(x) for x in (
        c.seed, c.n, c.t, c.gst, c.delta, pbit_max,
        float(pbit_mean), lat if lat == "" else float(lat),
        views_max, int(trace.terminated)))
