"""Deterministic discrete-event simulator of the partially synchronous model.

Virtual time is integer ticks. Messages sent at time s are delivered by
max(s, gst) + delta; timers set at s >= gst fire at exactly s + d, while
timers set before gst may drift anywhere in (s, max(s, gst) + d]. The
adversary picks delivery times and drift within those envelopes, and drives
the faulty processes through pluggable strategies. One run is a pure
function of (config, adversary, seed).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .core import (DEFAULT_VALUE_WIDTH, Payload, ValidityPredicate, path_bits,
                   payload_bits)
from .runtime import (Automaton, Broadcast, Halt, Indicate, MessageArrival,
                      Request, Send, SetTimer, TimerFired)


@dataclass(frozen=True)
class SimConfig:
    n: int
    t: int
    faulty: frozenset = frozenset()
    delta: int = 10
    gst: int = 0
    seed: int = 0
    accounting: str = "payload-only"
    value_width: int = DEFAULT_VALUE_WIDTH
    validity: ValidityPredicate = field(default_factory=ValidityPredicate.always_true)
    proposals: dict = field(default_factory=dict)
    propose_at: dict = field(default_factory=dict)

    def __post_init__(self):
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


@dataclass(frozen=True)
class AdversarySpec:
    pre_gst_delay: tuple = ("uniform",)   # ("uniform",) | ("max",) | ("exact", d)
    drift: tuple = ("none",)              # ("none",) | ("uniform",) | ("max",)
    strategies: dict = field(default_factory=dict)  # pid -> strategy spec tuple


def draw(getrandbits, low, width, k=None):
    """Random.randint(low, low + width - 1), k = width.bit_length(): the
    stdlib's value from its getrandbits calls (Python 3.10-3.13), faster."""
    k = k or width.bit_length()
    r = getrandbits(k)
    while r >= width:
        r = getrandbits(k)
    return low + r


def schedule_deliveries(now, gst, delta, rule, rng, k):
    """Delivery times of k copies sent at `now`, within the model envelope:
    under "uniform" each copy draws its own time, in copy order."""
    bound = max(now, gst) + delta
    kind = rule[0]
    if kind == "uniform":
        width = bound - now + 1
        bits, getrandbits = width.bit_length(), rng.getrandbits
        return [draw(getrandbits, now, width, bits) for _ in range(k)]
    if kind == "max":
        return [bound] * k
    if kind == "exact":
        return [min(max(now + rule[1], now), bound)] * k
    raise ValueError(f"unknown delay rule {kind!r}")


def schedule_timer(now, gst, d, rule, rng):
    """Fire time for a timer of duration d set at `now`."""
    if now >= gst:
        return now + d
    bound = max(now, gst) + d
    kind = rule[0]
    if kind == "none":
        raw = now + d
    elif kind == "max":
        raw = bound
    elif kind == "uniform":
        raw = draw(rng.getrandbits, now + 1, bound - now)
    else:
        raise ValueError(f"unknown drift rule {kind!r}")
    return min(max(raw, now + 1), bound)


# -- Byzantine strategies ---------------------------------------------------


class Strategy(Automaton):
    """Driver for a faulty process: steps the wrapped root automaton and
    rewrites its actions. `make_strategy` gives it the run's `rng` and a
    `clock` that returns the current virtual time."""

    def __init__(self, inner, config):
        super().__init__()
        self.inner = inner

    def on_event(self, event):
        return self.rewrite(self.inner.on_event(event) or [])

    def rewrite(self, actions):
        return actions


class SilentStrategy(Strategy):
    def on_event(self, event):
        return []


class CrashStrategy(Strategy):
    def __init__(self, inner, config, at):
        super().__init__(inner, config)
        self.at = at

    def rewrite(self, actions):
        if self.clock() >= self.at:
            return [a for a in actions
                    if not isinstance(a, (Send, Broadcast, Indicate))]
        return actions


class EquivocateStrategy(Strategy):
    """Splits every value-carrying broadcast by receiver parity."""

    def __init__(self, inner, config):
        super().__init__(inner, config)
        self.n = config.n
        self.mask = (1 << config.value_width) - 1

    def rewrite(self, actions):
        out = []
        for a in actions:
            if isinstance(a, Broadcast) and isinstance(a.payload.value, int):
                alt = replace(a.payload, value=(a.payload.value + 1) & self.mask)
                for dest in range(self.n):
                    out.append(Send(dest, a.payload if dest % 2 == 0 else alt,
                                    a.path))
            else:
                out.append(a)
        return out


class DelayerStrategy(Strategy):
    """Behaves correctly but its messages always take the maximal delay."""


class FloodStrategy(Strategy):
    """Broadcasts random well-formed payloads every `interval` ticks (delta
    by default) pre-GST."""

    def __init__(self, inner, config, interval=None):
        super().__init__(inner, config)
        self.gst = config.gst
        self.interval = max(1, config.delta if interval is None else interval)
        self.max_value = (1 << config.value_width) - 1

    def on_event(self, event):
        if isinstance(event, TimerFired) and event.timer_id == ("flood",):
            return self._flood()   # the strategy's own timer, not the inner's
        actions = super().on_event(event)
        if isinstance(event, Request) and event.name == "propose":
            actions = actions + [SetTimer(self.interval, ("flood",))]
        return actions

    def _flood(self):
        if self.clock() >= self.gst:
            return []
        kind = self.rng.choice(("INIT", "ECHO", "ECHO3", "FINISH"))
        value = self.rng.randint(0, self.max_value)
        return [Broadcast(Payload(kind, value=value),
                          path=self.rng.choice(((), ("fin",)))),
                SetTimer(self.interval, ("flood",))]


class RandomStrategy(Strategy):
    """Keeps, drops, duplicates, or value-mutates each outgoing action."""

    def __init__(self, inner, config):
        super().__init__(inner, config)
        self.mask = (1 << config.value_width) - 1

    def rewrite(self, actions):
        out = []
        for a in actions:
            if not isinstance(a, (Send, Broadcast)):
                out.append(a)
                continue
            roll = self.rng.random()
            if roll < 0.2:
                continue  # drop
            if roll < 0.3 and isinstance(a.payload.value, int):
                mutated = replace(a.payload,
                                  value=self.rng.randint(0, self.mask))
                a = replace(a, payload=mutated)
            out.append(a)
            if roll > 0.9:
                out.append(a)  # duplicate
        return out


STRATEGIES = {"silent": SilentStrategy, "crash": CrashStrategy,
              "equivocate": EquivocateStrategy, "delayer": DelayerStrategy,
              "flood": FloodStrategy, "random": RandomStrategy}

# argument counts of each strategy kind and each delay and drift rule; every
# argument is an int >= 0, and a flood interval >= 1
SPEC_ARGS = {
    "strategies": {"silent": (0,), "crash": (1,), "equivocate": (0,),
                   "delayer": (0,), "flood": (0, 1), "random": (0,)},
    "pre_gst_delay": {"uniform": (0,), "max": (0,), "exact": (1,)},
    "drift": {"none": (0,), "uniform": (0,), "max": (0,)},
}


def make_strategy(spec, inner, config, rng, clock):
    """Strategy `spec` = (kind, *args) wrapping `inner`; it draws from `rng`
    and reads the virtual time from `clock()`."""
    cls = STRATEGIES.get(spec[0])
    if cls is None:
        raise ValueError(f"unknown strategy kind {spec[0]!r}")
    strategy = cls(inner, config, *spec[1:])
    strategy.rng, strategy.clock = rng, clock
    return strategy


# -- trace ------------------------------------------------------------------


@dataclass
class Trace:
    config: SimConfig
    rows: list = field(default_factory=list)   # (time, pid, kind, path, pkind, bits)
    decisions: dict = field(default_factory=dict)      # pid -> (value, time)
    enters: list = field(default_factory=list)         # (time, pid, view)
    sv_counts: dict = field(default_factory=dict)      # (pid, view) -> broadcasts
    pbit: dict = field(default_factory=dict)           # pid -> bits sent >= gst

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

    root_factory(pid) builds the protocol automaton for each process; faulty
    processes get theirs wrapped in their strategy.
    """
    rng = random.Random(config.seed)
    trace = Trace(config)

    def clock():
        return now

    autos = {}
    for pid in range(config.n):
        inner = root_factory(pid)
        if pid in config.faulty:
            spec = adversary.strategies.get(pid, ("silent",))
            autos[pid] = make_strategy(spec, inner, config, rng, clock)
        else:
            autos[pid] = inner
    # a delayer's copies all take the maximal delay, which is the "max" rule
    delay_rule = {p: ("max",) if isinstance(auto, DelayerStrategy)
                  else adversary.pre_gst_delay for p, auto in autos.items()}

    n, gst, delta = config.n, config.gst, config.delta
    queue: list = []
    seq = 0

    def push(fire_at, pid, event):
        nonlocal seq
        seq += 1
        heapq.heappush(queue, (fire_at, seq, pid, event))

    rows, pbit = trace.rows, trace.pbit
    accounting, value_width = config.accounting, config.value_width

    def absorb(now, pid, actions):
        correct = pid not in config.faulty
        counted = correct and now >= gst
        rule = delay_rule[pid]
        # bits and arrival of the last payload sent: a run of actions that
        # share one payload object and one path computes them once
        payload = path = None
        for a in actions:
            cls = type(a)
            if cls is Send or cls is Broadcast:
                if a.payload is not payload or a.path is not path:
                    payload, path = a.payload, a.path
                    bits = payload_bits(payload, accounting, value_width) \
                        + path_bits(path, accounting)
                    arrival = MessageArrival(pid, payload, path)
                total = bits if cls is Send else bits * n
                if counted:
                    pbit[pid] = pbit.get(pid, 0) + total
                if collect_rows:
                    rows.append((now, pid,
                                 "send" if cls is Send else "broadcast",
                                 path, payload.kind, total))
                if cls is Broadcast:
                    if correct and payload.kind == "START-VIEW":
                        key = (pid, payload.view)
                        trace.sv_counts[key] = trace.sv_counts.get(key, 0) + 1
                    dests = range(n)
                else:   # a send out of range is charged, never delivered
                    dests = (a.to,) if 0 <= a.to < n else ()
                # one arrival, shared by every copy
                times = schedule_deliveries(now, gst, delta, rule, rng,
                                            len(dests))
                for dest, at in zip(dests, times):
                    push(at, dest, arrival)
            elif cls is SetTimer:
                at = schedule_timer(now, gst, a.duration, adversary.drift, rng)
                push(at, pid, TimerFired(a.timer_id))
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
                halted.add(pid)
                running.discard(pid)
                return

    # kick off every process with its proposal
    starts = sorted(range(config.n),
                    key=lambda p: (config.propose_at.get(p, 0), p))
    for pid in starts:
        at = config.propose_at.get(pid, 0)
        v = config.proposals.get(pid, 0)
        push(at, pid, Request("propose", (v,)))

    # the loop ends once every correct process has halted
    halted, running = set(), set(config.correct)
    while queue and running:
        now, _, pid, event = heapq.heappop(queue)
        if now > max_time:
            break
        # every event is recorded; a halted process is never stepped again
        if collect_rows:
            if isinstance(event, TimerFired):
                rows.append((now, pid, "timer-fire", event.timer_id, "-", 0))
            elif isinstance(event, MessageArrival):
                p = event.payload
                rows.append((now, pid, "deliver", event.path, p.kind,
                             payload_bits(p, accounting, value_width)))
        if pid in halted:
            continue
        # a root has no parent to abandon it, so it skips Automaton.step
        if actions := autos[pid].on_event(event):
            absorb(now, pid, actions)
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
