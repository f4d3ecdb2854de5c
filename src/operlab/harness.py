"""Batch experiment layer: scenario files, theorem checks over traces,
seed sweeps, and the lock-step equivalence oracle.

A scenario is a JSON object with a closed key set; unknown keys are a hard
error. The default check bundle evaluates agreement, strong validity,
external validity, the termination deadline, the view ceiling and per-view
START-VIEW budgets on every run. Post-halt silence and the delivery-time
envelope hold by construction (`simnet.run` drops every action after a
process's `Halt` and never steps it again; each delay rule of
`simnet.DELAYS` keeps every copy in the envelope), so unit tests cover them
instead of per-run checks. Strategy and rule specs are checked by the
simulator's own `simnet.check_adversary`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .core import ValidityPredicate
from .crux import CruxParams
from .oper import make_oper
from .simnet import AdversarySpec, SimConfig, Trace, check_adversary, run
from .sync_ba import (RecordingMachine, RoundSimAdapter, SyncMachine,
                      lockstep_run)


class ScenarioError(ValueError):
    """Malformed scenario file (fails closed on anything unrecognized)."""


_SCENARIO_KEYS = {
    "n", "t", "delta", "gst", "seed", "seeds", "value_width", "accounting",
    "proposal", "proposals", "propose_at", "faulty", "strategies",
    "pre_gst_delay", "drift", "validity",
}

_KEY_TYPES = {**dict.fromkeys(("n", "t", "delta", "gst", "seed", "seeds",
                               "value_width"), int),
              "faulty": list, "proposals": dict, "propose_at": dict,
              "strategies": dict}


def load_scenario(path: str) -> dict:
    try:
        with open(path) as f:
            scn = json.load(f)
    except OSError as e:
        raise ScenarioError(f"cannot read scenario: {e}")
    except json.JSONDecodeError as e:
        raise ScenarioError(f"invalid JSON in {path}: {e}")
    if not isinstance(scn, dict):
        raise ScenarioError("scenario must be a JSON object")
    for key in scn:
        if key not in _SCENARIO_KEYS:
            raise ScenarioError(f"unknown scenario key {key!r}")
    for key in ("n", "delta"):
        if key not in scn:
            raise ScenarioError(f"missing required scenario key {key!r}")
    for key, kind in _KEY_TYPES.items():
        if key in scn and type(scn[key]) is not kind:   # a bool is no int
            raise ScenarioError(f"{key} must be a {kind.__name__}, "
                                f"not {scn[key]!r}")
    if "proposal" in scn and "proposals" in scn:
        raise ScenarioError("give either 'proposal' or 'proposals', not both")
    if scn.get("seeds", 1) < 1:
        raise ScenarioError(f"seeds must be >= 1, not {scn['seeds']!r}")
    try:
        check_adversary(scenario_adversary(scn), scn.get("faulty", ()))
    except ValueError as e:
        raise ScenarioError(str(e))
    _build_validity(scn.get("validity"))  # raises on malformed input
    return scn


def _build_validity(spec) -> ValidityPredicate:
    if spec is None:
        return ValidityPredicate.always_true()
    if not isinstance(spec, dict):
        raise ScenarioError(f"bad validity spec {spec!r}")
    kind = spec.get("kind")
    if kind == "always-true":
        return ValidityPredicate.always_true()
    if kind == "membership":
        members = spec.get("members")
        if isinstance(members, list) and all(type(m) is int for m in members):
            return ValidityPredicate.membership(members)
    elif kind == "modulo":
        divisor, residue = spec.get("divisor"), spec.get("residue")
        if type(divisor) is int and divisor >= 1 and type(residue) is int:
            return ValidityPredicate.modulo(divisor, residue)
    else:
        raise ScenarioError(f"unknown validity kind {kind!r}")
    raise ScenarioError(f"bad {kind} validity fields {spec!r}")


def _int_key_map(m) -> dict:
    """Keys of `m` as process ids, each spelled as `str` spells its int."""
    try:
        out = {int(k): v for k, v in (m or {}).items()}
    except ValueError as e:
        raise ScenarioError(f"bad process id: {e}")
    bad = set(m or ()) - set(map(str, out))
    if bad:
        raise ScenarioError(f"bad process ids {sorted(bad)}")
    return out


def scenario_config(scn: dict, seed=None, accounting=None) -> SimConfig:
    n = scn["n"]
    t = scn.get("t", (n - 1) // 3)
    proposals = _int_key_map(scn.get("proposals"))
    if "proposal" in scn:
        proposals = {p: scn["proposal"] for p in range(n)}
    try:
        return SimConfig(
            n=n, t=t,
            faulty=frozenset(scn.get("faulty", ())),
            delta=scn["delta"],
            gst=scn.get("gst", 0),
            seed=scn.get("seed", 0) if seed is None else seed,
            accounting=accounting or scn.get("accounting", "payload-only"),
            value_width=scn.get("value_width", 32),
            validity=_build_validity(scn.get("validity")),
            proposals=proposals,
            propose_at=_int_key_map(scn.get("propose_at")),
        )
    except ValueError as e:
        raise ScenarioError(str(e))


def scenario_adversary(scn: dict) -> AdversarySpec:
    """Each spec a JSON list gives, as a tuple; any other value stays as it
    is, for `check_adversary` to reject."""
    def spec(v):
        return tuple(v) if type(v) is list else v
    return AdversarySpec(
        pre_gst_delay=spec(scn.get("pre_gst_delay", ["uniform"])),
        drift=spec(scn.get("drift", ["none"])),
        strategies={pid: spec(v) for pid, v
                    in _int_key_map(scn.get("strategies")).items()},
    )


# -- full-protocol runs -----------------------------------------------------


def oper_params(config: SimConfig) -> CruxParams:
    return CruxParams(n=config.n, t=config.t, delta=config.delta,
                      value_width=config.value_width)


def run_oper(config: SimConfig, adversary: AdversarySpec,
             collect_rows=False) -> Trace:
    """One full-protocol run, capped at GST + 100 view durations."""
    def factory(pid):
        return make_oper(config.n, config.t, config.delta, pid,
                         value_width=config.value_width, pred=config.validity)
    max_time = config.gst + 100 * oper_params(config).delta_total
    return run(config, adversary, factory, max_time=max_time,
               collect_rows=collect_rows)


# -- theorem checks ---------------------------------------------------------


def first_entry_times(trace: Trace) -> dict:
    """view -> earliest time any correct process entered it."""
    out: dict = {}
    for (time, pid, view) in trace.enters:
        if pid in trace.config.faulty:
            continue
        if view not in out or time < out[view]:
            out[view] = time
    return out


def final_view(trace: Trace):
    """Smallest view first entered at or after GST, with its entry time.

    When every entry precedes GST, the view in progress spans GST and its
    synchronized portion starts there, so the deadline clock is GST itself.
    """
    entries = first_entry_times(trace)
    if not entries:
        return None
    post = [v for v, tm in entries.items() if tm >= trace.config.gst]
    if not post:
        return max(entries), trace.config.gst
    v = min(post)
    return v, entries[v]


def check_trace(trace: Trace, params: CruxParams) -> list:
    """Default theorem bundle; returns human-readable violation strings."""
    cfg = trace.config
    out = []
    decided = {p: trace.decisions[p] for p in cfg.correct
               if p in trace.decisions}
    if not trace.terminated:
        missing = sorted(set(cfg.correct) - set(decided))
        out.append(f"termination: NON-TERMINATED, undecided {missing}")
    values = sorted({v for (v, _) in decided.values()},
                    key=lambda x: (x is None, repr(x)))
    if len(values) > 1:
        out.append(f"agreement: distinct decisions {values}")
    proposals = {cfg.proposals.get(p, 0) for p in cfg.correct}
    if len(proposals) == 1 and values:
        (unanimous,) = proposals
        if values != [unanimous]:
            out.append(f"strong-validity: proposed {unanimous}, "
                       f"decided {values}")
    for v in values:
        if not cfg.validity.check(v):
            out.append(f"external-validity: decided invalid {v!r}")
    fv = final_view(trace)
    if fv is not None and trace.terminated:
        view, tau = fv
        deadline = tau + params.delta_total + 2 * cfg.delta
        for p, (_, tm) in sorted(decided.items()):
            if tm > deadline:
                out.append(f"termination-deadline: process {p} decided at "
                           f"{tm} > {deadline} (V_final={view}, tau={tau})")
        ceiling = view + 1
        worst = max((v for (_, p, v) in trace.enters
                     if p not in cfg.faulty), default=0)
        if worst > ceiling:
            out.append(f"view-ceiling: entered view {worst} > "
                       f"V_final+1 = {ceiling}")
    for (pid, view), count in sorted(trace.sv_counts.items()):
        if count > 2:
            out.append(f"start-view-count: process {pid} broadcast "
                       f"START-VIEW({view}) {count} times")
    return out


@dataclass
class RunReport:
    config: SimConfig
    trace: Trace
    violations: list = field(default_factory=list)


def run_and_check(config: SimConfig, adversary: AdversarySpec,
                  collect_rows=False) -> RunReport:
    trace = run_oper(config, adversary, collect_rows=collect_rows)
    return RunReport(config, trace, check_trace(trace, oper_params(config)))


# -- complexity sweep -------------------------------------------------------


def sweep(scn: dict, n_list, seeds: int):
    """Per-n complexity table rows (n, t, pbit_max, ratio), and the
    violations of every run as "n=N seed=S: ..." strings."""
    rows, violations = [], []
    if seeds <= 0:
        return rows, violations
    base_seed = scn.get("seed", 0)
    for n in n_list:
        t = (n - 1) // 3
        faulty = list(range(n - t, n))
        kinds = [list(v) for v in scn.get("strategies", {}).values()] \
            or [["delayer"], ["equivocate"], ["silent"]]
        sub = dict(scn)
        sub["n"] = n
        sub["t"] = t
        sub["faulty"] = faulty
        sub["strategies"] = {str(p): kinds[i % len(kinds)]
                             for i, p in enumerate(faulty)}
        sub.pop("proposals", None)
        sub.setdefault("proposal", 7)
        pbit_max = 0
        for k in range(seeds):
            config = scenario_config(sub, seed=base_seed + k)
            report = run_and_check(config, scenario_adversary(sub))
            violations.extend(f"n={n} seed={config.seed}: {v}"
                              for v in report.violations)
            pbit_max = max(pbit_max, *(report.trace.pbit.get(p, 0)
                                       for p in config.correct))
        width = scn.get("value_width", 32)
        ratio = Fraction(pbit_max, n * (8 + width))
        rows.append((n, t, pbit_max, ratio))
    return rows, violations


# -- lock-step equivalence oracle -------------------------------------------


def oracle_sim(scn: dict, seed=None, parity_flip_pid=None):
    """Compare one adapter-simulated run against the lock-step reference.

    Returns (ok, detail). With parity_flip_pid set, that process's adapter
    mis-tags its round parity -- the negative control, expected to diverge.
    """
    config = scenario_config(scn, seed=seed)
    adversary = scenario_adversary(scn)
    params = oper_params(config)
    starts = [config.propose_at.get(p, 0) for p in config.correct]
    for p, at in zip(config.correct, starts):
        if at < config.gst:
            raise ScenarioError(
                f"oracle scenario: process {p} starts at {at} before GST")
    if starts and max(starts) - min(starts) > params.delta_shift:
        raise ScenarioError("oracle scenario: start spread exceeds "
                            f"delta_shift = {params.delta_shift}")

    members = list(range(config.n))
    total = params.R
    recorders: dict = {}   # pid -> the RecordingMachine its adapter drives

    def factory(pid):
        def machine_factory(proposal):
            recorders[pid] = RecordingMachine(pid, members, proposal)
            return recorders[pid]
        return RoundSimAdapter(machine_factory, total, params.delta_sync,
                               params.bit_cap, config.value_width,
                               parity_flip=(pid == parity_flip_pid))

    run(config, adversary, factory,
        max_time=max(starts, default=0) + (total + 2) * params.delta_sync
        + config.gst)

    # reference: identical machines in perfect lock-step, with the Byzantine
    # round inputs observed by each correct process injected verbatim
    inject: dict = {}
    for pid in config.correct:
        for r, batch in enumerate(recorders[pid].absorbed):
            bad = [(s, p) for (s, p) in batch if s in config.faulty]
            if bad:
                inject[(r, pid)] = bad
    machines = {pid: SyncMachine(pid, members, config.proposals.get(pid, 0))
                for pid in config.correct}
    ref = lockstep_run(machines, total, inject=inject)

    for pid in config.correct:
        got = recorders[pid].digests
        want = ref[pid]
        if len(got) != len(want):
            return False, (f"process {pid}: {len(got)} simulated rounds vs "
                           f"{len(want)} reference rounds")
        for r, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return False, f"process {pid}: state diverges at round {r}"
    return True, f"{len(config.correct)} processes, {total} rounds bit-exact"
