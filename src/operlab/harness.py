"""Batch experiment layer: scenario files, theorem checks over traces and
seed sweeps.

A scenario is a JSON object with a closed key set; unknown keys are a hard
error. The default check bundle evaluates agreement, strong validity,
external validity, the termination deadline, the view ceiling and per-view
START-VIEW budgets on every run. Post-halt silence and the delivery-time
envelope hold by construction (`simnet.run` drops every action after a
process's `Halt` and never steps it again; each delay rule of
`simnet.DELAYS` keeps every copy in the envelope), so unit tests cover them
instead of per-run checks. Strategy and rule specs are checked by the
simulator's own `simnet.check_adversary`. `scenario` builds the one shape
that sweeps and test batteries share: the last t ids faulty.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .core import DEFAULT_VALUE_WIDTH, KIND_TAG_BITS, ValidityPredicate
from .crux import CruxParams
from .oper import make_oper
from .simnet import AdversarySpec, SimConfig, Trace, check_adversary, run


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


def _unique_keys(pairs) -> dict:
    """A JSON object; a repeated key, whose last value `json` keeps, fails."""
    if len(obj := dict(pairs)) < len(pairs):
        raise ScenarioError(f"repeated key among {[k for k, _ in pairs]}")
    return obj


def load_scenario(path: str) -> dict:
    try:
        with open(path) as f:
            scn = json.load(f, object_pairs_hook=_unique_keys)
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
    if scn.get("seed", 0) < 0:   # random.Random(-s) is random.Random(s)
        raise ScenarioError(f"seed must be >= 0, not {scn['seed']!r}")
    faulty = scn.get("faulty", [])
    if any(type(p) is not int or faulty.count(p) > 1 for p in faulty):
        raise ScenarioError(f"faulty must hold distinct ints, not {faulty!r}")
    try:   # both raise on malformed input
        check_adversary(scenario_adversary(scn), faulty)
        _build_validity(scn.get("validity"))
    except ValueError as e:
        raise ScenarioError(str(e))
    return scn


_VALIDITY_FIELDS = {"always-true": {"kind"}, "membership": {"kind", "members"},
                    "modulo": {"kind", "divisor", "residue"}}


def _build_validity(spec) -> ValidityPredicate:
    if spec is None:
        return ValidityPredicate.always_true()
    if not isinstance(spec, dict):
        raise ScenarioError(f"bad validity spec {spec!r}")
    kind = spec.get("kind")
    if type(kind) is not str or kind not in _VALIDITY_FIELDS:
        raise ScenarioError(f"unknown validity kind {kind!r}")
    if not set(spec) <= _VALIDITY_FIELDS[kind]:
        raise ScenarioError(f"bad {kind} validity fields {spec!r}")
    if kind == "always-true":
        return ValidityPredicate.always_true()
    if kind == "modulo":   # the predicate checks its fields
        return ValidityPredicate.modulo(spec.get("divisor"),
                                        spec.get("residue"))
    members = spec.get("members")
    if isinstance(members, list) and all(type(m) is int for m in members):
        return ValidityPredicate.membership(members)
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
            value_width=scn.get("value_width", DEFAULT_VALUE_WIDTH),
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


def scenario(n: int, kinds=(), **keys) -> dict:
    """`keys` plus n, t = (n-1)//3 and, when `kinds` is non-empty, the last
    t ids faulty: the i-th of them runs `kinds[i % len(kinds)]`."""
    t = (n - 1) // 3
    faulty = list(range(n - t, n)) if kinds else []
    return {**keys, "n": n, "t": t, "faulty": faulty,
            "strategies": {str(p): kinds[i % len(kinds)]
                           for i, p in enumerate(faulty)}}


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
    kinds = list(scn.get("strategies", {}).values()) \
        or [["delayer"], ["equivocate"], ["silent"]]
    keys = {k: v for k, v in scn.items() if k not in ("n", "proposals")}
    keys.setdefault("proposal", 7)
    for n in n_list:
        sub = scenario(n, kinds, **keys)
        pbit_max = 0
        for k in range(seeds):
            config = scenario_config(sub, seed=base_seed + k)
            report = run_and_check(config, scenario_adversary(sub))
            violations.extend(f"n={n} seed={config.seed}: {v}"
                              for v in report.violations)
            pbit_max = max(pbit_max, *(report.trace.pbit.get(p, 0)
                                       for p in config.correct))
        width = scn.get("value_width", DEFAULT_VALUE_WIDTH)
        ratio = Fraction(pbit_max, n * (KIND_TAG_BITS + width))
        rows.append((n, sub["t"], pbit_max, ratio))
    return rows, violations

