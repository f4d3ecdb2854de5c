"""Lock-step equivalence oracle: once a view is synchronized, the
`RecordingMachine` each adapter builds must replay a lock-step run of plain
`SyncMachine`s fed the faulty inputs it recorded, digest for digest, active
round by active round."""

from __future__ import annotations

from .harness import (ScenarioError, oper_params, scenario_adversary,
                      scenario_config)
from .simnet import run
from .sync_ba import RoundSimAdapter, SyncMachine


class RecordingMachine(SyncMachine):
    """SyncMachine that keeps, per absorbed round, the round, its input and
    its state digest afterwards: what the oracle compares."""

    def __init__(self, pid, members, proposal):
        super().__init__(pid, members, proposal)
        self.absorbed: list = []   # (r, [(sender, payload)]) per absorb
        self.digests: list = []

    def absorb(self, r, received):
        super().absorb(r, received)
        self.absorbed.append((r, received))
        self.digests.append(self.state_digest())


def lockstep_run(machines: dict, total_rounds: int, inject=None):
    """Reference lock-step execution of round machines.

    machines: pid -> round machine for the correct processes, each run sent
    to its destinations in order; a machine takes part only in its active
    rounds, and a copy to a machine in an idle round is dropped. inject
    maps (round, receiver_pid) -> [(sender, payload)] for Byzantine round
    inputs. Returns pid -> [digest per active round].
    """
    inject = inject or {}
    digests = {pid: [] for pid in machines}
    for r in range(total_rounds):
        live = {pid: m for pid, m in machines.items() if m.active(r)}
        outs = {pid: m.outbound(r) for pid, m in live.items()}
        inboxes = {pid: [] for pid in live}
        for sender, runs in outs.items():
            for payload, dests in runs:
                for dest in dests:
                    if dest in inboxes:
                        inboxes[dest].append((sender, payload))
        for pid, m in live.items():
            m.absorb(r, inboxes[pid] + list(inject.get((r, pid), ())))
            digests[pid].append(m.state_digest())
    return digests


def oracle_sim(scn: dict, seed=None):
    """Compare one adapter-simulated run against the lock-step reference.

    Returns (ok, detail). Every correct process must start at or after GST,
    within delta_shift of the others; else ScenarioError.
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

    total = params.R
    adapters = {pid: RoundSimAdapter(params, pid, RecordingMachine)
                for pid in range(config.n)}
    run(config, adversary, adapters.__getitem__,
        max_time=max(starts, default=0) + (total + 2) * params.delta_sync
        + config.gst)

    # reference: identical machines in perfect lock-step, with the Byzantine
    # round inputs observed by each correct process injected verbatim at the
    # rounds it absorbed them in
    inject: dict = {}
    for pid in config.correct:
        for r, batch in adapters[pid].machine.absorbed:
            bad = [(s, p) for (s, p) in batch if s in config.faulty]
            if bad:
                inject[(r, pid)] = bad
    machines = {pid: SyncMachine(pid, range(config.n),
                                 config.proposals.get(pid, 0))
                for pid in config.correct}
    ref = lockstep_run(machines, total, inject=inject)

    for pid in config.correct:
        got = adapters[pid].machine.digests
        want = ref[pid]
        if len(got) != len(want):
            return False, (f"process {pid}: {len(got)} simulated active "
                           f"rounds vs {len(want)} reference active rounds")
        for (r, _), g, w in zip(adapters[pid].machine.absorbed, got, want):
            if g != w:
                return False, f"process {pid}: state diverges at round {r}"
    return True, f"{len(config.correct)} processes, {total} rounds bit-exact"
