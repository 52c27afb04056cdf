"""Static communication graph and happens-before hazard detection.

Builds a process-level view of one assembled system — who calls whom,
which processes speculate, where speculative traffic flows — and derives
the two fork-site hazards the paper's protocol exists to repair:

* **Service-set reentry** (§3.4, the Figure 4 shape): the right thread of
  a fork sends into a process that the left thread's outstanding call is
  being serviced *through*.  The speculative message can physically
  overtake the causally-earlier one, a guaranteed happens-before race.
* **Mutual speculation cycles** (§4.2.6, the Figure 7 shape): process P's
  speculative output feeds a guessed receive in Q while Q's speculative
  output feeds a guessed receive in P — the PRECEDENCE protocol will
  discover the cycle at run time and abort both guesses; statically it is
  a doomed plan.

Everything here is conservative: unknown communication partners
(``astwalk.UNKNOWN``) never *produce* a hazard claim, but they do prevent
a site from being certified safe (see :func:`fork_site_safety`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analyze.astwalk import UNKNOWN
from repro.analyze.summary import ProgramSummary, \
    summarize_program
from repro.csp.plan import ParallelizationPlan
from repro.csp.process import Program

#: One lintable unit: a program plus (optionally) its plan.
Entry = Tuple[Program, Optional[ParallelizationPlan]]


@dataclass
class ForkSite:
    """One planned fork: the segment index it guards and its spec."""

    process: str
    segment: str
    index: int            # -1 when the plan names an unknown segment
    spec: object          # the ForkSpec


@dataclass
class SystemModel:
    """The analyzer's view of one assembled system."""

    entries: Dict[str, Entry] = field(default_factory=dict)
    summaries: Dict[str, ProgramSummary] = field(default_factory=dict)
    sinks: FrozenSet[str] = frozenset()

    @classmethod
    def build(cls, entries: Sequence[Entry],
              sinks: Sequence[str] = ()) -> "SystemModel":
        model = cls(sinks=frozenset(sinks))
        for program, plan in entries:
            model.entries[program.name] = (program, plan)
            model.summaries[program.name] = summarize_program(program)
        return model

    # -------------------------------------------------------------- queries

    def processes(self) -> List[str]:
        return sorted(self.entries)

    def plan_of(self, name: str) -> Optional[ParallelizationPlan]:
        return self.entries[name][1]

    def program_of(self, name: str) -> Program:
        return self.entries[name][0]

    def fork_sites(self, name: str) -> List[ForkSite]:
        plan = self.plan_of(name)
        if plan is None:
            return []
        program = self.program_of(name)
        names = [s.name for s in program.segments]
        sites = []
        for seg_name, spec in sorted(plan.forks.items()):
            index = names.index(seg_name) if seg_name in names else -1
            sites.append(ForkSite(process=name, segment=seg_name,
                                  index=index, spec=spec))
        return sites

    def all_fork_sites(self) -> List[ForkSite]:
        out: List[ForkSite] = []
        for name in self.processes():
            out.extend(self.fork_sites(name))
        return out

    # ------------------------------------------------------- service closure

    def direct_partners(self, name: str) -> Set[str]:
        """Processes ``name`` may contact while running (calls + sends)."""
        summary = self.summaries.get(name)
        if summary is None:
            return {UNKNOWN}
        out: Set[str] = set()
        for seg in summary.segments:
            out |= set(seg.partners())
            if seg.has_unknown_partner() or seg.opaque:
                out.add(UNKNOWN)
        return out

    def service_closure(self, name: str) -> Set[str]:
        """Transitive communication reach of servicing a request at ``name``.

        The closure of D answers: "while D (and whatever D contacts)
        services my call, which processes might the work flow through?"
        It deliberately *excludes* D itself — FIFO links already order a
        right thread's later message to D behind the left thread's call.
        ``UNKNOWN`` membership means the closure is incomplete.
        """
        seen: Set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            for partner in self.direct_partners(current):
                if partner == UNKNOWN:
                    seen.add(UNKNOWN)
                    continue
                if partner in seen or partner == name:
                    continue
                seen.add(partner)
                if partner in self.entries:
                    frontier.append(partner)
        return seen

    # ------------------------------------------------- right-thread traffic

    def right_thread_traffic(self, site: ForkSite) -> Tuple[Set[str], bool]:
        """(known targets, any-unknown) of everything after the fork.

        Every segment past the forked one runs under the fork's guard while
        the left thread is outstanding, so all of its communication is
        speculative with respect to this guess.
        """
        summary = self.summaries[site.process]
        targets: Set[str] = set()
        unknown = False
        if site.index < 0:
            return targets, True
        for seg in summary.downstream(site.index):
            targets |= set(seg.partners())
            if seg.has_unknown_partner() or seg.opaque:
                unknown = True
        return targets, unknown

    def left_call_destinations(self, site: ForkSite) -> Tuple[Set[str], bool]:
        """(known call dsts of the forked segment, any-unknown)."""
        if site.index < 0:
            return set(), True
        seg = self.summaries[site.process].segments[site.index]
        dsts = {dst for dst, _ in seg.calls if dst != UNKNOWN}
        unknown = any(dst == UNKNOWN for dst, _ in seg.calls) or seg.opaque
        return dsts, unknown

    # ---------------------------------------------------------- §3.4 hazard

    def service_reentry(self, site: ForkSite) -> List[Tuple[str, str]]:
        """Certain time-fault hazards at ``site``: (left dst, reentered).

        The right thread statically contacts a process inside the service
        closure of a left-thread call destination — the Figure 4 race.
        """
        left_dsts, _ = self.left_call_destinations(site)
        right, _ = self.right_thread_traffic(site)
        hazards: List[Tuple[str, str]] = []
        for dst in sorted(left_dsts):
            closure = self.service_closure(dst)
            for target in sorted(right & closure):
                hazards.append((dst, target))
        return hazards

    # -------------------------------------------------------- §4.2.6 cycles

    def receive_fork_processes(self) -> Set[str]:
        """Processes with a fork whose guarded segment consumes a receive."""
        out: Set[str] = set()
        for site in self.all_fork_sites():
            if site.index < 0:
                continue
            seg = self.summaries[site.process].segments[site.index]
            if seg.receives:
                out.add(site.process)
        return out

    def speculation_edges(self) -> Dict[str, Set[str]]:
        """P -> Q edges where P's speculative output feeds Q's guessed
        receive."""
        receivers = self.receive_fork_processes()
        edges: Dict[str, Set[str]] = {}
        for site in self.all_fork_sites():
            targets, _ = self.right_thread_traffic(site)
            for q in targets & receivers:
                if q != site.process:
                    edges.setdefault(site.process, set()).add(q)
        return edges

    def speculation_cycles(self) -> List[Tuple[str, ...]]:
        """Cycles in the speculative-feed graph, one tuple per cycle."""
        edges = self.speculation_edges()
        cycles: List[Tuple[str, ...]] = []
        seen_cycles: Set[FrozenSet[str]] = set()

        def dfs(start: str, node: str, path: List[str],
                visited: Set[str]) -> None:
            for nxt in sorted(edges.get(node, ())):
                if nxt == start and len(path) > 0:
                    key = frozenset(path)
                    if key not in seen_cycles:
                        seen_cycles.add(key)
                        cycles.append(tuple(path))
                elif nxt not in visited and nxt > start:
                    # only walk nodes lexicographically after the start to
                    # canonicalize each cycle once
                    visited.add(nxt)
                    dfs(start, nxt, path + [nxt], visited)
                    visited.discard(nxt)

        for start in sorted(edges):
            dfs(start, start, [start], {start})
        return cycles

    def processes_in_cycles(self) -> Dict[str, Tuple[str, ...]]:
        out: Dict[str, Tuple[str, ...]] = {}
        for cycle in self.speculation_cycles():
            for name in cycle:
                out.setdefault(name, cycle)
        return out


# ---------------------------------------------------------------- safety

@dataclass
class SiteSafety:
    """Why a fork site is (or is not) statically certified safe."""

    site: ForkSite
    safe: bool
    reasons: Tuple[str, ...] = ()


def predicted_keys(site: ForkSite, program: Program) -> Optional[FrozenSet[str]]:
    """Statically evaluate the predictor on the initial state.

    Predictors are pure functions of the fork-point state, so probing them
    with the program's initial state recovers the *key set* they cover
    (value-level accuracy is of course unknowable).  Returns None when the
    probe raises — an opaque predictor.
    """
    try:
        guess = site.spec.predict(dict(program.initial_state))
    except Exception:
        return None
    return frozenset(guess)


def fork_site_safety(model: SystemModel, site: ForkSite) -> SiteSafety:
    """Certify one fork site, conservatively.

    A site is safe only when the analyzer can *prove* the absence of both
    hazards: summaries precise enough to enumerate all communication, no
    service-set reentry, no speculation cycle, and a predictor that covers
    every export the continuation reads.
    """
    reasons: List[str] = []
    if site.index < 0:
        return SiteSafety(site, False, ("plan names an unknown segment",))
    program = model.program_of(site.process)
    summary = model.summaries[site.process]
    if site.index == len(program.segments) - 1:
        reasons.append("fork on the final segment (no continuation)")

    # Hazard 1: §3.4 reentry.
    hazards = model.service_reentry(site)
    for dst, target in hazards:
        reasons.append(
            f"right thread contacts {target!r} inside the service set of "
            f"left-thread call to {dst!r} (time-fault race)"
        )
    left_dsts, left_unknown = model.left_call_destinations(site)
    right, right_unknown = model.right_thread_traffic(site)
    if left_unknown or right_unknown:
        reasons.append("communication partners not statically resolvable")
    else:
        for dst in sorted(left_dsts):
            if UNKNOWN in model.service_closure(dst):
                reasons.append(
                    f"service set of {dst!r} not statically resolvable"
                )
                break

    # Hazard 2: §4.2.6 mutual speculation cycle.
    cycle = model.processes_in_cycles().get(site.process)
    if cycle is not None:
        reasons.append(
            "mutual speculation cycle through "
            + " -> ".join(cycle + (cycle[0],))
        )

    # Hazard 3: certain value faults.
    keys = predicted_keys(site, program)
    seg = summary.segments[site.index]
    if keys is None:
        reasons.append("predictor not statically evaluable")
    else:
        never_exported = keys - frozenset(seg.exports)
        if never_exported:
            reasons.append(
                "predictor guesses key(s) the segment never exports: "
                + ", ".join(sorted(never_exported))
            )
        uncovered: Set[str] = set()
        for later in summary.downstream(site.index):
            uncovered |= (later.reads & frozenset(seg.exports)) - keys
        if uncovered:
            reasons.append(
                "continuation reads export(s) the predictor does not "
                "guess: " + ", ".join(sorted(uncovered))
            )
    return SiteSafety(site, safe=not reasons, reasons=tuple(reasons))
