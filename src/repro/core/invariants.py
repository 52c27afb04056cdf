"""Post-run protocol invariant validation.

A quiesced optimistic system must satisfy a set of structural invariants
that follow from the protocol's correctness argument (§3).  Tests and the
property suite call :func:`validate_run` after every run; violations raise
:class:`~repro.errors.ProtocolError` with a description of what broke.

Checked invariants:

I1  Resolution totality — every guess ever forked is committed or aborted
    (no guess left pending at quiescence), unless the run is knowingly
    unresolved (Fig. 7's deadlock).
I2  Commit stability — no guess both commits and aborts.
I3  Guard emptiness — no live thread still holds an uncommitted guess.
I4  Orphan hygiene — no message pool retains an envelope that is not an
    orphan and that a blocked thread would take.
I5  Output commit — every released emission's guards committed; every
    dropped emission depended on an aborted guess; nothing is left
    buffered.
I6  Journal sanity — every surviving thread's journal is live (replay
    cursors fully drained).
I7  Incarnation order — each process's own abort history produced strictly
    increasing incarnation numbers with consistent start indices.
I8  CDG hygiene — no resolved guess remains a CDG node.  The graph keeps
    nodes and predecessor sets as guard runs and prunes nothing on read:
    a guess leaves by ``remove_node`` (the COMMIT/ABORT handlers,
    ``commit_own``/``abort_own``) or in sweep phase 0, which drops every
    node resolved by implication — so this checks phase 0 ran after the
    last resolution.
I9  Index consistency — every unresolved guess a surviving thread, pooled
    envelope, buffered emission or the CDG holds is covered by a
    registration of that holder in the view's index, of a run that reaches
    it and is filed at or above it; and no registration is left whose
    whole run is resolved.  I3, I4 and I8 scan ``status`` by brute force:
    they are what the index is judged against.
I11 Nothing reclaimable is left — no DESTROYED thread in the table, no
    settled record in ``records`` or ``open_records``, no terminated left
    thread of a settled guess, no ``dependents`` entry for a resolved guess.
    The runtime reclaims each where it settles; this judges those sites by
    the facts alone.  (I10 is reserved for the offline resolver.)
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.errors import ProtocolError
from repro.core.guess import GuessId
from repro.core.history import GuessStatus, SystemView
from repro.core.runtime import ProcessRuntime
from repro.core.system import OptimisticSystem
from repro.core.thread import ThreadStatus


def any_aborted(view: SystemView,
                guesses: Iterable[GuessId]) -> Optional[GuessId]:
    """Lowest aborted guess among ``guesses``: the orphan test (§4.2.3) by
    brute force, which the pool's reading of the index is judged by (I4)."""
    found: Optional[GuessId] = None
    for g in guesses:
        if (found is None or g < found) and view.is_aborted(g):
            found = g
    return found


def unreclaimed(rt: ProcessRuntime) -> List[str]:
    """I11 for one process: the threads and records it still holds that
    nothing can read.  Holds between any two scheduler events; the
    dependents rule is :func:`validate_run`'s alone, since between events
    an entry may outlive a resolution the view inferred while the COMMIT
    or ABORT itself is still on its way."""
    problems, name = [], rt.name
    for thread in rt.threads.values():
        if thread.status is ThreadStatus.DESTROYED:
            problems.append(f"I11: {name}.t{thread.tid} destroyed, not "
                            "reclaimed")
        elif thread.own_guess is not None \
                and thread.own_guess not in rt.records:
            problems.append(f"I11: {name}.t{thread.tid} outlives the record "
                            f"of {thread.own_guess.key()}")
    for guess, record in rt.records.items():
        if record.status == "pending":
            continue
        left = rt.threads.get(record.left_tid)
        settled = (
            record.status == "committed" or record.fork_undone
            or left is None
            or (left.status is ThreadStatus.TERMINATED and not left.guard
                and record.continuation_tid is not None))
        if settled:
            problems.append(f"I11: {name} keeps settled {record.status} "
                            f"record {guess.key()}")
    problems.extend(f"I11: {name} open record {guess.key()} not in records"
                    for guess in rt.open_records if guess not in rt.records)
    return problems


def validate_run(system: OptimisticSystem,
                 allow_unresolved: bool = False) -> List[str]:
    """Check all invariants on a quiesced system; returns checked labels."""
    problems: List[str] = []
    checked = ["I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8", "I9",
               "I11"]

    committed = set()
    aborted = set()
    for entry in system.protocol_log:
        if entry["kind"] == "commit":
            committed.add(entry["guess"])
        elif entry["kind"] == "abort":
            aborted.add(entry["guess"])

    # I2 commit stability
    both = committed & aborted
    if both:
        problems.append(f"I2: guesses both committed and aborted: {both}")

    for name, rt in system.runtimes.items():
        # I1 resolution totality
        for guess, record in rt.records.items():
            if record.status == "pending" and not allow_unresolved:
                problems.append(
                    f"I1: {name} guess {guess.key()} still pending"
                )
        # I3 guard emptiness on live threads
        for thread in rt.threads.values():
            if thread.status is ThreadStatus.DESTROYED:
                continue
            for g in thread.guard:
                status = rt.view.status(g)
                if status is GuessStatus.ABORTED:
                    problems.append(
                        f"I3: {name}.t{thread.tid} holds aborted {g.key()}"
                    )
                elif status is GuessStatus.COMMITTED:
                    problems.append(
                        f"I3: {name}.t{thread.tid} holds committed-but-"
                        f"unpruned {g.key()}"
                    )
                elif not allow_unresolved:
                    problems.append(
                        f"I3: {name}.t{thread.tid} holds unresolved {g.key()}"
                    )
            # I6 journal sanity
            if not thread.journal.live:
                problems.append(
                    f"I6: {name}.t{thread.tid} still replaying "
                    f"(cursor {thread.journal.cursor}/{len(thread.journal)})"
                )
        # I4 orphan hygiene: what is left in the pool must be orphaned (an
        # orphan never dispatched is fine) or undeliverable because nobody
        # receives it any more — nothing a blocked thread would take.
        for envelope in rt.inbox.envelopes:
            if any_aborted(rt.view, envelope.guard) is not None:
                continue
            taker = rt.inbox.taker(envelope, rt.threads)
            if taker is not None:
                problems.append(
                    f"I4: {name} pool retains envelope {envelope.msg_id} "
                    f"that t{taker.tid} would take"
                )
        # I5 output commit
        for em in rt.output.unsettled():
            problems.append(
                f"I5: {name} emission #{em.emission_id} left buffered"
            )
        # I7 incarnation order
        own = rt.view.peer(name).incarnations
        starts = own.starts
        if sorted(starts) != list(range(len(starts))):
            problems.append(
                f"I7: {name} incarnation numbers not contiguous: "
                f"{sorted(starts)}"
            )
        if rt.incarnation != max(starts):
            problems.append(
                f"I7: {name} current incarnation {rt.incarnation} != max "
                f"known start {max(starts)}"
            )
        # I8 CDG hygiene
        for node in rt.cdg.nodes():
            status = rt.view.status(node)
            if status in (GuessStatus.COMMITTED, GuessStatus.ABORTED):
                problems.append(
                    f"I8: {name} CDG retains resolved node {node.key()}"
                )
        # I9 index consistency
        view, indexed = rt.view, set()
        for peer, inc, lo, index, h in view.registrations():
            run = GuessId.row(peer.process, inc, index)[0][lo:index + 1]
            unresolved = {(g, id(h)) for g in run
                          if not view.status(g).resolved}
            if not unresolved:
                problems.append(f"I9: {name} index retains resolved "
                                f"{run[-1].key()}")
            indexed |= unresolved
        holdings = [(t, t.guard) for t in rt.threads.values()
                    if t.status is not ThreadStatus.DESTROYED]
        holdings += [(e, e.guard) for e in rt.inbox.envelopes]
        holdings += [(em, em.pending) for em in rt.output.emissions]
        holdings.append((rt.cdg, rt.cdg.nodes()))
        problems.extend(
            f"I9: {name} index misses {g.key()} held by "
            f"{type(holder).__name__}"
            for holder, guesses in holdings for g in guesses
            if not view.status(g).resolved
            and (g, id(holder)) not in indexed)
        # I11 nothing reclaimable left
        problems.extend(unreclaimed(rt))
        problems.extend(
            f"I11: {name} keeps dependents of resolved {g.key()}"
            for g in rt.control.dependents if view.status(g).resolved)

    if problems:
        raise ProtocolError(
            "protocol invariants violated:\n  " + "\n  ".join(problems)
        )
    return checked
