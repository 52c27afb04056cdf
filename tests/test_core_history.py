"""Commit histories and implicit resolution inference (§4.1.5)."""

from repro.core.guards import GuardSet
from repro.core.guess import GuessId
from repro.core.history import GuessStatus, PeerView, SystemView
from repro.core.invariants import any_aborted

from .core_fakes import held


def g(inc, idx, proc="X"):
    return GuessId(proc, inc, idx)


class TestPeerView:
    def test_default_pending(self):
        assert PeerView("X").status(g(0, 0)) is GuessStatus.PENDING

    def test_explicit_commit_and_abort(self):
        v = PeerView("X")
        v.note_commit(g(0, 1))
        v.note_abort(g(0, 5))
        assert v.status(g(0, 1)) is GuessStatus.COMMITTED
        assert v.status(g(0, 5)) is GuessStatus.ABORTED

    def test_unknown_does_not_override_resolution(self):
        v = PeerView("X")
        v.note_commit(g(0, 1))
        v.note_unknown(g(0, 1))
        assert v.status(g(0, 1)) is GuessStatus.COMMITTED

    def test_unknown_marks_pending_guess(self):
        v = PeerView("X")
        v.note_unknown(g(0, 1))
        assert v.status(g(0, 1)) is GuessStatus.UNKNOWN

    def test_commit_implies_earlier_indices_same_incarnation(self):
        # Left threads join in order, so COMMIT(x_{0,3}) implies x_{0,1}.
        v = PeerView("X")
        v.note_commit(g(0, 3))
        assert v.status(g(0, 1)) is GuessStatus.COMMITTED
        assert v.status(g(0, 4)) is GuessStatus.PENDING

    def test_commit_implication_respects_incarnation_start(self):
        # Incarnation 1 starts at 5: C(1,7) implies (1,5),(1,6) committed
        # but says nothing about (1,2), which belongs to no valid range.
        v = PeerView("X")
        v.incarnations.learn_start(1, 5)
        v.note_commit(g(1, 7))
        assert v.status(g(1, 5)) is GuessStatus.COMMITTED
        assert v.status(g(1, 2)) is not GuessStatus.COMMITTED

    def test_abort_implicitly_aborts_later_same_incarnation(self):
        # ABORT(x_{0,5}) starts incarnation 1 at 5: x_{0,7} is dead too.
        v = PeerView("X")
        v.note_abort(g(0, 5))
        assert v.status(g(0, 7)) is GuessStatus.ABORTED
        assert v.status(g(0, 4)) is GuessStatus.PENDING

    def test_paper_implicit_abort_via_commit_of_new_incarnation(self):
        # Receipt of C_{2,3} with incarnation 2 starting at 3 is an
        # implicit abort of x_{1,3} (§4.1.5).
        v = PeerView("X")
        v.incarnations.learn_start(2, 3)
        v.note_commit(g(2, 3))
        assert v.status(g(1, 3)) is GuessStatus.ABORTED
        assert v.status(g(1, 2)) is GuessStatus.PENDING


class TestSystemView:
    def test_peer_views_are_per_process(self):
        sv = SystemView()
        sv.note_commit(g(0, 0, "X"))
        assert sv.is_committed(g(0, 0, "X"))
        assert not sv.is_committed(g(0, 0, "Y"))

    def test_any_aborted_returns_first_sorted(self):
        sv = SystemView()
        sv.note_abort(g(0, 2, "B"))
        sv.note_abort(g(0, 1, "A"))
        found = any_aborted(sv, [g(0, 1, "A"), g(0, 2, "B")])
        assert found == g(0, 1, "A")
        assert any_aborted(sv, [g(0, 9, "C")]) is None

    def test_status_resolved_property(self):
        assert GuessStatus.COMMITTED.resolved
        assert GuessStatus.ABORTED.resolved
        assert not GuessStatus.PENDING.resolved
        assert not GuessStatus.UNKNOWN.resolved


class Holder:
    """Anything with a ``news`` set can be registered in the index."""

    def __init__(self):
        self.news = set()


def held_guesses(view):
    return {guess for guess, _holder in held(view)}


class TestHolderIndex:
    def test_in_order_commit_notifies_exactly_the_holders_of_that_guess(self):
        sv = SystemView()
        a, b, other = Holder(), Holder(), Holder()
        sv.hold(g(0, 0), a)
        sv.hold(g(0, 0), b)
        sv.hold(g(0, 1), a)
        sv.hold(g(0, 0, "Y"), other)
        sv.note_commit(g(0, 0))
        assert a.news == {g(0, 0)} and b.news == {g(0, 0)}
        assert other.news == set()
        assert held_guesses(sv) == {g(0, 1), g(0, 0, "Y")}
        sv.note_commit(g(0, 1))
        assert a.news == {g(0, 0), g(0, 1)} and b.news == {g(0, 0)}

    def test_commit_that_jumps_the_watermark_notifies_the_held_range_once(self):
        sv = SystemView()
        holders = {n: Holder() for n in (1, 2, 4, 6)}
        for n, holder in holders.items():
            sv.hold(g(0, n), holder)
        sv.note_commit(g(0, 4))         # implies 0..4; nobody holds 0 or 3
        assert [holders[n].news for n in (1, 2, 4)] == [
            {g(0, 1)}, {g(0, 2)}, {g(0, 4)}]
        assert holders[6].news == set() and held_guesses(sv) == {g(0, 6)}
        for holder in holders.values():
            holder.news.clear()
        sv.note_commit(g(0, 2))         # below the watermark: old news
        sv.note_commit(g(0, 4))
        assert all(not holder.news for holder in holders.values())

    def test_abort_notifies_the_truncated_tail_of_earlier_incarnations(self):
        sv = SystemView()
        cells = [(0, 2), (0, 3), (0, 9), (1, 2), (1, 3), (1, 5), (2, 3)]
        holders = {cell: Holder() for cell in cells}
        for cell, holder in holders.items():
            sv.hold(g(*cell), holder)
        sv.note_abort(g(1, 3))          # incarnation 2 starts at index 3
        told = {cell for cell, holder in holders.items() if holder.news}
        assert told == {(0, 3), (0, 9), (1, 3), (1, 5)}
        assert held_guesses(sv) == {g(0, 2), g(1, 2), g(2, 3)}

    def test_registering_a_resolved_guess_marks_the_holder_at_once(self):
        sv = SystemView()
        sv.note_commit(g(0, 3))
        sv.note_abort(g(0, 7))
        holder = Holder()
        for index in (2, 3, 8, 5):
            sv.hold(g(0, index), holder)
        assert holder.news == {g(0, 2), g(0, 3), g(0, 8)}
        assert held_guesses(sv) == {g(0, 5)}

    def test_a_released_holder_is_never_visited(self):
        sv = SystemView()
        gone, stays = Holder(), Holder()
        sv.hold(g(0, 1), gone)
        sv.hold(g(0, 1), stays)
        sv.hold(g(0, 2), gone)
        sv.release(g(0, 1), gone)
        sv.release(g(0, 2), gone)
        assert held_guesses(sv) == {g(0, 1)}        # empty entries go too
        sv.note_commit(g(0, 2))
        assert gone.news == set() and stays.news == {g(0, 1)}
        sv.release(g(0, 1), stays)                  # unread news goes too
        assert stays.news == set()

    def test_learn_start_goes_through_the_view_and_notifies(self):
        # what ``abort_own`` does first: the new incarnation's start alone
        # implicitly aborts the held tail, before any explicit ABORT
        sv = SystemView()
        tail, before = Holder(), Holder()
        sv.hold(g(0, 4), tail)
        sv.hold(g(0, 1), before)
        sv.learn_start("X", 1, 2)
        assert tail.news == {g(0, 4)} and before.news == set()
        assert sv.status(g(0, 4)) is GuessStatus.ABORTED

    def test_explicit_commit_resolves_despite_a_stale_high_start(self):
        # ABORT(x_{0,5}) arrived before ABORT(x_{0,3}): incarnation 1 is
        # believed to start at 5 when COMMIT(x_{1,3}) arrives.
        sv = SystemView()
        holder = Holder()
        sv.note_abort(g(0, 5))
        sv.hold(g(1, 3), holder)
        sv.note_commit(g(1, 3))
        assert sv.status(g(1, 3)) is GuessStatus.COMMITTED
        assert holder.news == {g(1, 3)} and held_guesses(sv) == set()

    def test_watermark_walk_stops_at_the_incarnation_start(self):
        # COMMIT(x_{1,6}) with incarnation 1 believed to start at 5 says
        # nothing about x_{1,3}: still pending, still held, nobody told...
        sv = SystemView()
        below, above = Holder(), Holder()
        sv.note_abort(g(0, 5))
        sv.hold(g(1, 3), below)
        sv.hold(g(1, 5), above)
        sv.note_commit(g(1, 6))
        assert above.news == {g(1, 5)} and below.news == set()
        assert sv.status(g(1, 3)) is GuessStatus.PENDING
        assert held_guesses(sv) == {g(1, 3)}
        # ...until the true, lower start is learnt: the implication widens
        sv.note_abort(g(0, 3))
        assert below.news == {g(1, 3)}
        assert sv.status(g(1, 3)) is GuessStatus.COMMITTED


class TestRunHolders:
    """A holder registers a run ``x_{i,lo..top}`` once, under its top."""

    def test_a_run_is_told_once_when_its_last_member_commits(self):
        sv = SystemView()
        peer = sv.peer("X")
        run, single = Holder(), Holder()
        peer.hold_run(0, 2, 5, run)
        sv.hold(g(0, 3), single)
        for index in (2, 3, 4):
            sv.note_commit(g(0, index))
            assert run.news == set()            # a prefix: nobody visited
        assert single.news == {g(0, 3)}
        assert held_guesses(sv) == {g(0, 5)}    # what is left of the run
        sv.note_commit(g(0, 5))
        assert run.news == {g(0, 5)} and held_guesses(sv) == set()

    def test_a_run_is_told_as_soon_as_a_member_aborts(self):
        sv = SystemView()
        peer = sv.peer("X")
        below, straddling, above = Holder(), Holder(), Holder()
        peer.hold_run(0, 0, 2, below)
        peer.hold_run(0, 1, 6, straddling)
        peer.hold_run(0, 5, 8, above)
        sv.note_abort(g(0, 4))                  # truncates 4.. of incarnation 0
        assert below.news == set()
        assert straddling.news == {g(0, 6)} and above.news == {g(0, 8)}
        assert held_guesses(sv) == {g(0, 0), g(0, 1), g(0, 2)}
        assert sv.aborted_members(GuardSet(
            g(0, n) for n in range(1, 7))) == {g(0, 4), g(0, 5), g(0, 6)}

    def test_registering_a_settled_run_tells_the_holder_at_once(self):
        sv = SystemView()
        peer = sv.peer("X")
        sv.note_commit(g(0, 3))
        sv.note_abort(g(0, 7))
        done, dead, open_ = Holder(), Holder(), Holder()
        peer.hold_run(0, 1, 3, done)
        peer.hold_run(0, 5, 7, dead)
        peer.hold_run(0, 2, 6, open_)
        assert done.news == {g(0, 3)} and dead.news == {g(0, 7)}
        assert open_.news == set()
        assert held_guesses(sv) == {g(0, 4), g(0, 5), g(0, 6)}
        peer.release_run(0, 2, 6, open_)
        assert held_guesses(sv) == set()

    def test_explicit_commit_of_the_top_under_a_stale_high_start(self):
        # Trap 1 on a run: incarnation 1 is believed to start at 5 when
        # COMMIT(x_{1,4}) arrives, so it commits 4 alone; x_{1,3} is still
        # pending and the run is re-filed under it, nobody told.
        sv = SystemView()
        peer = sv.peer("X")
        run = Holder()
        sv.note_abort(g(0, 5))
        peer.hold_run(1, 3, 4, run)
        sv.note_commit(g(1, 4))
        assert sv.status(g(1, 4)) is GuessStatus.COMMITTED
        assert sv.status(g(1, 3)) is GuessStatus.PENDING
        assert run.news == set() and held_guesses(sv) == {g(1, 3)}
        guard = GuardSet([g(1, 3), g(1, 4)])
        assert sv.prune(guard) and guard == {g(1, 3)}
        sv.note_commit(g(1, 3))                 # explicit again: now done
        assert run.news == {g(1, 4)} and held_guesses(sv) == set()

    def test_commit_implication_widens_when_the_start_is_lowered(self):
        # Trap 2 on a run straddling the believed start 5 of incarnation 1:
        # COMMIT(x_{1,6}) commits 5..6, the part below is re-filed...
        sv = SystemView()
        peer = sv.peer("X")
        run = Holder()
        sv.note_abort(g(0, 5))
        peer.hold_run(1, 3, 6, run)
        sv.note_commit(g(1, 6))
        assert run.news == set() and held_guesses(sv) == {g(1, 3), g(1, 4)}
        guard = GuardSet(g(1, n) for n in range(3, 7))
        assert sv.prune(guard) and guard == {g(1, 3), g(1, 4)}
        # ...and resolves when the true, lower start is learnt; releasing
        # by the top the holder registered finds the re-filed run
        other, pruned = Holder(), Holder()
        peer.hold_run(1, 3, 6, other)
        peer.hold_run(1, 3, 6, pruned)
        peer.release_run(1, 3, 6, other)
        peer.release_run(1, 3, 4, pruned)       # by what pruning left of it
        sv.note_abort(g(0, 3))
        assert run.news == {g(1, 6)} and other.news == pruned.news == set()
        assert held_guesses(sv) == set()
        assert sv.prune(guard) and not guard
