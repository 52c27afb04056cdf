"""OutputCommit (§3.2) on its own: fakes, no scheduler run."""

import pytest

from repro.core.guess import GuessId
from repro.core.history import SystemView
from repro.core.output import OutputCommit
from repro.csp.effects import Emit
from repro.errors import ProgramError

from .core_fakes import FakeSystem, FakeThread

G = GuessId.make("X", 0, 0)


def make(guard=(G,)):
    system, view = FakeSystem(), SystemView()
    return OutputCommit("X", view, system), view, system, FakeThread(0, guard=guard)


def test_unguarded_emit_is_released_at_once():
    out, _view, system, thread = make(guard=())
    out.emit(thread, Emit("display", "now"), porder=(0, 0))
    assert system.sent == [("X", "display", "now")]
    assert out.emissions == []
    assert system.stats.get("opt.emissions_released") == 1
    assert system.stats.get("opt.emissions_buffered") == 0


def test_commit_releases_buffered_output_in_program_order():
    out, view, system, thread = make()
    out.emit(thread, Emit("display", "second"), porder=(1, 0))
    out.emit(thread, Emit("display", "first"), porder=(0, 5))
    assert system.sent == [] and len(out.unsettled()) == 2
    assert out.sweep() is False          # G still in doubt: nothing settles
    view.note_commit(G)
    assert out.sweep() is True
    assert [p for _, _, p in system.sent] == ["first", "second"]
    assert out.unsettled() == []


def test_abort_drops_buffered_output_unseen():
    out, view, system, thread = make()
    out.emit(thread, Emit("display", "never"), porder=(0, 0))
    view.note_abort(G)
    assert out.sweep() is True
    assert system.sent == [] and out.emissions == []
    assert system.stats.get("opt.emissions_dropped") == 1


def test_destroyed_thread_takes_its_output_with_it():
    out, _view, system, thread = make()
    out.emit(thread, Emit("display", "mine"), porder=(0, 0))
    out.emit(FakeThread(1, guard=(G,)), Emit("display", "theirs"), porder=(0, 0))
    out.drop_thread(0)
    assert [em.payload for em in out.emissions] == ["theirs"]
    assert system.stats.get("opt.emissions_dropped") == 1


def test_rollback_drop_does_not_count_as_dropped():
    # the counter quirk the run digests pin (see OutputCommit.drop)
    out, _view, system, thread = make()
    emission_id = out.emit(thread, Emit("display", "undone"), porder=(0, 0))
    out.drop(emission_id)
    assert out.emissions == []
    assert system.stats.get("opt.emissions_dropped") == 0


def test_emit_to_unknown_sink_is_a_program_error():
    out, _view, _system, thread = make()
    with pytest.raises(ProgramError):
        out.emit(thread, Emit("printer", "x"), porder=(0, 0))
