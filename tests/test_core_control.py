"""ControlRelay (§4.2.5) on its own: fakes, no scheduler run."""

from repro.core.config import ControlPlane, OptimisticConfig
from repro.core.control import ControlRelay
from repro.core.guess import GuessId
from repro.core.messages import AbortMsg, CommitMsg, PrecedenceMsg

from .core_fakes import FakeSystem

OWN = GuessId.make("X", 0, 0)
FOREIGN = GuessId.make("Z", 0, 0)


def make(mode):
    system = FakeSystem(OptimisticConfig(control_plane=mode))
    return ControlRelay("X", system), system


def test_broadcast_mode_tells_everyone():
    relay, system = make(ControlPlane.BROADCAST)
    relay.note_tagged({OWN}, "A")
    relay.originate(CommitMsg(guess=OWN))
    assert system.control == [("X", "*", CommitMsg(guess=OWN))]


def test_targeted_mode_tells_only_the_dependents():
    relay, system = make(ControlPlane.TARGETED)
    relay.note_tagged({OWN}, "B")
    relay.note_tagged({OWN, FOREIGN}, "A")
    relay.note_tagged({OWN}, "X")           # a message to ourselves
    relay.originate(AbortMsg(guess=OWN))
    assert system.control == [("X", "A", AbortMsg(guess=OWN)),
                              ("X", "B", AbortMsg(guess=OWN))]
    # PRECEDENCE must reach owners we never messaged: broadcast regardless
    msg = PrecedenceMsg(guess=OWN, guard=frozenset({FOREIGN}))
    relay.originate(msg)
    assert system.control[-1] == ("X", "*", msg)


def test_redelivered_control_message_is_applied_once():
    relay, system = make(ControlPlane.BROADCAST)
    commit = CommitMsg(guess=FOREIGN)
    assert relay.admit(commit, "Z") is True
    assert relay.admit(commit, "Z") is False
    assert system.stats.get("opt.control_duplicates") == 1
    # same guess, other kind: a distinct message
    assert relay.admit(AbortMsg(guess=FOREIGN), "Z") is True
    # PRECEDENCE is keyed on its guard snapshot too
    narrow = PrecedenceMsg(guess=FOREIGN, guard=frozenset())
    wide = PrecedenceMsg(guess=FOREIGN, guard=frozenset({OWN}))
    assert relay.admit(narrow, "Z") and relay.admit(wide, "Z")
    assert not relay.admit(narrow, "Z")
    assert system.control == []             # broadcast mode never relays


def test_targeted_relay_forwards_once_and_never_back():
    relay, system = make(ControlPlane.TARGETED)
    relay.note_tagged({FOREIGN}, "A")
    relay.note_tagged({FOREIGN}, "Z")       # the owner itself
    commit = CommitMsg(guess=FOREIGN)
    assert relay.admit(commit, "Z") is True
    assert system.control == [("X", "A", commit)]
    assert relay.admit(commit, "A") is False    # a copy relayed back
    assert system.control == [("X", "A", commit)]


def test_own_resolution_coming_back_is_a_noop():
    relay, system = make(ControlPlane.TARGETED)
    relay.note_tagged({OWN}, "A")
    relay.originate(CommitMsg(guess=OWN))
    sent = list(system.control)
    assert relay.admit(CommitMsg(guess=OWN), "A") is False
    assert system.control == sent
