"""EffectCertificates (static_effects shortcuts) on its own: fakes only."""

from repro.core.certificates import EffectCertificates
from repro.core.guess import GuessId
from repro.csp.process import Program, Segment

from .core_fakes import FakeSystem, FakeThread

G = GuessId.make("X", 0, 0)


def equal(guessed, actual):
    return all(actual.get(k) == v for k, v in guessed.items())


class FakeEffects:
    """A static index that defers ``aux`` and bump-certifies ``hits``."""

    def deferrable_exports(self, index):
        return frozenset({"aux"})

    def bump_certified(self, index):
        return frozenset({"hits"})


def make(certified=True):
    def seg(state):
        yield from ()

    system = FakeSystem()
    certs = EffectCertificates(Program("X", [Segment("s", seg)]), system)
    assert certs.effects is None         # static_effects is off by default
    if certified:
        certs.effects = FakeEffects()
    return certs, system


def test_inert_without_an_effects_index():
    certs, system = make(certified=False)
    guessed = {"aux": 1, "hits": 2}
    assert certs.trim(0, "s", guessed) == ((), frozenset())
    assert guessed == {"aux": 1, "hits": 2}
    assert certs.verify(G, equal, frozenset(), guessed, {"aux": 1}) is None
    state = {"k": 1}
    assert certs.overlay(state) is state
    assert system.log == []


def test_deferred_export_is_not_guessed_and_its_actual_is_overlaid():
    certs, system = make()
    guessed = {"aux": "guess", "hits": 3}
    deferred, certified = certs.trim(0, "s", guessed)
    assert deferred == ("aux",) and certified == {"hits"}
    assert guessed == {"hits": 3}
    assert system.stats.get("opt.guesses_deferred") == 1
    left = FakeThread(0)
    left.state = {"aux": "actual", "hits": 3}
    certs.bank(deferred, None, left)
    assert certs.overlay({"hits": 3}) == {"hits": 3, "aux": "actual"}


def test_fully_deferred_guess_counts_as_guess_free():
    certs, system = make()
    guessed = {"aux": 0}
    assert certs.trim(0, "s", guessed) == (("aux",), frozenset())
    assert guessed == {}
    assert system.stats.get("opt.guess_free_forks") == 1


def test_wrong_bump_certified_guess_is_repaired_by_a_delta():
    certs, system = make()
    certified = frozenset({"hits"})
    repairs = certs.verify(G, equal, certified, {"hits": 3}, {"hits": 5})
    assert repairs == {"hits": 2}
    assert system.stats.get("opt.commutative_repairs") == 1
    assert system.log == [("X", "commutative_repair",
                           {"guess": G.key(), "keys": ["hits"]})]
    certs.bank((), repairs, None)
    certs.bank((), {"hits": 1}, None)        # deltas of later commits add up
    assert certs.overlay({"hits": 10, "other": "x"}) == \
        {"hits": 13, "other": "x"}


def test_certificate_covers_numbers_only_and_other_keys_still_verify():
    certs, _system = make()
    certified = frozenset({"hits"})
    assert certs.verify(G, equal, certified, {"hits": "a"}, {"hits": "b"}) is None
    assert certs.verify(G, equal, certified, {"hits": True}, {"hits": 2}) is None
    assert certs.verify(G, equal, certified,
                        {"hits": 1, "v": 1}, {"hits": 9, "v": 2}) is None
    assert certs.verify(G, equal, certified, {"hits": 4}, {"hits": 4}) == {}
