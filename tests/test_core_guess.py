"""GuessId and the incarnation start table (§4.1.2, §4.1.5)."""

from repro.core.guess import GuessId, IncarnationTable


def learn_abort(table, guess):
    """An abort of ``x_{i,n}`` starts incarnation ``i+1`` at index ``n``."""
    table.learn_start(guess.incarnation + 1, guess.index)


class TestGuessId:
    def test_key_format(self):
        assert GuessId("X", 2, 5).key() == "X:i2.n5"

    def test_ordering_and_equality(self):
        a = GuessId("X", 0, 1)
        b = GuessId("X", 0, 2)
        c = GuessId("X", 1, 0)
        assert a < b < c
        assert a == GuessId("X", 0, 1)
        assert len({a, GuessId("X", 0, 1)}) == 1

    def test_hashable_in_sets(self):
        s = {GuessId("X", 0, 0), GuessId("Y", 0, 0)}
        assert GuessId("X", 0, 0) in s


class TestIncarnationTable:
    def test_incarnation_zero_starts_at_zero(self):
        t = IncarnationTable()
        assert t.start_of(0) == 0

    def test_learn_abort_starts_next_incarnation(self):
        t = IncarnationTable()
        learn_abort(t, GuessId("X", 0, 5))
        assert t.start_of(1) == 5

    def test_paper_example(self):
        # "if incarnation 2 of process X begins at event 3, then the guess
        #  X_{2,4} is known to be preceded by X_{1,1}, X_{1,2} and X_{2,3},
        #  but not by X_{1,3}" — i.e. x_{1,3} is implicitly aborted.
        t = IncarnationTable()
        t.learn_start(2, 3)
        assert t.implicitly_aborted(GuessId("X", 1, 3))
        assert t.implicitly_aborted(GuessId("X", 1, 4))
        assert not t.implicitly_aborted(GuessId("X", 1, 2))
        assert not t.implicitly_aborted(GuessId("X", 2, 3))
        assert not t.implicitly_aborted(GuessId("X", 2, 4))

    def test_conflicting_start_keeps_smaller(self):
        t = IncarnationTable()
        assert t.learn_start(1, 7)          # True: it lowered a start
        assert t.learn_start(1, 4)
        assert t.start_of(1) == 4
        assert not t.learn_start(1, 9) and not t.learn_start(1, 4)
        assert t.start_of(1) == 4

    def test_much_later_incarnation_also_truncates(self):
        t = IncarnationTable()
        t.learn_start(5, 2)
        assert t.implicitly_aborted(GuessId("X", 0, 2))
        assert t.implicitly_aborted(GuessId("X", 4, 10))
        assert not t.implicitly_aborted(GuessId("X", 5, 2))

    def test_max_known_incarnation(self):
        t = IncarnationTable()
        assert t.max_known_incarnation() == 0
        t.learn_start(3, 1)
        assert t.max_known_incarnation() == 3
