"""Fixtures shared by the test modules."""

import numpy as np
import pytest

import pentacc.intervals as intervals


class RoundingPaths:
    """The two rounding paths of the interval array kernels, for the oracle
    tests that hold them against the scalar ``Interval``.

    Iterating puts the add, sub, mul and div kernels on the step path,
    under round to nearest where the host has fesetround, where every
    array bound must have the scalar bound's bits, and then, where the
    host rounds upward (``intervals._fenv``), on the upward path, where
    each array bound must lie inside the scalar one (lo >=, hi <=).
    ``check`` asserts the claim of the path the loop is on; ``exact`` says
    which claim that is.
    """

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.exact = True

    def __iter__(self):
        env = intervals._fenv()
        step = (*env[:2], intervals._FE_TONEAREST) if env else False
        for exact in (True, False) if intervals._rounding() == "upward" else (True,):
            self.monkeypatch.setattr(intervals, "_FENV", step if exact else env)
            self.exact = exact
            yield "step" if exact else "upward"
        self.monkeypatch.setattr(intervals, "_FENV", env)
        self.exact = True

    def check(self, lo, hi, want_lo, want_hi) -> None:
        """Array bounds against the scalar path's, on elements both hold."""
        lo, hi, want_lo, want_hi = (np.asarray(v, dtype=float)
                                    for v in (lo, hi, want_lo, want_hi))
        if self.exact:
            np.testing.assert_array_equal(lo.view(np.int64), want_lo.view(np.int64))
            np.testing.assert_array_equal(hi.view(np.int64), want_hi.view(np.int64))
        else:
            assert (lo >= want_lo).all() and (hi <= want_hi).all(), (lo, hi, want_lo, want_hi)


@pytest.fixture
def rounding_paths(monkeypatch) -> RoundingPaths:
    return RoundingPaths(monkeypatch)
