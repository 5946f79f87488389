"""The scan's integer reject bounds against the same scan with the bounds switched off."""

from fractions import Fraction

import pytest
from hypothesis import given

from heightlab import infima_lab
from heightlab.infima_lab import SystemInstance, scan_system
from heightlab.places_heights import INF
from test_scan_kernel import SETTINGS, systems, tie_systems

F = Fraction


def _report(rep):
    return rep.solutions, rep.t_prime, rep.histogram, rep.bin_ratio, rep.reduced_delta


def _scan_both_ways(sys, h_max, box):
    """(scan with the reject bounds, scan without them, vectors holds tested with and without)."""
    tested = []
    init, holds = infima_lab._SolutionTest.__init__, infima_lab._SolutionTest.holds

    def counting(self, values, h):
        tested[-1] += 1
        return holds(self, values, h)

    def unbounded(self, *args):
        init(self, *args)
        self.bounds = [()] * len(self.bounds)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(infima_lab._SolutionTest, "holds", counting)
        tested.append(0)
        bounded = scan_system(sys, h_max, box)
        mp.setattr(infima_lab._SolutionTest, "__init__", unbounded)
        tested.append(0)
        off = scan_system(sys, h_max, box)
    assert _report(bounded) == _report(off)
    return tested


@SETTINGS
@given(systems())
def test_reject_bounds_change_no_scan(case):
    # one or two of the places inf, 2, 3, 5: p-adic-only systems have no bound
    sys, h_max, box = case
    with_bounds, without = _scan_both_ways(sys, h_max, box)
    assert with_bounds <= without
    if INF not in sys.places:
        assert with_bounds == without


@SETTINGS
@given(tie_systems())
def test_reject_bounds_keep_vectors_on_the_bound(case):
    sys, x, box = case
    _scan_both_ways(sys, box, box)
    assert x in [s["x"] for s in scan_system(sys, box, box).solutions]


def test_reject_bounds_skip_most_vectors():
    # the n = 3 system at infinity with solutions at heights 1 and 2, in a box of 5
    forms = [[-1, 0, -2], [-2, -1, 1], [-1, 0, 1]]
    eps = F(1, 100)
    sys = SystemInstance(3, eps, {"inf": (forms, [-(3 + eps) / 2, -(3 + eps) / 4, -(3 + eps) / 4])})
    with_bounds, without = _scan_both_ways(sys, 5, 5)
    # of the 577 primitive vectors, only the 3 solutions pass the bounds
    assert (with_bounds, without) == (3, 577)
