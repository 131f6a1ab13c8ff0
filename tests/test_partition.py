"""Partition validation: the sort-based checks accept and reject exactly what
the per-index set checks they replaced did, with the same messages."""

import numpy as np
import pytest

from qbmsbs.bath import Partition, make_partition


def set_based(unobserved, macrofractions):
    """The per-index reference: the message Partition must raise, or None."""
    groups = [tuple(int(i) for i in g) for g in (unobserved, *macrofractions)]
    seen: set[int] = set()
    for group in groups:
        gs = set(group)
        if len(gs) != len(group):
            return "repeated index inside a partition group"
        if seen & gs:
            return "partition groups must be pairwise disjoint"
        seen |= gs
    if any(i < 0 for i in seen):
        return "indices must be non-negative"
    if any(len(mac) == 0 for mac in groups[1:]):
        return "macrofractions must be non-empty"
    return None


def check_like_reference(unobserved, macrofractions):
    expected = set_based(unobserved, macrofractions)
    if expected is None:
        p = Partition(unobserved=unobserved, macrofractions=macrofractions)
        assert p.unobserved == tuple(int(i) for i in unobserved)
        assert p.macrofractions == tuple(tuple(int(i) for i in m) for m in macrofractions)
        assert all(type(i) is int for g in (p.unobserved, *p.macrofractions) for i in g)
    else:
        with pytest.raises(ValueError, match=expected):
            Partition(unobserved=unobserved, macrofractions=macrofractions)


@pytest.mark.parametrize("unobserved, macs", [
    ((0, 1, 1), ((1, 2),)),          # repeat in the first group wins
    ((0, 1), ((1, 2, 2),)),          # repeat and overlap in one group: repeat first
    ((0, 1), ((1, 2), (3, 3))),      # overlap in an earlier group wins
    ((0, 1), ((2, 3), (1, 4, 4))),   # repeat checked before overlap
    ((0, -1), ((2,),)),
    ((0, 1), ((),)),
    ((), ()),
    ((5, 3, 4), ((0, 2), (1,))),
])
def test_error_precedence(unobserved, macs):
    check_like_reference(unobserved, macs)


def test_other_index_types():
    p = Partition(unobserved=np.arange(3), macrofractions=([3.0, 4.0], range(5, 7)))
    assert p.unobserved == (0, 1, 2)
    assert p.macrofractions == ((3, 4), (5, 6))
    assert Partition(unobserved=(i for i in range(2))).unobserved == (0, 1)


def test_make_partition_holds_tuples():
    p = make_partition(100_000, 50_000, [50_000])
    assert type(p.unobserved) is tuple and p.unobserved[-1] == 49_999
    assert p.macrofractions[0] == tuple(range(50_000, 100_000))
    p.validate_against(100_000)
    with pytest.raises(ValueError, match="out of range"):
        p.validate_against(99_999)


def test_factor_sets():
    p = Partition(unobserved=(4, 0), macrofractions=((1, 2), (3,)))
    (g_name, g_idx, g_kind), (b_name, b_idx, b_kind) = p.factor_sets()
    assert (g_name, g_kind, b_name, b_kind) == ("gamma", "decoherence",
                                                "b", "distinguishability")
    # b runs over the first macrofraction only
    assert g_idx.tolist() == [4, 0] and b_idx.tolist() == [1, 2]
    (_, _, _), (_, empty, _) = Partition(unobserved=range(3)).factor_sets()
    assert empty.size == 0
    for idx in (g_idx, b_idx, empty):
        assert idx.dtype == np.int64 and not idx.flags.writeable


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

index_lists = st.lists(st.integers(-2, 12), max_size=6)


@settings(max_examples=100, deadline=None)
@given(unobserved=index_lists, macs=st.lists(index_lists, max_size=3))
def test_matches_set_based_checks(unobserved, macs):
    check_like_reference(tuple(unobserved), tuple(tuple(m) for m in macs))
