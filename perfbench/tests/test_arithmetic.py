"""The benchmark's own arithmetic.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import statistics

import numpy as np
import pytest

from stats import (covered, duplicate_share, goodput_rung, overlap_share,
                   percentile, segments, self_time, tail_percentile)


# ------------------------------------------------------------ tail percentile
@pytest.mark.parametrize("count, expected", [
    (9, 50.0),       # nothing qualifies: the lowest rung
    (20, 50.0),      # p50 leaves 10
    (40, 75.0),      # p75 leaves 10
    (100, 90.0),     # p90 leaves 10, p95 only 5
    (199, 90.0),     # p95 leaves 9.95 < 10
    (200, 95.0),     # p98 leaves 4
    (500, 98.0),     # p98 leaves exactly 10
    (999, 98.0),
    (1000, 99.0),    # p99 leaves exactly 10
    (9999, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_leaves_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_percentile_matches_numpy_linear():
    rng = np.random.default_rng(0)
    values = list(rng.exponential(size=137))
    for pct in (0, 10, 50, 90, 99, 100):
        assert percentile(values, pct) == pytest.approx(np.percentile(values, pct))


def test_median_of_even_sample():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == statistics.median([1, 2, 3, 4])


# ------------------------------------------------------------------ self time
def test_self_time_without_children_is_the_span():
    assert self_time(1.0, 4.0, []) == 3.0


def test_self_time_subtracts_disjoint_children():
    assert self_time(0.0, 10.0, [(1.0, 2.0), (5.0, 8.0)]) == pytest.approx(6.0)


def test_self_time_counts_overlapping_children_once():
    # two children overlapping on [3, 4]: covered = [2, 6] = 4
    assert self_time(0.0, 10.0, [(2.0, 4.0), (3.0, 6.0)]) == pytest.approx(6.0)


def test_self_time_clips_children_to_the_span():
    # a child that started before and one that outlived the span
    assert self_time(5.0, 10.0, [(3.0, 6.0), (9.0, 12.0)]) == pytest.approx(3.0)
    assert covered([(0.0, 1.0)], 2.0, 3.0) == 0.0


def test_self_time_with_child_covering_everything_is_zero():
    assert self_time(1.0, 2.0, [(0.0, 5.0)]) == 0.0


# -------------------------------------------------------------- overlap share
def test_overlap_share():
    busy, share = overlap_share([(0.0, 4.0), (2.0, 6.0), (8.0, 9.0)])
    assert busy == pytest.approx(7.0)          # [0, 6] + [8, 9]
    assert share == pytest.approx(2.0 / 7.0)   # [2, 4] had two running
    assert overlap_share([]) == (0.0, 0.0)


# -------------------------------------------------------------- goodput rule
def _rung(rate, tail, completed=None, offered=None):
    offered = offered if offered is not None else int(rate * 10)
    return {"rate": rate, "tail_ms": tail, "offered": offered,
            "completed": completed if completed is not None else offered}


def test_goodput_is_highest_rung_meeting_the_limit():
    rungs = [_rung(150, 5.0), _rung(300, 12.0), _rung(450, 35.0)]
    assert goodput_rung(rungs, 20.0)["rate"] == 300


def test_goodput_takes_the_highest_passing_rung_even_above_a_failing_one():
    rungs = [_rung(150, 25.0), _rung(300, 12.0), _rung(450, 35.0)]
    assert goodput_rung(rungs, 20.0)["rate"] == 300


def test_goodput_rejects_a_growing_backlog():
    # the answered requests' tail is fine, but a tenth never completed
    rungs = [_rung(150, 5.0), _rung(300, 8.0, completed=2700, offered=3000)]
    assert goodput_rung(rungs, 20.0)["rate"] == 150


def test_goodput_none_when_every_rung_fails():
    assert goodput_rung([_rung(150, 50.0)], 20.0) is None


def test_goodput_counts_a_failure_as_missing_the_limit():
    # failed requests enter the latency sample as +inf, so 2% failures
    # push a p98 tail past any limit
    lats = [1.0] * 980 + [float("inf")] * 20
    rung = _rung(300, percentile(lats, 98.0), offered=1000)
    assert goodput_rung([rung], 20.0) is None


def test_segments_split_a_rung_into_fixed_slices():
    assert segments(list(range(10)), 5) == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
    assert segments(list(range(12)), 5) == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9, 10, 11]]
    assert segments(list(range(3)), 5) == [[0, 1, 2]]


# ---------------------------------------------------------- duplicate share
def test_duplicate_share_counts_repeats_of_earlier_keys():
    assert duplicate_share([]) == 0.0
    assert duplicate_share(["a", "b", "a", "c", "a"]) == pytest.approx(2 / 5)


def test_tonic_light_realized_duplicate_share():
    from payloads import Distinct, LightPayloads

    count, planned = 2000, 0.25
    items = LightPayloads(Distinct()).stream(count, seed=11, dup_frac=planned)
    keys = [it.key for it in items]
    share = duplicate_share(keys)
    # Bernoulli(0.25) over 1999 draws: sd ~0.0097, so +-0.04 is > 4 sd
    assert abs(share - planned) < 0.04
    # a repeat is byte-exact: same model, kind and payload bytes
    first = {}
    for it in items:
        if it.key in first:
            src = first[it.key]
            assert (src.model, src.kind) == (it.model, it.kind)
            assert np.array_equal(src.payload, it.payload)
        else:
            first[it.key] = it
    # the mix holds: ~40% DIG, NLP split over pos/chk/ner
    fresh = list(first.values())
    dig = sum(1 for it in fresh if it.model == "dig") / len(fresh)
    assert 0.35 < dig < 0.45
    assert {it.model for it in fresh} == {"dig", "pos", "chk", "ner"}


def test_payloads_are_a_function_of_the_seed():
    from payloads import Distinct, LightPayloads

    a = LightPayloads(Distinct()).stream(300, seed=5, dup_frac=0.25)
    b = LightPayloads(Distinct()).stream(300, seed=5, dup_frac=0.25)
    assert [it.key for it in a] == [it.key for it in b]
