import itertools

import pytest
from hypothesis import given, settings, strategies as st

from streamfsm.stream import (
    StreamEvent,
    StreamFormatError,
    drive_window,
    format_event,
    generate_stream,
    parse_event,
    read_stream,
)
from streamfsm.stream import _parse_located


def test_parse_add():
    assert parse_event("+ 1 0 2 1 0") == StreamEvent("+", 1, 2, 0, 1, 0)


def test_parse_delete():
    assert parse_event("- 1 2") == StreamEvent("-", 1, 2)


def test_parse_skips_comments_and_blanks():
    assert parse_event("# hello") is None
    assert parse_event("   ") is None


def test_parse_self_loop_rejected():
    with pytest.raises(StreamFormatError):
        parse_event("+ 1 0 1 0 0")


def test_parse_errors_carry_position():
    with pytest.raises(StreamFormatError) as err:
        parse_event("+ 1 0 x 0 0", lineno=7)
    assert err.value.lineno == 7
    assert err.value.col == 7
    for bad in ("+ 1 0 2 1", "- 1", "? 1 2", "+ -1 0 2 0 0"):
        with pytest.raises(StreamFormatError):
            parse_event(bad)


def test_parse_vertex_ids_below_2_pow_64():
    top = 2**64 - 1
    assert parse_event(f"+ {top} 0 2 1 0") == StreamEvent("+", top, 2, 0, 1, 0)
    assert parse_event(f"- 2 {top}") == StreamEvent("-", 2, top)
    for line, col in ((f"+ 1 0 {2**64} 1 0", 7), (f"- {2**64} 3", 3)):
        with pytest.raises(StreamFormatError) as err:
            parse_event(line, lineno=4)
        assert (err.value.lineno, err.value.col) == (4, col)
    # labels are not vertex ids and stay unbounded
    assert parse_event(f"+ 1 {2**64} 2 0 0").label_u == 2**64


def test_split_path_agrees_with_located_path():
    """parse_event's str.split path returns what the token-by-token path
    returns, on a seeded stream and on edge tokens."""
    events = generate_stream(60, 300, 3, 2, model="power-law", delete_fraction=0.3, seed=4)
    lines = [format_event(ev) for ev in events]
    lines += [
        "+ +5 0 2 1 0",
        "+ 1_0 0 2 1 0",
        "+\t1\t0\t2\t1\t0",
        "  -  7\t\t8  \n",
        "- 1 -0",
        f"+ {2**64 - 1} {2**70} 0 0 0",
        "+ 1\x1c0 2\u00a01 0",
    ]
    for line in lines:
        assert parse_event(line) == _parse_located(line, 0)
    assert parse_event("+ +5 0 2 1 0") == StreamEvent("+", 5, 2, 0, 1, 0)
    assert parse_event("+ 1_0 0 2 1 0") == StreamEvent("+", 10, 2, 0, 1, 0)
    assert list(read_stream(lines)) == [parse_event(line) for line in lines]


def test_round_trip():
    lines = ["+ 1 0 2 1 0", "- 1 2", "+ 9 3 4 2 5"]
    for line in lines:
        assert format_event(parse_event(line)) == line


def test_read_stream_skips_comments_and_blanks_in_order():
    lines = ["# c", "+ 1 0 2 0 0", "", "  # indented", "- 1 2", "\t\n", "+ 2 0 3 0 1"]
    assert list(read_stream(lines)) == [
        StreamEvent("+", 1, 2, 0, 0, 0),
        StreamEvent("-", 1, 2),
        StreamEvent("+", 2, 3, 0, 0, 1),
    ]


def _adds(pairs):
    return [StreamEvent("+", a, b, 0, 0, 0) for a, b in pairs]


def test_drive_window_trace():
    out = list(drive_window(_adds([(1, 2), (2, 3), (3, 4)]), 2))
    assert [(ev.op, ev.u, ev.v) for ev in out] == [
        ("+", 1, 2),
        ("+", 2, 3),
        ("-", 1, 2),
        ("+", 3, 4),
    ]


def test_drive_window_yields_the_insertions_given():
    adds = _adds([(1, 2), (2, 3), (3, 4), (4, 5)])
    out = [ev for ev in drive_window(adds, 2) if ev.op == "+"]
    assert len(out) == len(adds)
    assert all(got is given for got, given in zip(out, adds))


def test_drive_window_wide_window_is_identity():
    adds = _adds([(1, 2), (2, 3), (3, 4)])
    out = list(drive_window(adds, 10))
    assert [(ev.op, ev.u, ev.v) for ev in out] == [("+", e.u, e.v) for e in adds]


def test_drive_window_unit_window():
    out = list(drive_window(_adds([(1, 2), (2, 3), (3, 4)]), 1))
    assert [ev.op for ev in out] == ["+", "-", "+", "-", "+"]


def test_drive_window_rejects_deletions():
    with pytest.raises(StreamFormatError):
        list(drive_window([StreamEvent("-", 1, 2)], 2))
    # events carry no line numbers: the error names the event, not a line
    lines = ["# header", "", "+ 1 0 2 0 0", "# note", "- 1 2"]
    with pytest.raises(StreamFormatError) as err:
        list(drive_window(read_stream(lines), 2))
    assert "input event 1 " in str(err.value)
    assert "line" not in str(err.value)
    assert (err.value.lineno, err.value.col) == (0, 0)


@settings(max_examples=40, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=60), st.integers(1, 5))
def test_drive_window_validity(pairs, window):
    adds = _adds([(a, b) for a, b in pairs if a != b])
    live = set()
    count = 0
    for ev in drive_window(adds, window):
        pair = (min(ev.u, ev.v), max(ev.u, ev.v))
        if ev.op == "+":
            live.add(pair)
            count = len(live)
        else:
            assert pair in live  # never deletes an absent edge
            live.discard(pair)
        assert len(live) <= window


def test_generate_stream_deterministic():
    a = generate_stream(30, 60, 2, 2, seed=9, delete_fraction=0.3)
    b = generate_stream(30, 60, 2, 2, seed=9, delete_fraction=0.3)
    assert a == b
    c = generate_stream(30, 60, 2, 2, seed=10, delete_fraction=0.3)
    assert a != c


def test_generate_stream_add_only():
    events = generate_stream(30, 60, 2, 2, seed=3, delete_fraction=0.0)
    assert len(events) == 60
    assert all(ev.op == "+" for ev in events)


def test_generate_stream_complete_graph():
    events = generate_stream(10, 45, 1, 1, seed=0)
    pairs = {(min(e.u, e.v), max(e.u, e.v)) for e in events}
    assert pairs == set(itertools.combinations(range(10), 2))


def test_generate_stream_labels_consistent():
    events = generate_stream(25, 80, 3, 2, seed=5, delete_fraction=0.2)
    seen = {}
    live = set()
    for ev in events:
        pair = (min(ev.u, ev.v), max(ev.u, ev.v))
        if ev.op == "+":
            for v, lab in ((ev.u, ev.label_u), (ev.v, ev.label_v)):
                assert seen.setdefault(v, lab) == lab
            assert pair not in live
            live.add(pair)
        else:
            assert pair in live  # deletions target live edges
            live.discard(pair)


def test_generate_stream_delete_fraction_count():
    events = generate_stream(40, 100, 1, 1, seed=2, delete_fraction=0.25)
    dels = sum(1 for ev in events if ev.op == "-")
    assert dels == 25
    assert len(events) == 125


def test_generate_stream_power_law_models():
    sparse = generate_stream(500, 800, 1, 1, model="power-law", seed=1)
    assert len(sparse) == 800
    dense = generate_stream(40, 500, 1, 1, model="power-law", seed=1)
    pairs = {(min(e.u, e.v), max(e.u, e.v)) for e in dense}
    assert len(pairs) == 500  # distinct edges even near saturation


def test_generate_stream_infeasible():
    with pytest.raises(ValueError):
        generate_stream(5, 100, 1, 1)
    with pytest.raises(ValueError):
        generate_stream(10, 5, 1, 1, model="nope")
    for spelling in ("power_law", "powerlaw"):  # one spelling per model
        with pytest.raises(ValueError):
            generate_stream(10, 5, 1, 1, model=spelling)
