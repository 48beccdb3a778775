"""Differential test: the incremental scoreboard against its reference model.

``sack_reference.py`` holds the dict-scanning ``SenderScoreboard`` the
incremental one replaced.  Hypothesis drives both with the same random
operation sequences — fresh sends, go-back-N re-registrations, both
retransmission flavours, abandons, prunes, RTO marking and feedback
with stale cumulative acks and overlapping or out-of-window blocks —
and after every operation every observable answer must match, and the
incremental views must pass :meth:`SenderScoreboard.check_invariants`.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sack.scoreboard import SenderScoreboard
from sack_reference import SenderScoreboard as ReferenceScoreboard


def fields(record):
    if record is None:
        return None
    return (
        record.seq, record.size, record.send_time, record.app,
        record.retx_count, record.sacked, record.lost, record.retx_pending,
        record.first_send_time, record.retx_guard,
    )


def digest_fields(digest):
    return (
        [fields(r) for r in digest.newly_acked],
        [fields(r) for r in digest.newly_lost],
        digest.cum_ack,
    )


def observe(sb, next_seq):
    """Every answer the senders can read off a scoreboard."""
    return {
        "totals": (sb.total_sent, sb.total_acked, sb.total_lost, sb.total_retx),
        "cum_ack": sb.cum_ack,
        "high_sacked": sb.high_sacked,
        "pipe": sb.pipe(),
        "in_flight": sb.in_flight,
        "outstanding": sb.outstanding,
        "forward_point": sb.forward_point(next_seq),
        "candidates": [fields(r) for r in sb.retransmission_candidates()],
        "oldest": fields(sb.oldest_unacked()),
        "records": sorted(fields(r) for r in sb._outstanding.values()),
    }


seq_param = st.integers(min_value=-3, max_value=60)
block = st.tuples(seq_param, seq_param).map(
    lambda b: b if b[0] <= b[1] or b[0] % 3 else (b[1], b[0])
)

operation = st.one_of(
    st.tuples(st.just("send_fresh"), st.integers(1, 4)),
    st.tuples(st.just("send_live"), st.integers(0, 10_000)),
    st.tuples(st.just("send_any"), seq_param),
    st.tuples(st.just("retransmit"), st.integers(0, 10_000),
              st.one_of(st.sampled_from(["next", "none"]),
                        st.integers(-12, -1))),
    st.tuples(st.just("retransmit_any"), seq_param),
    st.tuples(st.just("abandon"), st.integers(0, 10_000)),
    st.tuples(st.just("abandon_any"), seq_param),
    st.tuples(st.just("prune"), st.integers(-2, 62)),
    st.tuples(st.just("prune_forward"),),
    st.tuples(st.just("rto"),),
    st.tuples(st.just("feedback"), st.integers(-2, 60),
              st.lists(block, max_size=4)),
    st.tuples(st.just("feedback_window"), st.integers(0, 10_000),
              st.lists(st.tuples(st.integers(0, 8), st.integers(1, 6)),
                       max_size=3)),
)


def live(sb, pick):
    seqs = sorted(sb._outstanding)
    return seqs[pick % len(seqs)] if seqs else pick % 7


def apply(op, sb, ref, state):
    """Run one operation on both boards; return both results."""
    kind = op[0]
    now = state["now"] = state["now"] + 0.01
    if kind == "send_fresh":
        results = []
        for _ in range(op[1]):
            seq = state["next_seq"]
            state["next_seq"] += 1
            results.append((sb.on_send(seq, 1000, now), ref.on_send(seq, 1000, now)))
        return ([fields(a) for a, _ in results], [fields(b) for _, b in results])
    if kind in ("send_live", "send_any"):
        seq = live(ref, op[1]) if kind == "send_live" else op[1]
        state["next_seq"] = max(state["next_seq"], seq + 1)
        return fields(sb.on_send(seq, 500, now)), fields(ref.on_send(seq, 500, now))
    if kind in ("retransmit", "retransmit_any"):
        seq = live(ref, op[1]) if kind == "retransmit" else op[1]
        how = op[2] if kind == "retransmit" else "next"
        # an integer ``how`` guards the retransmission below its own seq
        highest = (seq + how if isinstance(how, int)
                   else {"next": state["next_seq"] - 1, "none": None}[how])
        return (fields(sb.on_retransmit(seq, now, highest_sent=highest)),
                fields(ref.on_retransmit(seq, now, highest_sent=highest)))
    if kind in ("abandon", "abandon_any"):
        seq = live(ref, op[1]) if kind == "abandon" else op[1]
        return fields(sb.abandon(seq)), fields(ref.abandon(seq))
    if kind == "prune":
        return sb.prune_delivered(op[1]), ref.prune_delivered(op[1])
    if kind == "prune_forward":
        floor = ref.forward_point(state["next_seq"])
        return sb.prune_delivered(floor), ref.prune_delivered(floor)
    if kind == "rto":
        return sb.mark_outstanding_lost(), ref.mark_outstanding_lost()
    if kind == "feedback":
        cum, blocks = op[1], op[2]
    else:  # blocks placed above the live window's lowest seq
        base = live(ref, op[1])
        cum = base - 1 - op[1] % 3
        blocks, start = [], base
        for gap, length in op[2]:
            start += gap
            blocks.append((start, start + length))
            start += length
    return (digest_fields(sb.on_feedback(cum, tuple(blocks), now)),
            digest_fields(ref.on_feedback(cum, tuple(blocks), now)))


@pytest.mark.parametrize("dupthresh", [1, 3])
@given(ops=st.lists(operation, max_size=60))
@settings(max_examples=400, deadline=None)
# prune below an unSACKed hole: the stale records are not a prefix
@example(ops=[("send_fresh", 4), ("send_fresh", 2), ("feedback", -1, [(2, 4)]),
              ("prune", 5)])
# a retransmission guarded below its own seq, at or above the scan stop
@example(ops=[("send_fresh", 4), ("send_fresh", 2), ("feedback", -1, [(1, 4)]),
              ("retransmit", 4, -4), ("feedback", -1, [])])
# go-back-N: RTO, then re-register SACKed and lost seqs from the bottom
@example(ops=[("send_fresh", 4), ("send_fresh", 4), ("feedback", 0, [(2, 5)]),
              ("rto",), ("send_live", 0), ("send_live", 1), ("send_live", 2),
              ("feedback", 1, [(2, 7)]), ("retransmit", 0, "next")])
def test_incremental_scoreboard_matches_reference(dupthresh, ops):
    sb = SenderScoreboard(dupthresh)
    ref = ReferenceScoreboard(dupthresh)
    state = {"next_seq": 0, "now": 0.0}
    for step, op in enumerate(ops):
        got, expected = apply(op, sb, ref, state)
        assert got == expected, (step, op)
        assert observe(sb, state["next_seq"]) == observe(ref, state["next_seq"]), (step, op)
        sb.check_invariants()


@given(n=st.integers(1, 80), losses=st.sets(st.integers(0, 79), max_size=20))
@settings(max_examples=100, deadline=None)
def test_sender_like_loss_recovery_matches_reference(n, losses):
    """A sender-shaped run: send, lose some, SACK the rest, repair, abandon."""
    sb, ref = SenderScoreboard(), ReferenceScoreboard()
    for seq in range(n):
        assert fields(sb.on_send(seq, 1000, seq * 0.01)) == fields(
            ref.on_send(seq, 1000, seq * 0.01))
    delivered = [seq for seq in range(n) if seq not in losses]
    for i, seq in enumerate(delivered):
        cum = -1
        while cum + 1 in delivered[: i + 1]:
            cum += 1
        blocks, start = [], None
        for s in delivered[: i + 1]:
            if s <= cum:
                continue
            if start is None or s != prev + 1:
                if start is not None:
                    blocks.append((start, prev + 1))
                start = s
            prev = s
        if start is not None:
            blocks.append((start, prev + 1))
        now = 1.0 + i * 0.01
        got = sb.on_feedback(cum, tuple(blocks[-3:]), now)
        expected = ref.on_feedback(cum, tuple(blocks[-3:]), now)
        assert digest_fields(got) == digest_fields(expected)
        for record in sb.retransmission_candidates():
            if record.seq % 2:
                assert fields(sb.abandon(record.seq)) == fields(ref.abandon(record.seq))
            else:
                assert fields(sb.on_retransmit(record.seq, now, n - 1)) == fields(
                    ref.on_retransmit(record.seq, now, n - 1))
        floor = ref.forward_point(n)
        assert sb.prune_delivered(floor) == ref.prune_delivered(floor)
        assert observe(sb, n) == observe(ref, n)
        sb.check_invariants()


class TestCheckInvariants:
    def board(self):
        sb = SenderScoreboard()
        for seq in range(8):
            sb.on_send(seq, 1000, 0.0)
        sb.on_feedback(0, ((2, 6),), 1.0)
        sb.check_invariants()
        return sb

    def test_detects_counter_drift(self):
        sb = self.board()
        sb._pipe += 1
        with pytest.raises(AssertionError, match="pipe"):
            sb.check_invariants()

    def test_detects_sacked_list_drift(self):
        sb = self.board()
        sb._outstanding[7].sacked = True  # flag flipped behind its back
        with pytest.raises(AssertionError, match="SACKed seq list"):
            sb.check_invariants()

    def test_detects_outstanding_list_drift(self):
        sb = self.board()
        sb._seqs.pop()
        with pytest.raises(AssertionError, match="outstanding seq list"):
            sb.check_invariants()

    def test_detects_cum_ack_regression(self):
        sb = self.board()
        sb.cum_ack -= 1
        with pytest.raises(AssertionError, match="cum_ack went back"):
            sb.check_invariants()
