"""Sender-side SACK scoreboard.

Tracks every unacknowledged data packet, folds in feedback reports
(cumulative ack + SACK blocks) and derives:

* newly acknowledged packets (for reliability bookkeeping and RTT),
* newly *lost* packets via the dup-SACK rule — a packet is presumed
  lost once ``dupack_threshold`` (3) packets sent after it have been
  selectively acknowledged,
* retransmission candidates, filtered by the reliability policy.

The scoreboard is shared by the QTPAF/QTPlight sender and the SACK
variant of the TCP baseline.

Hot-path invariants (one feedback report per ACK; ``TcpSender`` asks
for :meth:`SenderScoreboard.pipe` once per window-fill iteration):

* **Ordered views, kept incrementally.** Besides the seq -> record
  dict, the scoreboard keeps ``_seqs`` (every outstanding seq, sorted)
  and ``_sacked`` (the SACKed subset, sorted).  A fresh send appends;
  only a re-registration below the highest outstanding seq (TCP's
  go-back-N) pays an ``insort``.  The ``_unsacked`` and ``_pipe``
  counters (and ``_n_pending``, for ``retx_pending``) change wherever a
  record's flag flips or a record enters or leaves, so
  :meth:`~SenderScoreboard.pipe` and :attr:`~SenderScoreboard.in_flight`
  are O(1), and :meth:`~SenderScoreboard.retransmission_candidates`
  (asked once per send tick) is O(1) while nothing awaits repair.
* **Per-ACK cost.** The cumulative sweep is a ``bisect`` plus a slice
  delete, O(newly acked).  A SACK block costs two ``bisect`` pairs when
  it covers nothing new, else O(seqs it spans).  Loss detection scans
  only outstanding seqs in ``(cum_ack, t)``, where ``t`` is the
  ``dupack_threshold``-th highest SACKed seq: no first transmission at
  or above ``t`` has enough SACKs above it, and neither has a
  retransmission whose guard is at or above its own seq.  The rare
  retransmission guarded *below* its seq (TCP re-entering recovery
  after a go-back-N rewind) is tracked in ``_low_guard``; while one
  exists the scan covers the whole window.  No report sorts anything.
* **Same answers.** Digests list the same records in the same order as
  the dict-scanning formulation this replaced (cumulative part in seq
  order, then each block in seq order; losses in seq order).
  ``tests/test_scoreboard_differential.py`` drives both with random
  operation sequences; :meth:`~SenderScoreboard.check_invariants`
  re-derives every incremental view from the dict.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.sim.packet import AppDataHeader

#: SACKed-above count promoting a hole to a loss (mirrors TCP's dupthresh).
DUPSACK_THRESHOLD = 3


@dataclass(slots=True)
class SentRecord:
    """Book-keeping for one transmitted data packet."""

    seq: int
    size: int
    send_time: float
    app: Optional[AppDataHeader] = None
    retx_count: int = 0
    sacked: bool = False
    lost: bool = False
    retx_pending: bool = False
    first_send_time: float = field(default=-1.0)
    #: after a retransmission, SACK coverage must reach this sequence
    #: number before the packet may be declared lost again (guards
    #: against re-judging a fresh retransmission on stale evidence)
    retx_guard: int = -1

    def __post_init__(self) -> None:
        if self.first_send_time < 0:
            self.first_send_time = self.send_time


@dataclass
class FeedbackDigest:
    """What one feedback report taught the scoreboard."""

    newly_acked: List[SentRecord]
    newly_lost: List[SentRecord]
    cum_ack: int


class SenderScoreboard:
    """Outstanding-packet state machine driven by SACK feedback."""

    def __init__(self, dupack_threshold: int = DUPSACK_THRESHOLD):
        if dupack_threshold < 1:
            raise ValueError("dupack threshold must be >= 1")
        self.dupack_threshold = dupack_threshold
        self._outstanding: Dict[int, SentRecord] = {}
        self._seqs: List[int] = []  # outstanding seqs, ascending
        self._sacked: List[int] = []  # SACKed outstanding seqs, ascending
        self._unsacked = 0  # outstanding and not SACKed
        self._pipe = 0  # outstanding, not SACKed and not presumed lost
        self._n_pending = 0  # outstanding and awaiting retransmission
        # seqs whose record was retransmitted with retx_guard < seq
        self._low_guard: Set[int] = set()
        self._cum_ack_checked = -1  # cum_ack at the last check_invariants
        self.cum_ack = -1
        self.high_sacked = -1
        self.total_sent = 0
        self.total_acked = 0
        self.total_lost = 0
        self.total_retx = 0

    # ------------------------------------------------------------------
    def on_send(
        self,
        seq: int,
        size: int,
        now: float,
        app: Optional[AppDataHeader] = None,
    ) -> SentRecord:
        """Register a (first) transmission."""
        record = SentRecord(seq, size, now, app)
        outstanding = self._outstanding
        seqs = self._seqs
        if not seqs or seq > seqs[-1]:
            seqs.append(seq)
        else:
            old = outstanding.get(seq)
            if old is None:
                insort(seqs, seq)
            else:  # go-back-N re-registration replaces the live record
                self._forget(old)
        outstanding[seq] = record
        self._unsacked += 1
        self._pipe += 1
        self.total_sent += 1
        return record

    def on_retransmit(
        self, seq: int, now: float, highest_sent: Optional[int] = None
    ) -> Optional[SentRecord]:
        """Register a retransmission of an outstanding packet.

        ``highest_sent`` is the highest sequence number transmitted so
        far (the sender's ``next_seq - 1``); the packet will only be
        re-declared lost on SACK evidence *above* it, i.e. from packets
        sent after this retransmission (RFC 6675's rescue semantics).
        """
        record = self._outstanding.get(seq)
        if record is None:
            return None
        record.retx_count += 1
        record.send_time = now
        if record.lost and not record.sacked:
            self._pipe += 1
        if record.retx_pending:
            self._n_pending -= 1
        record.lost = False  # back in flight; a later report re-judges it
        record.retx_pending = False
        if highest_sent is None:
            highest_sent = self._seqs[-1]
        record.retx_guard = highest_sent
        if highest_sent < seq:
            self._low_guard.add(seq)
        else:
            self._low_guard.discard(seq)
        self.total_retx += 1
        return record

    def abandon(self, seq: int) -> Optional[SentRecord]:
        """Drop a packet from tracking (partial-reliability give-up)."""
        record = self._outstanding.pop(seq, None)
        if record is not None:
            seqs = self._seqs
            del seqs[bisect_left(seqs, seq)]
            self._forget(record)
        return record

    def _forget(self, record: SentRecord) -> None:
        """Take a departing record out of the sacked list and counters.

        The caller owns the dict entry and ``_seqs``.
        """
        seq = record.seq
        if record.retx_pending:
            self._n_pending -= 1
        if record.sacked:
            sacked = self._sacked
            del sacked[bisect_left(sacked, seq)]
        else:
            self._unsacked -= 1
            if not record.lost:
                self._pipe -= 1
        if self._low_guard:
            self._low_guard.discard(seq)

    # ------------------------------------------------------------------
    def on_feedback(
        self,
        cum_ack: int,
        blocks: Sequence[Tuple[int, int]],
        now: float,
    ) -> FeedbackDigest:
        """Fold in one report; returns newly acked / newly lost records.

        ``blocks`` are half-open ``[start, end)`` ranges.  Reports are
        cumulative, so a stale (reordered) report is harmless: an older
        ``cum_ack`` simply acknowledges nothing new.
        """
        newly_acked: List[SentRecord] = []
        if cum_ack > self.cum_ack:
            self.cum_ack = cum_ack
        cum_ack = self.cum_ack
        outstanding = self._outstanding
        seqs = self._seqs
        sacked = self._sacked
        unsacked = self._unsacked
        pipe = self._pipe
        cut = bisect_right(seqs, cum_ack)
        if cut:
            pop = outstanding.pop
            for seq in seqs[:cut]:
                record = pop(seq)
                if record.retx_pending:
                    self._n_pending -= 1
                if not record.sacked:  # SACKed ones were counted when SACKed
                    newly_acked.append(record)
                    unsacked -= 1
                    if not record.lost:
                        pipe -= 1
            del seqs[:cut]
            if sacked and sacked[0] <= cum_ack:
                del sacked[: bisect_right(sacked, cum_ack)]
            if self._low_guard:
                self._low_guard = {s for s in self._low_guard if s > cum_ack}
        for start, end in blocks:
            if end > self.high_sacked:
                self.high_sacked = end - 1
            lo = bisect_left(seqs, start)
            hi = bisect_left(seqs, end, lo)
            if lo == hi:
                continue
            s_lo = bisect_left(sacked, start)
            s_hi = bisect_left(sacked, end, s_lo)
            if s_hi - s_lo == hi - lo:
                continue  # every outstanding seq in the block is SACKed
            covered = seqs[lo:hi]
            for seq in covered:
                record = outstanding[seq]
                if not record.sacked:
                    record.sacked = True
                    newly_acked.append(record)
                    unsacked -= 1
                    if not record.lost:
                        pipe -= 1
            # SACKed is a subset of outstanding: after this block every
            # outstanding seq in [start, end) is SACKed
            sacked[s_lo:s_hi] = covered
        self.total_acked += len(newly_acked)
        self._unsacked = unsacked
        self._pipe = pipe
        newly_lost = self._detect_losses()
        return FeedbackDigest(newly_acked, newly_lost, cum_ack)

    def _detect_losses(self) -> List[SentRecord]:
        """Dup-SACK rule: a hole with >= threshold SACKed packets above it.

        A retransmitted packet is only re-declared lost once SACK
        coverage has advanced past its ``retx_guard`` — i.e. on evidence
        that arrived *after* the retransmission.

        Runs right after the cumulative sweep, so every outstanding seq
        is above ``cum_ack``.  Only seqs below the threshold-th highest
        SACK can qualify (see the module docstring), unless a
        retransmission is guarded below its own seq.
        """
        newly_lost: List[SentRecord] = []
        sacked = self._sacked
        n_sacked = len(sacked)
        threshold = self.dupack_threshold
        if self.high_sacked < 0 or n_sacked < threshold:
            return newly_lost
        seqs = self._seqs
        if self._low_guard:
            stop = len(seqs)
        else:
            stop = bisect_left(seqs, sacked[n_sacked - threshold])
        outstanding = self._outstanding
        pipe = self._pipe
        for seq in seqs[:stop]:
            record = outstanding[seq]
            if record.sacked or record.lost or record.retx_pending:
                continue
            # evidence threshold: for first transmissions, SACKs above the
            # packet itself; for retransmissions, SACKs above the highest
            # sequence that had been sent when the retransmission went out
            evidence_floor = seq if record.retx_count == 0 else record.retx_guard
            if n_sacked - bisect_right(sacked, evidence_floor) >= threshold:
                record.lost = True
                record.retx_pending = True
                newly_lost.append(record)
                pipe -= 1
        self._pipe = pipe
        self._n_pending += len(newly_lost)
        self.total_lost += len(newly_lost)
        return newly_lost

    def mark_outstanding_lost(self) -> int:
        """Presume every unSACKed outstanding packet lost (RTO recovery).

        Go-back-N retransmission re-registers those sequence numbers via
        :meth:`on_send`, putting them back into the pipe.  Returns the
        number of records marked.
        """
        marked = 0
        for record in self._outstanding.values():
            if not record.sacked and not record.lost:
                record.lost = True
                record.retx_pending = False
                marked += 1
        self._pipe -= marked
        return marked

    def pipe(self) -> int:
        """RFC 6675-style in-flight estimate.

        Counts outstanding packets that are neither SACKed nor presumed
        lost; a retransmission puts its packet back into the pipe
        (``lost`` is cleared by :meth:`on_retransmit`).  O(1).
        """
        return self._pipe

    # ------------------------------------------------------------------
    def retransmission_candidates(self) -> List[SentRecord]:
        """Packets marked lost and awaiting retransmission, in seq order."""
        if not self._n_pending:
            return []
        outstanding = self._outstanding
        return [
            record
            for record in map(outstanding.__getitem__, self._seqs)
            if record.retx_pending
        ]

    def forward_point(self, default: int) -> int:
        """The PR-SCTP forward-ack point advertised to the receiver.

        Everything below it is cumulatively acked, SACKed (delivered) or
        abandoned — i.e. the receiver will never see a retransmission of
        a hole below this sequence number.  ``default`` is the sender's
        next fresh sequence number (used when nothing is outstanding).
        """
        if self._unsacked:
            # the first outstanding seq that is not SACKed
            for seq, sacked in zip(self._seqs, self._sacked):
                if seq != sacked:
                    return seq
            return self._seqs[len(self._sacked)]
        return default

    def prune_delivered(self, floor: int) -> int:
        """Drop SACKed records below ``floor``; returns how many.

        Without this, compositions that abandon losses (reliability NONE
        or partial) would keep delivered records forever, because the
        receiver's cumulative ack cannot cross the abandoned holes until
        it learns the forward point.
        """
        sacked = self._sacked
        cut = bisect_left(sacked, floor)
        if not cut:
            return 0
        outstanding = self._outstanding
        low_guard = self._low_guard
        for seq in sacked[:cut]:
            if outstanding.pop(seq).retx_pending:
                self._n_pending -= 1
            if low_guard:
                low_guard.discard(seq)
        seqs = self._seqs
        if seqs[cut - 1] == sacked[cut - 1]:
            # the common case (floor is the forward point): the stale
            # records are exactly the lowest outstanding seqs
            del seqs[:cut]
        else:
            self._seqs = [seq for seq in seqs if seq in outstanding]
        del sacked[:cut]
        return cut

    def record_for(self, seq: int) -> Optional[SentRecord]:
        """Look up an outstanding packet's record."""
        return self._outstanding.get(seq)

    @property
    def in_flight(self) -> int:
        """Packets sent but neither cumulatively nor selectively acked."""
        return self._unsacked

    @property
    def outstanding(self) -> int:
        """All tracked (not yet cumulatively acked / abandoned) packets."""
        return len(self._outstanding)

    def oldest_unacked(self) -> Optional[SentRecord]:
        """The outstanding record with the smallest sequence number."""
        if not self._seqs:
            return None
        return self._outstanding[self._seqs[0]]

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Re-derive every incremental view from the dict; raise on drift.

        A checking aid for tests and debugging — the hot path never
        calls it.  Raises :class:`AssertionError` naming every broken
        invariant.
        """
        records = self._outstanding
        problems = []
        if self._seqs != sorted(records):
            problems.append("outstanding seq list does not match the records")
        sacked = sorted(seq for seq, rec in records.items() if rec.sacked)
        if self._sacked != sacked:
            problems.append("SACKed seq list does not match the records")
        if not set(self._sacked) <= records.keys():
            problems.append("a SACKed seq is not outstanding")
        unsacked = sum(1 for rec in records.values() if not rec.sacked)
        if self._unsacked != unsacked:
            problems.append(f"unsacked counter {self._unsacked} != {unsacked}")
        pipe = sum(
            1 for rec in records.values() if not rec.sacked and not rec.lost
        )
        if self._pipe != pipe:
            problems.append(f"pipe counter {self._pipe} != {pipe}")
        pending = sum(1 for rec in records.values() if rec.retx_pending)
        if self._n_pending != pending:
            problems.append(f"pending counter {self._n_pending} != {pending}")
        low_guard = {
            seq
            for seq, rec in records.items()
            if rec.retx_count and rec.retx_guard < seq
        }
        if self._low_guard != low_guard:
            problems.append("low-guard set does not match the records")
        if any(rec.seq != seq for seq, rec in records.items()):
            problems.append("a record is filed under another seq")
        if self.cum_ack < self._cum_ack_checked:
            problems.append(
                f"cum_ack went back from {self._cum_ack_checked} to {self.cum_ack}"
            )
        if problems:
            raise AssertionError("scoreboard invariant broken: " + "; ".join(problems))
        self._cum_ack_checked = self.cum_ack
