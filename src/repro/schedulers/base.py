"""Scheduling-policy interface.

The controller performs the mechanical two-level selection of Section 2.3
(per-bank best command, then a channel winner); a policy supplies the
priority order and receives hooks on the events it needs for its internal
state (enqueue, command issue, request completion).

Priorities are expressed as sortable tuples where *larger compares
higher*; the default :meth:`SchedulingPolicy.select` simply takes the
maximum over all ready candidates of a channel, which realizes both
scheduler levels at once (the per-bank maximum is a sub-problem of the
channel-wide maximum under a single total order).  Policies that need
per-bank state (e.g. NFQ's priority-inversion prevention) may override
:meth:`select`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.dram.commands import CommandCandidate

if TYPE_CHECKING:
    from repro.controller.controller import MemoryController, ScanInfo
    from repro.controller.request import MemoryRequest


class SchedulingPolicy:
    """Base class for DRAM command prioritization policies."""

    name = "base"

    #: Whether :meth:`on_command_issued` reads the ScanInfo side products
    #: (waiting/ready thread sets, oldest row-access arrivals).  The
    #: cached-scan (event) kernel only materializes the ScanInfo for
    #: policies that need it — others receive an empty shell carrying
    #: just the channel index.  The conservative default is True;
    #: policies that ignore the scan (or read only ``scan.channel``)
    #: override to False to skip a per-issue queue walk.  The naive
    #: kernel always builds the full ScanInfo, so a wrong True costs
    #: speed, never correctness.
    needs_scan = True

    def __init__(self) -> None:
        self.controller: "MemoryController | None" = None

    def bind(self, controller: "MemoryController") -> None:
        """Attach the policy to a controller (called once at setup)."""
        self.controller = controller

    # -- per-cycle hooks -------------------------------------------------
    def begin_cycle(self, now: int) -> None:
        """Called once per DRAM cycle before any channel is scheduled."""

    def select(
        self,
        channel_index: int,
        per_bank: dict[int, list[CommandCandidate]],
        now: int,
    ) -> CommandCandidate | None:
        """Pick the command to issue on a channel this cycle.

        Implements the paper's two-level scheduler (Section 2.3): the
        per-bank level selects the highest-priority bank-ready command of
        each bank; the across-bank level picks the highest-priority
        *channel-ready* winner.  A bank whose winner is waiting for the
        data bus issues nothing — it does not fall back to a
        lower-priority command, so a stream of row hits keeps its bank
        reserved.

        Args:
            channel_index: Which channel is being scheduled.
            per_bank: Bank-ready candidates, keyed by bank index.
                Candidates with ``channel_ready`` False satisfy only the
                bank-level constraints this cycle.
            now: Current CPU cycle.
        """
        best: CommandCandidate | None = None
        best_key = None
        for candidates in per_bank.values():
            winner: CommandCandidate | None = None
            winner_key = None
            for candidate in candidates:
                key = self.priority_key(candidate, now)
                if winner is None or key > winner_key:
                    winner = candidate
                    winner_key = key
            if winner is None or not winner.channel_ready:
                continue
            if best is None or winner_key > best_key:
                best = winner
                best_key = winner_key
        return best

    def priority_key(self, candidate: CommandCandidate, now: int):
        """Sortable priority of a candidate; larger wins."""
        raise NotImplementedError

    # -- event hooks -----------------------------------------------------
    def on_enqueue(self, request: "MemoryRequest", now: int) -> None:
        """A request entered the request buffer."""

    def on_command_issued(
        self, candidate: CommandCandidate, scan: "ScanInfo", now: int
    ) -> None:
        """A DRAM command was issued (after bank/bus state was updated)."""

    def on_request_completed(self, request: "MemoryRequest", now: int) -> None:
        """A request's column command issued; it left the request buffer."""


def fairness_rule_select(
    per_bank: dict[int, list[CommandCandidate]],
    favored: "int | None",
    sampled: "int | None" = None,
) -> CommandCandidate | None:
    """:meth:`SchedulingPolicy.select` for the fairness rule's key order.

    The key of a candidate is ``(thread == sampled, thread == favored,
    is_column, -arrival)`` — STFM's fairness rule (Section 3.2.1) with
    an optional measurement thread above it (MISE-STFM).  The three
    flags pack into one integer class ``4*sampled + 2*favored +
    is_column``, so each comparison is an integer test plus an arrival
    tie-break instead of a tuple built per candidate.  The result is
    the same object the tuple-keyed select returns: a strictly greater
    key replaces the incumbent, so the first-seen candidate wins equal
    keys at both levels.  Pass None for a flag nobody holds.
    """
    best: CommandCandidate | None = None
    best_class = -1
    best_arrival = 0
    for candidates in per_bank.values():
        winner: CommandCandidate | None = None
        winner_class = -1
        winner_arrival = 0
        for candidate in candidates:
            thread = candidate.thread_id
            cls = 1 if candidate.is_column else 0
            if thread == favored:
                cls += 2
            if thread == sampled:
                cls += 4
            if cls > winner_class or (
                cls == winner_class and candidate.arrival < winner_arrival
            ):
                winner = candidate
                winner_class = cls
                winner_arrival = candidate.arrival
        if winner is None or not winner.channel_ready:
            continue
        if winner_class > best_class or (
            winner_class == best_class and winner_arrival < best_arrival
        ):
            best = winner
            best_class = winner_class
            best_arrival = winner_arrival
    return best


def oldest(candidates: Iterable[CommandCandidate]) -> CommandCandidate | None:
    """Utility: the earliest-arrival candidate (FCFS tie-break helper)."""
    best = None
    for candidate in candidates:
        if best is None or candidate.arrival < best.arrival:
            best = candidate
    return best
