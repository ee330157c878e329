"""STFM's register file (Table 1 of the paper).

Per hardware thread the scheduler maintains:

* ``Tshared`` — cycles the thread could not commit instructions due to an
  L2 miss, supplied by the core.  Stored here as an *offset* against the
  core's monotonically increasing stall counter so that the register can
  be reset every ``IntervalLength`` cycles, as the hardware does to adapt
  to phase behaviour (Section 5.1).
* ``Tinterference`` — extra stall cycles attributed to other threads,
  computed in the memory controller (Section 3.2.2).
* ``LastRowAddress`` — per thread per bank, the last row the thread
  accessed; used to decide what the row-buffer outcome *would have been*
  had the thread run alone.
* ``Weight`` — the system-software-assigned thread weight (Section 3.3).

``BankWaitingParallelism`` and ``BankAccessParallelism`` are maintained
incrementally by the request queues and the controller respectively and
are read through them rather than duplicated here.
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: Saturation value for the slowdown estimate.  The hardware stores
#: slowdowns in 8-bit fixed point (Table 1); we saturate rather than wrap.
SLOWDOWN_CAP = 128.0


@dataclass
class ThreadRegisters:
    """Registers of a single hardware thread."""

    weight: float = 1.0
    tshared_offset: int = 0
    t_interference: float = 0.0
    #: global bank id -> last row this thread accessed there.
    last_row: dict[int, int] = field(default_factory=dict)

    def reset(self, current_stall_cycles: int) -> None:
        """Interval reset: zero the slowdown-estimation state."""
        self.tshared_offset = current_stall_cycles
        self.t_interference = 0.0
        self.last_row.clear()


class StfmRegisters:
    """The full register file plus the slowdown computation.

    Args:
        num_threads: Hardware threads tracked.
        interval_length: Cycles between register resets (``2**24``
            baseline; Section 6.3 notes fairness degrades below ``2**18``).
        weights: Optional per-thread weights (Section 3.3); default 1.
    """

    def __init__(
        self,
        num_threads: int,
        interval_length: int = 1 << 24,
        weights: list[float] | None = None,
    ) -> None:
        if weights is None:
            weights = [1.0] * num_threads
        if len(weights) != num_threads:
            raise ValueError("need one weight per thread")
        if any(weight < 0 for weight in weights):
            raise ValueError("weights must be non-negative")
        self.num_threads = num_threads
        self.interval_length = interval_length
        self.threads = [ThreadRegisters(weight=w) for w in weights]
        self.interval_counter = 0
        self.resets = 0

    def advance_interval(self, cycles: int, stall_counters: list[int]) -> bool:
        """Advance the interval counter; reset registers when it expires.

        Args:
            cycles: CPU cycles since the previous call.
            stall_counters: Current cumulative stall counters of the cores
                (used to rebase the ``Tshared`` offsets).

        Returns:
            True when a reset occurred this call.
        """
        self.interval_counter += cycles
        if self.interval_counter < self.interval_length:
            return False
        self.interval_counter = 0
        self.resets += 1
        for thread, stalls in zip(self.threads, stall_counters):
            thread.reset(stalls)
        return True

    def context_switch(self, thread_id: int, stall_counter: int) -> None:
        """Reset one hardware thread's registers at a context switch.

        Table 1: per-thread registers are reset at every context switch
        (the new software thread must not inherit the old one's slowdown
        history).  ``stall_counter`` is the core's cumulative stall
        counter at the switch, used to rebase ``Tshared``.
        """
        self.threads[thread_id].reset(stall_counter)

    def set_weight(self, thread_id: int, weight: float) -> None:
        """System-software update of a thread's weight (Section 3.3)."""
        if weight < 0:
            raise ValueError("weights must be non-negative")
        self.threads[thread_id].weight = weight

    def tshared(self, thread_id: int, stall_counter: int) -> int:
        """``Tshared``: stall cycles accumulated in the current interval."""
        return stall_counter - self.threads[thread_id].tshared_offset

    def slowdown(self, thread_id: int, stall_counter: int) -> float:
        """Raw memory slowdown ``S = Tshared / (Tshared - Tinterference)``.

        ``Talone`` is estimated as ``Tshared - Tinterference``
        (Section 3.2.2).  Saturates at :data:`SLOWDOWN_CAP`; a thread with
        no stall time yet has slowdown 1 (it cannot have been slowed).
        Negative interference (constructive sharing, footnote 10) can make
        the slowdown dip below 1.
        """
        shared = self.tshared(thread_id, stall_counter)
        if shared <= 0:
            return 1.0
        alone = shared - self.threads[thread_id].t_interference
        if alone <= shared / SLOWDOWN_CAP:
            return SLOWDOWN_CAP
        return shared / alone

    def weighted_slowdown(self, thread_id: int, stall_counter: int) -> float:
        """Weight-scaled slowdown ``S' = 1 + (S - 1) * Weight``.

        Threads with higher weights are interpreted as more slowed down
        and thus prioritized earlier (Section 3.3).
        """
        raw = self.slowdown(thread_id, stall_counter)
        return 1.0 + (raw - 1.0) * self.threads[thread_id].weight

    def weighted_extremes(
        self, stall_counters: list[int], queued_reads: list[int]
    ) -> "tuple[int, float, int | None, float]":
        """One pass over the threads with queued reads (STFM's decision).

        Returns ``(active, s_max, t_max, s_min)``: how many threads have
        ``queued_reads[t] > 0``, and the maximum (with its thread) and
        minimum of their :meth:`weighted_slowdown`.  Equal to ``max()``
        and ``min()`` over ``(weighted_slowdown(t), t)`` pairs — a tie
        on ``s_max`` goes to the largest thread id — but with the
        slowdown arithmetic inlined, since the controller runs it every
        DRAM cycle.  :meth:`slowdown` and :meth:`weighted_slowdown`
        remain the specification; the inlined expressions must stay
        operation-for-operation identical so the floats match bit for
        bit.  With no active thread ``t_max`` is None and the slowdowns
        read 0.
        """
        active = 0
        s_max = s_min = 0.0
        t_max = None
        for thread_id, thread in enumerate(self.threads):
            if not queued_reads[thread_id]:
                continue
            shared = stall_counters[thread_id] - thread.tshared_offset
            if shared <= 0:
                raw = 1.0
            else:
                alone = shared - thread.t_interference
                if alone <= shared / SLOWDOWN_CAP:
                    raw = SLOWDOWN_CAP
                else:
                    raw = shared / alone
            weighted = 1.0 + (raw - 1.0) * thread.weight
            if not active:
                s_max = s_min = weighted
                t_max = thread_id
            else:
                if weighted >= s_max:
                    s_max = weighted
                    t_max = thread_id
                if weighted < s_min:
                    s_min = weighted
            active += 1
        return active, s_max, t_max, s_min

    def add_interference(self, thread_id: int, cycles: float) -> None:
        self.threads[thread_id].t_interference += cycles

    def last_row(self, thread_id: int, global_bank: int) -> int | None:
        return self.threads[thread_id].last_row.get(global_bank)

    def record_row(self, thread_id: int, global_bank: int, row: int) -> None:
        self.threads[thread_id].last_row[global_bank] = row
