"""The STFM decision's fast paths against their specifications.

* :func:`repro.schedulers.base.fairness_rule_select` (STFM's and
  MISE-STFM's ``select``) must return the very candidate the generic
  tuple-keyed :meth:`SchedulingPolicy.select` picks via ``priority_key``.
* :meth:`StfmRegisters.weighted_extremes` (the one-pass decision) must
  agree bit for bit with ``max()``/``min()`` over
  :meth:`StfmRegisters.weighted_slowdown`.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.mise import MiseStfmPolicy
from repro.core.registers import SLOWDOWN_CAP, StfmRegisters
from repro.core.stfm import StfmPolicy
from repro.dram.commands import CommandCandidate, CommandKind
from repro.schedulers.base import SchedulingPolicy

THREADS = 4


class _Request:
    def __init__(self, thread_id: int, arrival: int) -> None:
        self.thread_id = thread_id
        self.arrival = arrival


# Few distinct arrivals, so equal keys (first-seen-wins) are common.
candidate_fields = st.tuples(
    st.integers(0, THREADS - 1),  # thread
    st.sampled_from(
        [CommandKind.PRECHARGE, CommandKind.ACTIVATE, CommandKind.READ]
    ),
    st.integers(0, 4),  # arrival
    st.booleans(),  # channel_ready
)
per_bank_fields = st.dictionaries(
    st.integers(0, 7), st.lists(candidate_fields, min_size=1, max_size=6),
    max_size=8,
)


def build_per_bank(fields) -> dict[int, list[CommandCandidate]]:
    return {
        bank: [
            CommandCandidate(
                kind, _Request(thread, arrival), bank, 1, channel_ready=ready
            )
            for thread, kind, arrival, ready in candidates
        ]
        for bank, candidates in fields.items()
    }


class TestFairnessRuleSelect:
    @settings(max_examples=300, deadline=None)
    @given(
        fields=per_bank_fields,
        fairness_mode=st.booleans(),
        favored=st.one_of(st.none(), st.integers(0, THREADS - 1)),
    )
    def test_stfm_select_matches_priority_key(
        self, fields, fairness_mode, favored
    ):
        policy = StfmPolicy(THREADS)
        policy.fairness_mode = fairness_mode
        policy.max_slowdown_thread = favored
        per_bank = build_per_bank(fields)
        expected = SchedulingPolicy.select(policy, 0, per_bank, 0)
        assert policy.select(0, per_bank, 0) is expected

    @settings(max_examples=300, deadline=None)
    @given(
        fields=per_bank_fields,
        fairness_mode=st.booleans(),
        favored=st.one_of(st.none(), st.integers(0, THREADS - 1)),
        sampled=st.integers(0, THREADS - 1),
    )
    def test_mise_select_matches_priority_key(
        self, fields, fairness_mode, favored, sampled
    ):
        policy = MiseStfmPolicy(THREADS)
        policy.fairness_mode = fairness_mode
        policy.max_slowdown_thread = favored
        policy.estimator.sampled_thread = sampled
        per_bank = build_per_bank(fields)
        expected = SchedulingPolicy.select(policy, 0, per_bank, 0)
        assert policy.select(0, per_bank, 0) is expected

    def test_first_seen_wins_equal_keys(self):
        policy = StfmPolicy(THREADS)
        per_bank = build_per_bank(
            {
                3: [(0, CommandKind.READ, 2, True), (1, CommandKind.READ, 2, True)],
                1: [(2, CommandKind.READ, 2, True)],
            }
        )
        first = per_bank[3][0]
        assert policy.select(0, per_bank, 0) is first
        assert SchedulingPolicy.select(policy, 0, per_bank, 0) is first

    def test_bank_winner_waiting_for_bus_blocks_its_bank(self):
        """A bank whose best command is not channel-ready issues nothing,
        even if a lower-priority command of that bank is ready."""
        policy = StfmPolicy(THREADS)
        policy.fairness_mode = True
        policy.max_slowdown_thread = 0
        per_bank = build_per_bank(
            {
                0: [
                    (0, CommandKind.READ, 3, False),
                    (1, CommandKind.ACTIVATE, 0, True),
                ],
            }
        )
        assert policy.select(0, per_bank, 0) is None


def reference_extremes(registers, counters, queued):
    """STFM's decision as specified: ``max``/``min`` over
    ``(weighted_slowdown, thread)`` pairs of threads with queued reads."""
    active = [t for t in range(registers.num_threads) if queued[t]]
    pairs = [(registers.weighted_slowdown(t, counters[t]), t) for t in active]
    if not pairs:
        return 0, None
    s_max, t_max = max(pairs)
    s_min, _ = min(pairs)
    return len(active), (s_max, t_max, s_min)


def one_pass(registers, counters, queued):
    active, s_max, t_max, s_min = registers.weighted_extremes(counters, queued)
    if not active:
        assert t_max is None
        return 0, None
    return active, (s_max, t_max, s_min)


def assert_pinned(registers, counters, queued):
    got = one_pass(registers, counters, queued)
    assert got == reference_extremes(registers, counters, queued)
    return got


class TestWeightedExtremes:
    def test_no_stall_time_reads_unit_slowdown(self):
        registers = StfmRegisters(3)
        registers.threads[1].tshared_offset = 50  # shared < 0
        registers.add_interference(2, 10.0)  # shared == 0
        active, (s_max, t_max, s_min) = assert_pinned(
            registers, [0, 40, 0], [1, 1, 1]
        )
        assert (active, s_max, t_max, s_min) == (3, 1.0, 2, 1.0)

    def test_saturation_at_cap(self):
        registers = StfmRegisters(2, weights=[1.0, 2.0])
        registers.add_interference(0, 1000.0)  # alone <= shared / cap
        registers.add_interference(1, 999.0)
        _, (s_max, t_max, s_min) = assert_pinned(
            registers, [1000, 1000], [1, 1]
        )
        assert s_min == SLOWDOWN_CAP
        assert (s_max, t_max) == (1.0 + (SLOWDOWN_CAP - 1.0) * 2.0, 1)

    def test_negative_interference_dips_below_one(self):
        registers = StfmRegisters(2)
        registers.add_interference(0, -250.0)
        _, (s_max, t_max, s_min) = assert_pinned(
            registers, [1000, 1000], [3, 1]
        )
        assert (s_max, t_max) == (1.0, 1)
        assert s_min == 1000 / 1250

    def test_tie_on_smax_goes_to_largest_thread(self):
        registers = StfmRegisters(4)
        for thread in (0, 2):
            registers.add_interference(thread, 500.0)
        _, (s_max, t_max, _) = assert_pinned(
            registers, [1000] * 4, [1, 1, 1, 1]
        )
        assert (s_max, t_max) == (2.0, 2)

    def test_only_threads_with_queued_reads(self):
        registers = StfmRegisters(3)
        registers.add_interference(2, 900.0)  # slowed, but no reads
        assert assert_pinned(registers, [1000] * 3, [0, 0, 0]) == (0, None)
        active, (s_max, t_max, s_min) = assert_pinned(
            registers, [1000] * 3, [0, 2, 0]
        )
        assert (active, s_max, t_max, s_min) == (1, 1.0, 1, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        threads=st.lists(
            st.tuples(
                st.integers(0, 3000),  # stall counter
                st.integers(0, 3000),  # tshared offset
                # Few distinct values so ties and the cap both occur.
                st.sampled_from([-400.0, 0.0, 125.5, 500.0, 999.0, 5000.0]),
                st.sampled_from([0.0, 0.5, 1.0, 3.0]),  # weight
                st.integers(0, 2),  # queued reads
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_matches_weighted_slowdown(self, threads):
        registers = StfmRegisters(
            len(threads), weights=[weight for _, _, _, weight, _ in threads]
        )
        for thread_id, (_, offset, interference, _, _) in enumerate(threads):
            registers.threads[thread_id].tshared_offset = offset
            registers.add_interference(thread_id, interference)
        counters = [counter for counter, *_ in threads]
        queued = [reads for *_, reads in threads]
        assert_pinned(registers, counters, queued)
