"""Request buffering: per-bank read queues and per-channel write buffers.

Besides the queues themselves, this module maintains the incremental
counters STFM's slowdown estimation needs every DRAM cycle:

* ``waiting_bank_count(thread)`` — the number of banks (across all
  channels) in which the thread has at least one waiting *read* request;
  this is the paper's ``BankWaitingParallelism`` register (Table 1).

Only reads are counted because only reads stall the core and therefore
contribute to memory stall time; writebacks drain from a separate buffer
and never appear on a core's critical path.
"""

from __future__ import annotations

from repro.controller.request import MemoryRequest


class ChannelQueues:
    """Read/write queues of one channel.

    Args:
        num_banks: Banks on the channel (one read queue each).
        read_capacity: Request-buffer entries for reads (128 baseline).
        write_capacity: Write data-buffer entries (32 baseline).
    """

    __slots__ = (
        "bank_queues",
        "write_queue",
        "read_capacity",
        "write_capacity",
        "read_count",
    )

    def __init__(self, num_banks: int, read_capacity: int, write_capacity: int):
        self.bank_queues: list[list[MemoryRequest]] = [[] for _ in range(num_banks)]
        self.write_queue: list[MemoryRequest] = []
        self.read_capacity = read_capacity
        self.write_capacity = write_capacity
        self.read_count = 0

    @property
    def write_count(self) -> int:
        return len(self.write_queue)

    def reads_full(self) -> bool:
        return self.read_count >= self.read_capacity

    def writes_full(self) -> bool:
        return len(self.write_queue) >= self.write_capacity


class RequestQueues:
    """All channel queues plus the thread-level waiting-bank counters."""

    def __init__(
        self,
        num_channels: int,
        num_banks: int,
        num_threads: int,
        read_capacity: int = 128,
        write_capacity: int = 32,
    ) -> None:
        self.num_channels = num_channels
        self.num_banks = num_banks
        self.num_threads = num_threads
        self.channels = [
            ChannelQueues(num_banks, read_capacity, write_capacity)
            for _ in range(num_channels)
        ]
        # waiting[thread][global_bank] -> number of waiting reads.
        total_banks = num_channels * num_banks
        self._waiting = [[0] * total_banks for _ in range(num_threads)]
        self._waiting_banks = [0] * num_threads
        # Total queued reads per thread (any channel), for the "has at
        # least one ready request" test of STFM's unfairness computation.
        self._queued_reads = [0] * num_threads

    def global_bank(self, channel: int, bank: int) -> int:
        return channel * self.num_banks + bank

    def enqueue_read(self, request: MemoryRequest) -> bool:
        """Queue a demand read; returns False if the buffer is full."""
        coords = request.coords
        queues = self.channels[coords.channel]
        if queues.reads_full():
            return False
        queues.bank_queues[coords.bank].append(request)
        queues.read_count += 1
        thread = request.thread_id
        gbank = self.global_bank(coords.channel, coords.bank)
        counts = self._waiting[thread]
        if counts[gbank] == 0:
            self._waiting_banks[thread] += 1
        counts[gbank] += 1
        self._queued_reads[thread] += 1
        return True

    def enqueue_write(self, request: MemoryRequest) -> bool:
        """Queue a writeback; returns False if the write buffer is full."""
        queues = self.channels[request.coords.channel]
        if queues.writes_full():
            return False
        queues.write_queue.append(request)
        return True

    def remove_read(self, request: MemoryRequest) -> None:
        """Remove a read at service time (its column command issued)."""
        coords = request.coords
        queues = self.channels[coords.channel]
        queues.bank_queues[coords.bank].remove(request)
        queues.read_count -= 1
        thread = request.thread_id
        gbank = self.global_bank(coords.channel, coords.bank)
        counts = self._waiting[thread]
        counts[gbank] -= 1
        if counts[gbank] == 0:
            self._waiting_banks[thread] -= 1
        self._queued_reads[thread] -= 1

    def remove_write(self, request: MemoryRequest) -> None:
        self.channels[request.coords.channel].write_queue.remove(request)

    def waiting_bank_count(self, thread_id: int) -> int:
        """``BankWaitingParallelism``: banks with a waiting read."""
        return self._waiting_banks[thread_id]

    def queued_reads(self, thread_id: int) -> int:
        return self._queued_reads[thread_id]

    @property
    def queued_read_counts(self) -> list[int]:
        """Queued reads per thread — the live list, read-only to callers
        (STFM's per-cycle decision scans it without copying)."""
        return self._queued_reads

    def threads_with_reads(self) -> list[int]:
        """Threads that currently have at least one queued read."""
        return [t for t in range(self.num_threads) if self._queued_reads[t]]

    def total_reads(self) -> int:
        return sum(queues.read_count for queues in self.channels)

    def total_writes(self) -> int:
        return sum(queues.write_count for queues in self.channels)
