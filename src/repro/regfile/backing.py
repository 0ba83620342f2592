"""Backing register file behind a register cache (paper §2.2).

All produced values are written into the backing file; it guarantees no
value is lost when the cache evicts. Because the cache filters nearly all
reads, a single read port (shared with a write port) suffices; the paper
exploits the resulting 3x port reduction to make the backing file one
cycle faster than an equal-capacity monolithic file.
"""

from __future__ import annotations


class BackingFile:
    """Backing file with a single arbitrated read port.

    Args:
        num_registers: capacity (matches the physical register count).
        read_latency: read latency in cycles (2 in the paper's default).
        write_latency: write latency (defaults to the read latency).
        read_ports: simultaneous reads per cycle (1 per the paper).
    """

    def __init__(
        self,
        num_registers: int = 512,
        read_latency: int = 2,
        write_latency: int | None = None,
        read_ports: int = 1,
    ) -> None:
        if read_latency < 1:
            raise ValueError("read_latency must be >= 1")
        if read_ports < 1:
            raise ValueError("read_ports must be >= 1")
        self.num_registers = num_registers
        self.read_latency = read_latency
        self.write_latency = (
            read_latency if write_latency is None else write_latency
        )
        self.read_ports = read_ports
        self.reads = 0
        self.writes = 0
        # Cycle -> reads already scheduled that cycle (port arbitration).
        self._port_schedule: dict[int, int] = {}

    def record_write(self, count: int = 1) -> None:
        """Account for *count* result writes (every produced value)."""
        self.writes += count

    def schedule_read(self, earliest: int, value_written_at: int) -> int:
        """Schedule a miss-fill read; returns the cycle data is available.

        The read may not start before *earliest* (miss detection) nor
        before the value has finished writing into the backing file
        (paper §5.2 notes both delays), and must win a read port.

        Args:
            earliest: first cycle the requester could start the read.
            value_written_at: cycle the producer's backing-file write
                completes.

        Returns:
            Cycle at which the value is available to the requester.
        """
        start = max(earliest, value_written_at)
        while self._port_schedule.get(start, 0) >= self.read_ports:
            start += 1
        self._port_schedule[start] = self._port_schedule.get(start, 0) + 1
        # Garbage-collect old slots occasionally to bound memory. Only
        # cycles before *earliest* can go: requests never ask for an
        # earlier cycle again (the pipeline's earliest is now + 1), but
        # a later booking may still land on any cycle from it on.
        if len(self._port_schedule) > 4096:
            self._port_schedule = {
                cycle: count
                for cycle, count in self._port_schedule.items()
                if cycle >= earliest
            }
        self.reads += 1
        return start + self.read_latency
