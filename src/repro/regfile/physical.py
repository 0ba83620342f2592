"""Monolithic physical register file model.

In the no-cache baseline the register file supplies every operand not
covered by the bypass network, at a multi-cycle read latency. The timing
consequences (longer issue-to-execute depth, longer misprediction and
replay loops, and the dead window between the end of the bypass network
and value availability in the file) are applied by the pipeline; this
class carries the latency parameters and bandwidth accounting.
"""

from __future__ import annotations


class PhysicalRegisterFile:
    """A monolithic multi-cycle register file.

    Args:
        num_registers: capacity (512 per Table 1).
        read_latency: cycles for a read (3 in the paper's baseline).
        write_latency: cycles for a write (equal to read in the paper).
        bypass_stages: stages of the bypass network in front of it (2).
    """

    def __init__(
        self,
        num_registers: int = 512,
        read_latency: int = 3,
        write_latency: int | None = None,
        bypass_stages: int = 2,
    ) -> None:
        if read_latency < 1:
            raise ValueError("read_latency must be >= 1")
        self.num_registers = num_registers
        self.read_latency = read_latency
        self.write_latency = (
            read_latency if write_latency is None else write_latency
        )
        self.bypass_stages = bypass_stages
        self.reads = 0
        self.writes = 0

    def record_read(self, operands: int = 1) -> None:
        """Account for operand reads served by the file."""
        self.reads += operands

    def record_write(self, count: int = 1) -> None:
        """Account for *count* result writes into the file."""
        self.writes += count

    def storage_ready_time(self, producer_complete: int) -> int:
        """Earliest cycle a consumer may issue to read a value from storage.

        Assuming read-during-write forwarding inside the array, a
        consumer's R-cycle read returns the value as long as the read
        *completes* no earlier than the write completes: with issue at
        ``t`` the read spans ``[t+1, t+R]``, and the write completes at
        ``producer_complete + W``, giving ``t >= complete + W - R``.
        """
        return producer_complete + self.write_latency - self.read_latency
