"""QK processing unit: 8 rows × 16 bit-wise PE lanes with BS-OOE.

Each PE row owns one query; its 16 lanes stripe the key sequence
(token ``j`` → lane ``j mod 16``).  The unit's timing emerges from the
per-lane simulation of :mod:`repro.sim.pe` — rows run in parallel, a row
finishes when its slowest lane finishes (inter-PE imbalance), and the whole
QK phase finishes with its slowest row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.quant.bitplane import BitPlanes
from repro.sim.pe import LaneStats, lane_task_costs, simulate_lane
from repro.sim.tech import DEFAULT_TECH, TechConfig

__all__ = ["QKPUResult", "simulate_qkpu"]


@dataclass
class QKPUResult:
    """Aggregate timing/energy of the QK phase for one query block."""

    cycles: float
    lane_stats: List[LaneStats] = field(default_factory=list)
    compute_energy_pj: float = 0.0
    scoreboard_energy_pj: float = 0.0
    decision_energy_pj: float = 0.0
    bit_plane_loads: int = 0

    @property
    def utilization(self) -> float:
        """Mean fraction of lane time spent computing (Fig. 23a 'Useful')."""
        if not self.lane_stats or self.cycles <= 0:
            return 1.0
        return float(np.mean([s.busy_cycles for s in self.lane_stats])) / self.cycles

    @property
    def useful_fraction(self) -> float:
        if not self.lane_stats or self.cycles <= 0:
            return 1.0
        return float(np.sum([s.ideal_cycles for s in self.lane_stats])) / (
            self.cycles * len(self.lane_stats)
        )

    @property
    def intra_pe_stall_fraction(self) -> float:
        if not self.lane_stats or self.cycles <= 0:
            return 0.0
        return float(np.sum([s.intra_pe_stall for s in self.lane_stats])) / (
            self.cycles * len(self.lane_stats)
        )

    @property
    def inter_pe_stall_fraction(self) -> float:
        """Everything that is neither useful nor intra-PE: idle tails,
        memory stalls, and cross-lane imbalance."""
        return max(0.0, 1.0 - self.useful_fraction - self.intra_pe_stall_fraction)

    @property
    def energy_pj(self) -> float:
        return self.compute_energy_pj + self.scoreboard_energy_pj + self.decision_energy_pj


def simulate_qkpu(
    planes_processed: np.ndarray,
    key_planes: BitPlanes,
    tech: TechConfig = DEFAULT_TECH,
    lanes_per_row: Optional[int] = None,
    scoreboard_entries: Optional[int] = None,
    bidirectional: bool = True,
    out_of_order: bool = True,
    dram_latency_cycles: Optional[float] = None,
    effective_bit_ops: Optional[int] = None,
) -> QKPUResult:
    """Simulate the QK phase for a block of query rows.

    Parameters
    ----------
    planes_processed:
        ``(P, S)`` array from the functional BSF run: how many planes each
        (query, token) pair consumed before pruning/retention.
    key_planes:
        Bit planes of the key matrix (shared across query rows).
    bidirectional / out_of_order:
        Ablation switches for BS and OOE.
    dram_latency_cycles:
        Override for the per-plane fetch latency (defaults to a row-hit
        dominated round trip: burst transfer + controller overhead; misses
        are costed separately by the DRAM model at the accelerator level).
    effective_bit_ops:
        Total guarded additions (for compute energy); recomputed from plane
        popcounts when omitted.
    """
    planes_processed = np.atleast_2d(np.asarray(planes_processed, dtype=np.int64))
    num_rows, num_tokens = planes_processed.shape
    lanes = lanes_per_row or tech.lanes_per_row
    entries = scoreboard_entries or tech.scoreboard_entries
    if dram_latency_cycles is None:
        # Row-hit burst: transfer + fixed controller/queue overhead.
        dram_latency_cycles = 8.0

    costs = lane_task_costs(
        key_planes.planes,
        subgroup=tech.gsat_subgroup,
        muxes=max(1, tech.gsat_subgroup // 2),
        bidirectional=bidirectional,
    )  # (bits, S)

    lane_stats: List[LaneStats] = []
    row_finishes: List[float] = []
    for row in range(num_rows):
        row_lane_stats: List[LaneStats] = []
        for lane in range(lanes):
            token_ids = np.arange(lane, num_tokens, lanes)
            work = []
            for token in token_ids:
                np_planes = int(planes_processed[row, token])
                if np_planes > 0:
                    work.append((int(token), costs[:np_planes, token]))
            row_lane_stats.append(
                simulate_lane(
                    work,
                    dram_latency=dram_latency_cycles,
                    scoreboard_entries=entries,
                    out_of_order=out_of_order,
                )
            )
        row_finish = max((s.finish_cycle for s in row_lane_stats), default=0.0)
        # Lanes idle from their own finish to the row finish (inter-PE tail).
        row_finishes.append(row_finish)
        lane_stats.extend(row_lane_stats)

    cycles = max(row_finishes, default=0.0)

    # Energy accounting.
    if effective_bit_ops is None:
        # approximate: every token contributes its processed planes once per row
        pc = key_planes.popcounts.astype(np.int64)  # (bits, S)
        eff = np.minimum(pc, key_planes.value_shape[1] - pc) if bidirectional else pc
        total_eff = 0
        for row in range(num_rows):
            for token in range(num_tokens):
                total_eff += int(eff[: planes_processed[row, token], token].sum())
        effective_bit_ops = total_eff
    total_tasks = int(planes_processed.sum())
    compute = effective_bit_ops * tech.bit_serial_add_pj + total_tasks * tech.shift_pj
    scoreboard = total_tasks * 2 * tech.scoreboard_access_pj  # read + update
    decision = total_tasks * (tech.comparator_pj + tech.register_pj)

    return QKPUResult(
        cycles=float(cycles),
        lane_stats=lane_stats,
        compute_energy_pj=float(compute),
        scoreboard_energy_pj=float(scoreboard),
        decision_energy_pj=float(decision),
        bit_plane_loads=total_tasks,
    )
