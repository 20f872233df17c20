"""DRAM main-memory model with row-buffer state per bank.

This is the Ramulator-inspired DRAM model the paper describes refactoring
into Sniper.  The simulator does not need cycle-accurate command scheduling;
the experiments (Figs. 14 and 21) need *row-buffer hit/miss/conflict*
accounting that distinguishes which request class (application data,
page-table entries, translation metadata, kernel data) caused each conflict,
plus a latency that reflects open-page locality.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.config import DRAMConfig
from repro.common.stats import Counter


class DRAMModel:
    """Main memory organised as channels x ranks x banks with open rows.

    Address mapping interleaves cache lines across channels, then banks, so
    sequential streams spread across banks while a page-table walk's pointer
    chase tends to collide — the behaviour the case studies rely on.
    """

    LINE_SIZE = 64

    def __init__(self, config: DRAMConfig):
        self.config = config
        self.capacity = config.capacity_bytes
        self.num_channels = config.channels
        self.banks_per_channel = config.ranks_per_channel * config.banks_per_rank
        self.row_size = config.row_size_bytes
        self.page_policy = config.page_policy
        self._lines_per_row = self.row_size // self.LINE_SIZE
        #: Only an open-page policy keeps a row open after an access, so
        #: under any other policy every access is a row miss.
        self._open_page = config.page_policy == "open"
        self._row_hit_latency = config.row_hit_latency
        self._row_miss_latency = config.row_miss_latency
        self._row_conflict_latency = config.row_conflict_latency
        #: Row-buffer state per bank, indexed ``channel * banks_per_channel
        #: + bank``: the open row (None when closed) and the request class
        #: that opened it.
        banks = self.num_channels * self.banks_per_channel
        self._open_rows: List[Optional[int]] = [None] * banks
        self._row_owners: List[str] = ["none"] * banks
        self.counters = Counter()
        self._c_row_misses = self.counters.hot("row_misses")
        #: request_type -> hot counter cells (avoids per-access f-string
        #: formatting and dict-update counter adds on the hot path).  The
        #: totals ``accesses``, ``row_hits``, ``row_conflicts`` and each
        #: ``row_conflicts_<type>`` (every conflict a type causes) are sums
        #: of these cells, written when the counters are read.
        self._type_cells: Dict[str, tuple] = {}
        self._victim_cells: Dict[str, list] = {}

    # ------------------------------------------------------------------ #
    # Access path
    # ------------------------------------------------------------------ #
    def access_value(self, address: int, request_type: str = "data") -> int:
        """Perform one DRAM access and return only its latency.

        ``request_type`` tags the request so row-buffer conflicts can be
        attributed (e.g. conflicts *caused by* page-table accesses, the metric
        of Figs. 14 and 21).
        """
        # The address mapping: lines interleave across channels, then banks;
        # the rest of the line number picks the row.
        line = address // self.LINE_SIZE
        channels = self.num_channels
        channel = line % channels
        line //= channels
        banks = self.banks_per_channel
        bank = line % banks
        row = line // banks // self._lines_per_row
        index = channel * banks + bank
        open_row = self._open_rows[index]

        cells = self._type_cells.get(request_type)
        if cells is None:
            counters = self.counters
            cells = self._type_cells[request_type] = (
                counters.hot("accesses_" + request_type, part_of=("accesses",)),
                counters.hot("row_hits_" + request_type, part_of=("row_hits",)),
                counters.hot("row_conflicts_caused_by_" + request_type,
                             part_of=("row_conflicts_" + request_type, "row_conflicts")),
            )
        cells[0][0] += 1

        if open_row is None:
            latency = self._row_miss_latency
            self._c_row_misses[0] += 1
        elif open_row == row:
            latency = self._row_hit_latency
            cells[1][0] += 1
        else:
            latency = self._row_conflict_latency
            # Attribute the conflict to the request class that caused the row
            # to be closed *and* the one whose row was evicted.
            cells[2][0] += 1
            owner = self._row_owners[index]
            victim_cell = self._victim_cells.get(owner)
            if victim_cell is None:
                victim_cell = self._victim_cells[owner] = \
                    self.counters.hot("row_conflicts_victim_" + owner)
            victim_cell[0] += 1

        if self._open_page:
            self._open_rows[index] = row
            self._row_owners[index] = request_type

        return latency

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def translation_row_conflicts(self) -> int:
        """Row-buffer conflicts caused by address-translation metadata accesses.

        Translation metadata covers page-table entries, hash-table buckets,
        range-table nodes and Utopia's RestSeg tag/filter structures — every
        request type the translation layer issues with a ``ptw``/``translation``
        tag.
        """
        total = 0
        for key, value in self.counters.as_dict().items():
            if key.startswith("row_conflicts_caused_by_ptw") or \
               key.startswith("row_conflicts_caused_by_translation"):
                total += value
        return total

    def stats(self) -> Dict[str, int]:
        """Raw counter snapshot."""
        return self.counters.as_dict()
