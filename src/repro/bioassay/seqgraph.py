"""Sequencing graphs (Sec. VI-A, Fig. 12).

A bioassay is represented as a sequencing graph: a DAG of microfluidic
operations whose edges carry droplets from producer to consumer.  The graph
is validated structurally (arity, acyclicity, single consumption of each
output droplet) and ordered topologically for the planner and RJ helper.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.bioassay.ops import MO, MOType


@dataclass
class SequencingGraph:
    """A validated bioassay sequencing graph."""

    name: str
    mos: list[MO]

    def __post_init__(self) -> None:
        self._by_name = {mo.name: mo for mo in self.mos}
        if len(self._by_name) != len(self.mos):
            raise ValueError(f"bioassay {self.name!r} has duplicate MO names")
        # Edges are deduplicated: an MO consuming two outputs of one
        # producer depends on it once.  Successors keep consumer list
        # order, predecessors keep ``mo.pre`` order.
        self._pred: dict[str, list[str]] = {}
        self._succ: dict[str, list[str]] = {mo.name: [] for mo in self.mos}
        for mo in self.mos:
            preds = list(dict.fromkeys(mo.pre))
            for pred in preds:
                if pred not in self._by_name:
                    raise ValueError(
                        f"MO {mo.name!r} references unknown predecessor {pred!r}"
                    )
                self._succ[pred].append(mo.name)
            self._pred[mo.name] = preds
        self._order = self._topological_order()
        self._check_consumption()

    def _check_consumption(self) -> None:
        """Each producer output droplet feeds at most one consumer."""
        consumed: dict[tuple[str, int], str] = {}
        for mo in self.mos:
            slots = mo.pre_output if mo.pre_output else (0,) * len(mo.pre)
            for pred, slot in zip(mo.pre, slots):
                producer = self._by_name[pred]
                if slot >= producer.n_outputs:
                    raise ValueError(
                        f"MO {mo.name!r} consumes output {slot} of {pred!r}, "
                        f"which has only {producer.n_outputs} outputs"
                    )
                key = (pred, slot)
                if key in consumed:
                    raise ValueError(
                        f"output {slot} of {pred!r} consumed by both "
                        f"{consumed[key]!r} and {mo.name!r}"
                    )
                consumed[key] = mo.name

    # -- queries ------------------------------------------------------------

    def mo(self, name: str) -> MO:
        return self._by_name[name]

    def _topological_order(self) -> list[str]:
        """Kahn's algorithm, taking the smallest list index among ready MOs."""
        index = {mo.name: i for i, mo in enumerate(self.mos)}
        missing = {name: len(preds) for name, preds in self._pred.items()}
        ready = [index[name] for name, n in missing.items() if n == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            name = self.mos[heapq.heappop(ready)].name
            order.append(name)
            for succ in self._succ[name]:
                missing[succ] -= 1
                if missing[succ] == 0:
                    heapq.heappush(ready, index[succ])
        if len(order) != len(self.mos):
            raise ValueError(f"bioassay {self.name!r} has a dependency cycle")
        return order

    def topological(self) -> list[MO]:
        """MOs in a dependency-respecting order (stable by list position)."""
        return [self._by_name[n] for n in self._order]

    def successors(self, name: str) -> list[MO]:
        return [self._by_name[n] for n in self._succ[name]]

    def predecessors(self, name: str) -> list[MO]:
        return [self._by_name[n] for n in self._pred[name]]

    @property
    def depth(self) -> int:
        """Length of the longest dependency chain (in MOs)."""
        chain: dict[str, int] = {}
        for name in self._order:
            chain[name] = 1 + max(
                (chain[p] for p in self._pred[name]), default=0
            )
        return max(chain.values(), default=1)

    def count(self, mo_type: MOType) -> int:
        """Number of MOs of a given type."""
        return sum(1 for mo in self.mos if mo.type is mo_type)

    def with_placement(self, placed: dict[str, tuple[tuple[float, float], ...]]) -> "SequencingGraph":
        """A copy with planner-assigned locations applied."""
        new_mos = []
        for mo in self.mos:
            if mo.name in placed:
                new_mos.append(mo.with_locs(placed[mo.name]))
            else:
                new_mos.append(mo)
        return SequencingGraph(name=self.name, mos=new_mos)

    def is_placed(self) -> bool:
        return all(mo.placed for mo in self.mos)

    def __len__(self) -> int:
        return len(self.mos)
