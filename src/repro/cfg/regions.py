"""The region-level state machine (Section 4.1 of the paper).

Construction, following the paper exactly:

1. Start from the basic-block CFG.
2. For each top-level loop nest, merge all its blocks into a single
   *loop-region* node, dropping intra-nest edges and nest-to-itself edges.
3. Eliminate every remaining basic-block node by connecting the sources of
   its incoming edges directly to its successors.
4. Merge parallel edges (same source and destination) into one.

The resulting graph has loop regions as states and *inter-loop regions* as
edges. Code before the first loop and after the last loop is modelled with
virtual ``ENTRY``/``EXIT`` states so those stretches are inter-loop regions
too (EDDIE must monitor them: the paper's shellcode bursts are injected
there).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.cfg.dominators import compute_dominators
from repro.cfg.graph import ControlFlowGraph
from repro.cfg.loops import Loop, LoopForest, find_loops
from repro.errors import AnalysisError
from repro.programs.ir import Program

__all__ = [
    "ENTRY",
    "EXIT",
    "LoopRegion",
    "InterLoopRegion",
    "RegionMachine",
    "build_region_machine",
]

ENTRY = "ENTRY"
EXIT = "EXIT"


@dataclass(frozen=True)
class LoopRegion:
    """A state of the region machine: one top-level loop nest."""

    name: str
    header: str
    blocks: FrozenSet[str]

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class InterLoopRegion:
    """An edge of the region machine: code between two loop nests.

    ``src``/``dst`` name loop regions, or ``ENTRY``/``EXIT``. ``blocks``
    are the non-loop basic blocks that executions traversing this edge may
    pass through.
    """

    name: str
    src: str
    dst: str
    blocks: FrozenSet[str]

    def __str__(self) -> str:
        return self.name


class RegionMachine:
    """Region-level state machine of one program.

    Regions of both kinds are monitored entities in EDDIE: each gets a
    reference STS set during training. ``successors(region)`` yields the
    regions execution may move to next, which is what Algorithm 1 consults
    when a K-S test rejects the current region.
    """

    def __init__(
        self,
        program_name: str,
        loop_regions: List[LoopRegion],
        inter_regions: List[InterLoopRegion],
    ) -> None:
        self.program_name = program_name
        self.loop_regions: Dict[str, LoopRegion] = {r.name: r for r in loop_regions}
        self.inter_regions: Dict[str, InterLoopRegion] = {r.name: r for r in inter_regions}
        overlap = set(self.loop_regions) & set(self.inter_regions)
        if overlap:
            raise AnalysisError(f"region name collision: {sorted(overlap)}")
        self._block_to_loop_region: Dict[str, str] = {}
        for region in loop_regions:
            for block in region.blocks:
                self._block_to_loop_region[block] = region.name
        self._succ: Dict[str, List[str]] = {name: [] for name in self.region_names()}
        for inter in inter_regions:
            if inter.src != ENTRY:
                self._succ[inter.src].append(inter.name)
            if inter.dst != EXIT:
                self._succ[inter.name].append(inter.dst)

    # -- queries -------------------------------------------------------------

    def region_names(self) -> List[str]:
        """All region names (loop regions first, then inter-loop regions)."""
        return list(self.loop_regions) + list(self.inter_regions)

    def region_of_block(self, block: str) -> Optional[str]:
        """The loop region containing ``block``, or None for non-loop blocks."""
        return self._block_to_loop_region.get(block)

    def inter_region_between(self, src: str, dst: str) -> Optional[str]:
        """Name of the inter-loop region from ``src`` to ``dst``, if any."""
        name = _inter_name(src, dst)
        return name if name in self.inter_regions else None

    def successors(self, region: str) -> List[str]:
        """Regions that may legally execute immediately after ``region``."""
        if region not in self._succ:
            raise AnalysisError(f"unknown region {region!r}")
        return list(self._succ[region])

    def initial_regions(self) -> List[str]:
        """Regions in which an execution may begin."""
        starts = [
            name
            for name, inter in self.inter_regions.items()
            if inter.src == ENTRY
        ]
        return starts or list(self.loop_regions)[:1]

    def __len__(self) -> int:
        return len(self.loop_regions) + len(self.inter_regions)

    def __repr__(self) -> str:
        return (
            f"RegionMachine({self.program_name!r}, loops={len(self.loop_regions)}, "
            f"inter={len(self.inter_regions)})"
        )


def _inter_name(src: str, dst: str) -> str:
    return f"inter:{src}->{dst}"


def _loop_name(header: str) -> str:
    return f"loop:{header}"


def build_region_machine(
    program: Program,
    cfg: Optional[ControlFlowGraph] = None,
    forest: Optional[LoopForest] = None,
) -> RegionMachine:
    """Build the region-level state machine of ``program``.

    Follows the paper's merge-then-eliminate construction (see module
    docstring). Programs with no loops at all yield a single inter-loop
    region ``inter:ENTRY->EXIT`` covering the whole execution.
    """
    if cfg is None:
        cfg = ControlFlowGraph.from_program(program)
    if forest is None:
        forest = find_loops(cfg, compute_dominators(cfg))

    nests: List[Loop] = forest.top_level()
    block_to_nest: Dict[str, str] = {}
    loop_regions: List[LoopRegion] = []
    for nest in nests:
        name = _loop_name(nest.header)
        loop_regions.append(LoopRegion(name=name, header=nest.header, blocks=nest.blocks))
        for block in nest.blocks:
            block_to_nest[block] = name

    if not nests:
        inter = InterLoopRegion(
            name=_inter_name(ENTRY, EXIT),
            src=ENTRY,
            dst=EXIT,
            blocks=frozenset(cfg.nodes),
        )
        return RegionMachine(program.name, [], [inter])

    # Step 2: collapse nests. Work on a node set of loop-region names plus
    # remaining plain blocks, with ENTRY/EXIT virtual endpoints.
    def node_of(block: str) -> str:
        return block_to_nest.get(block, block)

    plain_blocks = [b for b in cfg.nodes if b not in block_to_nest]

    edges: Set[Tuple[str, str]] = set()
    for src, dst in cfg.edges():
        a, b = node_of(src), node_of(dst)
        if a == b and a.startswith("loop:"):
            continue  # intra-nest or nest-to-itself edge
        edges.add((a, b))
    # Virtual endpoints.
    edges.add((ENTRY, node_of(program.entry)))
    for block in cfg.nodes:
        blk = program.block(block)
        if not blk.successors():  # Halt
            edges.add((node_of(block), EXIT))

    # Step 3: eliminate plain blocks by splicing predecessors to successors.
    # Track, per spliced edge, the set of plain blocks the path runs through.
    # Represent current edges with their traversed-block sets.
    edge_blocks: Dict[Tuple[str, str], Set[str]] = {e: set() for e in edges}
    for block in plain_blocks:
        incoming = [(s, d) for (s, d) in edge_blocks if d == block]
        outgoing = [(s, d) for (s, d) in edge_blocks if s == block]
        for (si, _) in incoming:
            for (_, do) in outgoing:
                if si == block and do == block:
                    continue
                key = (si, do)
                through = edge_blocks[(si, block)] | edge_blocks[(block, do)] | {block}
                if key in edge_blocks:
                    edge_blocks[key] |= through
                else:
                    edge_blocks[key] = set(through)
        for e in incoming + outgoing:
            edge_blocks.pop(e, None)
        # Self-edges on the eliminated block (cycles through plain blocks
        # only) cannot occur in reducible graphs once loops are collapsed.
        edge_blocks.pop((block, block), None)

    inter_regions: List[InterLoopRegion] = []
    for (src, dst), through in sorted(edge_blocks.items()):
        if src == dst:
            continue
        inter_regions.append(
            InterLoopRegion(
                name=_inter_name(src, dst),
                src=src,
                dst=dst,
                blocks=frozenset(through),
            )
        )

    return RegionMachine(program.name, loop_regions, inter_regions)
