"""Natural-loop detection and the loop-nest forest.

A back edge is an edge U -> V where V dominates U; the natural loop of the
back edge is V plus every node that can reach U without passing through V.
Loops sharing a header are merged. Nesting is containment of block sets;
the paper's "loop nest" is a maximal (top-level) loop together with all the
loops it contains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.cfg.dominators import DominatorTree, compute_dominators
from repro.cfg.graph import ControlFlowGraph
from repro.errors import AnalysisError

__all__ = ["Loop", "LoopForest", "find_loops"]


@dataclass
class Loop:
    """One natural loop.

    Attributes:
        header: the loop header block (the target of its back edges).
        blocks: all blocks in the loop, header included.
        back_edges: the (latch, header) edges that define the loop.
        parent: the innermost loop strictly containing this one, or None.
        children: loops immediately nested inside this one.
    """

    header: str
    blocks: FrozenSet[str]
    back_edges: Tuple[Tuple[str, str], ...]
    parent: Optional["Loop"] = None
    children: List["Loop"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        """Nesting depth: 1 for a top-level loop."""
        depth, loop = 1, self.parent
        while loop is not None:
            depth += 1
            loop = loop.parent
        return depth

    @property
    def is_top_level(self) -> bool:
        return self.parent is None

    def contains(self, other: "Loop") -> bool:
        """Whether ``other`` is strictly nested inside this loop."""
        return other is not self and other.blocks < self.blocks

    def exits(self, cfg: ControlFlowGraph) -> List[Tuple[str, str]]:
        """Edges leaving the loop: (inside block, outside successor)."""
        out = []
        for block in sorted(self.blocks):
            for succ in cfg.succs[block]:
                if succ not in self.blocks:
                    out.append((block, succ))
        return out

    def __repr__(self) -> str:
        return f"Loop(header={self.header!r}, blocks={len(self.blocks)}, depth={self.depth})"


class LoopForest:
    """All loops of a CFG, organized by nesting."""

    def __init__(self, loops: List[Loop], cfg: ControlFlowGraph) -> None:
        self.loops = loops
        self.cfg = cfg
        self._by_header = {loop.header: loop for loop in loops}
        # Innermost loop containing each block.
        self._innermost: Dict[str, Loop] = {}
        for loop in sorted(loops, key=lambda lp: len(lp.blocks), reverse=True):
            for block in loop.blocks:
                self._innermost[block] = loop

    def by_header(self, header: str) -> Loop:
        try:
            return self._by_header[header]
        except KeyError:
            raise AnalysisError(f"no loop with header {header!r}") from None

    def top_level(self) -> List[Loop]:
        """Top-level loops (the paper's loop nests), in header order."""
        return [loop for loop in self.loops if loop.is_top_level]

    def innermost_containing(self, block: str) -> Optional[Loop]:
        """The innermost loop containing ``block``, or None."""
        return self._innermost.get(block)

    def top_level_containing(self, block: str) -> Optional[Loop]:
        """The top-level nest containing ``block``, or None."""
        loop = self._innermost.get(block)
        while loop is not None and loop.parent is not None:
            loop = loop.parent
        return loop

    def is_header(self, block: str) -> bool:
        return block in self._by_header

    def __len__(self) -> int:
        return len(self.loops)

    def __iter__(self):
        return iter(self.loops)


def find_loops(cfg: ControlFlowGraph, domtree: Optional[DominatorTree] = None) -> LoopForest:
    """Find all natural loops in ``cfg`` and organize them into a forest.

    Raises :class:`AnalysisError` for irreducible control flow (a cycle
    whose entry does not dominate its other nodes) because the region
    construction -- like the paper's compiler pass -- assumes reducibility.
    """
    if domtree is None:
        domtree = compute_dominators(cfg)

    back_edges: Dict[str, List[str]] = {}
    forward_edges: List[Tuple[str, str]] = []
    for src, dst in cfg.edges():
        if domtree.dominates(dst, src):
            back_edges.setdefault(dst, []).append(src)
        else:
            forward_edges.append((src, dst))

    # Reducibility check: the CFG with all (dominator-based) back edges
    # removed must be acyclic; a remaining cycle means irreducible control
    # flow, which the region construction -- like the paper's compiler
    # pass -- does not support.
    cycle_edge = _find_cycle_edge(cfg.nodes, forward_edges)
    if cycle_edge is not None:
        src, dst = cycle_edge
        raise AnalysisError(
            f"irreducible control flow: edge {src!r} -> {dst!r} closes a "
            f"cycle but {dst!r} does not dominate {src!r}"
        )

    loops: List[Loop] = []
    for header in sorted(back_edges):
        latches = back_edges[header]
        blocks: Set[str] = {header}
        stack = []
        for latch in latches:
            if latch not in blocks:
                blocks.add(latch)
            stack.append(latch)
        while stack:
            node = stack.pop()
            if node == header:
                continue
            for pred in cfg.preds[node]:
                if pred not in blocks:
                    blocks.add(pred)
                    stack.append(pred)
        loops.append(
            Loop(
                header=header,
                blocks=frozenset(blocks),
                back_edges=tuple((latch, header) for latch in sorted(latches)),
            )
        )

    # Establish nesting: parent = smallest strictly-containing loop.
    for loop in loops:
        candidates = [other for other in loops if other.contains(loop)]
        if candidates:
            loop.parent = min(candidates, key=lambda lp: len(lp.blocks))
            loop.parent.children.append(loop)

    return LoopForest(loops, cfg)


def _find_cycle_edge(
    nodes: List[str], edges: List[Tuple[str, str]]
) -> Optional[Tuple[str, str]]:
    """Return an edge participating in a cycle of the given graph, or None.

    Iterative three-color DFS; a gray -> gray edge closes a cycle.
    """
    succs: Dict[str, List[str]] = {n: [] for n in nodes}
    for src, dst in edges:
        succs[src].append(dst)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in nodes}
    for root in nodes:
        if color[root] != WHITE:
            continue
        stack: List[Tuple[str, int]] = [(root, 0)]
        color[root] = GRAY
        while stack:
            node, idx = stack[-1]
            if idx < len(succs[node]):
                stack[-1] = (node, idx + 1)
                succ = succs[node][idx]
                if color[succ] == GRAY:
                    return (node, succ)
                if color[succ] == WHITE:
                    color[succ] = GRAY
                    stack.append((succ, 0))
            else:
                color[node] = BLACK
                stack.pop()
    return None
