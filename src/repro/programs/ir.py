"""A miniature program IR with explicit control flow.

The IR captures exactly what the EDDIE pipeline needs from a program:

- instruction *classes* with register dependencies (for the pipeline timing
  model in :mod:`repro.arch`),
- memory reference *patterns* (for the cache model),
- basic blocks and terminators forming a CFG (for the region analysis in
  :mod:`repro.cfg`),
- parametric branch probabilities and loop trip counts (so that different
  "inputs" produce different executions, as the paper's 25/50 training runs
  with different inputs do).

Programs are static: executing one is the job of :mod:`repro.arch.simulator`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import AnalysisError, ConfigurationError

__all__ = [
    "OpClass",
    "MemRef",
    "Instr",
    "Jump",
    "Branch",
    "LoopBack",
    "Halt",
    "Terminator",
    "BasicBlock",
    "Program",
    "ParamSpec",
    "instruction_helpers",
]


class OpClass(enum.Enum):
    """Instruction classes distinguished by the timing and power models."""

    IADD = "iadd"
    IMUL = "imul"
    IDIV = "idiv"
    FADD = "fadd"
    FMUL = "fmul"
    FDIV = "fdiv"
    LOGIC = "logic"
    SHIFT = "shift"
    CMP = "cmp"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    CALL = "call"
    RET = "ret"
    SYSCALL = "syscall"
    NOP = "nop"

    # Members are singletons, so identity hashing agrees with equality;
    # it runs in C, where Enum's default hashes the name in Python -- and
    # the simulator's kernels look an OpClass up once per instruction.
    __hash__ = object.__hash__

    @property
    def is_memory(self) -> bool:
        return self in (OpClass.LOAD, OpClass.STORE)

    @property
    def is_control(self) -> bool:
        return self in (OpClass.BRANCH, OpClass.CALL, OpClass.RET, OpClass.SYSCALL)


@dataclass(frozen=True)
class MemRef:
    """Description of the address stream touched by a memory instruction.

    Attributes:
        stream: name of the logical data structure being walked; accesses in
            the same stream share locality state in the cache model.
        footprint: total bytes the stream touches over the loop's lifetime.
        stride: bytes between consecutive accesses (``pattern='seq'``).
        pattern: ``'seq'`` for strided walks, ``'rand'`` for uniform random
            accesses within the footprint.
    """

    stream: str
    footprint: int = 4096
    stride: int = 4
    pattern: str = "seq"

    def __post_init__(self) -> None:
        if self.pattern not in ("seq", "rand"):
            raise ConfigurationError(f"unknown access pattern {self.pattern!r}")
        if self.footprint <= 0 or self.stride <= 0:
            raise ConfigurationError(
                f"footprint and stride must be positive "
                f"(got {self.footprint}, {self.stride})"
            )


@dataclass(frozen=True)
class Instr:
    """One static instruction.

    Attributes:
        op: instruction class.
        dst: destination register name, or None.
        srcs: source register names (dependencies).
        mem: memory reference descriptor for LOAD/STORE.

    ``key`` (set at construction) holds the same fields as plain strings,
    ints and tuples, so hashing or comparing a tuple of keys runs no
    Python-level ``__hash__``/``__eq__``; the simulator's variant memo
    keys on it (DESIGN.md D27).
    """

    op: OpClass
    dst: Optional[str] = None
    srcs: Tuple[str, ...] = ()
    mem: Optional[MemRef] = None

    def __post_init__(self) -> None:
        if self.op.is_memory and self.mem is None:
            raise ConfigurationError(f"{self.op.value} instruction requires a MemRef")
        if not self.op.is_memory and self.mem is not None:
            raise ConfigurationError(f"{self.op.value} instruction cannot carry a MemRef")
        object.__setattr__(self, "srcs", tuple(self.srcs))
        mem = self.mem
        object.__setattr__(self, "key", (
            self.op.value, self.dst, self.srcs,
            None if mem is None else (mem.stream, mem.footprint, mem.stride, mem.pattern),
        ))

    def __str__(self) -> str:
        parts = [self.op.value]
        if self.dst:
            parts.append(self.dst)
        if self.srcs:
            parts.append("<- " + ",".join(self.srcs))
        if self.mem:
            parts.append(f"[{self.mem.stream}]")
        return " ".join(parts)


# --- Terminators -----------------------------------------------------------

# Trip counts and branch probabilities can be literals, names of input
# parameters, or callables of the resolved input dict.
TripSpec = Union[int, str, Callable[[Mapping[str, float]], int]]
ProbSpec = Union[float, str, Callable[[Mapping[str, float]], float]]


@dataclass(frozen=True)
class Jump:
    """Unconditional jump."""

    target: str


@dataclass(frozen=True)
class Branch:
    """Two-way conditional branch.

    ``taken_prob`` is the probability (per dynamic execution) of going to
    ``taken``; it models data-dependent control flow inside loop bodies,
    which the paper identifies as a key source of STS variation.
    """

    taken: str
    not_taken: str
    taken_prob: ProbSpec = 0.5


@dataclass(frozen=True)
class LoopBack:
    """Counted back-edge: jump to ``header`` ``trips - 1`` times, then exit.

    Placed on a loop's latch block. ``trips`` is the total number of times
    the header executes per entry to the loop.
    """

    header: str
    exit: str
    trips: TripSpec = 100


@dataclass(frozen=True)
class Halt:
    """Program end."""


Terminator = Union[Jump, Branch, LoopBack, Halt]


@dataclass
class BasicBlock:
    """A basic block: straight-line instructions plus one terminator."""

    name: str
    instrs: List[Instr] = field(default_factory=list)
    terminator: Terminator = field(default_factory=Halt)

    def successors(self) -> Tuple[str, ...]:
        term = self.terminator
        if isinstance(term, Jump):
            return (term.target,)
        if isinstance(term, Branch):
            return (term.taken, term.not_taken)
        if isinstance(term, LoopBack):
            return (term.header, term.exit)
        return ()

    @property
    def size(self) -> int:
        """Static instruction count, including the terminating branch."""
        extra = 0 if isinstance(self.terminator, Halt) else 1
        return len(self.instrs) + extra


@dataclass(frozen=True)
class ParamSpec:
    """Specification of one input parameter of a program.

    Sampled per run so that different runs exercise different trip counts
    and branch biases (the paper's "each time with different inputs").
    """

    name: str
    kind: str  # 'int', 'float', 'choice'
    low: float = 0.0
    high: float = 1.0
    choices: Tuple[float, ...] = ()

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == "int":
            return int(rng.integers(int(self.low), int(self.high) + 1))
        if self.kind == "float":
            return float(rng.uniform(self.low, self.high))
        if self.kind == "choice":
            if not self.choices:
                raise ConfigurationError(f"param {self.name!r}: empty choice list")
            return float(rng.choice(self.choices))
        raise ConfigurationError(f"param {self.name!r}: unknown kind {self.kind!r}")


class Program:
    """A whole program: a CFG of basic blocks plus its input parameters."""

    def __init__(
        self,
        name: str,
        blocks: Sequence[BasicBlock],
        entry: str,
        params: Sequence[ParamSpec] = (),
    ) -> None:
        self.name = name
        self.blocks: Dict[str, BasicBlock] = {}
        for block in blocks:
            if block.name in self.blocks:
                raise AnalysisError(f"duplicate block name {block.name!r}")
            self.blocks[block.name] = block
        if entry not in self.blocks:
            raise AnalysisError(f"entry block {entry!r} does not exist")
        self.entry = entry
        self.params: Tuple[ParamSpec, ...] = tuple(params)
        self._validate()

    def _validate(self) -> None:
        for block in self.blocks.values():
            for succ in block.successors():
                if succ not in self.blocks:
                    raise AnalysisError(
                        f"block {block.name!r} targets unknown block {succ!r}"
                    )
            term = block.terminator
            if isinstance(term, LoopBack) and term.header == term.exit:
                raise AnalysisError(
                    f"block {block.name!r}: loop header and exit are both "
                    f"{term.header!r}"
                )

    def block(self, name: str) -> BasicBlock:
        try:
            return self.blocks[name]
        except KeyError:
            raise AnalysisError(f"no block named {name!r} in {self.name!r}") from None

    def block_names(self) -> List[str]:
        return list(self.blocks)

    def sample_input(self, rng: np.random.Generator) -> Dict[str, float]:
        """Draw a concrete input (one value per parameter)."""
        return {p.name: p.sample(rng) for p in self.params}

    def resolve_trips(self, spec: TripSpec, inputs: Mapping[str, float]) -> int:
        """Resolve a trip-count spec against a concrete input."""
        value = self._resolve(spec, inputs)
        trips = int(round(value))
        if trips < 1:
            raise ConfigurationError(f"trip count resolved to {trips}; must be >= 1")
        return trips

    def resolve_prob(self, spec: ProbSpec, inputs: Mapping[str, float]) -> float:
        """Resolve a branch-probability spec against a concrete input."""
        prob = float(self._resolve(spec, inputs))
        if not 0.0 <= prob <= 1.0:
            raise ConfigurationError(f"branch probability resolved to {prob}")
        return prob

    @staticmethod
    def _resolve(
        spec: Union[int, float, str, Callable], inputs: Mapping[str, float]
    ) -> float:
        return resolve_spec(spec, inputs)

    @property
    def static_size(self) -> int:
        """Total static instruction count."""
        return sum(block.size for block in self.blocks.values())

    def __repr__(self) -> str:
        return (
            f"Program({self.name!r}, blocks={len(self.blocks)}, "
            f"entry={self.entry!r}, params={len(self.params)})"
        )


def resolve_spec(
    spec: Union[int, float, str, Callable], inputs: Mapping[str, float]
) -> float:
    """Resolve a literal / parameter-name / callable spec to a number."""
    if callable(spec):
        return spec(inputs)
    if isinstance(spec, str):
        try:
            return inputs[spec]
        except KeyError:
            raise ConfigurationError(
                f"input parameter {spec!r} missing from {sorted(inputs)}"
            ) from None
    return spec


def instruction_helpers() -> Dict[str, Callable[..., Instr]]:
    """Return short constructors for each instruction class.

    Intended use::

        ops = instruction_helpers()
        body = [ops["iadd"]("r1", "r1", "r2"), ops["load"]("r3", mem=MemRef("a"))]
    """

    def make(op: OpClass) -> Callable[..., Instr]:
        def ctor(dst: Optional[str] = None, *srcs: str, mem: Optional[MemRef] = None) -> Instr:
            return Instr(op, dst=dst, srcs=tuple(srcs), mem=mem)

        ctor.__name__ = op.value
        ctor.__doc__ = f"Construct a {op.value} instruction."
        return ctor

    return {op.value: make(op) for op in OpClass}
