"""Decode a SAT model into a scheduled machine program.

"The L's that are assigned true by the solver determine which machine
operations are launched at each cycle, from which the required machine
program can be read off" (paper section 6).  Reading the program off takes
some care:

* the model may launch computations nothing consumes (the solver is free to
  set unconstrained launch variables); extraction is *demand-driven* from
  the goal classes, so only needed launches are emitted;
* a class may be computed several times (e.g. once per cluster — the EV6
  sometimes needs this, cf. the paper's Figure 4); each consumer is wired
  to a producing launch whose result reaches the consumer's cluster in
  time;
* registers are assigned afresh per launch (the prototype "ignores register
  allocation", section 3), inputs following the target's calling convention
  (:attr:`~repro.isa.spec.ArchSpec.regs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.egraph.egraph import EGraph, ENode
from repro.encode.constraints import Encoding
from repro.isa.allocator import allocate_destinations
from repro.isa.registers import RegisterFile
from repro.terms.ops import Sort


class ExtractionError(Exception):
    """Raised when a model cannot be decoded (indicates an encoder bug)."""


@dataclass
class Operand:
    """One operand of a scheduled instruction.

    Exactly one of ``register``, ``literal`` or ``memory`` is set: memory
    operands are dataflow-only (the machine's memory is not a register).
    """

    class_id: int
    register: Optional[str] = None
    literal: Optional[int] = None
    memory: bool = False

    def render(self) -> str:
        if self.memory:
            return "<mem>"
        if self.register is not None:
            return self.register
        return str(self.literal)


@dataclass
class ScheduledInstruction:
    """One launched instruction of the extracted program."""

    cycle: int
    unit: str
    node: ENode
    class_id: int
    mnemonic: str
    operands: List[Operand]
    dest: Optional[str]  # destination register; None for stores
    comment: str = ""

    def render(self) -> str:
        # Keyed on the machine *operator*, not the mnemonic: the same op
        # renders as ldq/stq on the Alpha and ld/sd on rv64.
        info = "%d, %s" % (self.cycle, self.unit)
        op = self.node.op
        if op == "select":
            body = "%s %s, 0(%s)" % (
                self.mnemonic,
                self.dest,
                self.operands[1].render(),
            )
        elif op == "store":
            body = "%s %s, 0(%s)" % (
                self.mnemonic,
                self.operands[2].render(),
                self.operands[1].render(),
            )
        elif op == "ldiq":
            body = "%s %s, %s" % (self.mnemonic, self.dest, self.operands[0].render())
        else:
            args = ", ".join(op_.render() for op_ in self.operands)
            if self.dest is not None:
                body = "%s %s, %s" % (self.mnemonic, args, self.dest) if args else \
                    "%s %s" % (self.mnemonic, self.dest)
            else:
                body = "%s %s" % (self.mnemonic, args)
        line = "%-36s # %s" % (body, info)
        if self.comment:
            line += " ; %s" % self.comment
        return line


@dataclass
class Schedule:
    """A complete extracted program."""

    instructions: List[ScheduledInstruction]
    cycles: int
    register_map: Dict[str, str]
    # Where each goal value lives after execution, in goal order: a computed
    # register, an input register, a literal (constant goal), or the memory.
    goal_operands: List[Operand] = field(default_factory=list)

    def render(self, label: str = "code") -> str:
        lines = [
            "// Register Map: {%s}"
            % ", ".join("%s=%s" % kv for kv in sorted(self.register_map.items())),
            "%s:" % label,
        ]
        for instr in self.instructions:
            lines.append("    " + instr.render())
        lines.append("    // %d cycles" % self.cycles)
        return "\n".join(lines)

    def instruction_count(self) -> int:
        return len(self.instructions)

    def render_quad(self, spec, label: str = "code") -> str:
        """Figure 4's presentation: every cycle shown as a full issue
        group, unused slots filled with ``nop``.

        The paper's EV6 listing prints four lines per cycle (the fetch
        quad), each annotated with its cycle and functional unit.
        """
        by_slot = {}
        for instr in self.instructions:
            by_slot[(instr.cycle, instr.unit)] = instr
        lines = [
            "// Register Map: {%s}"
            % ", ".join("%s=%s" % kv for kv in sorted(self.register_map.items())),
            "%s:" % label,
        ]
        for cycle in range(self.cycles):
            used = [u for u in spec.units if (cycle, u) in by_slot]
            for unit in used:
                lines.append("    " + by_slot[(cycle, unit)].render())
            for _ in range(spec.issue_width - len(used)):
                lines.append("    %-36s # %d" % ("nop", cycle))
        lines.append("    // %d cycles" % self.cycles)
        return "\n".join(lines)


@dataclass(frozen=True)
class _Launch:
    cycle: int
    node: ENode
    unit: str


def _canonicalise_operands(op: str, operands: List[Operand], spec) -> None:
    """Put literals in the second operand of commutative instructions.

    Alpha's operate format only accepts an 8-bit literal in operand b;
    for commutative operators the swap is free.  (Non-commutative cases
    keep their order — the simulators accept either, and DESIGN.md lists
    the literal-placement simplification.)
    """
    from repro.terms.ops import default_registry

    registry = default_registry()
    if op not in registry or len(operands) != 2:
        return
    if not registry.get(op).commutative:
        return
    if operands[0].literal is not None and operands[1].register is not None:
        operands[0], operands[1] = operands[1], operands[0]


def extract_schedule(
    eg: EGraph,
    encoding: Encoding,
    model: Dict[int, bool],
    input_registers: Optional[Dict[str, str]] = None,
) -> Schedule:
    """Turn a satisfying model of ``encoding`` into a :class:`Schedule`."""
    spec = encoding.spec
    conventions = spec.regs
    launches_of: Dict[int, List[_Launch]] = {}
    # Class lookup (ENode -> class root) for every machine term.
    node_class: Dict[ENode, int] = {n: c for n, c in encoding.machine_terms}
    for (i, node, u), var in encoding.launch_vars.items():
        if model.get(var, False):
            launches_of.setdefault(node_class[node], []).append(
                _Launch(i, node, u)
            )

    def completion(launch: _Launch) -> int:
        return launch.cycle + encoding.latency(launch.node) - 1

    def avail_to(launch: _Launch, cluster: Optional[int]) -> int:
        if cluster is None:
            return completion(launch)
        return completion(launch) + spec.result_delay(launch.unit, cluster)

    free = encoding.free_classes
    chosen: Dict[int, List[_Launch]] = {}
    # Which launch feeds each (consumer launch, operand index).
    operand_source: Dict[Tuple[_Launch, int], _Launch] = {}

    def obtain(cid: int, by_cycle: int, cluster: Optional[int]) -> _Launch:
        cid = eg.find(cid)
        for launch in chosen.get(cid, ()):
            if avail_to(launch, cluster) <= by_cycle:
                return launch
        candidates = [
            l
            for l in launches_of.get(cid, ())
            if avail_to(l, cluster) <= by_cycle
        ]
        if not candidates:
            raise ExtractionError(
                "model provides no launch for class c%d by cycle %d (cluster "
                "%s); the encoding is unsound" % (cid, by_cycle, cluster)
            )
        pick = min(candidates, key=lambda l: (avail_to(l, cluster), l.cycle))
        chosen.setdefault(cid, []).append(pick)
        consumer_cluster = spec.clusters[pick.unit]
        if pick.node.op != "ldiq":
            for index, arg in enumerate(pick.node.args):
                root = eg.find(arg)
                if root in free:
                    continue
                src = obtain(root, pick.cycle - 1, consumer_cluster)
                operand_source[(pick, index)] = src
        return pick

    for g in encoding.goal_classes:
        if eg.find(g) not in free:
            obtain(g, encoding.cycles - 1, None)

    # Order launches and assign registers.
    ordered = sorted(
        {l for ls in chosen.values() for l in ls},
        key=lambda l: (l.cycle, spec.units.index(l.unit)),
    )
    regs = RegisterFile(conventions)
    if input_registers:
        for name, reg in input_registers.items():
            regs.bind_input(name, reg)
    # Bind remaining inputs encountered in free classes lazily below.
    dest_of: Dict[_Launch, Optional[str]] = {}

    def free_operand(cid: int) -> Operand:
        value = eg.const_of(cid)
        if value is not None:
            if value == 0:
                return Operand(cid, register=conventions.zero_register)
            return Operand(cid, literal=value)
        for node in eg.enodes(cid):
            if node.op == "input":
                if eg.class_sort(cid) == Sort.MEM:
                    return Operand(cid, memory=True)
                try:
                    reg = regs.input_register(node.name)
                except KeyError:
                    reg = regs.bind_input(node.name)
                return Operand(cid, register=reg)
        raise ExtractionError("free class c%d has no renderable value" % cid)

    position = {launch: i for i, launch in enumerate(ordered)}

    # Pick the launch that provides each non-free, register-sort goal; those
    # values are protected from register reuse.
    goal_launches: Dict[int, _Launch] = {}
    for g in encoding.goal_classes:
        root = eg.find(g)
        if root in free or eg.class_sort(root) != Sort.INT:
            continue
        for launch in chosen.get(root, ()):
            if spec.info(launch.node.op).kind != "store":
                goal_launches[root] = launch
                break
        else:
            raise ExtractionError("goal class c%d has no destination" % root)

    # Liveness: which positions read each producing position's value.
    uses: Dict[int, List[int]] = {i: [] for i in range(len(ordered))}
    for (consumer, _index), src in operand_source.items():
        uses[position[src]].append(position[consumer])
    needs_dest = [
        spec.info(l.node.op).kind != "store" for l in ordered
    ]
    protected = {position[l] for l in goal_launches.values()}
    assigned = allocate_destinations(
        needs_dest, uses, protected, conventions.temp_registers
    )
    dest_of: Dict[_Launch, Optional[str]] = {
        launch: assigned[i] for i, launch in enumerate(ordered)
    }

    instructions: List[ScheduledInstruction] = []
    for launch in ordered:
        info = spec.info(launch.node.op)
        operands: List[Operand] = []
        if launch.node.op == "ldiq":
            value = eg.const_of(eg.find(launch.node.args[0]))
            operands.append(Operand(eg.find(launch.node.args[0]), literal=value))
        else:
            for index, arg in enumerate(launch.node.args):
                root = eg.find(arg)
                if eg.class_sort(root) == Sort.MEM and root in free:
                    operands.append(Operand(root, memory=True))
                elif root in free:
                    operands.append(free_operand(root))
                else:
                    src = operand_source[(launch, index)]
                    src_dest = dest_of.get(src)
                    if src_dest is None:
                        operands.append(Operand(root, memory=True))
                    else:
                        operands.append(Operand(root, register=src_dest))
        _canonicalise_operands(launch.node.op, operands, encoding.spec)
        witness = eg.witness(launch.node)
        instructions.append(
            ScheduledInstruction(
                cycle=launch.cycle,
                unit=launch.unit,
                node=launch.node,
                class_id=node_class[launch.node],
                mnemonic=info.mnemonic,
                operands=operands,
                dest=dest_of[launch],
                comment=witness.pretty() if witness is not None else "",
            )
        )

    goal_operands: List[Operand] = []
    for g in encoding.goal_classes:
        root = eg.find(g)
        if root in free:
            goal_operands.append(free_operand(root))
            continue
        if eg.class_sort(root) == Sort.MEM:
            goal_operands.append(Operand(root, memory=True))
            continue
        goal_operands.append(
            Operand(root, register=dest_of[goal_launches[root]])
        )

    return Schedule(
        instructions=instructions,
        cycles=encoding.cycles,
        register_map=regs.register_map(),
        goal_operands=goal_operands,
    )
