"""Part-level gate fusion and compiled execution plans.

The paper treats acyclic partitioning as "orthogonal and complementary"
to gate fusion (Sec. II-C); this module supplies the complementary half.
A part's (already ordered) gate list is greedily grouped into maximal
``<= max_fused_qubits`` unitaries, each group's product matrix is built
once, and the result is kept in a :class:`CompiledPartPlan` so a part
that executes repeatedly — parameter sweeps, distributed shards,
benchmark reruns — pays matrix construction a single time.

Grouping is dependency-respecting by construction: gate ``g`` may only
join a group at or after the last group touching any of ``g``'s qubits,
so any pair of gates whose relative order changes acts on disjoint
qubits and commutes.  It is diagonal-aware twice over: groups whose
members are all diagonal may grow to ``max_diag_qubits`` (diagonal
products cost one multiply per amplitude regardless of arity, so wider
diagonal fusion is pure win), and a group is marked diagonal — run by
the elementwise kernels instead of a GEMM — when its product is diagonal
for every parameter value.  That holds when each member is diagonal or a
parameter-free basis permutation (``x``, ``cx``, ``swap``, …) and the
permutations compose to the identity, as in qft's ``cx·u1·cx`` phase
ladders; it is decided from gate names and operands alone.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import GATE_DEFS, Gate
from .kernels import apply_matrix_batched
from .layout import extract_bits, gather_offsets

__all__ = [
    "FusedGate",
    "FusionGroup",
    "plan_fusion_groups",
    "PartPlanStructure",
    "build_part_structure",
    "layout_steps",
    "CompiledPartPlan",
    "PlanCache",
    "CacheCounters",
    "compile_part",
    "compile_partition",
    "DEFAULT_MAX_FUSED_QUBITS",
]

DEFAULT_MAX_FUSED_QUBITS = 5
#: All-diagonal groups may exceed the dense limit by this many qubits.
DIAGONAL_BONUS_QUBITS = 2


@dataclass(frozen=True)
class FusionGroup:
    """One fusion group: member positions (in the source gate list, in
    original order), the union working set in first-seen operand order,
    whether the group's product is diagonal for every parameter value
    (structurally diagonal — see :func:`plan_fusion_groups`), and
    whether every member is Clifford (detected from ``GateDef.clifford``
    — the group-level capability the executor routes engines on).

    >>> FusionGroup(members=(0, 2), qubits=(1, 3), diagonal=False).qubits
    (1, 3)
    """

    members: Tuple[int, ...]
    qubits: Tuple[int, ...]
    diagonal: bool
    clifford: bool = False


@lru_cache(maxsize=None)
def _affine_action(
    name: str,
) -> Optional[Tuple[Tuple[int, Tuple[int, ...]], ...]]:
    """A gate's basis permutation as a GF(2)-affine map: ``()`` for a
    diagonal gate (nothing moves), ``None`` if it is not one
    (parameterised or non-monomial gates, and nonlinear permutations
    such as ``ccx``).

    Derived once per name from the gate's fixed matrix: a monomial
    matrix sends basis state ``j`` to ``p(j)`` up to a phase.  Output
    bit ``i`` (operand ``i``) is ``const`` XOR the input bits of the
    operands in ``sources``, given as one ``(const, sources)`` pair per
    operand.

    >>> _affine_action("cx")        # control unchanged, target ^= control
    ((0, (0,)), (0, (0, 1)))
    >>> _affine_action("x"), _affine_action("rz"), _affine_action("ccx")
    (((1, (0,)),), (), None)
    """
    gdef = GATE_DEFS[name]
    if gdef.diagonal:
        return ()
    if gdef.num_params:
        return None
    # Plain Python on the (at most 8x8) matrix: numpy reductions here
    # would page in library code that nothing else in planning runs
    # (~0.3 MiB of RSS on qft20).
    rows = gdef.factory().tolist()
    perm = []  # column j holds its one nonzero entry in row perm[j]
    for j in range(len(rows)):
        hits = [i for i, row in enumerate(rows) if row[j]]
        if len(hits) != 1:
            return None
        perm.append(hits[0])
    if len(set(perm)) != len(perm):
        return None
    k = gdef.num_qubits
    const = perm[0]
    cols = [perm[1 << b] ^ const for b in range(k)]
    for j, image in enumerate(perm):
        expect = const
        for b in range(k):
            if j >> b & 1:
                expect ^= cols[b]
        if image != expect:
            return None
    return tuple(
        (const >> i & 1, tuple(b for b in range(k) if cols[b] >> i & 1))
        for i in range(k)
    )


def _composes_to_identity(moves) -> bool:
    """True when the ``(qubits, action)`` permutations, applied in
    order, compose to the identity.  Each qubit's bit is tracked as one
    int: bit 0 the constant, bit ``q + 1`` set if input qubit ``q``
    contributes (so XOR composes both); untouched qubit ``q`` is
    ``2 << q``."""
    bits: Dict[int, int] = {}
    for qubits, action in moves:
        old = [bits.get(q, 2 << q) for q in qubits]
        for q, (value, sources) in zip(qubits, action):
            for b in sources:
                value ^= old[b]
            bits[q] = value
    return all(v == 2 << q for q, v in bits.items())


def plan_fusion_groups(
    gates: Sequence[Gate],
    max_fused_qubits: int,
    max_diag_qubits: Optional[int] = None,
) -> List[FusionGroup]:
    """Greedily group a gate list into fusable chunks (no matrices built).

    First-fit from the earliest dependency-legal group: gate ``g`` may be
    placed in any group at or after the last group that touches one of
    ``g``'s qubits.  Groups are emitted in creation order with members in
    source order, which reproduces the original gate order up to swaps of
    disjoint (hence commuting) gates.  Only groups whose members are all
    diagonal may grow to ``max_diag_qubits``.

    A group is marked ``diagonal`` when its product is diagonal for every
    parameter value: each member is diagonal or a parameter-free basis
    permutation, and the permutations (tracked as a GF(2)-affine map over
    the group's qubits) compose to the identity.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> qc = QuantumCircuit(3).h(0).cx(0, 1).h(2)
    >>> [g.members for g in plan_fusion_groups(qc.gates, 2)]  # h(2) overflows
    [(0, 1), (2,)]
    >>> ladder = QuantumCircuit(2).cx(0, 1).u1(0.3, 1).cx(0, 1)
    >>> [g.diagonal for g in plan_fusion_groups(ladder.gates, 2)]
    [True]
    """
    if max_fused_qubits < 1:
        raise ValueError("max_fused_qubits must be >= 1")
    if max_diag_qubits is None:
        max_diag_qubits = max_fused_qubits + DIAGONAL_BONUS_QUBITS
    if max_diag_qubits < max_fused_qubits:
        raise ValueError("max_diag_qubits must be >= max_fused_qubits")

    members: List[List[int]] = []
    qubit_order: List[List[int]] = []  # first-seen operand order per group
    qubit_sets: List[set] = []
    all_diag: List[bool] = []
    all_cliff: List[bool] = []
    # Each group's permutation members as (qubits, action); None once a
    # member is neither diagonal nor an affine permutation.
    moves: List[Optional[list]] = []
    last_group_of: Dict[int, int] = {}

    for i, g in enumerate(gates):
        # Gate g may join the group holding its latest same-qubit
        # predecessor (members stay in source order) or any later group,
        # but never an earlier one.
        earliest = 0
        for q in g.qubits:
            earliest = max(earliest, last_group_of.get(q, 0))
        placed = -1
        for j in range(earliest, len(members)):
            union = qubit_sets[j] | set(g.qubits)
            limit = (
                max_diag_qubits
                if (all_diag[j] and g.is_diagonal)
                else max_fused_qubits
            )
            if len(union) <= limit:
                placed = j
                break
        if placed < 0:
            members.append([])
            qubit_order.append([])
            qubit_sets.append(set())
            all_diag.append(True)
            all_cliff.append(True)
            moves.append([])
            placed = len(members) - 1
        members[placed].append(i)
        for q in g.qubits:
            if q not in qubit_sets[placed]:
                qubit_sets[placed].add(q)
                qubit_order[placed].append(q)
            last_group_of[q] = placed
        all_diag[placed] = all_diag[placed] and g.is_diagonal
        all_cliff[placed] = all_cliff[placed] and g.is_clifford
        if moves[placed] is not None:
            action = _affine_action(g.name)
            if action is None:
                moves[placed] = None
            elif action:
                moves[placed].append((g.qubits, action))

    return [
        FusionGroup(
            tuple(m), tuple(qs), mv is not None and _composes_to_identity(mv), c
        )
        for m, qs, mv, c in zip(members, qubit_order, moves, all_cliff)
    ]


class FusedGate:
    """A fused unitary over a small qubit tuple.

    Duck-type compatible with :class:`~repro.circuits.gates.Gate` where the
    executors and the cost model need it: ``qubits``, ``num_qubits``,
    ``is_diagonal`` and ``matrix()``.  The matrix is built once and shared
    read-only; ``matrix()`` intentionally does *not* copy.

    >>> import numpy as np
    >>> fg = FusedGate((2, 5), np.eye(4, dtype=np.complex128), False)
    >>> fg.num_qubits, fg.is_diagonal
    (2, False)
    >>> fg.remap({2: 0, 5: 1}).qubits
    (0, 1)
    """

    __slots__ = ("qubits", "diagonal", "source_indices", "_matrix")

    def __init__(
        self,
        qubits: Tuple[int, ...],
        matrix: np.ndarray,
        diagonal: bool,
        source_indices: Tuple[int, ...] = (),
    ) -> None:
        k = len(qubits)
        if matrix.shape != (1 << k, 1 << k):
            raise ValueError(
                f"fused matrix shape {matrix.shape} does not match "
                f"{k} qubits"
            )
        self.qubits = tuple(qubits)
        self.diagonal = bool(diagonal)
        self.source_indices = tuple(source_indices)
        matrix = np.ascontiguousarray(matrix, dtype=np.complex128)
        matrix.setflags(write=False)
        self._matrix = matrix

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def is_diagonal(self) -> bool:
        return self.diagonal

    def matrix(self) -> np.ndarray:
        """The fused unitary (shared, read-only — do not mutate)."""
        return self._matrix

    def remap(self, mapping: Dict[int, int]) -> "FusedGate":
        """Rename operands through ``mapping``; the matrix is shared."""
        out = FusedGate.__new__(FusedGate)
        out.qubits = tuple(mapping[q] for q in self.qubits)
        out.diagonal = self.diagonal
        out.source_indices = self.source_indices
        out._matrix = self._matrix
        return out

    # Explicit pickle support: ``__slots__`` classes need it spelled out,
    # and the restored matrix must come back read-only (compiled plans
    # may be pickled and reloaded like any other object).
    def __getstate__(self):
        return (self.qubits, self.diagonal, self.source_indices, self._matrix)

    def __setstate__(self, state) -> None:
        qubits, diagonal, source_indices, matrix = state
        self.qubits = tuple(qubits)
        self.diagonal = bool(diagonal)
        self.source_indices = tuple(source_indices)
        matrix = np.ascontiguousarray(matrix, dtype=np.complex128)
        matrix.setflags(write=False)
        self._matrix = matrix

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = "diag" if self.diagonal else "dense"
        return (
            f"FusedGate({tag}, qubits={list(self.qubits)}, "
            f"fuses={len(self.source_indices)})"
        )


def _group_matrix(gates: Sequence[Gate], group: FusionGroup) -> np.ndarray:
    """Product matrix of a group over its qubit tuple (first operand =
    least significant bit of the local index, matching the Gate
    convention).  Raises ``ValueError`` if a group marked diagonal has a
    nonzero off-diagonal entry, so a wrong flag never runs.  A product
    with non-finite entries (a ``nan`` or ``inf`` parameter, spread off
    the diagonal by the GEMM steps) is returned unchecked: the parameter
    is at fault, not the flag, and the state comes out non-finite on
    every lane."""
    k = len(group.qubits)
    pos = {q: i for i, q in enumerate(group.qubits)}
    if len(group.members) == 1:
        g = gates[group.members[0]]
        if g.qubits == group.qubits and g.is_diagonal == group.diagonal:
            return g.matrix()
    if all(gates[m].is_diagonal for m in group.members):
        diag = np.ones(1 << k, dtype=np.complex128)
        idx = np.arange(1 << k, dtype=np.int64)
        for m in group.members:
            g = gates[m]
            gd = np.ascontiguousarray(np.diag(g.matrix()))
            diag *= gd[extract_bits(idx, [pos[q] for q in g.qubits])]
        return np.diag(diag)
    # Columns of the accumulated product are states of the k-qubit space;
    # keep them as *rows* so each member applies via the batched kernel,
    # then transpose once at the end.
    cols = np.eye(1 << k, dtype=np.complex128)
    for m in group.members:
        g = gates[m]
        apply_matrix_batched(
            cols,
            g.matrix(),
            [pos[q] for q in g.qubits],
            k,
            diagonal=g.is_diagonal,
        )
    product = np.ascontiguousarray(cols.T)
    if (
        group.diagonal
        and np.count_nonzero(product) != np.count_nonzero(product.diagonal())
        and np.isfinite(product).all()
    ):
        raise ValueError(
            f"group {group.members} is marked diagonal but its product "
            f"has nonzero off-diagonal entries"
        )
    return product


def layout_steps(ops, qubits: Sequence[int]):
    """Layout-tracking steps for ``ops`` (``.qubits``, ``.diagonal``) on
    a ``(B,) + (2,)*w`` block over working set ``qubits``.

    Returns ``(start, steps, final)``.  A layout lists axis labels: inner
    position ``q``, or ``w`` for the row axis (gather order ``(w, ...,
    0)``).  A dense op's step is the transpose bringing its targets (msb
    operand first) to the front, where its GEMM leaves them; a diagonal
    op's is its target axes.  ``start`` is the first dense op's layout,
    so the gather lands there.  Steps depend only on operands.

    >>> h, z = FusionGroup((0,), (0,), False), FusionGroup((1,), (1,), True)
    >>> layout_steps([h, z], (0, 1))
    ((0, 2, 1), ((0, 1, 2), (2,)), (0, 2, 1))
    """
    w, pos = len(qubits), {q: i for i, q in enumerate(qubits)}
    ops = [(tuple(pos[q] for q in op.qubits[::-1]), op.diagonal) for op in ops]
    lead = next((t for t, diagonal in ops if not diagonal), ())
    start = cur = lead + tuple(a for a in range(w, -1, -1) if a not in lead)
    steps = []
    for targets, diagonal in ops:
        if diagonal:
            steps.append(tuple(cur.index(a) for a in targets))
            continue
        new = targets + tuple(a for a in cur if a not in targets)
        steps.append(tuple(cur.index(a) for a in new))
        cur = new
    return start, tuple(steps), cur


class PartPlanStructure:
    """The parameter-independent half of a compiled part plan.

    Everything about a part's execution that does **not** depend on gate
    parameters lives here: the fusion grouping, the working-set qubit
    tuple, its layout steps and the factored gather table.  Grouping only
    consults gate *names* and operands — diagonality is a property of
    the gate definition, never of its angles — so two circuits that
    differ only in parameters (a QAOA angle sweep) share one structure.

    :meth:`bind` attaches concrete matrices for a particular gate list,
    producing a :class:`CompiledPartPlan` that shares this structure's
    gather-table memo.  That split is what lets the serving runtime
    (:mod:`repro.serve`) compile a parameter sweep's structure once and
    pay only fresh (cheap, ``2^k``-sized) matrix products per job.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> qc1 = QuantumCircuit(2).rz(0.1, 0).cx(0, 1)
    >>> qc2 = QuantumCircuit(2).rz(0.9, 0).cx(0, 1)   # same structure
    >>> s = build_part_structure(qc1, [0, 1], [0, 1])
    >>> plan1, plan2 = s.bind(qc1.gates), s.bind(qc2.gates)
    >>> (plan1.num_ops, plan2.num_ops)
    (1, 1)
    >>> bool((plan1.ops[0].matrix() != plan2.ops[0].matrix()).any())
    True
    """

    __slots__ = (
        "qubits",
        "groups",
        "num_source_gates",
        "fused",
        "max_fused_qubits",
        "_layout",
        "_offsets",
    )

    def __init__(
        self,
        qubits: Tuple[int, ...],
        groups: Tuple[FusionGroup, ...],
        num_source_gates: int,
        fused: bool,
        max_fused_qubits: int,
    ) -> None:
        self.qubits = tuple(qubits)
        self.groups = tuple(groups)
        self.num_source_gates = int(num_source_gates)
        self.fused = bool(fused)
        self.max_fused_qubits = int(max_fused_qubits)
        self._layout: Optional[tuple] = None
        self._offsets: Optional[tuple] = None

    @property
    def num_ops(self) -> int:
        return len(self.groups)

    @property
    def clifford(self) -> bool:
        """True when every fusion group (hence every source gate) is
        Clifford — the plan-time capability engine routing keys on.

        Derived from the groups, never stored, so it is *not* part of
        any :class:`PlanCache` key: capability is a consequence of
        structure, and identical structures always agree on it.
        """
        return all(g.clifford for g in self.groups)

    @property
    def layout(self) -> tuple:
        """:func:`layout_steps` of the groups (memoised)."""
        if self._layout is None:
            self._layout = layout_steps(self.groups, self.qubits)
        return self._layout

    def offsets(self, num_qubits: int) -> Tuple[np.ndarray, np.ndarray]:
        """The gather table factored: row ``t`` is ``outer[t] + inner``
        (``2^(n-w)`` outer and ``2^w`` inner offsets; memoised, shared by
        every plan bound from this structure)."""
        memo = self._offsets  # a benign race recomputes identical arrays
        if memo is None or memo[0] != num_qubits:
            memo = (num_qubits, gather_offsets(num_qubits, self.qubits))
            self._offsets = memo
        return memo[1]

    def gather_table(self, num_qubits: int) -> np.ndarray:
        """Algorithm-1 gather table composed from :meth:`offsets` — not
        retained, as the ``O(2^n)`` table would outlive its one user,
        the array device lane, in long-lived plan caches."""
        outer, inner = self.offsets(num_qubits)
        return outer[:, None] + inner

    def bind(
        self,
        gates: Sequence[Gate],
        source_indices: Sequence[int] = (),
    ) -> "CompiledPartPlan":
        """Build fused matrices for ``gates`` against this structure.

        ``gates`` must be structurally identical (same names and
        operands, any parameters) to the gate list the structure was
        planned from; ``source_indices`` optionally records the gates'
        original circuit positions on the resulting ops.
        """
        if len(gates) != self.num_source_gates:
            raise ValueError(
                f"structure spans {self.num_source_gates} gates, "
                f"got {len(gates)}"
            )
        idx = tuple(source_indices) if source_indices else None
        ops = tuple(
            FusedGate(
                grp.qubits,
                _group_matrix(gates, grp),
                grp.diagonal,
                tuple(idx[m] for m in grp.members)
                if idx is not None
                else tuple(grp.members),
            )
            for grp in self.groups
        )
        return CompiledPartPlan(
            self.qubits,
            ops,
            self.num_source_gates,
            self.fused,
            self.max_fused_qubits,
            structure=self,
        )


def build_part_structure(
    circuit: QuantumCircuit,
    gate_indices: Sequence[int],
    inner_qubits: Sequence[int],
    *,
    fuse: bool = True,
    max_fused_qubits: int = DEFAULT_MAX_FUSED_QUBITS,
) -> PartPlanStructure:
    """Plan one part's fusion structure (no matrices are built).

    Fusion arity is capped by the working-set size; with ``fuse=False``
    every gate becomes its own (single-member) group so both paths
    execute through the identical plan machinery.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> qc = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
    >>> s = build_part_structure(qc, [0, 1, 2], [0, 1, 2])
    >>> s.num_ops, s.num_source_gates
    (1, 3)
    """
    gates = [circuit[g] for g in gate_indices]
    width = len(inner_qubits)
    effective = max(1, min(max_fused_qubits, width)) if width else 1
    if fuse and len(gates) > 1:
        groups = plan_fusion_groups(
            gates,
            effective,
            min(effective + DIAGONAL_BONUS_QUBITS, max(width, 1)),
        )
    else:
        groups = [
            FusionGroup((i,), g.qubits, g.is_diagonal, g.is_clifford)
            for i, g in enumerate(gates)
        ]
    return PartPlanStructure(
        tuple(inner_qubits), tuple(groups), len(gates), bool(fuse), effective
    )


class CompiledPartPlan:
    """A part's gate list compiled to fused ops over a shared structure.

    ``ops`` carry **global** qubit labels (usable directly by the
    distributed engines, whose remap step makes part qubits local);
    :meth:`local_ops` returns the same ops renamed to positions within
    ``qubits`` for the hierarchical gather/execute/scatter path.

    Every plan is bound from a :class:`PartPlanStructure`
    (``structure``) and shares its layout steps and gather-offset memo,
    so structurally identical circuits (parameter sweeps) never rebuild
    either.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> qc = QuantumCircuit(2).h(0).cx(0, 1).rz(0.3, 1)
    >>> plan = compile_part(qc, [0, 1, 2], [0, 1])
    >>> plan.num_source_gates, plan.num_ops, plan.sweeps_saved
    (3, 1, 2)
    >>> plan.gather_table(2).shape        # one inner vector spans the state
    (1, 4)
    """

    __slots__ = (
        "qubits",
        "ops",
        "num_source_gates",
        "fused",
        "max_fused_qubits",
        "structure",
        "_local_ops",
    )

    def __init__(
        self,
        qubits: Tuple[int, ...],
        ops: Tuple[FusedGate, ...],
        num_source_gates: int,
        fused: bool,
        max_fused_qubits: int,
        structure: PartPlanStructure,
    ) -> None:
        self.qubits = tuple(qubits)
        self.ops = tuple(ops)
        self.num_source_gates = int(num_source_gates)
        self.fused = bool(fused)
        self.max_fused_qubits = int(max_fused_qubits)
        self.structure = structure
        self._local_ops: Optional[Tuple[FusedGate, ...]] = None

    @property
    def num_ops(self) -> int:
        return len(self.ops)

    @property
    def sweeps_saved(self) -> int:
        """Kernel sweeps avoided relative to one sweep per source gate."""
        return self.num_source_gates - self.num_ops

    @property
    def clifford(self) -> bool:
        """Part capability: True when every source gate is Clifford
        (delegates to the structure — see
        :attr:`PartPlanStructure.clifford`)."""
        return self.structure.clifford

    def local_ops(self) -> Tuple[FusedGate, ...]:
        """Ops with operands renamed to inner positions (cached)."""
        if self._local_ops is None:
            pos = {q: i for i, q in enumerate(self.qubits)}
            self._local_ops = tuple(op.remap(pos) for op in self.ops)
        return self._local_ops

    def gather_table(self, num_qubits: int) -> np.ndarray:
        """Algorithm-1 gather table (see the structure's)."""
        return self.structure.gather_table(num_qubits)


def compile_part(
    circuit: QuantumCircuit,
    gate_indices: Sequence[int],
    inner_qubits: Sequence[int],
    *,
    fuse: bool = True,
    max_fused_qubits: int = DEFAULT_MAX_FUSED_QUBITS,
) -> CompiledPartPlan:
    """Compile one part's gates against working set ``inner_qubits``.

    Convenience composition of :func:`build_part_structure` and
    :meth:`PartPlanStructure.bind` for the single-circuit case.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> qc = QuantumCircuit(3).h(0).cx(0, 1).h(1)
    >>> compile_part(qc, [0, 1, 2], [0, 1]).num_ops
    1
    >>> compile_part(qc, [0, 1, 2], [0, 1], fuse=False).num_ops
    3
    """
    structure = build_part_structure(
        circuit,
        gate_indices,
        inner_qubits,
        fuse=fuse,
        max_fused_qubits=max_fused_qubits,
    )
    return structure.bind(
        [circuit[g] for g in gate_indices], tuple(gate_indices)
    )


@dataclass
class CacheCounters:
    """Per-caller plan-cache accounting, independent of the cache's own.

    A shared :class:`PlanCache` keeps *lifetime* ``hits`` / ``misses``
    totals; when several batches (or a resident daemon's workers) run
    concurrently against one cache, before/after deltas of those totals
    interleave.  Passing a ``CacheCounters`` to
    :meth:`PlanCache.get_or_compile` / :meth:`PlanCache.get_or_bind`
    records the same events into a caller-owned object instead, so each
    run's accounting stays exact however many runs share the cache
    (increments happen under the cache lock).

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> qc = QuantumCircuit(2).h(0).cx(0, 1)
    >>> cache, mine = PlanCache(), CacheCounters()
    >>> _ = cache.get_or_compile(qc, [0, 1], [0, 1], counters=mine)
    >>> _ = cache.get_or_compile(qc, [0, 1], [0, 1], counters=mine)
    >>> (mine.hits, mine.misses) == (cache.hits, cache.misses) == (1, 1)
    True
    """

    hits: int = 0
    misses: int = 0
    structure_hits: int = 0
    structure_misses: int = 0


class PlanCache:
    """Bounded cache of :class:`CompiledPartPlan` keyed by part identity.

    Keys include ``id(circuit)``; the entry holds the circuit weakly and
    goes once it is collected (its weakref callback only queues the key,
    purged under the lock), so a sweep of fresh circuits retains no bound
    plans.  One cache instance may be shared across executors
    (hierarchical and distributed) and across repeated runs — that
    sharing is what makes sweeps and shard re-execution pay matrix
    construction once.

    The cache is **thread-safe**: concurrent ``get_or_compile`` calls for
    the same part serialise on an internal lock, so a plan is compiled
    exactly once and never observed half-built.  Compiled plans
    themselves are immutable after construction (the lazy ``local_ops``,
    layout and offset memos are idempotent — a benign race recomputes an
    identical value), so returned plans may be used from any number of
    threads without further locking.

    Beyond the per-circuit (``id``-keyed) plan layer, the cache holds a
    **structural** layer keyed by a caller-supplied fingerprint (see
    :func:`repro.serve.circuit_fingerprint`): :meth:`get_or_bind` reuses
    one :class:`PartPlanStructure` — fusion grouping, layout steps and
    gather offsets — across all circuits sharing a structure, binding
    only fresh matrices per circuit.  ``structure_hits`` /
    ``structure_misses`` account that layer; a parameter sweep of ``J``
    structurally identical jobs over a ``P``-part partition shows
    exactly ``P`` structure misses and ``(J - 1) * P`` structure hits.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> qc = QuantumCircuit(2).h(0).cx(0, 1)
    >>> cache = PlanCache()
    >>> p1 = cache.get_or_compile(qc, [0, 1], [0, 1])
    >>> p2 = cache.get_or_compile(qc, [0, 1], [0, 1])    # same part: hit
    >>> p1 is p2, cache.hits, cache.misses
    (True, 1, 1)
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._lock = threading.RLock()
        self._dead: List[tuple] = []  # (key, weakref) of collected circuits
        self.hits = 0
        self.misses = 0
        self.structure_hits = 0
        self.structure_misses = 0

    def __len__(self) -> int:
        with self._lock:
            self._purge()
            return len(self._entries)

    def _purge(self) -> None:
        """Drop entries of collected circuits (caller holds the lock)."""
        while self._dead:
            key, ref = self._dead.pop()
            if self._entries.get(key, (None,))[0] is ref:
                del self._entries[key]

    def _live(self, key: tuple, circuit: QuantumCircuit):
        """The plan memoised for this very circuit, else ``None``."""
        self._purge()
        entry = self._entries.get(key)
        return entry[1] if entry and entry[0]() is circuit else None

    def _lookup(self, key, circuit, counters) -> Optional[CompiledPartPlan]:
        """:meth:`_live`, counted as a hit or a miss."""
        plan = self._live(key, circuit)
        hit = plan is not None
        if hit:
            self._entries.move_to_end(key)
        self.hits += hit
        self.misses += not hit
        if counters is not None:
            counters.hits += hit
            counters.misses += not hit
        return plan

    def _store(self, key, circuit: QuantumCircuit, plan) -> None:
        dead = self._dead  # the callback must not reference the cache
        pin = weakref.ref(circuit, lambda ref: dead.append((key, ref)))
        self._entries[key] = (pin, plan)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def get_or_compile(
        self,
        circuit: QuantumCircuit,
        gate_indices: Sequence[int],
        inner_qubits: Sequence[int],
        *,
        fuse: bool = True,
        max_fused_qubits: int = DEFAULT_MAX_FUSED_QUBITS,
        counters: Optional[CacheCounters] = None,
    ) -> CompiledPartPlan:
        key = (
            id(circuit),
            tuple(gate_indices),
            tuple(inner_qubits),
            bool(fuse),
            int(max_fused_qubits),
        )
        with self._lock:
            plan = self._lookup(key, circuit, counters)
            if plan is not None:
                return plan
            plan = compile_part(
                circuit,
                gate_indices,
                inner_qubits,
                fuse=fuse,
                max_fused_qubits=max_fused_qubits,
            )
            self._store(key, circuit, plan)
            return plan

    def get_or_bind(
        self,
        circuit: QuantumCircuit,
        gate_indices: Sequence[int],
        inner_qubits: Sequence[int],
        *,
        structural_key,
        fuse: bool = True,
        max_fused_qubits: int = DEFAULT_MAX_FUSED_QUBITS,
        counters: Optional[CacheCounters] = None,
    ) -> CompiledPartPlan:
        """Plan via the structural layer: reuse structure, bind matrices.

        ``structural_key`` must identify the circuit's *structure* (gate
        names and operands in order — parameters excluded); callers
        normally pass :func:`repro.serve.circuit_fingerprint`.  A bound
        plan is still memoised per concrete circuit object (same ``hits``
        / ``misses`` accounting as :meth:`get_or_compile`), so re-running
        one circuit skips even matrix construction; a structurally
        identical *new* circuit reuses the cached
        :class:`PartPlanStructure` and pays only fresh matrix products.

        Matrix binding runs *outside* the cache lock — per-job matrix
        construction is the part of a batched sweep that scales with the
        job count, so concurrent workers binding different circuits must
        not serialise on the cache.  A rare same-circuit race binds
        twice and keeps the first insertion (structures themselves stay
        compiled exactly once, under the lock).
        """
        bound_key = (
            "bound",
            id(circuit),
            tuple(gate_indices),
            tuple(inner_qubits),
            bool(fuse),
            int(max_fused_qubits),
        )
        struct_key = (
            "struct",
            structural_key,
            tuple(gate_indices),
            tuple(inner_qubits),
            bool(fuse),
            int(max_fused_qubits),
        )
        with self._lock:
            plan = self._lookup(bound_key, circuit, counters)
            if plan is not None:
                return plan
            sentry = self._entries.get(struct_key)
            if sentry is not None:
                self.structure_hits += 1
                if counters is not None:
                    counters.structure_hits += 1
                self._entries.move_to_end(struct_key)
                structure = sentry[1]
            else:
                self.structure_misses += 1
                if counters is not None:
                    counters.structure_misses += 1
                structure = build_part_structure(
                    circuit,
                    gate_indices,
                    inner_qubits,
                    fuse=fuse,
                    max_fused_qubits=max_fused_qubits,
                )
                self._entries[struct_key] = (None, structure)
        plan = structure.bind(
            [circuit[g] for g in gate_indices], tuple(gate_indices)
        )
        with self._lock:
            live = self._live(bound_key, circuit)
            if live is not None:
                return live
            self._store(bound_key, circuit, plan)
        return plan


def compile_partition(
    circuit: QuantumCircuit,
    partition,
    *,
    pad_to: int = 0,
    fuse: bool = True,
    max_fused_qubits: int = DEFAULT_MAX_FUSED_QUBITS,
    cache: Optional[PlanCache] = None,
) -> List[CompiledPartPlan]:
    """Compile every part of a partition, in execution order.

    >>> from repro.circuits.generators import qft
    >>> from repro.partition import get_partitioner
    >>> qc = qft(6)
    >>> partition = get_partitioner("dagP").partition(qc, 4)
    >>> plans = compile_partition(qc, partition)
    >>> len(plans) == partition.num_parts
    True
    >>> sum(p.num_ops for p in plans) < len(qc)     # fusion saved sweeps
    True
    """
    from .hier import pad_working_set  # local import: hier imports us too

    n = circuit.num_qubits
    plans: List[CompiledPartPlan] = []
    for part in partition.parts:
        inner = part.qubits
        if pad_to:
            inner = pad_working_set(inner, n, pad_to)
        if cache is not None:
            plans.append(
                cache.get_or_compile(
                    circuit,
                    part.gate_indices,
                    inner,
                    fuse=fuse,
                    max_fused_qubits=max_fused_qubits,
                )
            )
        else:
            plans.append(
                compile_part(
                    circuit,
                    part.gate_indices,
                    inner,
                    fuse=fuse,
                    max_fused_qubits=max_fused_qubits,
                )
            )
    return plans
