"""Pluggable execution backends: where kernel sweeps actually run.

The hierarchical executor reduces every part to the same shape of work:
gather the part's inner vectors, apply its compiled ops, scatter them
back.  Rows of the ``(2^(n-w), 2^w)`` gather matrix are independent — a
gate only mixes amplitudes *within* a row — so that work is written
once, as a row-range sweep (:func:`_part_sweep`) run cache-blocked: all
of a part's ops on one power-of-two row block of at most
:data:`DEFAULT_BLOCK_ELEMENTS` amplitudes before the next block starts.
The host backends differ only in how they cover the blocks:

* :class:`SerialBackend` — the blocks in order; the reference all
  others must match.
* :class:`ThreadedBackend` — the same blocks dealt to a shared
  ``ThreadPoolExecutor`` (GEMMs release the GIL into BLAS), split further
  only when there are fewer blocks than threads: **deterministic**, and
  **bit-identical** to serial whenever a part has ``threads`` blocks.
* :class:`ArrayBackend` — the same sweeps through a pluggable array
  namespace (:func:`resolve_array_module`, ``REPRO_ARRAY_MODULE``).  A
  device module (CuPy, PyTorch) keeps the state and each plan's operands
  device-resident for a whole run; NumPy shares the serial code path
  and is **bit-identical** to :class:`SerialBackend`.

Parts whose fused groups are all small (``<= REPRO_KERNEL_STRIDED_MAX``
targets after control extraction, default 2) skip the gather: the
strided lane applies each op in place to row blocks of the flat state
(:func:`~repro.sv.kernels.apply_matrix_strided`), bit-identically.
``run_plan`` returns the lane (``"strided"`` / ``"gather"``) and
``ExecutionTrace`` tallies them; see ``docs/backends.md``.

Backends are selected per executor (``backend="threaded"``), on the CLI
(``--backend threaded --threads 4``) or via ``REPRO_BACKEND`` /
``REPRO_THREADS``; small workloads run inline (``min_parallel_elements``).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.gates import Gate
from .kernels import (
    _apply_strided,
    _diag_factor,
    _gate_axes,
    apply_gate,
    apply_layout_steps,
    apply_matrix_batched,
    layout_program,
    split_controls,
    strided_max_qubits,
)

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadedBackend",
    "ArrayBackend",
    "ArrayModule",
    "BACKEND_NAMES",
    "ARRAY_MODULE_NAMES",
    "get_backend",
    "shared_backend",
    "resolve_backend",
    "resolve_array_module",
    "split_blocks",
    "DEFAULT_MIN_PARALLEL_ELEMENTS",
    "DEFAULT_BLOCK_ELEMENTS",
]

#: Below this many amplitudes the threaded backend runs a part's sweep
#: inline — dispatch overhead beats any speedup on toy states.
#: Override per instance (``min_parallel_elements=``).
DEFAULT_MIN_PARALLEL_ELEMENTS = 1 << 14

#: Amplitudes per row block (1 MiB of complex128): a part runs all its
#: ops on one block before the next, so the block and its GEMM output
#: stay in L2.  Won a 2^14..2^19 sweep on qft20/qaoa20 (docs/backends.md).
DEFAULT_BLOCK_ELEMENTS = 1 << 16

#: A row-range sweep: ``sweep(lo, hi)`` runs a part over rows ``[lo, hi)``.
RowSweep = Callable[[int, int], None]


def _resolve_threads(threads: Optional[int]) -> int:
    """Thread count: ``None`` means the core count, anything else must
    be an integer ``>= 1`` (0 is rejected, never read as "default").

    >>> _resolve_threads(3)
    3
    >>> _resolve_threads(0)
    Traceback (most recent call last):
        ...
    ValueError: threads must be an integer >= 1 (None = core count), got 0
    """
    if threads is None:
        return os.cpu_count() or 1
    if (
        isinstance(threads, bool)
        or not isinstance(threads, (int, np.integer))
        or threads < 1
    ):
        raise ValueError(
            "threads must be an integer >= 1 (None = core count), "
            f"got {threads!r}"
        )
    return int(threads)


def split_blocks(total: int, parts: int) -> List[Tuple[int, int]]:
    """Deterministic contiguous ``[lo, hi)`` blocks covering ``range(total)``.

    Depends only on ``(total, parts)`` — never on scheduling — which is
    what makes threaded execution reproducible run-to-run: the same rows
    always land in the same block, and blocks write disjoint slices.

    >>> split_blocks(10, 3)
    [(0, 4), (4, 7), (7, 10)]
    >>> split_blocks(2, 8)       # never more blocks than rows
    [(0, 1), (1, 2)]
    """
    if total < 0 or parts < 1:
        raise ValueError("need total >= 0 and parts >= 1")
    parts = max(1, min(parts, total))
    base, rem = divmod(total, parts)
    blocks: List[Tuple[int, int]] = []
    lo = 0
    for i in range(parts):
        hi = lo + base + (1 if i < rem else 0)
        blocks.append((lo, hi))
        lo = hi
    return blocks


class ExecutionBackend:
    """Strategy interface for running compiled sweeps.

    Three entry points mirror the three call sites:

    * :meth:`run_plan` — one hierarchical part: gather the inner
      vectors, apply the part's compiled ops, scatter back.
    * :meth:`apply_matrix_rows` — one unitary over a row-batched state
      (the distributed engines' shard matrix).
    * :meth:`apply_gate_flat` — one gate on a flat ``2^n`` state (the
      flat simulator).

    Backends may hold resources (thread pools, device caches);
    ``close()`` releases them and instances are usable as context
    managers.  ``begin_run``/``end_run`` bracket a multi-part execution
    so backends that stage the state elsewhere (a device) pay the round
    trip once per run instead of once per part.

    >>> resolve_backend("serial").describe()
    'serial'
    >>> get_backend("threaded", threads=4).describe()
    'threaded[4]'
    """

    name = "abstract"

    # -- lifecycle ---------------------------------------------------------

    def begin_run(self, state: np.ndarray) -> None:
        """Called by the executor before the first part of a run."""

    def end_run(self, state: np.ndarray) -> None:
        """Called by the executor after the last part of a run."""

    def close(self) -> None:
        """Release pools/caches; the backend may be used again after."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- work --------------------------------------------------------------

    #: Array-namespace identity (``"numpy"``/``"cupy"``/``"torch"``) for
    #: backends that route kernels through one; surfaced in
    #: ``ExecutionTrace.array_module``.
    array_module: Optional[str] = None

    def run_plan(
        self,
        plan,
        state: np.ndarray,
        num_qubits: int,
        mode: str = "batched",
    ) -> str:
        """Execute one part plan; returns the kernel path that ran
        (``"strided"`` for the gather-free fast lane, ``"gather"`` for
        the gather-matrix sweep)."""
        raise NotImplementedError

    def apply_matrix_rows(
        self,
        rows: np.ndarray,
        matrix: np.ndarray,
        positions: Sequence[int],
        num_local: int,
        *,
        diagonal: bool = False,
    ) -> None:
        raise NotImplementedError

    def apply_gate_flat(
        self, state: np.ndarray, gate: Gate, num_qubits: int
    ) -> None:
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable identity, e.g. ``threaded[4]``."""
        return self.name


def _strided_eligible(plan, strided_max: int) -> bool:
    """True when every op of ``plan`` fits the gather-free strided path:
    at most ``strided_max`` target qubits after control extraction."""
    if strided_max < 0:
        return False
    for op in plan.ops:
        if len(op.qubits) <= strided_max:
            continue  # controls can only shrink the target count
        _, targets, _ = split_controls(op.matrix(), op.qubits)
        if len(targets) > strided_max:
            return False
    return True


def _row_blocks(rows: int, row_width: int, block_elements: int):
    """Blocks of a power of two of ``2^row_width``-amplitude rows: at
    most ``block_elements`` amplitudes, at least a row.

    >>> _row_blocks(8, 2, 16)
    [(0, 4), (4, 8)]
    """
    step = 1 << max(0, block_elements.bit_length() - 1 - row_width)
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _part_sweep(
    plan, state: np.ndarray, num_qubits: int, mode: str, strided_max: int,
    block_elements: int = DEFAULT_BLOCK_ELEMENTS,
) -> Tuple[str, List[Tuple[int, int]], RowSweep]:
    """One part as a row-range sweep: ``(path, blocks, sweep)``.

    ``sweep(lo, hi)`` runs all of the part's ops on rows ``[lo, hi)``
    and writes them back.  Rows are independent, so covering them with
    disjoint ranges — in any order, on any thread — runs the whole
    part; ``blocks`` is the cache-sized cover and ``path`` names the
    kernel lane.

    * **strided** (``mode="batched"``, every op within ``strided_max``
      targets): ops carry *global* qubit labels, all below
      ``local = max qubit + 1``, so the flat state is a ``(rows,
      2^local)`` view and each op lands in place on a row block through
      bit-strided views — no index, no gathered copy.
    * **gather**: rows ``outer[t] + inner`` of the factored gather
      table, gathered into the plan's start layout, run through its
      layout steps (:func:`~repro.sv.kernels.apply_layout_steps`) and
      scattered from its final layout.  ``literal`` (the paper's loop)
      is one-row blocks.
    """
    if mode == "batched" and _strided_eligible(plan, strided_max):
        ops = plan.ops
        if not ops:
            return "strided", [], lambda lo, hi: None
        local = max(q for op in ops for q in op.qubits) + 1
        view = state.reshape(-1, 1 << local)
        splits = [split_controls(op.matrix(), op.qubits) for op in ops]

        def sweep(lo: int, hi: int) -> None:
            sub = view[lo:hi].reshape((hi - lo,) + (2,) * local)
            for op, split in zip(ops, splits):
                _apply_strided(sub, split, local, 1, op.is_diagonal)

        return "strided", _row_blocks(len(view), local, block_elements), sweep

    w = len(plan.qubits)
    outer, inner = plan.structure.offsets(num_qubits)
    layout = plan.structure.layout
    program = layout_program(plan.local_ops(), layout, w)
    start, _, final = layout
    # A block's index is one broadcast add of its outer offsets onto the
    # inner offsets laid out like the block (axis labels as in
    # layout_steps); the final layout folds into the scatter index.
    inner = inner.reshape((1,) + (2,) * w)
    laid = [
        (lay, np.ascontiguousarray(inner.transpose([w - a for a in lay])))
        for lay in (start, final)
    ]

    def sweep(lo: int, hi: int) -> None:
        gather, scatter = (
            outer[lo:hi].reshape([hi - lo if a == w else 1 for a in lay]) + at
            for lay, at in laid
        )
        state[scatter] = apply_layout_steps(state[gather], program)

    per_block = block_elements if mode == "batched" else 1
    return "gather", _row_blocks(outer.size, w, per_block), sweep


def _run_part_serial(
    plan,
    state: np.ndarray,
    num_qubits: int,
    mode: str,
    strided_max: Optional[int] = None,
) -> str:
    """The serial part loop — the sweep over each row block in turn;
    returns the kernel path that ran."""
    if strided_max is None:
        strided_max = strided_max_qubits()
    path, blocks, sweep = _part_sweep(plan, state, num_qubits, mode, strided_max)
    for lo, hi in blocks:
        sweep(lo, hi)
    return path


class SerialBackend(ExecutionBackend):
    """Single-threaded execution — the reference all others must match.

    Each part runs block by block (:data:`DEFAULT_BLOCK_ELEMENTS`).
    Small fused groups run gather-free (``strided_max``, default from
    ``REPRO_KERNEL_STRIDED_MAX``); the rest gather/execute/scatter.

    >>> import numpy as np
    >>> from repro.circuits.gates import make_gate
    >>> state = np.zeros(4, dtype=np.complex128); state[0] = 1.0
    >>> SerialBackend().apply_gate_flat(state, make_gate("x", [0]), 2)
    >>> int(state.argmax())
    1
    """

    name = "serial"

    def __init__(self, *, strided_max: Optional[int] = None) -> None:
        self.strided_max = (
            strided_max_qubits() if strided_max is None else int(strided_max)
        )

    def run_plan(self, plan, state, num_qubits, mode="batched"):
        return _run_part_serial(
            plan, state, num_qubits, mode, self.strided_max
        )

    def apply_matrix_rows(
        self, rows, matrix, positions, num_local, *, diagonal=False
    ):
        apply_matrix_batched(
            rows, matrix, positions, num_local, diagonal=diagonal
        )

    def apply_gate_flat(self, state, gate, num_qubits):
        apply_gate(state, gate, num_qubits)


class ThreadedBackend(ExecutionBackend):
    """Row-block parallelism on a thread pool: serial's own row blocks,
    dealt across the pool in contiguous runs.

    >>> import numpy as np
    >>> rows = np.eye(4, dtype=np.complex128)
    >>> backend = ThreadedBackend(2, min_parallel_elements=0)
    >>> X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    >>> backend.apply_matrix_rows(rows, X, [0], 2)
    >>> [int(r.argmax()) for r in rows]       # qubit 0 flipped per row
    [1, 0, 3, 2]
    >>> backend.close()

    Parameters
    ----------
    threads:
        Worker count, an integer ``>= 1`` (``None``: ``os.cpu_count()``).
    min_parallel_elements:
        Workloads touching fewer amplitudes than this run inline as one
        block (default 16384).  Set 0 to force parallel dispatch (the
        differential tests do).
    block_elements:
        Amplitudes per row block (default :data:`DEFAULT_BLOCK_ELEMENTS`,
        serial's blocks); boundaries depend only on sizes and settings.
    """

    name = "threaded"

    def __init__(
        self,
        threads: Optional[int] = None,
        *,
        min_parallel_elements: int = DEFAULT_MIN_PARALLEL_ELEMENTS,
        block_elements: int = DEFAULT_BLOCK_ELEMENTS,
        strided_max: Optional[int] = None,
    ) -> None:
        self.threads = _resolve_threads(threads)
        self.min_parallel_elements = int(min_parallel_elements)
        self.block_elements = int(block_elements)
        if self.block_elements < 1:
            raise ValueError("block_elements must be >= 1")
        self.strided_max = (
            strided_max_qubits() if strided_max is None else int(strided_max)
        )
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    def describe(self) -> str:
        return f"threaded[{self.threads}]"

    def _get_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.threads,
                    thread_name_prefix="repro-sv",
                )
            return self._pool

    def close(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def _map_blocks(self, fn: RowSweep, blocks) -> None:
        """Run ``fn(lo, hi)`` per block; reuse the caller thread for the
        last block so a 1-block dispatch never pays pool latency.

        Every submitted block is drained before returning *or raising* —
        propagating early would let pool threads keep mutating the
        caller's state behind an unwinding stack (and lose their
        errors).  The first failure (inline block first) is re-raised.
        """
        if len(blocks) == 1:
            fn(*blocks[0])
            return
        pool = self._get_pool()
        futures = [pool.submit(fn, lo, hi) for lo, hi in blocks[:-1]]
        error: Optional[BaseException] = None
        try:
            fn(*blocks[-1])
        except BaseException as exc:
            error = exc
        for f in futures:
            try:
                f.result()
            except BaseException as exc:
                if error is None:
                    error = exc
        if error is not None:
            raise error

    def _map_rows(self, fn: RowSweep, blocks, elements: int) -> None:
        """Run ``fn`` over ``blocks`` in order, inline for small
        workloads; else deal them to the pool in contiguous runs, split
        further (:func:`split_blocks`) only if fewer than the threads."""
        rows = blocks[-1][1] if blocks else 0
        if rows < 2 or elements < self.min_parallel_elements:
            for lo, hi in blocks:
                fn(lo, hi)
            return
        if len(blocks) < self.threads:
            blocks = split_blocks(rows, self.threads)

        def run(first: int, last: int) -> None:
            for lo, hi in blocks[first:last]:
                fn(lo, hi)

        self._map_blocks(run, split_blocks(len(blocks), self.threads))

    # -- work --------------------------------------------------------------

    def run_plan(self, plan, state, num_qubits, mode="batched"):
        path, blocks, sweep = _part_sweep(
            plan, state, num_qubits, mode, self.strided_max,
            self.block_elements,
        )
        self._map_rows(sweep, blocks, state.size)
        return path

    def apply_matrix_rows(
        self, rows, matrix, positions, num_local, *, diagonal=False
    ):
        def block(lo: int, hi: int) -> None:
            apply_matrix_batched(
                rows[lo:hi], matrix, positions, num_local, diagonal=diagonal
            )

        blocks = _row_blocks(len(rows), num_local, self.block_elements)
        self._map_rows(block, blocks, rows.size)

    def apply_gate_flat(self, state, gate, num_qubits):
        # A gate on qubits < w leaves the leading 2^(n-w) blocks of the
        # flat state independent: reshape (no copy) and row-block them.
        w = max(gate.qubits) + 1
        rows = 1 << (num_qubits - w)
        if rows < 2 or state.size < self.min_parallel_elements:
            apply_gate(state, gate, num_qubits)
            return
        view = state.reshape(rows, 1 << w)
        self.apply_matrix_rows(
            view, gate.matrix(), gate.qubits, w, diagonal=gate.is_diagonal
        )


# ---------------------------------------------------------------------------
# Array-namespace backend
# ---------------------------------------------------------------------------

#: Array namespaces the :class:`ArrayBackend` knows how to adapt
#: (``REPRO_ARRAY_MODULE``).  NumPy is always available; CuPy and
#: PyTorch resolve only when importable.
ARRAY_MODULE_NAMES = ("numpy", "cupy", "torch")


class ArrayModule:
    """Adapter pairing an array namespace with host-transfer primitives.

    The :class:`ArrayBackend` speaks a tiny dialect — upload
    (:meth:`from_host`), download (:meth:`to_host`), :meth:`moveaxis`,
    plus whatever ``reshape`` / ``@`` / advanced indexing the arrays
    themselves support — so one sweep implementation serves NumPy, CuPy
    and PyTorch.  ``host`` marks the plain-NumPy module, where device
    and host memory are the same thing and every transfer is free.

    >>> import numpy as np
    >>> mod = ArrayModule("numpy", np)
    >>> mod.host
    True
    >>> arr = np.arange(4.0)
    >>> mod.to_host(mod.from_host(arr)) is arr      # no copies on host
    True
    """

    def __init__(self, name: str, xp, *, host: Optional[bool] = None) -> None:
        self.name = name
        self.xp = xp
        self.host = (name == "numpy") if host is None else bool(host)
        self.device = None
        if name == "torch":  # pragma: no cover - torch not in CI image
            self.device = "cuda" if xp.cuda.is_available() else "cpu"

    def from_host(self, arr: np.ndarray):
        """Upload a host array (no-op identity for the NumPy module)."""
        if self.name == "torch":  # pragma: no cover
            return self.xp.as_tensor(arr).to(self.device)
        return self.xp.asarray(arr)

    def to_host(self, dev) -> np.ndarray:
        """Download a device array to host NumPy."""
        if self.name == "torch":  # pragma: no cover
            return dev.detach().cpu().numpy()
        if self.name == "cupy":  # pragma: no cover - cupy not in CI image
            return self.xp.asnumpy(dev)
        return np.asarray(dev)

    def moveaxis(self, a, src, dst):
        """``moveaxis`` in whatever spelling the namespace uses."""
        if self.name == "torch":  # pragma: no cover
            return self.xp.movedim(a, src, dst)
        return self.xp.moveaxis(a, src, dst)

    def __repr__(self) -> str:
        return f"ArrayModule({self.name!r})"


def resolve_array_module(
    spec: Union[None, str, ArrayModule] = None
) -> ArrayModule:
    """Resolve an array-namespace spec to an :class:`ArrayModule`.

    ``None`` consults ``REPRO_ARRAY_MODULE`` (empty counts as unset,
    default ``numpy``); a name imports the module (``cupy`` / ``torch``
    raise a :class:`RuntimeError` naming the missing dependency when not
    installed — nothing is ever installed implicitly); an
    :class:`ArrayModule` instance passes through.

    >>> resolve_array_module().name       # numpy is always available
    'numpy'
    >>> resolve_array_module("opencl")
    Traceback (most recent call last):
        ...
    KeyError: "unknown array module 'opencl'; choose from ('numpy', 'cupy', 'torch')"
    """
    if isinstance(spec, ArrayModule):
        return spec
    if spec is None:
        spec = os.environ.get("REPRO_ARRAY_MODULE") or "numpy"
    if spec not in ARRAY_MODULE_NAMES:
        raise KeyError(
            f"unknown array module {spec!r}; choose from {ARRAY_MODULE_NAMES}"
        )
    if spec == "numpy":
        return ArrayModule("numpy", np)
    try:
        xp = __import__(spec)
    except ImportError as exc:
        raise RuntimeError(
            f"array module {spec!r} is not importable ({exc}); install it "
            "or set REPRO_ARRAY_MODULE=numpy"
        ) from None
    return ArrayModule(spec, xp)  # pragma: no cover - needs cupy/torch


class ArrayBackend(ExecutionBackend):
    """Kernel sweeps through a pluggable array namespace.

    With the (default) NumPy module this backend shares the serial code
    path outright — including the strided fast lane — so it is
    bit-identical to :class:`SerialBackend` by construction.  With a
    device module (CuPy, PyTorch) the state uploads once per run
    (``begin_run``) and downloads once (``end_run``); in between, every
    sweep runs device-side against matrices and gather tables held in a
    bounded per-plan device cache (``plan_uploads`` / ``plan_cache_hits``
    count the round trips saved), so repeated sweeps of a cached plan
    move no bytes over the host link.  See ``docs/backends.md`` for the
    residency lifecycle.

    >>> backend = ArrayBackend()              # REPRO_ARRAY_MODULE or numpy
    >>> backend.describe()
    'array[numpy]'
    >>> import numpy as np
    >>> from repro.circuits.gates import make_gate
    >>> state = np.zeros(4, dtype=np.complex128); state[0] = 1.0
    >>> backend.apply_gate_flat(state, make_gate("x", [1]), 2)
    >>> int(state.argmax())
    2
    """

    name = "array"

    #: Device-plan cache entries kept per backend (LRU beyond this).
    MAX_CACHED_PLANS = 256

    def __init__(
        self,
        *,
        module: Union[None, str, ArrayModule] = None,
        strided_max: Optional[int] = None,
    ) -> None:
        self.module = resolve_array_module(module)
        self.array_module = self.module.name
        self.strided_max = (
            strided_max_qubits() if strided_max is None else int(strided_max)
        )
        self.plan_uploads = 0
        self.plan_cache_hits = 0
        self._plans: "OrderedDict[tuple, dict]" = OrderedDict()
        self._plans_lock = threading.Lock()
        self._sessions: Dict[int, object] = {}
        self._session_lock = threading.Lock()

    def describe(self) -> str:
        return f"array[{self.module.name}]"

    def close(self) -> None:
        """Drop cached device plans and abandon any open sessions."""
        with self._plans_lock:
            self._plans.clear()
        with self._session_lock:
            self._sessions.clear()

    # -- device-residency session -----------------------------------------

    def begin_run(self, state: np.ndarray) -> None:
        """Upload ``state`` once; sweeps stay device-side until
        :meth:`end_run` (host module: the state *is* the device array)."""
        key = id(state)
        with self._session_lock:
            if key in self._sessions:
                raise RuntimeError(
                    "a run on this state is already in progress"
                )
            self._sessions[key] = state if self.module.host else None
        if not self.module.host:
            dev = self.module.from_host(state)
            with self._session_lock:
                self._sessions[key] = dev

    def end_run(self, state: np.ndarray) -> None:
        """Download the device state back into ``state`` and close the
        session (host module: nothing to move)."""
        with self._session_lock:
            dev = self._sessions.pop(id(state), None)
        if dev is None or self.module.host:
            return
        state[...] = self.module.to_host(dev)

    def _session_for(self, state: np.ndarray):
        with self._session_lock:
            return self._sessions.get(id(state))

    # -- per-plan device cache --------------------------------------------

    def _device_plan(self, plan, num_qubits: int) -> dict:
        """Device-resident table + op matrices for ``plan`` (LRU cache).

        Keyed by plan identity: the bound plan pins its cache entry, so
        a ``PlanCache``-reused plan hits here on every subsequent sweep
        and its matrices never cross the host link again.
        """
        key = (id(plan), num_qubits)
        with self._plans_lock:
            entry = self._plans.get(key)
            if entry is not None and entry["plan"] is plan:
                self.plan_cache_hits += 1
                self._plans.move_to_end(key)
                return entry
        w = len(plan.qubits)
        entry = {
            "plan": plan,
            "table": self.module.from_host(plan.gather_table(num_qubits)),
            "ops": [
                self._device_op(op.matrix(), op.qubits, w, op.is_diagonal)
                for op in plan.local_ops()
            ],
            "w": w,
        }
        with self._plans_lock:
            self._plans[key] = entry
            self.plan_uploads += 1
            while len(self._plans) > self.MAX_CACHED_PLANS:
                self._plans.popitem(last=False)
        return entry

    def _device_op(self, matrix, qubits, w: int, diagonal: bool) -> tuple:
        """Upload one op in the :meth:`_sweep_rows` format:
        ``(device operand, view axes, diagonal)`` over the
        ``(batch,) + (2,)*w`` row view.  A diagonal op uploads its
        factor pre-shaped for a broadcast multiply."""
        axes = _gate_axes(w + 1, w, qubits, lead=1)
        if not diagonal:
            return (self.module.from_host(matrix), axes, False)
        fac = _diag_factor(np.diag(matrix), axes, w + 1)
        return (self.module.from_host(fac), axes, True)

    # -- work --------------------------------------------------------------

    def _sweep_rows(self, inner, entry: dict):
        """Apply a cached plan's ops to device rows ``(B, 2^w)``
        (out of place: device namespaces may not alias views)."""
        mod = self.module
        w = entry["w"]
        batch = inner.shape[0]
        for dev_op, axes, diagonal in entry["ops"]:
            view = inner.reshape((batch,) + (2,) * w)
            if diagonal:
                inner = (view * dev_op).reshape(batch, 1 << w)
                continue
            k = dev_op.shape[0].bit_length() - 1
            front = list(range(1, k + 1))
            moved = mod.moveaxis(view, axes, front)
            shape = tuple(moved.shape)
            flat = moved.reshape(batch, 1 << k, -1)
            res = dev_op @ flat
            inner = mod.moveaxis(
                res.reshape(shape), front, axes
            ).reshape(batch, 1 << w)
        return inner

    def run_plan(self, plan, state, num_qubits, mode="batched"):
        if self.module.host:
            return _run_part_serial(
                plan, state, num_qubits, mode, self.strided_max
            )
        session = self._session_for(state)
        owned = session is None
        if owned:
            # No bracketing run: pay the host transfer at this part
            # boundary only.
            self.begin_run(state)
            session = self._session_for(state)
        try:
            entry = self._device_plan(plan, num_qubits)
            table = entry["table"]
            if mode == "batched":
                session[table] = self._sweep_rows(session[table], entry)
            else:
                for t in range(table.shape[0]):
                    rows = table[t : t + 1]
                    session[rows] = self._sweep_rows(session[rows], entry)
        finally:
            if owned:
                self.end_run(state)
        return "gather"

    # Row-batched and flat-gate call sites hand us host arrays; with a
    # device module each call pays its own round trip, so the
    # hierarchical part path is where this backend earns its keep.
    def apply_matrix_rows(
        self, rows, matrix, positions, num_local, *, diagonal=False
    ):
        if self.module.host:
            apply_matrix_batched(
                rows, matrix, positions, num_local, diagonal=diagonal
            )
            return
        dev = self.module.from_host(rows)
        entry = {
            "plan": None,
            "w": num_local,
            "ops": [self._device_op(matrix, positions, num_local, diagonal)],
        }
        rows[...] = self.module.to_host(self._sweep_rows(dev, entry))

    def apply_gate_flat(self, state, gate, num_qubits):
        if self.module.host:
            apply_gate(state, gate, num_qubits)
            return
        view = state.reshape(1, -1)
        self.apply_matrix_rows(
            view, gate.matrix(), gate.qubits, num_qubits,
            diagonal=gate.is_diagonal,
        )


# ---------------------------------------------------------------------------
# Selection / sharing
# ---------------------------------------------------------------------------

BACKEND_NAMES = ("serial", "threaded", "array")

_BACKEND_CLASSES = {
    "serial": SerialBackend,
    "threaded": ThreadedBackend,
    "array": ArrayBackend,
}

_shared: Dict[tuple, ExecutionBackend] = {}
_shared_lock = threading.Lock()


def get_backend(
    name: str, *, threads: Optional[int] = None, **kwargs
) -> ExecutionBackend:
    """Construct a fresh backend by name (caller owns/closes it).

    ``threads`` configures ``threaded`` only; the other backends have
    no pool and ignore it.

    >>> get_backend("serial").name
    'serial'
    >>> get_backend("threaded", threads=2).threads
    2
    """
    if name not in _BACKEND_CLASSES:
        raise KeyError(
            f"unknown backend {name!r}; choose from {BACKEND_NAMES}"
        )
    if name == "threaded":
        return ThreadedBackend(threads, **kwargs)
    return _BACKEND_CLASSES[name](**kwargs)


def shared_backend(
    name: str, threads: Optional[int] = None
) -> ExecutionBackend:
    """Process-wide shared backend instance for ``(name, threads)``.

    Executors resolved from names/environment share pools through here,
    so a test suite running under ``REPRO_BACKEND=threaded`` spins up
    one thread pool, not one per executor.  The thread count is resolved
    (``None`` = core count) before keying, so the default and its
    explicit value share one pool; backends without a pool share one
    instance regardless.  Shared instances are never closed by their
    users; they live for the process.

    >>> shared_backend("serial") is shared_backend("serial")
    True
    """
    threads = _resolve_threads(threads) if name == "threaded" else None
    key = (name, threads)
    with _shared_lock:
        backend = _shared.get(key)
        if backend is None:
            backend = get_backend(name, threads=threads)
            _shared[key] = backend
        return backend


def _env_threads() -> Optional[int]:
    """``REPRO_THREADS`` as a thread count (unset or empty: ``None``)."""
    env = os.environ.get("REPRO_THREADS")
    if not env:
        return None
    try:
        return _resolve_threads(int(env))
    except ValueError:
        raise ValueError(
            f"REPRO_THREADS must be an integer >= 1, got {env!r}"
        ) from None


def resolve_backend(
    spec: Union[None, str, ExecutionBackend] = None,
    threads: Optional[int] = None,
) -> ExecutionBackend:
    """Resolve a ``backend=`` argument to a live backend.

    ``None`` consults ``REPRO_BACKEND`` (default ``serial``); a string
    names a shared instance; an :class:`ExecutionBackend` passes
    through.  ``threads`` defaults from ``REPRO_THREADS`` when unset.

    >>> resolve_backend("threaded", 2).describe()
    'threaded[2]'
    >>> backend = SerialBackend()
    >>> resolve_backend(backend) is backend
    True
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None:
        # Empty string counts as unset (CI matrix legs export "").
        spec = os.environ.get("REPRO_BACKEND") or "serial"
    if threads is None:
        threads = _env_threads()
    return shared_backend(spec, threads)
