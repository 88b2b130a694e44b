"""Pauli-string observables on state vectors.

Downstream users of a state-vector simulator almost always want
``<psi| P |psi>`` for Pauli strings ``P`` (VQE/QAOA energies, correlation
functions).  A term costs a few state sweeps and no index arrays: X/Y
reverse the term's axes of the ``(2,)*n`` view of the state, giving the
weight vector ``conj(psi) * flip(psi)`` (``|psi|^2`` if Z-only); Z/Y
signs are halving folds ``w[bit=0] - w[bit=1]`` from the highest sign
qubit down; each Y adds a factor ``-i``; the folded vector is summed.
Terms sharing an X/Y support share one weight vector, and a term's value
never depends on the other terms it is evaluated with.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

import numpy as np

__all__ = ["pauli_expectation", "PauliTerm", "expectations", "energy"]

PauliTerm = Union[str, Mapping[int, str]]

_LOW_QUBITS = 10


def _normalise(term: PauliTerm, num_qubits: int) -> Dict[int, str]:
    """Accept 'XZI...' strings (qubit 0 leftmost) or {qubit: 'X'} maps
    with integer (not bool/float) qubits and string letters."""
    if isinstance(term, str) and len(term) != num_qubits:
        raise ValueError(
            f"Pauli string length {len(term)} != {num_qubits} qubits"
        )
    ops = {}
    for q, c in enumerate(term) if isinstance(term, str) else term.items():
        if isinstance(q, bool) or not isinstance(q, (int, np.integer)):
            raise ValueError(f"qubit {q!r} is not an integer")
        if not isinstance(c, str):
            raise ValueError(f"Pauli {c!r} on qubit {q} is not a string")
        if c.upper() != "I":
            if not 0 <= q < num_qubits:
                raise ValueError(f"qubit {q} out of range")
            if c.upper() not in ("X", "Y", "Z"):
                raise ValueError(f"bad Pauli {c!r}")
            ops[int(q)] = c.upper()
    return ops


def _split(ops: Mapping[int, str]) -> Tuple[Tuple[int, ...], List[int], int]:
    """(X/Y qubits, Z/Y qubits from highest down, number of Y factors)."""
    flips = tuple(sorted(q for q, c in ops.items() if c != "Z"))
    signs = sorted((q for q, c in ops.items() if c != "X"), reverse=True)
    return flips, signs, sum(c == "Y" for c in ops.values())


def _flip(array: np.ndarray, flips: Sequence[int], num_qubits: int):
    """View of ``array``'s last axis as ``(2,)*num_qubits`` (qubit 0 last)
    with the axes of ``flips`` reversed: the index map ``i -> i ^ mask``."""
    view = array.reshape(array.shape[:-1] + (2,) * num_qubits)
    return view[(Ellipsis,) + tuple(
        slice(None, None, -1 if q in flips else 1)
        for q in reversed(range(num_qubits))
    )]


def _signed_sum(part: np.ndarray, signs: Sequence[int]) -> float:
    """``sum_i (-1)^(bits of i at signs) * part[i]``, signs highest first."""
    for q in signs:
        if q < _LOW_QUBITS and part.size > 1 << _LOW_QUBITS:
            # Short-row folds are slow: pre-sum the sign-free top first.
            part = part.reshape(-1, 1 << _LOW_QUBITS).sum(axis=0)
        halves = part.reshape(-1, 2, 1 << q)
        part = halves[:, 0, :] - halves[:, 1, :]
    return float(part.sum())


def pauli_expectation(
    state: np.ndarray, term: PauliTerm, num_qubits: int
) -> float:
    """``<state| P |state>`` for one Pauli string (real by Hermiticity).

    Accepts ``"XZI"``-style strings (qubit 0 leftmost) or sparse
    ``{qubit: op}`` maps.

    >>> import numpy as np
    >>> state = np.zeros(2, dtype=np.complex128); state[1] = 1.0   # |1>
    >>> pauli_expectation(state, "Z", 1)
    -1.0
    >>> plus = np.full(2, 2**-0.5, dtype=np.complex128)            # |+>
    >>> round(pauli_expectation(plus, {0: "X"}, 1), 12)
    1.0
    """
    return expectations(state, [term], num_qubits)[0]


def expectations(
    state: np.ndarray,
    terms: Sequence[PauliTerm],
    num_qubits: int,
) -> List[float]:
    """``<state| P_k |state>`` for a sequence of Pauli strings.

    The batched form the serving runtime uses for expectation-value job
    outputs: one float per requested term, in order, each bitwise what
    :func:`pauli_expectation` returns for that term alone.  One weight
    vector (one state-sized temporary) is alive at a time.

    >>> import numpy as np
    >>> state = np.zeros(4, dtype=np.complex128); state[0] = 1.0  # |00>
    >>> [round(v, 12) for v in expectations(state, ["ZI", "ZZ", "XI"], 2)]
    [1.0, 1.0, 0.0]
    """
    state = np.asarray(state)
    parsed = [_split(_normalise(term, num_qubits)) for term in terms]
    if state.shape != (1 << num_qubits,):
        raise ValueError("state length mismatch")
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for k, (flips, _, _) in enumerate(parsed):
        groups.setdefault(flips, []).append(k)
    values = [0.0] * len(parsed)
    for flips, members in groups.items():
        if flips:
            w = np.conjugate(state).reshape((2,) * num_qubits)
            np.multiply(w, _flip(state, flips, num_qubits), out=w)
            w = w.reshape(-1)
        else:
            w = np.abs(state)
            w *= w
        for k in members:
            _, signs, num_y = parsed[k]
            # Re((-i)^#Y * signed sum): Re or Im, negated if #Y%4 is 2 or 3.
            total = _signed_sum(w.imag if num_y % 2 else w.real, signs)
            values[k] = -total if num_y % 4 >= 2 else total
        del w  # before the next group allocates its weight vector
    return values


def energy(
    state: np.ndarray,
    hamiltonian: Iterable[Tuple[float, PauliTerm]],
    num_qubits: int,
) -> float:
    """Weighted sum of Pauli expectations: ``sum_k c_k <P_k>``.

    >>> import numpy as np
    >>> state = np.zeros(4, dtype=np.complex128); state[0] = 1.0   # |00>
    >>> energy(state, [(0.5, "ZI"), (-2.0, "ZZ")], 2)   # 0.5*1 - 2*1
    -1.5
    """
    pairs = list(hamiltonian)
    values = expectations(state, [term for _, term in pairs], num_qubits)
    return sum(float(c) * v for (c, _), v in zip(pairs, values))
