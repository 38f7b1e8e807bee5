"""References that only the tests read: oracles the package is checked
against, and the reader of the state files that ``build`` writes."""

import os
from functools import reduce

import numpy as np

from clockless.circuit import Gate, LayeredCircuit, apply_circuit
from clockless.io import SchemaError
from clockless.limits import dense_bytes, require
from clockless.linalg import apply_matrix, is_hermitian
from clockless.pauli import _bell
from clockless.rotation import RotationUnitary, _cone, clifford_partners

# Column t is sqrt(2) times the Bell state of PAULI_TAGS[t], as the
# ``clockless.pauli`` docstring lists them: integer entries, so the oracles
# built from them round only in their own products.
SCALED_BELL_BASIS = np.array(
    [[1, 0, 0, 1], [0, 1, 1, 0], [0, -1, 1, 0], [1, 0, 0, -1]], dtype=float
).T


def circuit_unitary(c: LayeredCircuit) -> np.ndarray:
    require("a dense circuit unitary", c.n, dense_bytes(c.n))
    return apply_circuit(c, np.eye(2**c.n, dtype=np.complex128))


def embed_operator(op, wires, num_qubits: int) -> np.ndarray:
    """Dense 2^N x 2^N embedding of ``op`` on ``wires``, identity elsewhere.

    Wires are listed most significant first, as ``apply_matrix`` takes them.
    ``np.kron(op, I)`` holds ``op``'s qubits on its leading axes, then the
    other qubits in descending order; one axis permutation puts every qubit
    in place, so no package contraction is involved.
    """
    require("a dense embedding", num_qubits, 2 * dense_bytes(num_qubits))
    wires = list(wires)
    rest = [q for q in reversed(range(num_qubits)) if q not in wires]
    axis = {q: i for i, q in enumerate(wires + rest)}
    perm = [axis[q] for q in reversed(range(num_qubits))]
    full = np.kron(op, np.eye(2 ** len(rest))).reshape((2,) * (2 * num_qubits))
    full = full.transpose(perm + [num_qubits + p for p in perm])
    return full.reshape(2**num_qubits, 2**num_qubits)


def dense_term_energy(term, vec: np.ndarray, num_qubits: int) -> float:
    """<v|h|v> of a ``LocalTerm``'s block over the whole vector,
    unnormalized: the dense energy that ``sparse_energy`` is checked
    against."""
    applied = apply_matrix(vec, term.block, tuple(reversed(term.support)), num_qubits)
    return float(np.vdot(vec, applied).real)


def wire_cone(circuit: LayeredCircuit, support) -> RotationUnitary:
    """The wire cone of ``support``: every factor of the circuit's rotation
    that reaches it, grown over the whole grid's factor list from the output
    side, on the qubits those factors touch. For ``T`` on ``support``,
    ``U† T U`` is its ``U_C† T U_C`` there and the identity elsewhere."""
    ops = RotationUnitary(circuit)._ops
    reach, kept = set(support), []
    for mat, wires in reversed(ops):
        if reach.intersection(wires):
            reach.update(wires)
            kept.append((mat, wires))
    return _cone(kept, reach)


def trim_trivial_qubits(
    block: np.ndarray, support: tuple[int, ...], tol: float = 1e-10
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Drop support qubits on which the block acts as the identity, within
    ``tol`` in the Frobenius norm: the support a wire-cone block is known to
    rotate onto, found numerically.

    One pass from the highest bit down: dropping a bit leaves the lower
    bits where they were, and a block ``I ⊗ B`` is trivial on a bit exactly
    where ``B`` is. The last qubit left is kept.
    """
    for b in reversed(range(len(support))):
        m = len(support)
        if m == 1:
            break
        split = np.moveaxis(
            block.reshape((2,) * (2 * m)), (m - 1 - b, 2 * m - 1 - b), (0, 1)
        )
        if (
            np.linalg.norm(split[0, 1]) <= tol
            and np.linalg.norm(split[1, 0]) <= tol
            and np.linalg.norm(split[0, 0] - split[1, 1]) <= tol
        ):
            block = split[0, 0].reshape(2 ** (m - 1), 2 ** (m - 1))
            support = support[:b] + support[b + 1 :]
    return block, support


def is_psd(m: np.ndarray, tol: float = 1e-12) -> bool:
    if not is_hermitian(m, tol):
        return False
    eigs = np.linalg.eigvalsh(m)
    return bool(eigs[0] >= -tol)


def bell_state(tag: str) -> np.ndarray:
    """Normalized Bell state (I (x) p)(|00> + |11>)/sqrt(2) for tag p."""
    return _bell(tag).copy()


def read_state_bin(path) -> np.ndarray:
    """The vector ``io.write_state_bin`` wrote: little-endian float64 pairs,
    real part first."""
    raw = np.fromfile(os.fspath(path), dtype="<f8")
    if raw.size % 2 != 0:
        raise SchemaError(
            f"binary state file holds {raw.size} floats, expected an even count"
        )
    return raw[0::2] + 1j * raw[1::2]


def _scaled_bulk_bell_basis(wires) -> np.ndarray:
    """2^k times the Bell product vectors of a bulk term on ``wires``, in
    bulk bit order, column ``left * 4^k + right`` by ``tag_words(k)``
    position; word position p labels the pairs of ``wires[p]``. Per wire the
    bits read (left low, left high, right low, right high) from the least
    significant end; the largest wire takes the highest bits."""
    k = len(wires)
    order = sorted(range(k), key=lambda p: wires[p], reverse=True)
    per_wire = np.kron(SCALED_BELL_BASIS, SCALED_BELL_BASIS)
    full = reduce(np.kron, [per_wire] * k).reshape((16**k,) + (4, 4) * k)
    # Column axes come as (right tag, left tag) per wire, highest wire first.
    left = [2 + 2 * order.index(p) for p in range(k)]
    right = [1 + 2 * order.index(p) for p in range(k)]
    return full.transpose([0] + left + right).reshape(16**k, 16**k)


def dense_clifford_form(g: Gate, delta_left: float, delta_right: float):
    """``rotation.clifford_form`` as dense products: the hole ``I - B S B^T
    / 4^k`` of the Bell product basis B and the pairing counts S, between
    two copies of ``Lambda(delta_right) (x) Lambda(delta_left)`` on every
    wire, each Lambda summed from the Bell projectors."""
    k = g.arity
    n = 4**k
    t_col = clifford_partners(g)
    r, c, t = np.indices(t_col.shape)
    pairing = np.zeros((n * n, n * n))
    np.add.at(pairing, (t * n + r, t_col * n + c), 1)
    basis = _scaled_bulk_bell_basis(g.wires)
    hole = np.eye(n * n) - basis @ pairing @ basis.T / (n * 4**k)
    projectors = [np.outer(b, b) / 2 for b in SCALED_BELL_BASIS.T]

    def lam(delta):
        return delta * projectors[0] + sum(projectors[1:])

    per_wire = np.kron(lam(delta_right), lam(delta_left))
    dress = reduce(np.kron, [per_wire] * k)
    return dress @ hole @ dress
