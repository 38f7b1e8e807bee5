"""Single-site Pauli and Bell algebra, the injectivity maps, and |phi0>.

The operator set is the real one, {I, X, XZ, Z}, where XZ means the matrix
product X @ Z = [[0, -1], [1, 0]]. It is not Y: keeping every matrix real,
with entries in {-1, 0, 1}, is load-bearing for the rotated closed forms
downstream, which transpose Pauli factors freely. Note (XZ)^T = -XZ.

Bell pair convention: for a pair of qubits (first, second), ordered by qubit
index, the amplitude index of the 4-dim vector has the first qubit as bit 0,
and the tag Pauli acts on the second qubit:

    |B_I>  = (1, 0, 0, 1)/sqrt(2)
    |B_X>  = (0, 1, 1, 0)/sqrt(2)
    |B_XZ> = (0, -1, 1, 0)/sqrt(2)
    |B_Z>  = (1, 0, 0, -1)/sqrt(2)

Bell states are stored unit-normalized. The perturbation maps are

    Q      = |B_I><B_I| + delta * sum_{p != I} |B_p><B_p|
    Lambda = delta * |B_I><B_I| + sum_{p != I} |B_p><B_p|

so Q @ Lambda = delta * identity and Lambda is the inverse of Q up to the
scalar delta.

Multi-site Pauli words are tag tuples, the first tag on the most significant
factor: ``tag_words(k)`` lists all 4^k of them, ``word_matrix`` builds the
Kronecker product, ``word_stack`` caches all 4^k products as one array, and
``word_decompose`` recognizes each matrix of a stack that is a phase times
a word. The rotated closed forms, the Clifford check and
the gate error basis all build their words here.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce

import numpy as np

__all__ = [
    "PAULI_TAGS",
    "bell_basis_matrix",
    "bell_projector",
    "bell_uniform",
    "lambda_matrix",
    "pauli_matrix",
    "phi0",
    "q_matrix",
    "tag_words",
    "word_decompose",
    "word_matrix",
    "word_stack",
]

PAULI_TAGS = ("I", "X", "XZ", "Z")

_MATRICES = {
    "I": np.array([[1.0, 0.0], [0.0, 1.0]]),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "XZ": np.array([[0.0, -1.0], [1.0, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}


def pauli_matrix(tag: str) -> np.ndarray:
    """Real 2x2 matrix of one Pauli tag."""
    try:
        return _MATRICES[tag].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli tag {tag!r}, expected one of {PAULI_TAGS}")


@lru_cache(maxsize=None)
def tag_words(k: int) -> tuple[tuple[str, ...], ...]:
    """All 4^k Pauli words on k sites, in PAULI_TAGS lexicographic order."""
    return tuple(itertools.product(PAULI_TAGS, repeat=k))


def word_matrix(word: tuple[str, ...]) -> np.ndarray:
    """Kronecker product of the tags' matrices, first tag most significant."""
    return reduce(np.kron, [pauli_matrix(tag) for tag in word])


@lru_cache(maxsize=None)
def word_stack(k: int) -> np.ndarray:
    """Read-only (4^k, 2^k, 2^k) stack of ``word_matrix`` in ``tag_words`` order."""
    stack = np.stack([word_matrix(word) for word in tag_words(k)])
    stack.flags.writeable = False
    return stack


def word_decompose(mat: np.ndarray, k: int, tol: float = 1e-9):
    """Write each of a (..., 2^k, 2^k) stack of matrices as phase times a
    Pauli word.

    Returns arrays ``(phases, indices)`` over the stack's leading shape,
    indices into ``tag_words(k)`` and -1 for no word.
    """
    mat = np.asarray(mat)
    dim = 2**k
    stack = word_stack(k)
    flat = mat.reshape(-1, dim * dim)
    # The words are real, so tr(W^dagger M) / dim is a dot of the entries;
    # the largest overlap (first on ties) must have modulus 1 and match.
    overlaps = flat @ stack.reshape(len(stack), -1).T / dim
    best = np.argmax(np.abs(overlaps), axis=1)
    phases = overlaps[np.arange(len(flat)), best]
    close = np.isclose(
        flat, phases[:, None] * stack[best].reshape(len(flat), -1), atol=tol
    ).all(axis=1)
    ok = (np.abs(np.abs(phases) - 1.0) <= tol) & close
    indices = np.where(ok, best, -1)
    return phases.reshape(mat.shape[:-2]), indices.reshape(mat.shape[:-2])


@lru_cache(maxsize=None)
def _bell(tag: str) -> np.ndarray:
    pair = np.zeros(4, dtype=np.complex128)
    pair[0] = pair[3] = 1.0 / np.sqrt(2.0)  # (|00> + |11>)/sqrt(2)
    p = pauli_matrix(tag)
    # The tag Pauli acts on the second qubit, which is bit 1 of the index.
    mat = np.kron(p, np.eye(2))
    out = mat @ pair
    out.flags.writeable = False
    return out


def bell_projector(tag: str) -> np.ndarray:
    v = _bell(tag)
    return np.outer(v, v.conj())


def bell_basis_matrix() -> np.ndarray:
    """Orthogonal 4x4 matrix whose column t is the Bell state of PAULI_TAGS[t]."""
    return np.column_stack([_bell(tag) for tag in PAULI_TAGS])


def bell_uniform() -> np.ndarray:
    """The unit vector (1/2) * sum over all four Bell states."""
    return 0.5 * sum(_bell(tag) for tag in PAULI_TAGS)


# The four Bell projectors in PAULI_TAGS order, built once: Q and Lambda are
# weighted sums of them.
_BELL_PROJECTORS = np.stack([bell_projector(tag) for tag in PAULI_TAGS])
_BELL_PROJECTORS.flags.writeable = False

# Q, Lambda and phi0 are built once per delta and shared read-only: a grid
# or a probe asks for one per pair, site or layer, but holds few deltas.
_PER_DELTA = 256


def _bell_diagonal(delta: float, weights) -> np.ndarray:
    """Read-only 4x4 sum of ``weights[t]`` times the Bell projector of
    PAULI_TAGS[t], in the computational pair basis, for delta in (0, 1]."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    out = np.zeros((4, 4), dtype=np.complex128)
    for w, proj in zip(weights, _BELL_PROJECTORS):
        out += w * proj
    out.flags.writeable = False
    return out


@lru_cache(maxsize=_PER_DELTA)
def q_matrix(delta: float) -> np.ndarray:
    """Read-only Q(delta), built once per delta."""
    return _bell_diagonal(delta, (1.0, delta, delta, delta))


@lru_cache(maxsize=_PER_DELTA)
def lambda_matrix(delta: float) -> np.ndarray:
    """Read-only Lambda(delta), built once per delta."""
    return _bell_diagonal(delta, (delta, 1.0, 1.0, 1.0))


@lru_cache(maxsize=_PER_DELTA)
def phi0(delta: float) -> np.ndarray:
    """Read-only (B_I + delta * sum_{p != I} B_p) / sqrt(1 + 3 delta^2),
    built once per delta.

    Unlike Q and Lambda, delta = 0 is accepted here: the formula degenerates
    gracefully to the plain Bell state, and that limit is a useful fixture.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    vec = _bell("I") + delta * (_bell("X") + _bell("XZ") + _bell("Z"))
    vec = vec / np.sqrt(1.0 + 3.0 * delta**2)
    vec.flags.writeable = False
    return vec

