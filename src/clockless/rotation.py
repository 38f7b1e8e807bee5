"""Rotation that maps the dressed grid terms onto circuit-independent forms.

The rotation is a product of elementary unitaries acting on the shifted
pairs and the output column only. Processing layers from the input side,
each pair controls a Pauli on its wire's output-column qubit (the Bell
label of the pair names which Pauli), and after each layer's corrections
the layer's gates themselves act on the output column. No factor depends
on the deformation strength: all delta dependence stays in the term blocks.

Applied backward, the rotation turns the grid state into a product of
single-pair states with the bare input column parked on the output qubits.
It turns each dressed projector into a canonical form: last-layer terms
lose their output legs entirely and become ``last_layer_form``, and a bulk
term whose gate normalizes the Pauli group keeps its original support and
becomes ``clifford_form``. Gates outside that class leak onto the output
column, which ``locality_residual`` measures directly.

Extraction pushes all basis columns of the extraction support, then all
random check states, through the rotated term as (2^N, batch) arrays in
chunks of at most ``_BATCH_BYTES``. The Clifford hole is ``B S B^dagger``:
B holds the Bell product basis, S counts the Bell-label pairings.

Support bookkeeping follows the term convention: block bit ``i`` is qubit
``support[i]``, so a pair occupies two adjacent bits (low column first) and
a bulk term's four-bit groups per wire read (left low, left high, right
low, right high) from the least significant end.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np

from .circuit import Gate, LayeredCircuit, layered
from .hamiltonian import HamiltonianTerm, input_term
from .linalg import DENSE_QUBIT_CAP, apply_matrix, bit_placement, embed_operator
from .pauli import (
    PAULI_TAGS,
    bell_basis_matrix,
    bell_projector,
    bell_uniform,
    lambda_matrix,
    pauli_matrix,
    phi0,
    q_matrix,
    tag_words,
    word_decompose,
    word_stack,
)
from .peps import GridLayout

__all__ = [
    "RotationUnitary",
    "rotate_term",
    "locality_residual",
    "project_qubits",
    "last_layer_form",
    "teleport_coefficient",
    "projected_bulk_form",
    "projected_gap_check",
    "clifford_partners",
    "clifford_form",
    "teleport_input",
    "teleported_input_term",
]

# Amplitude bytes per extraction chunk (2^8 columns at 10 qubits). A full
# 2^10-column chunk raised the default verify's peak RSS 128 -> 175 MB.
_BATCH_BYTES = 2**22


def _site_correction() -> np.ndarray:
    """8x8 correction: the pair's Bell label picks a Pauli on the target."""
    out = np.zeros((8, 8), dtype=np.complex128)
    for tag in PAULI_TAGS:
        out += np.kron(bell_projector(tag), pauli_matrix(tag))
    return out


class RotationUnitary:
    """The grid rotation of one circuit, applied factor by factor.

    The dense matrix is never formed; ``apply`` streams the factor list
    (corrections then gates, layer by layer from the input side) over the
    state, in reverse daggered order for the adjoint.
    """

    def __init__(self, circuit: LayeredCircuit):
        if circuit.depth < 1:
            raise ValueError("rotation needs at least one layer")
        self.circuit = circuit
        self.layout = GridLayout(circuit.n, circuit.depth)
        corr = _site_correction()
        ops: list[tuple[np.ndarray, tuple[int, ...]]] = []
        for layer_idx, layer in enumerate(circuit.layers, start=1):
            for row in range(circuit.n):
                lo, hi = self.layout.site_qubits(layer_idx, row)
                ops.append((corr, (hi, lo, self.layout.output_qubit(row))))
            for g in layer:
                if g.is_trivial:
                    continue
                wires = tuple(self.layout.output_qubit(w) for w in g.wires)
                ops.append((g.unitary, wires))
        self._ops = tuple(ops)

    @property
    def num_qubits(self) -> int:
        return self.layout.num_qubits

    def apply(self, vec: np.ndarray, adjoint: bool = False) -> np.ndarray:
        out = np.asarray(vec, dtype=np.complex128)
        seq = reversed(self._ops) if adjoint else self._ops
        for mat, wires in seq:
            if adjoint:
                mat = mat.conj().T
            out = apply_matrix(out, mat, wires, self.num_qubits)
        return out


def _conjugated_block(
    term: HamiltonianTerm,
    rot: RotationUnitary,
    support: tuple[int, ...],
    samples: int,
    seed: int,
) -> tuple[np.ndarray, float]:
    """Extract the rotated term on ``support`` plus the leakage residual.

    The candidate block is read off from basis states that are zero outside
    the support; the residual is the worst mismatch between the rotated
    term and that block on random full states, which is zero exactly when
    the rotated term acts as the identity outside the support.
    """
    n = rot.num_qubits
    m = len(support)
    if m > DENSE_QUBIT_CAP:
        raise ValueError(f"extraction support of {m} qubits is too large")
    place = bit_placement(support)
    dim = 2**m
    block = np.zeros((dim, dim), dtype=np.complex128)
    term_wires = tuple(reversed(term.support))
    width = max(1, _BATCH_BYTES // (16 * 2**n))

    def rotated_term(vecs: np.ndarray) -> np.ndarray:
        w = rot.apply(vecs)
        w = apply_matrix(w, term.block, term_wires, n)
        return rot.apply(w, adjoint=True)

    for start in range(0, dim, width):
        cols = np.arange(start, min(start + width, dim))
        basis = np.zeros((2**n, cols.size), dtype=np.complex128)
        basis[place[cols], np.arange(cols.size)] = 1.0
        block[:, cols] = rotated_term(basis)[place]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for start in range(0, samples, width):
        batch = np.empty((2**n, min(width, samples - start)), np.complex128)
        for j in range(batch.shape[1]):
            r = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            batch[:, j] = r / np.linalg.norm(r)
        lhs = rotated_term(batch)
        rhs = apply_matrix(batch, block, tuple(reversed(support)), n)
        worst = max(worst, float(np.linalg.norm(lhs - rhs, axis=0).max()))
    return block, worst


def _default_extraction_support(
    term: HamiltonianTerm, layout: GridLayout
) -> tuple[int, ...]:
    rows = {q // layout.columns for q in term.support}
    extra = {layout.output_qubit(row) for row in rows}
    return tuple(sorted(set(term.support) | extra))


def _trim_trivial_qubits(
    block: np.ndarray, support: tuple[int, ...], tol: float = 1e-10
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Drop support qubits on which the block acts as the identity."""
    changed = True
    while changed and len(support) > 1:
        changed = False
        m = len(support)
        shaped = block.reshape((2,) * (2 * m))
        for b in range(m):
            axes = (m - 1 - b, 2 * m - 1 - b)
            split = np.moveaxis(shaped, axes, (0, 1)).reshape(2, 2, -1)
            if (
                np.linalg.norm(split[0, 1]) <= tol
                and np.linalg.norm(split[1, 0]) <= tol
                and np.linalg.norm(split[0, 0] - split[1, 1]) <= tol
            ):
                half = 2 ** (m - 1)
                block = split[0, 0].reshape(half, half)
                support = support[:b] + support[b + 1 :]
                changed = True
                break
    return block, support


def rotate_term(
    term: HamiltonianTerm,
    circuit: LayeredCircuit,
    samples: int = 50,
    seed: int = 0,
    tol: float = 1e-9,
    extraction_support: Sequence[int] | None = None,
) -> HamiltonianTerm:
    """Conjugate one term by the circuit's rotation and re-localize it.

    The rotated operator is extracted on the term's support widened by the
    output qubits of its rows (pass ``extraction_support`` to override),
    validated against ``samples`` random states, and trimmed back down to
    the qubits it actually acts on. Terms of gates that normalize the Pauli
    group come back on their original support (last-layer terms even drop
    their output legs); other gates keep a genuine output-column tail, and
    the returned support records that. Raises only when the rotated
    operator leaks beyond the extraction support altogether.
    """
    rot = RotationUnitary(circuit)
    if extraction_support is None:
        support = _default_extraction_support(term, rot.layout)
    else:
        support = tuple(sorted(set(int(q) for q in extraction_support)))
    block, residual = _conjugated_block(term, rot, support, samples, seed)
    if residual > tol:
        raise ValueError(
            f"rotated {term} is not supported on {support}: "
            f"leakage {residual:.3e} exceeds {tol:.1e}"
        )
    block, support = _trim_trivial_qubits(block, support)
    return HamiltonianTerm(term.kind, support, block, term.layer, term.wires)


def locality_residual(
    term: HamiltonianTerm,
    circuit: LayeredCircuit,
    support: Sequence[int] | None = None,
    samples: int = 50,
    seed: int = 0,
) -> float:
    """How badly the rotated term fails to live on the given support.

    Defaults to the term's own support. Zero for an exactly localized
    rotation; order-one values mean the rotated term genuinely spreads.
    """
    rot = RotationUnitary(circuit)
    chosen = tuple(term.support) if support is None else tuple(sorted(support))
    _, residual = _conjugated_block(term, rot, chosen, samples, seed)
    return residual


def project_qubits(
    block: np.ndarray,
    support: Sequence[int],
    qubits: Sequence[int],
    local_state: np.ndarray,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Partial expectation of a block in a fixed state of some of its qubits.

    ``local_state`` lives on ``qubits`` (an ascending subset of the
    support) with bit ``b`` of its index on ``qubits[b]``. Returns the
    operator left on the remaining qubits and that remaining support.
    """
    support = tuple(support)
    qubits = tuple(qubits)
    pos = [support.index(q) for q in qubits]
    rest = [i for i in range(len(support)) if i not in pos]
    vec = np.asarray(local_state, dtype=np.complex128)
    if vec.shape != (2 ** len(qubits),):
        raise ValueError("local state dimension does not match qubit count")
    lp = bit_placement(pos)
    rp = bit_placement(rest)
    emb = np.zeros((2 ** len(support), 2 ** len(rest)), dtype=np.complex128)
    cols = np.arange(2 ** len(rest))
    emb[lp[:, None] + rp[None, :], cols[None, :]] = vec[:, None]
    reduced = emb.conj().T @ block @ emb
    return reduced, tuple(support[i] for i in rest)


def last_layer_form(k: int, delta: float) -> np.ndarray:
    """Canonical rotated block of a k-wire last-layer term, on 2k qubits.

    Dressed complement of the product of uniform-Bell states, one per pair.
    For k = 1 the nonzero eigenvalues are (1 + 3 delta^2)/4, 1, 1 and the
    kernel is spanned by ``phi0(delta)``.
    """
    ss = np.outer(bell_uniform(), bell_uniform())
    proj = reduce(np.kron, [ss] * k)
    dress = reduce(np.kron, [lambda_matrix(delta)] * k)
    return dress @ (np.eye(4**k) - proj) @ dress


def teleport_coefficient(delta: float) -> float:
    """Per-wire attenuation of anything funneled through one pair."""
    return 4.0 * delta**2 / (1.0 + 3.0 * delta**2)


def projected_bulk_form(k: int, delta_left: float, delta_right: float) -> np.ndarray:
    """Bulk term after projecting its right pairs onto their ground state.

    Acts on the k left pairs only and does not depend on the gate. With
    equal deltas the smallest nonzero eigenvalue at k = 1 is exactly
    delta squared.
    """
    return teleport_coefficient(delta_right) ** k * last_layer_form(k, delta_left)


def projected_gap_check(k: int, delta: float) -> tuple[float, float, bool]:
    """Measured projected gap against the conjectured 15 delta^8 floor.

    Returns (gap, floor, holds) where gap is the smallest nonzero
    eigenvalue of ``projected_bulk_form(k, delta, delta)``. The floor is
    a diagnostic, not a theorem: at k = 1 the gap is delta squared, so it
    holds exactly when delta <= (1/15)**(1/6), and at k = 2 it already
    fails near delta = 0.5. Callers should report the flag, never assume
    it.
    """
    mat = projected_bulk_form(k, delta, delta)
    eigs = np.linalg.eigvalsh(mat)
    positive = eigs[eigs > 1e-12]
    if positive.size == 0:
        raise ValueError("projected form has no nonzero eigenvalues")
    gap = float(positive.min())
    floor = 15.0 * delta**8
    return gap, floor, bool(gap >= floor)


def clifford_partners(
    g: Gate,
) -> list[tuple[tuple[tuple[str, ...], tuple[str, ...]], tuple[tuple[str, ...], tuple[str, ...]], complex]]:
    """Pairing behind the closed rotated form of a Pauli-normalizing gate.

    Entries are ((left row word, right row word), (left column word, right
    column word), phase), where the words label Bell states on the k left
    and k right pairs and the phase is the proportionality constant in the
    defining relation ``(u^dagger W[s_row] W[s_col] u)^T W[t_row] = phase
    W[t_col]``. Every row label has exactly 4^k partners. The list runs
    over s_row, then s_col, then t_row, each in ``tag_words`` order; both
    stacks of products are decomposed in one call each.
    """
    k = g.arity
    u = g.unitary
    words = tag_words(k)
    stack = word_stack(k)
    conj = u.conj().T @ (stack[:, None] @ stack[None, :]) @ u
    if np.any(word_decompose(conj, k)[1] < 0):
        raise ValueError(
            f"gate {g.name or 'unnamed'} does not normalize the Pauli group"
        )
    mu, t_col = word_decompose(np.swapaxes(conj, -1, -2)[:, :, None] @ stack, k)
    if np.any(t_col < 0):
        raise ValueError("pairing search failed unexpectedly")
    return [
        ((words[t], words[r]), (words[t_col[r, c, t]], words[c]),
         complex(mu[r, c, t]))
        for r, c, t in np.ndindex(mu.shape)
    ]


def _bulk_bell_basis(wires: tuple[int, ...]) -> np.ndarray:
    """Bell product vectors in bulk bit order; column ``left * 4^k + right``.

    ``left``/``right`` index ``tag_words(k)``; word position p labels the
    pairs of ``wires[p]``. Per wire the bits read (Ll, Lh, Rl, Rh) from the
    least significant end; the largest wire takes the highest bits.
    """
    k = len(wires)
    order = sorted(range(k), key=lambda p: wires[p], reverse=True)
    per_wire = np.kron(bell_basis_matrix(), bell_basis_matrix())
    full = reduce(np.kron, [per_wire] * k).reshape((16**k,) + (4, 4) * k)
    # Column axes come as (right tag, left tag) per wire, highest wire first.
    left = [2 + 2 * order.index(p) for p in range(k)]
    right = [1 + 2 * order.index(p) for p in range(k)]
    return full.transpose([0] + left + right).reshape(16**k, 16**k)


def clifford_form(g: Gate, delta_left: float, delta_right: float) -> np.ndarray:
    """Closed rotated block of a bulk term for a Pauli-normalizing gate.

    Acts on 4k qubits (k left pairs then k right pairs, interleaved per
    wire). The unrotated gate enters only through the pairing of Bell
    labels; every matched pair of labels contributes with weight 4^-k, so
    the hole is ``B S B^dagger`` for the Bell product basis B and the
    integer matrix S that counts the pairings.
    """
    k = g.arity
    n = 4**k
    index = {word: i for i, word in enumerate(tag_words(k))}
    pairing = np.zeros((n * n, n * n))
    for (left, right), (c_left, c_right), _ in clifford_partners(g):
        pairing[index[left] * n + index[right],
                index[c_left] * n + index[c_right]] += 1
    basis = _bulk_bell_basis(g.wires)
    form = np.eye(n * n) - basis @ pairing @ basis.conj().T / n
    per_wire = np.kron(lambda_matrix(delta_right), lambda_matrix(delta_left))
    dress = reduce(np.kron, [per_wire] * k)
    return dress @ form @ dress


def teleport_input(
    term: HamiltonianTerm, delta: float, tol: float = 1e-9
) -> tuple[HamiltonianTerm, float, float]:
    """Funnel an input term through a minimal grid onto the output column.

    Rebuilds the term's check on a one-layer identity grid over its wires,
    rotates it (``tol`` bounds the leakage) and projects every pair onto its
    single-pair ground state, which should leave the check attenuated by
    ``c = teleport_coefficient(delta)`` per wire. Returns that term (kind
    "input", on the output column), the least-squares attenuation against
    the check and the deviation ``||reduced - c^k check||``.
    """
    if term.kind != "input":
        raise ValueError(f"expected an input term, got {term.kind!r}")
    wires = term.wires
    k = len(wires)
    # Undo the dressing with the inverse pair maps to recover the bare check.
    undress = reduce(np.matmul, [
        embed_operator(q_matrix(delta), (2 * b + 1, 2 * b), 2 * k)
        for b in range(k)
    ])
    bare = undress @ term.block @ undress / delta ** (2 * k)
    check_emb, check_support = _trim_trivial_qubits(
        bare, tuple(range(2 * k)), tol=1e-8
    )
    if check_support != tuple(2 * b for b in range(k)):
        raise ValueError("input term block is not a dressed check on its wires")
    # The check's bits run the other way round in wire order.
    rev = bit_placement(range(k - 1, -1, -1))
    check = check_emb[np.ix_(rev, rev)]
    grid = layered(k, k, [[("I", (w,)) for w in range(k)]])
    layout = GridLayout(k, 1)
    minimal = input_term(tuple(range(k)), delta, layout, check=check)
    rotated = rotate_term(minimal, grid, tol=tol)
    pair_qubits = tuple(q for w in range(k) for q in layout.site_qubits(1, w))
    ground = reduce(np.kron, [phi0(delta)] * k)
    reduced, rest = project_qubits(
        rotated.block, rotated.support, pair_qubits, ground
    )
    fit = np.vdot(check_emb, reduced).real / np.vdot(check_emb, check_emb).real
    expected = teleport_coefficient(delta) ** k * check_emb
    deviation = float(np.linalg.norm(reduced - expected))
    return HamiltonianTerm("input", rest, reduced, 1, wires), float(fit), deviation


def teleported_input_term(
    term: HamiltonianTerm, delta: float, tol: float = 1e-9
) -> HamiltonianTerm:
    """The term of ``teleport_input``; raises if it misses by more than tol."""
    funneled, _, deviation = teleport_input(term, delta, tol=tol)
    if deviation > max(tol, 1e-9):
        raise ValueError(
            "teleported check does not match its closed form: "
            f"deviation {deviation:.3e}"
        )
    return funneled
