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

Extraction reads the rotated term between basis states of the extraction
support on a light cone of that support: every factor is local, so only
the factors that reach the support, and the qubits they touch, take part.
``RotationUnitary.walk`` is the one place a cone is grown. It walks the
layers from the output side, keeps each factor that meets the cone so far,
and stops before the first layer that would widen it. Every factor is a
Bell-controlled Pauli or a gate on the output column, so once the stop's
factors have taken a term onto qubits that no unwalked factor touches,
every unwalked factor commutes with it; the Pauli frame stays local under
Clifford gates (Gottesman and Chuang, quant-ph/9908010), so every term
that ``rotate_term`` keeps gets there in one layer from the output side.
The qubits a rotated term lands on are known before it is extracted: its
dressed pairs, the k left pairs of a last-layer term and the 2k pairs of a
bulk term. ``rotate_term`` refuses a term whose pairs an unwalked factor
touches, extracts it once on its pairs on that stop, and refuses it when
the leakage check, which is zero exactly when the rotated term is that
block and the identity on the rest of the stop, fails.
``locality_residual`` samples the same stop, and
``teleport_input`` extracts its input term on the whole three-qubit
teleport grid, its own cone, once per delta. ``require_cones`` budgets the
stop of every gate term of a circuit, before any is extracted. Every term
is a ``DressedTerm`` of ``parent_spec``'s kinds, taken from its factors:
``U† L² U = L²``, so only the columns of ``W = L (K ⊗ I)`` go through
the rotation, pushed backward (``_conjugated_block``). The random
leakage-check states, drawn once per cone size, go through ``U† T U`` as
one (2^|cone|, 50) array; the memory budget bounds each extraction by
what its cone and its block hold. The result is a dense ``LocalTerm``
with the kind, layer and wires of the term it came from. ``clifford_form``
builds its closed form in the Bell-label basis, where Λ(δ) is diagonal and
the gate enters only through the pairing of labels that
``clifford_partners`` lists, and then takes it to the computational basis
through each wire's 16 x 16 Bell basis, one axis at a time.

Support bookkeeping follows the term convention: block bit ``i`` is qubit
``support[i]``, so a pair occupies two adjacent bits (low column first) and
a bulk term's four-bit groups per wire read (left low, left high, right
low, right high) from the least significant end.
"""

from __future__ import annotations

from functools import cache, reduce
from typing import Sequence

import numpy as np

from .circuit import Gate, LayeredCircuit, layered
from .hamiltonian import DressedTerm, LocalTerm, input_term, parent_spec
from .limits import dense_bytes, require, vector_bytes
from .linalg import apply_matrix, bit_placement
from .pauli import (
    PAULI_TAGS,
    bell_basis_matrix,
    bell_projector,
    bell_uniform,
    lambda_matrix,
    pauli_matrix,
    phi0,
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
    "pair_ground",
    "require_cones",
    "teleport_input",
]

# Random full states a rotated term is checked against for leakage, and the
# leakage a rotated term may show on them.
_CHECK_SAMPLES = 50
_LEAKAGE_TOL = 1e-9

# Cone-wide buffers one extraction holds beside its block, its product and
# its cached check states: a batch pushed through the rotation, the
# previous factor's image and apply_matrix's copy and product.
_EXTRACTION_BUFFERS = 4


def _site_correction() -> np.ndarray:
    """8x8 correction: the pair's Bell label picks a Pauli on the target."""
    out = np.zeros((8, 8), dtype=np.complex128)
    for tag in PAULI_TAGS:
        out += np.kron(bell_projector(tag), pauli_matrix(tag))
    out.flags.writeable = False
    return out


# Built once: every rotation places one copy per pair.
_SITE_CORRECTION = _site_correction()


class RotationUnitary:
    """The grid rotation of one circuit, applied factor by factor.

    The dense matrix is never formed; ``apply`` streams the factor list
    (corrections then gates, layer by layer from the input side) over the
    state, in reverse order for the adjoint with each factor's adjoint,
    built once here. ``qubits`` lists the grid qubits it acts on in
    ascending order, and bit ``i`` of a state is ``qubits[i]``: the whole
    grid for ``RotationUnitary(circuit)``, a light cone for the stop of
    its ``walk``. ``layer_starts`` lists the index of each layer's first
    factor in the whole grid's list.
    """

    def __init__(self, circuit: LayeredCircuit):
        if circuit.depth < 1:
            raise ValueError("rotation needs at least one layer")
        layout = GridLayout(circuit.n, circuit.depth)
        corr = _SITE_CORRECTION
        ops: list[tuple[np.ndarray, tuple[int, ...]]] = []
        starts = []
        for layer_idx, layer in enumerate(circuit.layers, start=1):
            starts.append(len(ops))
            for row in range(circuit.n):
                lo, hi = layout.site_qubits(layer_idx, row)
                ops.append((corr, (hi, lo, layout.output_qubit(row))))
            for g in layer:
                if g.is_trivial:
                    continue
                wires = tuple(layout.output_qubit(w) for w in g.wires)
                ops.append((g.unitary, wires))
        self._place(ops, range(layout.num_qubits))
        self.layer_starts = tuple(starts)

    def _place(self, ops: list, qubits) -> None:
        """Keep ``ops``, relabelled onto ``qubits`` in ascending order."""
        self.qubits = tuple(sorted(qubits))
        label = {q: i for i, q in enumerate(self.qubits)}
        self._ops = tuple((mat, tuple(label[w] for w in wires)) for mat, wires in ops)
        self._adjoint_ops = tuple(
            (mat.conj().T, wires) for mat, wires in reversed(self._ops)
        )

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def walk(self, support: Sequence[int]) -> tuple["RotationUnitary", set[int]]:
        """The first stop of a walk from the output side: a light cone of
        ``support``, and the set of qubits that the factors it leaves
        unwalked touch.

        Walks the layers from the output side inward and keeps each factor
        whose wires meet the cone grown so far from ``support``; a factor
        that misses it commutes with everything conjugated so far and
        cancels against its adjoint. It stops before the first layer that
        would widen the cone once some factor is kept, and returns the kept
        factors relabelled onto the qubits of the cone. A walk that never
        stops keeps every factor that reaches ``support``, the wire cone,
        and returns the empty set: for ``T`` on ``support``, ``U† T U`` is
        its ``U_C† T U_C`` on the cone and the identity elsewhere. An
        operator that the stop's factors take onto qubits outside its set
        is already rotated, as every unwalked factor commutes with it.
        """
        reach, kept = set(support), []
        ends = self.layer_starts[1:] + (len(self._ops),)
        for begin, end in reversed(list(zip(self.layer_starts, ends))):
            grown, before = set(reach), len(kept)
            for mat, wires in reversed(self._ops[begin:end]):
                if grown.intersection(wires):
                    grown.update(wires)
                    kept.append((mat, wires))
            if before and grown != reach:
                unwalked = {q for _, wires in self._ops[:end] for q in wires}
                return _cone(kept[:before], reach), unwalked
            reach = grown
        return _cone(kept, reach), set()

    def apply(self, vec: np.ndarray, adjoint: bool = False) -> np.ndarray:
        out = np.asarray(vec, dtype=np.complex128)
        for mat, wires in self._adjoint_ops if adjoint else self._ops:
            out = apply_matrix(out, mat, wires, self.num_qubits)
        return out


def _cone(kept: list, reach: set[int]) -> RotationUnitary:
    """The factors ``kept`` from the output side inward, in rotation order
    on the qubits of ``reach``."""
    cone = RotationUnitary.__new__(RotationUnitary)
    cone._place(kept[::-1], reach)
    return cone


@cache
def _check_states(num_qubits: int) -> np.ndarray:
    """The leakage-check states: ``_CHECK_SAMPLES`` unit Gaussian columns
    drawn from seed 0.

    Drawn once per qubit count and read-only. Each light cone draws the set
    of its size, and the sets of all smaller sizes together hold less than
    the largest one.
    """
    rng = np.random.default_rng(0)
    states = np.empty((2**num_qubits, _CHECK_SAMPLES), np.complex128)
    for j in range(_CHECK_SAMPLES):
        r = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
        states[:, j] = r / np.linalg.norm(r)
    states.flags.writeable = False
    return states


def _conjugated_block(
    term: DressedTerm, cone: RotationUnitary, support: tuple[int, ...]
) -> tuple[np.ndarray, float]:
    """Extract the term rotated by ``cone`` on ``support``, plus leakage.

    ``cone`` is a light cone of ``support``, the stop of
    ``RotationUnitary.walk`` or, for ``teleport_input``, the whole teleport
    grid; everything runs on its qubits, and the cone grows no further.
    The candidate block is the rotated term between basis states that are
    zero outside the support, which holds the term's pairs. It comes from
    the term's factors: every ``Λ(δ)`` dresses a shifted pair and is
    Bell-diagonal, and every rotation factor is a Bell-controlled Pauli or
    a gate on the output column, so ``U† L² U = L²`` and the block is
    ``L²|_S - Z Z†`` with ``Z = E_S† U† (W ⊗ I)``: ``W`` is the term's
    ``kernel_factor`` on its own qubits, and ``E_S`` embeds the basis
    states of the support with every other qubit at 0. The r·2^(N-kv)
    columns of ``W ⊗ I`` are pushed backward through ``U†`` in one array.
    The residual is the worst mismatch between the rotated term, applied
    as ``U† T U`` with the term's dense block, and that block on random
    states of the cone; it is zero exactly when the rotated term acts as
    the identity outside the support, and large when the factored block is
    wrong.
    """
    _require_extraction(term, len(support), cone)
    n = cone.num_qubits
    label = {q: i for i, q in enumerate(cone.qubits)}
    on_term = [label[q] for q in term.support]
    on_support = [label[q] for q in support]
    w = term.kernel_factor
    rest = bit_placement(sorted(set(range(n)) - set(on_term)))
    columns = w.shape[1] * rest.size
    # Column (c, j): W's column c on the term's qubits, the rest at j.
    factor, j = np.divmod(np.arange(columns), rest.size)
    lifted = np.zeros((2**n, columns), np.complex128)
    lifted[bit_placement(on_term)[:, None] + rest[j], np.arange(columns)] = w[:, factor]
    hole = cone.apply(lifted, adjoint=True)[bit_placement(on_support)]
    block = term.squared_dressing(support)
    block -= hole @ hole.conj().T
    del lifted, hole  # freed before the leakage check
    states = _check_states(n)
    pushed = apply_matrix(cone.apply(states), term.block, on_term[::-1], n)
    mismatch = cone.apply(pushed, adjoint=True)
    mismatch -= apply_matrix(states, block, on_support[::-1], n)
    return block, float(np.linalg.norm(mismatch, axis=0).max())


def _require_extraction(
    term: DressedTerm, m: int, cone: RotationUnitary
) -> None:
    """Refuse extracting ``term`` on ``m`` support qubits inside ``cone``:
    the block and the product subtracted from it, the cone's check states,
    and ``_EXTRACTION_BUFFERS`` cone-wide buffers as wide as the columns
    pushed through the rotation at once, the hole's r·2^(N-kv) or the
    ``_CHECK_SAMPLES`` check states (``_conjugated_block``). On the first
    stop of a walk, extracting on the term's m pair qubits, the hole has
    2^(m-k) columns: the stop holds those pairs and the k output qubits of
    the term's wires."""
    n = cone.num_qubits
    hole = term.basis.shape[1] << (n - len(term.inner))
    columns = _CHECK_SAMPLES + _EXTRACTION_BUFFERS * max(hole, _CHECK_SAMPLES)
    nbytes = 2 * dense_bytes(m) + vector_bytes(n, columns)
    require("rotated-block extraction", n, nbytes)


def require_cones(circuit: LayeredCircuit) -> None:
    """``_conjugated_block``'s budget check for every gate term of
    ``circuit``, on its pairs on the first stop of its walk, before any
    block is built.

    ``rotate_term`` extracts a gate term on its pairs on that stop, and
    ``locality_residual`` on its support there, the same qubits for the
    bulk terms it samples; input terms are extracted on the three-qubit
    teleport grid instead (``teleport_input``).
    """
    rot = RotationUnitary(circuit)
    for term in parent_spec(circuit, 1.0).terms:
        if term.kind != "input":
            cone, _ = rot.walk(term.support)
            _require_extraction(term, len(_pair_qubits(term)), cone)


def _pair_qubits(term: DressedTerm) -> tuple[int, ...]:
    """The qubits of the pairs that ``term`` dresses, ascending."""
    return tuple(sorted(q for pair, _ in term.pairs for q in pair))


def _leakage_error(
    term: DressedTerm, support: tuple[int, ...], residual: float
) -> ValueError:
    return ValueError(
        f"rotated {term} is not supported on {support}: "
        f"leakage {residual:.3e} exceeds {_LEAKAGE_TOL:.1e}"
    )


def rotate_term(term: DressedTerm, circuit: LayeredCircuit) -> LocalTerm:
    """Conjugate one term by the circuit's rotation and re-localize it.

    Extracts the term once, on its dressed pairs, on the first stop of the
    rotation's walk from the output side (``RotationUnitary.walk``), and
    validates it against ``_CHECK_SAMPLES`` random states of that stop. A
    block that passes is the stop's rotation of the term, the identity off
    the pairs; as no unwalked factor touches the pairs, every unwalked
    factor commutes with it, and it is the rotated term. Terms of gates
    that normalize the Pauli group land on their pairs there, after the
    next layer in (last-layer terms drop their output legs at their own
    layer's corrections). Raises on a term whose pairs an unwalked factor
    touches, before extracting it, and on one that leaks past its pairs by
    more than ``_LEAKAGE_TOL``, as the term of any other gate spreads onto
    the output column (``locality_residual`` measures how far).
    """
    pairs = _pair_qubits(term)
    cone, unwalked = RotationUnitary(circuit).walk(term.support)
    if not unwalked.isdisjoint(pairs):
        raise ValueError(
            f"rotated {term} stops on {pairs}, where unwalked factors act "
            f"on {sorted(unwalked.intersection(pairs))}"
        )
    block, residual = _conjugated_block(term, cone, pairs)
    if residual > _LEAKAGE_TOL:
        raise _leakage_error(term, pairs, residual)
    return LocalTerm(term.kind, pairs, block, term.layer, term.wires)


def locality_residual(term: DressedTerm, circuit: LayeredCircuit) -> float:
    """How badly the rotated term fails to live on the term's own support.

    The worst leakage over ``_CHECK_SAMPLES`` random states of the first
    stop of ``RotationUnitary.walk``, the cone ``rotate_term`` extracts on.
    Zero for an exactly localized rotation; order-one values mean the
    rotated term genuinely spreads.
    """
    cone, _ = RotationUnitary(circuit).walk(term.support)
    _, residual = _conjugated_block(term, cone, term.support)
    return residual


def project_qubits(
    block: np.ndarray,
    support: Sequence[int],
    qubits: Sequence[int],
    local_state: np.ndarray,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Partial expectation of a block in a fixed state of some of its qubits.

    ``local_state`` lives on ``qubits`` (ascending), which ``support``
    lists, with bit ``b`` of its index on ``qubits[b]``. Returns the
    operator left on the remaining qubits and that remaining support.
    """
    support = tuple(support)
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


def clifford_partners(g: Gate) -> np.ndarray:
    """Pairing behind the closed rotated form of a Pauli-normalizing gate.

    Returns ``t_col``, indexed ``[r, c, t]`` by ``tag_words(k)`` positions
    of s_row, s_col and t_row: the position of the word t_col in
    ``(u^dagger W[s_row] W[s_col] u)^T W[t_row] ∝ W[t_col]``. The Bell
    label (t_row, s_row) on the k left and k right pairs is paired with
    (t_col, s_col); every row label has exactly 4^k partners. The closed
    form depends on which labels pair up, not on the phases of the
    relation.

    The gate conjugates each word to a phase times a word (a signed
    permutation of the words, which is what normalizing the Pauli group
    means), so one decomposition of the 4^k images determines the whole
    grid.
    """
    k = g.arity
    u = g.unitary
    _, image = word_decompose(u.conj().T @ word_stack(k) @ u, k)
    if np.any(image < 0):
        raise ValueError(
            f"gate {g.name or 'unnamed'} does not normalize the Pauli group"
        )
    # A tag's position in PAULI_TAGS, (I, X, XZ, Z), is a linear 2-bit code
    # of its X and Z parts, so two words multiply, up to a phase, to the
    # word at the XOR of their positions, and a word's transpose is itself
    # up to a sign: u^dagger W[r] W[c] u ∝ W[q[r, c]] and W[q]^T W[t] ∝
    # W[q ^ t].
    q = image[:, None] ^ image[None, :]
    return q[:, :, None] ^ np.arange(4**k)


# The Bell product basis of one wire's two pairs, in bulk bit order, column
# ``right * 4 + left`` by PAULI_TAGS position. Its entries are 0 and ±1/2,
# rounded to those values so that the basis adds no error to the form.
_WIRE_BELL_BASIS = (
    np.rint(2 * np.kron(bell_basis_matrix(), bell_basis_matrix()).real) / 2
)
_WIRE_BELL_BASIS.flags.writeable = False


def clifford_form(g: Gate, delta_left: float, delta_right: float) -> np.ndarray:
    """Closed rotated block of a bulk term for a Pauli-normalizing gate.

    Acts on 4k qubits (k left pairs then k right pairs, interleaved per
    wire). On the Bell label (left word, right word), row ``left * 4^k +
    right`` by ``tag_words(k)`` positions, it is ``diag(W²) - W S W / 4^k``:
    S has a 1 at each pairing of ``clifford_partners`` and W is the label's
    eigenvalue of ``Λ(delta_left)`` on the left pairs times
    ``Λ(delta_right)`` on the right. That matrix goes through each wire's
    Bell basis, one label axis at a time; the Bell product basis of all
    the pairs is never formed.
    """
    k = g.arity
    n = 4**k
    t_col = clifford_partners(g)
    r, c, t = np.indices(t_col.shape)
    rows, cols = t * n + r, t_col * n + c
    # Λ(delta) has eigenvalue delta on the I tag and 1 on the others.
    deltas = (delta_left,) * k + (delta_right,) * k
    w = reduce(np.kron, [np.array([d, 1.0, 1.0, 1.0]) for d in deltas])
    # A row label's partners differ in s_col, so no entry is set twice.
    form = np.zeros((n * n, n * n))
    form[rows, cols] = w[rows] * w[cols] / -n
    form[np.diag_indices(n * n)] += w**2
    # Per wire from the highest, (right tag, left tag): the order of its bits.
    order = sorted(range(k), key=lambda p: g.wires[p], reverse=True)
    axes = [a for p in order for a in (k + p, p)]
    form = form.reshape((4,) * (4 * k)).transpose(axes + [2 * k + a for a in axes])
    form = form.reshape((16,) * (2 * k))
    for _ in range(2 * k):
        # The leading label axis goes to its wire's bits and moves last.
        form = np.tensordot(form, _WIRE_BELL_BASIS, axes=([0], [1]))
    return form.reshape(n * n, n * n)


def pair_ground(
    layout: GridLayout, layer: int, wires, delta: float
) -> tuple[tuple[int, ...], np.ndarray]:
    """The pairs of layer ``layer`` on ``wires``, in ``project_qubits`` form.

    Returns their qubits and the product of their single-pair ground
    states ``phi0(delta)``.
    """
    wires = tuple(wires)
    qubits = tuple(q for w in wires for q in layout.site_qubits(layer, w))
    return qubits, reduce(np.kron, [phi0(delta)] * len(wires))


def teleport_input(
    term: DressedTerm, delta: float
) -> tuple[LocalTerm, float, float]:
    """Funnel an input term through its pair onto the output column.

    Refuses anything but an input term dressed at ``delta``. Rebuilds its
    check |1><1| on the one-wire, one-layer identity grid, extracts the
    rotated term on all three qubits of that grid, once per delta and
    process (the teleport spreads it onto the output qubit), and projects
    the pair onto its single-pair ground state, which should leave ``c
    |1><1|``, ``c = teleport_coefficient(delta)``. Returns that term (kind "input", on the
    output qubit), the attenuation ``<1|reduced|1>`` and the deviation
    ``||reduced - c |1><1|||``.
    """
    if term.kind != "input" or any(d != delta for _, d in term.pairs):
        raise ValueError(f"expected an input term dressed at {delta}, got {term}")
    rest, reduced, deviation = _teleported(delta)
    funneled = LocalTerm("input", rest, reduced, 1, term.wires)
    return funneled, float(reduced[1, 1].real), deviation


@cache
def _teleported(delta: float) -> tuple[tuple[int, ...], np.ndarray, float]:
    """``teleport_input``'s support, read-only reduced block and deviation
    at ``delta``: they depend on nothing else, so each delta is extracted
    once per process."""
    layout = GridLayout(1, 1)
    rot = RotationUnitary(layered(1, 1, [[("I", (0,))]]))
    grid = tuple(range(layout.num_qubits))
    check = input_term(0, delta, layout)
    block, residual = _conjugated_block(check, rot, grid)
    if residual > _LEAKAGE_TOL:
        raise _leakage_error(check, grid, residual)
    pair, ground = pair_ground(layout, 1, (0,), delta)
    reduced, rest = project_qubits(block, grid, pair, ground)
    reduced.flags.writeable = False
    expected = np.diag([0.0, teleport_coefficient(delta)])
    return rest, reduced, float(np.linalg.norm(reduced - expected))
