"""Grid states: construction, expansion identity, and output marginals."""

import itertools
import tracemalloc

import numpy as np
import pytest

from clockless import limits
from clockless.circuit import apply_layer, input_state, layered
from clockless.linalg import (
    apply_matrix, basis_state, product_state, random_unitary, trace_distance,
)
from clockless.pauli import PAULI_TAGS, pauli_matrix, tag_words
from clockless.peps import (
    GridLayout,
    PepsState,
    build_peps,
    choi_vector,
    depolarizing_reference_marginal,
    expansion,
    output_marginal,
    reassemble_expansion,
    resolve_deltas,
)
from clockless.verify import named_fixtures
from oracles import bell_state, embed_operator


def test_grid_layout_indices():
    layout = GridLayout(2, 2)
    assert layout.columns == 5
    assert layout.num_qubits == 10
    assert layout.qubit_index(1, 3) == 8
    assert layout.input_qubit(1) == 5
    assert layout.output_qubit(0) == 4
    assert layout.site_qubits(1, 0) == (0, 1)
    assert layout.site_qubits(2, 1) == (7, 8)
    assert layout.choi_qubits(1, 0) == (1, 2)
    assert layout.sites() == [(1, 0), (1, 1), (2, 0), (2, 1)]
    with pytest.raises(ValueError):
        layout.qubit_index(2, 0)


def test_resolve_deltas():
    assert resolve_deltas(0.5, 3) == (0.5, 0.5, 0.5)
    assert resolve_deltas((0.2, 0.8), 2) == (0.2, 0.8)
    with pytest.raises(ValueError):
        resolve_deltas((0.2,), 2)
    with pytest.raises(ValueError):
        resolve_deltas(0.0, 1)
    with pytest.raises(ValueError):
        resolve_deltas(1.5, 1)


def test_peps_state_validation(identity1):
    layout = GridLayout(1, 1)
    with pytest.raises(ValueError):
        PepsState(layout, np.zeros(4), identity1, basis_state(0, 1), (0.5,))
    with pytest.raises(ValueError):
        PepsState(
            layout,
            np.full(8, 0.7, dtype=complex),
            identity1,
            basis_state(0, 1),
            (0.5,),
        )


@pytest.mark.parametrize("delta", [0.2, 0.5])
def test_expansion_reassembles_built_state(bell_circuit, delta):
    terms = expansion(bell_circuit, None, delta)
    assert terms.shape == (4**4, 2**bell_circuit.n)
    reassembled = reassemble_expansion(bell_circuit, terms)
    reassembled /= np.linalg.norm(reassembled)
    built = build_peps(bell_circuit, delta)
    fidelity = abs(np.vdot(reassembled, built.amplitudes)) ** 2
    assert fidelity >= 1.0 - 1e-12


def test_expansion_past_six_sites_reassembles_built_state(monkeypatch):
    # one wire, 8 layers: 8 sites, 4^8 words on a 17-qubit grid, where a
    # cap of 4^6 words once refused the expansion
    c = layered(1, 1, [[(g, (0,))] for g in ("H", "T", "S", "H") * 2])
    schedule = (0.3, 0.8, 0.5, 0.6, 0.2, 0.9, 0.4, 0.7)
    terms = expansion(c, None, schedule)
    assert terms.shape == (4**8, 2)
    rebuilt = reassemble_expansion(c, terms)
    rebuilt /= np.linalg.norm(rebuilt)
    built = build_peps(c, schedule)
    assert 1.0 - abs(np.vdot(rebuilt, built.amplitudes)) ** 2 <= 1e-12
    # the sweep holds four grid vectors at once, and the budget says so
    monkeypatch.setattr(limits, "MEMORY_BUDGET", 4 * 16 * 2**17 - 1)
    with pytest.raises(limits.ResourceError, match="Pauli expansion on 17 qubits"):
        expansion(c, None, schedule)


def expansion_loop_reference(c, xi, schedule, words):
    """The expansion word by word: tag tuple -> (coefficient, output state).

    A word's entry at (layer, row) sits at (layer - 1) * n + row, the
    position of that site in ``GridLayout.sites()``."""
    out = {}
    for entries in words:
        coeff = 1.0
        for layer in range(1, c.depth + 1):
            layer_weight = sum(
                1 for row in range(c.n)
                if entries[(layer - 1) * c.n + row] != "I"
            )
            coeff *= schedule[layer - 1] ** layer_weight
        state = input_state(c, xi)
        for layer in range(1, c.depth + 1):
            for row in range(c.n):
                tag = entries[(layer - 1) * c.n + row]
                if tag != "I":
                    state = apply_matrix(state, pauli_matrix(tag), (row,), c.n)
            state = apply_layer(c, layer - 1, state)
        out[tuple(entries)] = (coeff, state)
    return out


def reassemble_loop_reference(c, terms):
    """sum coeff * |B_P> (x) |output> over ``terms`` (tag tuple ->
    (coefficient, output state)), one product state per word."""
    layout = GridLayout(c.n, c.depth)
    total = np.zeros(2**layout.num_qubits, dtype=np.complex128)
    for word, (coeff, out_state) in terms.items():
        factors = []
        for flat, (layer, row) in enumerate(layout.sites()):
            lo, hi = layout.site_qubits(layer, row)
            factors.append((bell_state(word[flat]), (hi, lo)))
        outputs = [layout.output_qubit(row) for row in reversed(range(c.n))]
        factors.append((out_state, outputs))
        total += coeff * product_state(factors, layout.num_qubits)
    return total


def expansion_cases(rng):
    # one layer on 2 sites; a witness wire, a non-uniform schedule and a
    # non-symmetric matrix gate; then a three-wire circuit on 6 sites, 4,096
    # words
    u = random_unitary(4, rng)
    assert not np.allclose(u, u.T)
    two = layered(2, 2, [[("H", (0,)), ("T", (1,))]])
    witness = layered(2, 1, [[(u, (0, 1))], [("T", (1,)), ("H", (0,))]])
    wide = layered(3, 3, [[(u, (2, 0)), ("H", (1,))],
                          [("CNOT", (1, 2)), (random_unitary(2, rng), (0,))]])
    return [
        (two, None, (0.35,)),
        (witness, np.array([0.6, 0.8j]), (0.3, 0.7)),
        (wide, None, (0.45, 0.2)),
    ]


def test_batched_expansion_matches_word_loop(rng):
    # row w is the word tag_words(sites)[w], the C order of the (4,)*sites
    # tag tensor that reassemble_expansion reshapes the rows into, and holds
    # that word's coefficient times its output state
    for c, xi, schedule in expansion_cases(rng):
        terms = expansion(c, xi, schedule)
        sites = c.n * c.depth
        words = list(itertools.product(PAULI_TAGS, repeat=sites))
        tensor_order = [
            tuple(PAULI_TAGS[t] for t in tags) for tags in np.ndindex((4,) * sites)
        ]
        assert words == list(tag_words(sites)) == tensor_order
        want = expansion_loop_reference(c, xi, schedule, words)
        assert terms.dtype == np.complex128
        assert terms.shape == (len(words), 2**c.n)
        for w, (coeff, state) in enumerate(want.values()):
            assert abs(np.linalg.norm(terms[w]) - coeff) <= 1e-15
            assert np.abs(terms[w] - coeff * state).max() <= 1e-15


def test_reassembly_matches_product_state_sum(rng):
    for c, xi, schedule in expansion_cases(rng):
        terms = expansion(c, xi, schedule)
        got = reassemble_expansion(c, terms)
        words = tag_words(c.n * c.depth)
        want = reassemble_loop_reference(
            c, {word: (1.0, row) for word, row in zip(words, terms)}
        )
        assert np.abs(got - want).max() <= 1e-14


def test_expansion_identity_word_carries_circuit_output(hcnot):
    terms = expansion(hcnot, None, 0.5)
    words = tag_words(4)
    identity = terms[words.index(("I",) * 4)]
    assert np.isclose(np.linalg.norm(identity), 1.0)
    # H on wire 0 then CNOT(0->1): (|00> + |11>)/sqrt(2)
    assert np.allclose(identity, np.array([1, 0, 0, 1]) / np.sqrt(2))
    # a single-error word carries one factor of delta
    single = terms[words.index(("X", "I", "I", "I"))]
    assert np.isclose(np.linalg.norm(single), 0.5)


def test_depolarizing_marginal_single_wire(identity1):
    state = build_peps(identity1, 0.5)
    rho = output_marginal(state)
    # (1 + delta^2)/(1 + 3 delta^2) at delta = 1/2
    assert abs(rho[0, 0].real - 5.0 / 7.0) < 1e-12
    reference = depolarizing_reference_marginal(identity1, None, 0.5)
    assert trace_distance(rho, reference) < 1e-10


def test_depolarizing_marginal_two_rounds():
    c = layered(2, 2, [[("I", (0,)), ("I", (1,))]] * 2)
    for delta in (0.2, 0.8):
        rho = output_marginal(build_peps(c, delta))
        reference = depolarizing_reference_marginal(c, None, delta)
        assert trace_distance(rho, reference) < 1e-10


def test_depolarizing_marginal_any_circuit(rng):
    # every named gate is a symmetric matrix, so only a matrix gate catches a
    # transposed unitary; the witness and a non-uniform schedule ride along
    u = random_unitary(4, rng)
    assert not np.allclose(u, u.T)
    c = layered(3, 1, [[(u, (0, 2)), ("H", (1,))], [("T", (1,))],
                       [("CNOT", (1, 0)), (random_unitary(2, rng), (2,))]])
    xi = np.array([0.6, 0.48j, -0.64, 0.0])
    for schedule in ((0.2, 0.2, 0.2), (0.5, 0.5, 0.5), (0.8, 0.8, 0.8),
                     (0.3, 0.6, 0.45)):
        rho = output_marginal(build_peps(c, schedule, xi=xi))
        reference = depolarizing_reference_marginal(c, xi, schedule)
        assert trace_distance(rho, reference) < 1e-12


def dense_depolarizing_marginal(c, xi, deltas) -> np.ndarray:
    """``depolarizing_reference_marginal`` with every Pauli kick a dense
    2^n x 2^n embedding E, applied as E rho E^dagger."""
    vec = input_state(c, xi)
    rho = np.outer(vec, vec.conj())
    for index, delta in enumerate(resolve_deltas(deltas, c.depth)):
        p = delta**2 / (1.0 + 3.0 * delta**2)
        for wire in range(c.n):
            kicked = np.zeros_like(rho)
            for tag in ("X", "XZ", "Z"):
                e = embed_operator(pauli_matrix(tag), (wire,), c.n)
                kicked += e @ rho @ e.conj().T
            rho = (1.0 - 3.0 * p) * rho + p * kicked
        rho = apply_layer(c, index, apply_layer(c, index, rho).conj().T).conj().T
    return rho


@pytest.mark.parametrize("delta", [0.2, 0.5, 0.8])
def test_depolarizing_reference_matches_dense_kicks(delta):
    # the Pauli kicks act on rho's rows and columns, never as dense
    # embeddings, and every entry comes out the same to the bit
    c14 = layered(2, 1, [[("H", (0,)), ("T", (1,))], [("CNOT", (0, 1))],
                         [("S", (0,)), ("H", (1,))]])
    ccz = layered(3, 1, [[("H", (0,)), ("H", (1,)), ("T", (2,))],
                         [("CCZ", (0, 1, 2))]])
    circuits = [c for _, c in named_fixtures()] + [c14, ccz]
    for c in circuits:
        got = depolarizing_reference_marginal(c, None, delta)
        assert np.array_equal(got, dense_depolarizing_marginal(c, None, delta))


def test_choi_vector_matches_column_copy(rng):
    u = random_unitary(4, rng)
    ref = np.zeros((4, 4), dtype=np.complex128)
    for x in range(4):
        ref[:, x] = u[:, x]
    assert np.array_equal(choi_vector(u), ref.reshape(-1) / np.sqrt(2.0**2))


def test_build_peps_requires_the_vectors_it_holds(monkeypatch):
    c = layered(2, 1, [[("H", (0,)), ("T", (1,))], [("CNOT", (0, 1))],
                       [("S", (0,)), ("H", (1,))]])
    estimate = limits.vector_bytes(14, 4)
    build_peps(c, 0.5)
    tracemalloc.start()
    try:
        build_peps(c, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.9 * estimate <= peak <= 1.02 * estimate
    monkeypatch.setattr(limits, "MEMORY_BUDGET", estimate - 1)
    with pytest.raises(limits.ResourceError, match="grid state on 14 qubits"):
        build_peps(c, 0.5)


def test_expansion_stays_within_its_estimate():
    # C14's expansion, whose every layer but the middle one holds two gates:
    # what the sweep allocates stays within the four grid vectors it charges,
    # with 64 KiB of slack for bookkeeping
    c = layered(2, 1, [[("H", (0,)), ("T", (1,))], [("CNOT", (0, 1))],
                       [("S", (0,)), ("H", (1,))]])
    estimate = limits.vector_bytes(14, 4)
    expansion(c, None, 0.5)
    tracemalloc.start()
    try:
        expansion(c, None, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= estimate + 2**16
