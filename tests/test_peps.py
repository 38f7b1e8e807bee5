"""Grid states: construction, expansion identity, and output marginals."""

import tracemalloc

import numpy as np
import pytest

from clockless import limits
from clockless.circuit import layered
from clockless.linalg import basis_state, random_unitary, trace_distance
from clockless.pauli import PauliWord
from clockless.peps import (
    GridLayout,
    PepsState,
    build_peps,
    choi_vector,
    contract_observable,
    depolarizing_reference_marginal,
    expansion,
    output_marginal,
    reassemble_expansion,
    reduced_density,
    resolve_deltas,
    sample_pauli_patterns,
)


def test_grid_layout_indices():
    layout = GridLayout(2, 2)
    assert layout.columns == 5
    assert layout.num_qubits == 10
    assert layout.num_sites == 4
    assert layout.qubit_index(1, 3) == 8
    assert layout.input_qubit(1) == 5
    assert layout.output_qubit(0) == 4
    assert layout.site_qubits(1, 0) == (0, 1)
    assert layout.site_qubits(2, 1) == (7, 8)
    assert layout.choi_qubits(1, 0) == (1, 2)
    assert layout.sites() == [(1, 0), (1, 1), (2, 0), (2, 1)]
    assert layout.site_index(2, 1) == 3
    with pytest.raises(ValueError):
        layout.qubit_index(2, 0)
    with pytest.raises(ValueError):
        layout.site_index(3, 0)


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
    result = expansion(bell_circuit, None, delta)
    assert result.truncation_bound == 0.0
    assert len(result) == 4**4
    reassembled = reassemble_expansion(bell_circuit, result)
    reassembled /= np.linalg.norm(reassembled)
    built = build_peps(bell_circuit, delta)
    fidelity = abs(np.vdot(reassembled, built.amplitudes)) ** 2
    assert fidelity >= 1.0 - 1e-12


def test_expansion_identity_word_carries_circuit_output(hcnot):
    result = expansion(hcnot, None, 0.5)
    word = PauliWord(("I",) * 4)
    coeff, out_state = result[word]
    assert np.isclose(coeff, 1.0)
    # H on wire 0 then CNOT(0->1): (|00> + |11>)/sqrt(2)
    assert np.allclose(out_state, np.array([1, 0, 0, 1]) / np.sqrt(2))
    # single-error coefficient carries one factor of delta
    one = PauliWord(("X", "I", "I", "I"))
    assert np.isclose(result[one][0], 0.5)


def test_expansion_truncation_bound(bell_circuit):
    full = expansion(bell_circuit, None, 0.3)
    cut = expansion(bell_circuit, None, 0.3, max_weight=1)
    assert cut.truncation_bound > 0.0
    dropped = sum(
        coeff**2
        for word, (coeff, _) in full.terms.items()
        if word.weight > 1
    )
    assert dropped <= cut.truncation_bound + 1e-12


def test_expansion_refuses_nine_sites_before_enumerating():
    # 4^9 words fit the memory budget but would take minutes to enumerate
    c = layered(3, 1, [[("I", (w,)) for w in range(3)]] * 3)
    with pytest.raises(limits.ResourceError, match="262144 words"):
        expansion(c, None, 0.5)


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


def test_contract_observable_consistency(identity1):
    state = build_peps(identity1, 0.5)
    out = state.layout.output_qubit(0)
    z = np.diag([1.0, -1.0])
    value = contract_observable(state, z, (out,))
    rho = reduced_density(state, (out,))
    assert np.isclose(value, np.trace(rho @ z).real, atol=1e-12)
    # 2 * 5/7 - 1 = 3/7
    assert abs(value - 3.0 / 7.0) < 1e-12
    with pytest.raises(ValueError):
        contract_observable(state, np.array([[0.0, 1.0], [0.0, 0.0]]), (out,))


def test_reduced_density_qubit_cap(identity1):
    state = build_peps(identity1, 0.5)
    with pytest.raises(ValueError):
        reduced_density(state, range(7))


def test_sample_pauli_patterns_reproducible(bell_circuit):
    state = build_peps(bell_circuit, 0.4)
    a = sample_pauli_patterns(state, 5, seed=11)
    b = sample_pauli_patterns(state, 3, seed=11)
    assert a[:3] == b
    assert all(len(w) == 4 for w in a)
    c = sample_pauli_patterns(state, 5, seed=12)
    assert a != c


def test_sample_pauli_pattern_rates(identity1):
    state = build_peps(identity1, 0.5)
    words = sample_pauli_patterns(state, 2000, seed=3)
    rate = sum(w.weight for w in words) / len(words)
    # non-identity tag rate 3 delta^2/(1+3 delta^2) = 3/7 per site
    assert abs(rate - 3.0 / 7.0) < 0.05


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
