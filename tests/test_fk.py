"""Unary-clock encoding and the two shallow verifier circuits."""

import tracemalloc

import numpy as np
import pytest

from clockless.circuit import apply_circuit, degree_reduce, input_state, layered
from clockless.fk import (
    ClockState,
    MeasurementPlan,
    accept_probability,
    build_dl_verifier,
    build_modified_fk,
    build_swap_test_verifier,
    clock_report,
    dl_product,
    greedy_groups,
    history_state,
    invalid_clock_state,
    require_clock_states,
    require_simulable,
    swap_test_witness,
)
from clockless import fk, limits, linalg
from clockless.hamiltonian import LocalTerm
from clockless.linalg import apply_matrix, basis_state, product_state, random_state
from oracles import dense_term_energy, embed_operator


@pytest.fixture
def reduced(hcnot):
    return degree_reduce(hcnot)


@pytest.fixture
def clock(reduced):
    return build_modified_fk(reduced)


def test_clock_term_validation():
    with pytest.raises(ValueError):
        LocalTerm("mystery", (0,), np.eye(2), 1)
    with pytest.raises(ValueError):
        LocalTerm("clock", (1, 0), np.eye(4), 1)
    t = LocalTerm("clock", (0, 1), np.eye(4), 2)
    assert t.locality == 2


def test_clock_register_layout(clock, reduced):
    assert clock.num_data == reduced.n == 4
    assert clock.num_steps == 4
    assert clock.num_qubits == 8
    # the clock qubit of 1-based step t sits at num_data + t - 1
    clock_qubits = {q for t in clock.terms if t.kind == "clock" for q in t.support}
    assert clock_qubits == set(range(4, 8))


def test_clock_term_census(clock):
    kinds = {}
    for t in clock.terms:
        kinds[t.kind] = kinds.get(t.kind, 0) + 1
    assert kinds == {"input": 3, "propagation": 4, "clock": 3, "output": 1}
    assert len(clock.terms) == 11
    assert {t.locality for t in clock.terms} == {2, 3, 4, 5}


def test_degree_table_maximum_is_seven(clock):
    table = clock.degree_table()
    assert table == {0: 4, 1: 3, 2: 3, 3: 1, 4: 5, 5: 7, 6: 6, 7: 4}
    assert max(table.values()) == 7


def _entries(vec, num_qubits):
    """A dense test vector as the ``ClockState`` of its nonzero entries."""
    at = np.flatnonzero(vec)
    return ClockState(at, vec[at], num_qubits)


def test_history_state_annihilates_everything_but_output(clock):
    psi = history_state(clock)
    assert np.isclose(np.linalg.norm(psi.amplitudes), 1.0, atol=1e-12)
    energies = clock.energies(psi)
    non_output = [
        e for t, e in zip(clock.terms, energies) if t.kind != "output"
    ]
    assert max(non_output) < 1e-10


def _kron_history(ham, xi=None):
    """Reference: the history state as a sum of clock-pattern kron products."""
    n, big_t = ham.num_data, ham.num_steps
    data = input_state(ham.circuit, xi)
    out = np.kron(basis_state(0, big_t), data)
    for t, g in enumerate(ham.steps, start=1):
        data = apply_matrix(data, g.unitary, g.wires, n)
        out = out + np.kron(basis_state(2**t - 1, big_t), data)
    return out / np.sqrt(big_t + 1.0)


def _assert_entries_of(state, vec):
    # exactly the nonzero entries of ``vec``, in ``np.flatnonzero`` order
    at = np.flatnonzero(vec)
    assert state.indices.dtype == np.int64
    assert np.array_equal(state.indices, at)
    assert np.array_equal(state.amplitudes, vec[at])
    assert np.array_equal(state.dense(), vec)


def test_history_state_equals_kron_sum(clock, reduced, rng):
    _assert_entries_of(history_state(clock), _kron_history(clock))
    xi = random_state(reduced.n - reduced.a, rng)
    _assert_entries_of(history_state(clock, xi), _kron_history(clock, xi))
    broken = np.kron(basis_state(2, clock.num_steps), basis_state(0, clock.num_data))
    _assert_entries_of(invalid_clock_state(clock), broken)


def test_history_state_keeps_only_exact_nonzeros():
    # H then H again returns wire 0 to |0>: the rows after two steps hold
    # exact zeros that must not become entries
    ham = build_modified_fk(layered(1, 0, [[("H", (0,))], [("H", (0,))]]))
    state = history_state(ham, xi=basis_state(0, 1))
    _assert_entries_of(state, _kron_history(ham, basis_state(0, 1)))
    assert state.indices.size == 4
    assert np.all(np.diff(state.indices) > 0)


def test_dense_clock_state_is_refused_past_the_budget():
    state = ClockState(np.array([3]), np.ones(1, dtype=complex), 40)
    with pytest.raises(limits.ResourceError, match="40 qubits"):
        state.dense()


def test_invalid_clock_pattern_violates_exactly_two_terms(clock):
    energies = clock.energies(invalid_clock_state(clock))
    bad = clock.violations(energies)
    assert len(bad) == 2
    kinds = sorted(clock.terms[i].kind for i in bad)
    assert kinds == ["clock", "propagation"]
    hit = sorted(energies[i] for i in bad)
    assert np.allclose(hit, [0.5, 1.0], atol=1e-12)


def test_identity_circuit_gets_one_padded_step():
    c = layered(1, 0, [[("I", (0,))]])
    ham = build_modified_fk(c)
    assert ham.num_steps == 1
    assert [t.kind for t in ham.terms] == ["propagation", "output"]
    # the output wire carries the witness: |0> scores the |0><0| penalty
    zero = history_state(ham, xi=basis_state(0, 1))
    one = history_state(ham, xi=basis_state(1, 1))
    out = [t for t in ham.terms if t.kind == "output"][0]
    idx = ham.terms.index(out)
    assert np.isclose(ham.energies(zero)[idx], 0.5)
    assert ham.energies(one)[idx] < 1e-12


def test_arity_and_degree_guards():
    ccz = layered(3, 0, [[("CCZ", (0, 1, 2))]])
    with pytest.raises(ValueError):
        build_modified_fk(ccz)
    crowded = layered(1, 0, [[("H", (0,))]] * 4)  # wire 0 meets 4 gates
    with pytest.raises(ValueError, match="degree_reduce"):
        build_modified_fk(crowded)


def test_operator_matches_energies(clock, rng):
    op = clock.operator()
    vec = random_state(clock.num_qubits, rng)
    total = float(np.real(np.vdot(vec, op.apply(vec))))
    energies = clock.energies(_entries(vec, clock.num_qubits))
    assert np.isclose(total, sum(energies), atol=1e-10)


def _assert_energies_match_streamed(ham, state):
    # Each term's dense energy over the whole vector.
    vec = state.dense()
    want = [dense_term_energy(t, vec, ham.num_qubits) for t in ham.terms]
    got = ham.energies(state)
    assert len(got) == len(want)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-13


def test_energies_match_streamed_on_clock_states(clock, reduced, rng):
    for vec in (
        history_state(clock),
        history_state(clock, random_state(reduced.n - reduced.a, rng)),
        invalid_clock_state(clock),
    ):
        _assert_energies_match_streamed(clock, vec)


def test_energies_match_streamed_past_one_piece():
    layers = [[("H", (0,))], [("CNOT", (0, 1))], [("T", (1,))], [("CNOT", (1, 0))]]
    c = layered(2, 1, layers)
    ham = build_modified_fk(degree_reduce(c))
    assert 2**ham.num_qubits > linalg._PIECE_AMPS
    assert {t.locality for t in ham.terms} >= {2, 5}
    _assert_energies_match_streamed(ham, history_state(ham))
    _assert_energies_match_streamed(ham, invalid_clock_state(ham))


def test_energies_match_streamed_on_random_vectors(clock, rng):
    n = clock.num_qubits
    for _ in range(3):
        _assert_energies_match_streamed(clock, _entries(random_state(n, rng), n))
    for nnz in (1, 2, 3, 4, 5):
        vec = np.zeros(2**n, dtype=np.complex128)
        at = rng.choice(2**n, size=nnz, replace=False)
        vec[at] = rng.normal(size=nnz) + 1j * rng.normal(size=nnz)
        _assert_energies_match_streamed(clock, _entries(vec / np.linalg.norm(vec), n))


def test_energies_reject_bad_shapes(clock):
    idx, amps, n = history_state(clock)
    bad = {
        "must be 1-D": (np.stack([idx, idx]), np.stack([amps, amps])),
        "do not match": (idx[:-1], amps),
        "distinct": (np.r_[idx[:1], idx], np.r_[amps[:1], amps]),
        "out of range for 8 qubits": (np.r_[idx, 2**n], np.r_[amps, 0.5]),
    }
    for message, (i, a) in bad.items():
        with pytest.raises(ValueError, match=message):
            clock.energies(ClockState(i, a, n))
    with pytest.raises(ValueError, match="state on 9 qubits does not match 8"):
        clock.energies(ClockState(idx, amps, n + 1))


# 3 wires, 3 layers, 5 gates: 15 data and 17 clock qubits once degree-reduced.
WIDE = layered(3, 1, [
    [("H", (0,)), ("CNOT", (1, 2))], [("CNOT", (0, 1)), ("T", (2,))], [("H", (2,))],
])


def test_clock_report_on_32_qubits_holds_no_full_vector():
    ham = build_modified_fk(degree_reduce(WIDE))
    assert ham.num_qubits == 32
    tracemalloc.start()
    try:
        report = clock_report(ham)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert report["history_energy_max_nonoutput"] <= 1e-10
    assert sorted(report["invalid_pattern"]["kinds"]) == ["clock", "propagation"]
    assert "dl_verifier" not in report


def test_clock_state_estimate_counts_every_history_entry(monkeypatch):
    # 18 clock times of 2^15 data amplitudes: the entries, not the 2 MiB of
    # data-register vectors, are what an 8 MiB budget cannot hold
    ham = build_modified_fk(degree_reduce(WIDE))
    monkeypatch.setattr(limits, "MEMORY_BUDGET", 2**23)
    with pytest.raises(limits.ResourceError, match="history state on 32 qubits"):
        require_clock_states(ham)
    monkeypatch.setattr(limits, "MEMORY_BUDGET", 2**27)
    require_clock_states(ham)


def test_clock_states_past_int64_indices_are_refused(monkeypatch):
    # 16 wires, three gates each and no degree reduction: 16 data and 48
    # clock qubits, whose entries would fit a larger budget
    ham = build_modified_fk(layered(16, 0, [[("H", (w,)) for w in range(16)]] * 3))
    assert ham.num_qubits == 64
    monkeypatch.setattr(limits, "MEMORY_BUDGET", 2**40)
    with pytest.raises(limits.ResourceError, match="int64; at most 62 qubits"):
        require_clock_states(ham)
    with pytest.raises(limits.ResourceError, match="int64"):
        history_state(ham)


def test_accept_probability_bit_convention(hadamard1):
    plan = MeasurementPlan(wires=(0,), accept_bits=(1,), postprocess="direct")
    p = accept_probability(hadamard1, plan)
    assert np.isclose(p, 0.5, atol=1e-12)


@pytest.mark.parametrize("n", [12, 17])
def test_accept_probability_stays_within_its_estimate(monkeypatch, n):
    # the input state, a layer's input and output, and apply_matrix's copy
    # and product: 4.0 vectors at 12 qubits, 4.5 at 17, where a state is two
    # pieces
    c = layered(n, 0, [
        [("H", (w,)) for w in range(n)],
        [("CNOT", (w, w + 1)) for w in range(0, n - 1, 2)],
        [("T", (w,)) for w in range(n)],
    ])
    plan = MeasurementPlan(
        wires=tuple(range(0, n, 3)), accept_bits=(0,) * len(range(0, n, 3)),
        postprocess="direct",
    )
    xi = np.full(2**n, 2 ** (-n / 2))
    estimates = []
    monkeypatch.setattr(
        fk, "require", lambda what, n, nbytes: estimates.append(nbytes)
    )
    require_simulable(c)
    tracemalloc.start()
    try:
        accept_probability(c, plan, xi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (estimate,) = estimates
    assert peak <= estimate


def test_dl_verifier_single_projector():
    term = LocalTerm("output", (0,), np.diag([0.0, 1.0]), 1)
    verifier, plan = build_dl_verifier([term])
    # accept = ||(1 - |1><1|) xi||^2
    assert np.isclose(accept_probability(verifier, plan, basis_state(0, 1)), 1.0)
    assert np.isclose(accept_probability(verifier, plan, basis_state(1, 1)), 0.0)
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    assert np.isclose(accept_probability(verifier, plan, plus), 0.5, atol=1e-12)


def test_dl_verifier_matches_projector_product(clock):
    groups = []
    for i, t in enumerate(clock.terms):
        for g in groups:
            if all(
                not set(t.support) & set(clock.terms[j].support) for j in g
            ):
                g.append(i)
                break
        else:
            groups.append([i])
    grouping = [tuple(g) for g in groups]
    verifier, plan = build_dl_verifier(clock.terms)
    # one layer per group, the flips in term order (padding is named "I")
    flips = [
        tuple(g.wires[-1] for g in layer if g.name is None)
        for layer in verifier.layers
    ]
    assert flips == grouping
    xi = history_state(clock).dense()
    accept = accept_probability(verifier, plan, xi)
    direct = float(np.linalg.norm(dl_product(clock.terms, grouping, xi)) ** 2)
    assert abs(accept - direct) < 1e-12
    # frozen: the history state of 4 steps keeps 1 - 1/5 after the sweep
    assert np.isclose(accept, 0.8, atol=1e-12)


def dense_dl_product(terms, grouping, num_qubits):
    """The group-ordered product of term complements as 2^N x 2^N matrices,
    first group first."""
    eye = np.eye(2**num_qubits)
    out = eye
    for group in grouping:
        for i in group:
            wires = tuple(reversed(terms[i].support))
            out = (eye - embed_operator(terms[i].block, wires, num_qubits)) @ out
    return out


@pytest.mark.parametrize("reduced_first", [True, False], ids=["clock", "hcnot"])
def test_dl_product_matches_the_dense_group_product(hcnot, reduced_first, rng):
    # the degree-reduced clock fixture (8 qubits) and hcnot's own encoding
    # (4 qubits), on the history state and on a random state; the vector
    # path holds a few vectors, never a 2^N x 2^N matrix
    ham = build_modified_fk(degree_reduce(hcnot) if reduced_first else hcnot)
    n = ham.num_qubits
    grouping = greedy_groups(ham.terms)
    dense = dense_dl_product(ham.terms, grouping, n)
    for vec in (history_state(ham).dense(), random_state(n, rng)):
        kept = vec.copy()
        tracemalloc.start()
        try:
            got = dl_product(ham.terms, grouping, vec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(vec, kept)
        assert np.abs(got - dense @ vec).max() <= 1e-14
        assert peak < limits.vector_bytes(n, 4) + 2**12


def test_swap_verifier_honest_completeness(hcnot):
    verifier, plan = build_swap_test_verifier(hcnot)
    witness = swap_test_witness(hcnot)
    state = np.zeros(2**verifier.n, dtype=complex)
    # witness occupies the data registers; ancillas start at |0>
    ancillas = verifier.n - witness.size.bit_length() + 1
    state = product_state(
        [(witness, range(verifier.n - 1, ancillas - 1, -1)),
         (basis_state(0, ancillas), range(ancillas - 1, -1, -1))],
        verifier.n,
    )
    final = apply_circuit(verifier, state)
    probs = np.abs(final) ** 2
    accept = 0.0
    for idx, pr in enumerate(probs):
        bits = tuple((idx >> w) & 1 for w in plan.wires)
        if bits == plan.accept_bits:
            accept += pr
    # honest witness reproduces the bare circuit's accept probability (1/2)
    direct = apply_circuit(hcnot, basis_state(0, 2))
    p_direct = float(np.abs(direct[1 << 0]) ** 2 + np.abs(direct[0b11]) ** 2)
    assert np.isclose(accept, p_direct, atol=1e-10)
    assert np.isclose(accept, 0.5, atol=1e-10)


def test_swap_verifier_certainty_circuit():
    c = layered(1, 0, [[("X", (0,))]])
    verifier, plan = build_swap_test_verifier(c)
    witness = swap_test_witness(c)
    ancillas = verifier.n - 2
    state = product_state(
        [(witness, range(verifier.n - 1, ancillas - 1, -1)),
         (basis_state(0, ancillas), range(ancillas - 1, -1, -1))],
        verifier.n,
    )
    final = apply_circuit(verifier, state)
    accept = 0.0
    for idx, pr in enumerate(np.abs(final) ** 2):
        bits = tuple((idx >> w) & 1 for w in plan.wires)
        if bits == plan.accept_bits:
            accept += pr
    assert abs(accept - 1.0) < 1e-12
