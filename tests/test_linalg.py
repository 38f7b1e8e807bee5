"""Wire-indexed linear algebra helpers."""

import numpy as np
import pytest

from clockless import linalg
from clockless.linalg import (
    apply_maps,
    apply_matrix,
    basis_state,
    bit_placement,
    is_hermitian,
    is_projector,
    is_unitary,
    overlap,
    partial_trace,
    product_state,
    random_projector,
    random_state,
    random_unitary,
    sparse_expectation,
    trace_distance,
    trace_norm,
)
from oracles import embed_operator, is_psd

X = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_basis_state():
    v = basis_state(5, 3)
    assert v.shape == (8,)
    assert v[5] == 1.0 and np.count_nonzero(v) == 1
    with pytest.raises(ValueError):
        basis_state(8, 3)


def test_bit_placement_spreads_bits():
    # local bit 0 -> global bit 2, local bit 1 -> global bit 0
    placed = bit_placement([2, 0])
    assert list(placed) == [0, 4, 1, 5]


def test_apply_matrix_wire_convention():
    # X on wire 0 flips the least significant amplitude bit
    out = apply_matrix(basis_state(0, 2), X, (0,), 2)
    assert np.allclose(out, basis_state(1, 2))
    out = apply_matrix(basis_state(0, 2), X, (1,), 2)
    assert np.allclose(out, basis_state(2, 2))


def test_apply_matrix_msb_first_wires():
    cnot = np.eye(4)[[0, 1, 3, 2]]
    # wires (1, 0): wire 1 is the control (operator's high bit)
    out = apply_matrix(basis_state(2, 2), cnot, (1, 0), 2)
    assert np.allclose(out, basis_state(3, 2))
    out = apply_matrix(basis_state(1, 2), cnot, (1, 0), 2)
    assert np.allclose(out, basis_state(1, 2))


def test_apply_matrix_batched():
    batch = np.stack([basis_state(0, 2), basis_state(2, 2)], axis=1)
    out = apply_matrix(batch, X, (1,), 2)
    assert np.allclose(out[:, 0], basis_state(2, 2))
    assert np.allclose(out[:, 1], basis_state(0, 2))


def test_embed_operator_matches_kron():
    assert np.allclose(embed_operator(X, (0,), 2), np.kron(np.eye(2), X))
    assert np.allclose(embed_operator(X, (1,), 2), np.kron(X, np.eye(2)))
    with pytest.raises(ValueError):
        embed_operator(X, (0,), 14)


def test_apply_maps_matches_dense_products(rng):
    # Two maps on disjoint wires of 5 qubits, one of them non-symmetric.
    a, b = random_unitary(4, rng), random_unitary(2, rng)
    block = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    maps = [(a, (4, 1)), (b, (2,))]
    dense = embed_operator(a, (4, 1), 5) @ embed_operator(b, (2,), 5)
    assert np.allclose(apply_maps(block, maps, 5, both_sides=False), dense @ block)
    assert np.allclose(apply_maps(block, maps, 5), dense @ block @ dense.T)
    assert np.allclose(apply_maps(np.eye(32), [], 5), np.eye(32))
    # Overlapping maps multiply in order, the first one acting first.
    later = embed_operator(b, (1,), 5) @ embed_operator(a, (4, 1), 5)
    maps = [(a, (4, 1)), (b, (1,))]
    assert np.allclose(apply_maps(block, maps, 5), later @ block @ later.T)


def test_embed_operator_rejects_bad_wires():
    with pytest.raises(ValueError):
        apply_matrix(basis_state(0, 2), X, (0, 0), 2)
    with pytest.raises(ValueError):
        apply_matrix(basis_state(0, 2), X, (2,), 2)


def test_product_state_partition():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    v = product_state([(plus, (1,)), (basis_state(1, 1), (0,))], 2)
    direct = np.kron(plus, np.array([0.0, 1.0]))
    assert np.allclose(v, direct)
    with pytest.raises(ValueError):
        product_state([(plus, (1,))], 2)
    with pytest.raises(ValueError):
        product_state([(plus, (0,)), (plus, (0,))], 2)


def test_product_state_multiqubit_factor():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    v = product_state([(bell, (2, 0)), (basis_state(1, 1), (1,))], 3)
    # pair factor's high bit sits on qubit 2, low bit on qubit 0
    expect = np.zeros(8, dtype=complex)
    expect[0b010] = expect[0b111] = 1 / np.sqrt(2)
    assert np.allclose(v, expect)


def test_partial_trace_of_bell_pair():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    rho = partial_trace(bell, (0,), 2)
    assert np.allclose(rho, np.eye(2) / 2)
    rho01 = partial_trace(bell, (1, 0), 2)
    assert np.allclose(rho01, np.outer(bell, bell))


def test_overlap_and_distances(rng):
    a = random_state(3, rng)
    b = random_state(3, rng)
    assert 0.0 <= overlap(a, b) <= 1.0 + 1e-12
    assert np.isclose(overlap(a, a), 1.0)
    ra, rb = np.outer(a, a.conj()), np.outer(b, b.conj())
    # pure-state identity
    td = trace_distance(ra, rb)
    assert np.isclose(td, np.sqrt(1.0 - overlap(a, b) ** 2), atol=1e-10)
    assert np.isclose(trace_norm(ra - rb), 2.0 * td)


def test_random_generators_are_what_they_claim(rng):
    u = random_unitary(8, rng)
    assert is_unitary(u)
    p = random_projector(8, 3, rng)
    assert is_projector(p)
    assert np.isclose(np.trace(p).real, 3.0)
    v = random_state(3, rng)
    assert np.isclose(np.linalg.norm(v), 1.0)


def test_matrix_predicates(rng):
    h = np.diag([1.0, 2.0, 3.0])
    assert is_hermitian(h) and is_psd(h)
    assert not is_psd(np.diag([1.0, -0.5]))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _reshape_apply(state, op, wires, n):
    """Reference: one moveaxis, one reshape and one matmul over the whole state."""
    batched = state.ndim == 2
    work = state if batched else state[:, None]
    k = len(wires)
    tensor = np.asarray(work, dtype=np.complex128).reshape(
        (2,) * n + (work.shape[1],)
    )
    axes = [n - 1 - w for w in wires]
    tensor = np.moveaxis(tensor, axes, range(k))
    tail = tensor.shape[k:]
    tensor = (op @ tensor.reshape(2**k, -1)).reshape((2,) * k + tail)
    out = np.moveaxis(tensor, range(k), axes).reshape(work.shape)
    return out if batched else out[:, 0]


def _complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _sparse_hermitian(k, rng):
    """A Hermitian k-qubit operator whose only nonzero rows are 1 and 2**k - 1."""
    live = [1, 2**k - 1] if k > 1 else [1]
    op = np.zeros((2**k, 2**k), dtype=np.complex128)
    sub = _complex_normal(rng, len(live), len(live))
    op[np.ix_(live, live)] = sub + sub.conj().T
    return op


# Seven qubits: single, unsorted MSB-first lists, and k = N (no free axes).
ORACLE_N = 7
ORACLE_WIRES = [(0,), (3,), (6,), (5, 1, 3), (2, 6, 0, 4), (4, 0, 6, 2, 5, 1, 3)]


@pytest.fixture
def tiny_pieces(monkeypatch):
    """Shrink the piece size so every 7-qubit case streams many pieces."""
    monkeypatch.setattr(linalg, "_PIECE_AMPS", 4)


@pytest.mark.parametrize("wires", ORACLE_WIRES)
def test_streamed_apply_matches_single_reshape(tiny_pieces, wires, rng):
    n, k = ORACLE_N, len(wires)
    op = _complex_normal(rng, 2**k, 2**k)
    vec = _complex_normal(rng, 2**n)
    batch = _complex_normal(rng, 2**n, 3)
    view = linalg._support_first(vec[:, None], linalg._support_order(wires, n))
    assert len(linalg._piece_tails(view, k)) == 2 ** min(n - k, 5)
    for state in (vec, batch, vec.real):
        got = apply_matrix(state, op, wires, n)
        assert got.shape == state.shape
        assert np.max(np.abs(got - _reshape_apply(state, op, wires, n))) <= 1e-13


def test_single_piece_is_the_plain_contraction(monkeypatch, rng):
    # A state that just fits in one piece goes through one contiguous copy
    # and one matmul, so it is bit-identical to the plain contraction.
    n = 6
    vec = _complex_normal(rng, 2**n)
    batch = _complex_normal(rng, 2**n, 5)
    for wires in [(4,), (5, 0, 2), tuple(range(n))]:
        op = _complex_normal(rng, 2 ** len(wires), 2 ** len(wires))
        for state in (batch, vec):
            monkeypatch.setattr(linalg, "_PIECE_AMPS", state.size)
            assert np.array_equal(
                apply_matrix(state, op, wires, n), _reshape_apply(state, op, wires, n)
            )


def test_apply_matrix_rejects_bad_input():
    vec = basis_state(0, 3)
    with pytest.raises(ValueError, match="state length"):
        apply_matrix(vec[:7], X, (0,), 3)
    with pytest.raises(ValueError, match="distinct"):
        apply_matrix(vec, np.eye(4), (1, 1), 3)
    with pytest.raises(ValueError, match="out of range"):
        apply_matrix(vec, X, (3,), 3)
    with pytest.raises(ValueError, match="operator shape"):
        apply_matrix(vec, np.eye(4), (0,), 3)


# One, two and five wires, and a non-contiguous unsorted three-wire list.
SPARSE_WIRES = [(0,), (6,), (2, 3), (5, 1, 3), (4, 0, 6, 2, 5)]


@pytest.mark.parametrize("wires", SPARSE_WIRES)
def test_sparse_expectation_matches_streamed(wires, rng):
    n, k = ORACLE_N, len(wires)
    dense = _complex_normal(rng, 2**k, 2**k)
    for nnz in (1, 2, 3, 4, 5, 2**n):
        vec = np.zeros(2**n, dtype=np.complex128)
        vec[rng.choice(2**n, size=nnz, replace=False)] = _complex_normal(rng, nnz)
        vec /= np.linalg.norm(vec)
        idx = np.flatnonzero(vec)
        for op in (dense + dense.conj().T, dense, _sparse_hermitian(k, rng)):
            got = sparse_expectation(idx, vec[idx], op, wires, n)
            assert abs(got - np.vdot(vec, apply_matrix(vec, op, wires, n))) <= 1e-13


@pytest.mark.parametrize("wires", SPARSE_WIRES)
def test_sparse_expectation_in_chunks_matches_streamed(wires, rng, monkeypatch):
    # 2**k * 2 amplitudes a chunk: two groups at a time, the last one short
    n, k = ORACLE_N, len(wires)
    monkeypatch.setattr(linalg, "_PIECE_AMPS", 2 ** (k + 1))
    op = _sparse_hermitian(k, rng)
    for nnz in (3, 5, 2**n):
        vec = np.zeros(2**n, dtype=np.complex128)
        vec[rng.choice(2**n, size=nnz, replace=False)] = _complex_normal(rng, nnz)
        idx = np.flatnonzero(vec)
        for order in (idx, idx[::-1]):
            got = sparse_expectation(order, vec[order], op, wires, n)
            assert abs(got - np.vdot(vec, apply_matrix(vec, op, wires, n))) <= 1e-13


def test_sparse_expectation_of_no_amplitudes_is_zero():
    empty = np.zeros(0, dtype=np.int64)
    assert sparse_expectation(empty, empty.astype(complex), X, (0,), 3) == 0


def test_sparse_expectation_rejects_bad_input():
    idx, amps = np.array([0, 5]), np.array([0.6, 0.8])
    with pytest.raises(ValueError, match="distinct"):
        sparse_expectation(idx, amps, np.eye(4), (1, 1), 3)
    with pytest.raises(ValueError, match="out of range"):
        sparse_expectation(idx, amps, X, (3,), 3)
    with pytest.raises(ValueError, match="operator shape"):
        sparse_expectation(idx, amps, np.eye(4), (0,), 3)


def test_sparse_expectation_rejects_malformed_entries():
    # diag(0, 1) on wire 0 of 3 qubits: each case once returned a number
    one = np.diag([0.0, 1.0])
    with pytest.raises(ValueError, match="distinct"):
        sparse_expectation(np.array([1, 1]), np.array([1, 1j]), one, (0,), 3)
    for index in (8, 9, -1):
        with pytest.raises(ValueError, match="out of range for 3 qubits"):
            sparse_expectation(np.array([index]), np.ones(1), one, (0,), 3)
    with pytest.raises(ValueError, match="2 indices do not match 1 amplitudes"):
        sparse_expectation(np.array([1, 3]), np.ones(1), one, (0,), 3)
    with pytest.raises(ValueError, match="must be 1-D"):
        sparse_expectation(np.array([[1, 3]]), np.ones((1, 2)), one, (0,), 3)
    with pytest.raises(ValueError, match="must be 1-D"):
        sparse_expectation(np.array(1), np.ones(()), one, (0,), 3)
    assert sparse_expectation(np.array([1, 3]), np.array([1, 1j]), one, (0,), 3) == 2
