"""Bell-pair algebra, the perturbation maps, and |phi0>."""

import numpy as np
import pytest

from clockless.pauli import (
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
    word_matrix,
    word_stack,
)
from oracles import bell_state


def test_tag_order_and_matrices():
    assert PAULI_TAGS == ("I", "X", "XZ", "Z")
    x, z = pauli_matrix("X"), pauli_matrix("Z")
    assert np.array_equal(pauli_matrix("XZ"), x @ z)
    for tag in PAULI_TAGS:
        m = pauli_matrix(tag)
        assert np.allclose(m.imag, 0.0) if np.iscomplexobj(m) else True
        assert np.array_equal(m @ m.T, np.eye(2))


def test_unknown_tag_rejected():
    with pytest.raises(ValueError):
        pauli_matrix("Y")


def test_weights():
    # Q(delta) weighs each Bell state by delta to its tag's weight: 0 for
    # the identity tag, 1 for each other tag
    for tag in PAULI_TAGS:
        weight = int(tag != "I")
        pair = bell_state(tag)
        assert np.allclose(q_matrix(0.3) @ pair, 0.3**weight * pair)


def test_bell_states_match_tag_action():
    base = bell_state("I")
    assert np.allclose(base, np.array([1, 0, 0, 1]) / np.sqrt(2))
    for tag in PAULI_TAGS:
        # the tag Pauli acts on the second qubit of the pair (index bit 1)
        expected = np.kron(pauli_matrix(tag), np.eye(2)) @ base
        assert np.allclose(bell_state(tag), expected)


def test_bell_basis_orthonormal():
    b = bell_basis_matrix()
    assert np.allclose(b.conj().T @ b, np.eye(4), atol=1e-15)


def test_bell_uniform_vector():
    v = bell_uniform()
    assert np.isclose(np.linalg.norm(v), 1.0)
    # summing the four Bell states collapses to |0> on the first qubit
    # and |+> on the second
    assert np.allclose(v, np.array([1, 0, 1, 0]) / np.sqrt(2))


@pytest.mark.parametrize("delta", [0.2, 0.5, 1.0])
def test_q_lambda_are_scaled_inverses(delta):
    q = q_matrix(delta)
    lam = lambda_matrix(delta)
    assert np.allclose(q @ lam, delta * np.eye(4), atol=1e-14)
    assert np.allclose(q @ bell_state("I"), bell_state("I"))
    assert np.allclose(q @ bell_state("Z"), delta * bell_state("Z"))
    assert np.allclose(lam @ bell_state("I"), delta * bell_state("I"))
    assert np.allclose(lam @ bell_state("X"), bell_state("X"))


def test_per_delta_maps_are_built_once_and_read_only():
    # every pair, site and layer of one delta shares one array, so no
    # caller may write into it
    for build in (q_matrix, lambda_matrix, phi0):
        first = build(0.35)
        assert build(np.float64(0.35)) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 0.0


@pytest.mark.parametrize("delta", [0.3, 0.35, 1.0])
def test_q_lambda_are_the_bell_projector_sums(delta):
    # the sums of the module docstring, one projector per tag
    rest = sum(bell_projector(tag) for tag in PAULI_TAGS[1:])
    q = bell_projector("I") + delta * rest
    lam = delta * bell_projector("I") + rest
    assert np.abs(q_matrix(delta) - q).max() <= 1e-15
    assert np.abs(lambda_matrix(delta) - lam).max() <= 1e-15
    for m in (q_matrix(delta), lambda_matrix(delta)):
        assert np.allclose(m.imag, 0.0)
        assert np.allclose(m, m.T)


@pytest.mark.parametrize("delta", [0.0, 1.5])
def test_q_lambda_refuse_delta_outside_unit_interval(delta):
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        q_matrix(delta)
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        lambda_matrix(delta)


@pytest.mark.parametrize("delta", [0.0, 0.2, 0.5, 1.0])
def test_phi0_explicit(delta):
    v = phi0(delta)
    assert np.isclose(np.linalg.norm(v), 1.0, atol=1e-14)
    direct = bell_state("I") + delta * (
        bell_state("X") + bell_state("XZ") + bell_state("Z")
    )
    assert np.allclose(v, direct / np.linalg.norm(direct))


def test_phi0_limits():
    assert np.allclose(phi0(0.0), bell_state("I"))
    assert np.allclose(phi0(1.0), bell_uniform())
    with pytest.raises(ValueError):
        phi0(-0.1)
    with pytest.raises(ValueError):
        phi0(1.2)


def test_phi0_is_normalized_q_on_uniform():
    delta = 0.4
    v = q_matrix(delta) @ bell_uniform()
    assert np.allclose(v / np.linalg.norm(v), phi0(delta))


def test_word_helpers():
    assert len(tag_words(2)) == 16 and tag_words(2)[1] == ("I", "X")
    xz = word_matrix(("X", "Z"))
    assert np.array_equal(xz, np.kron(pauli_matrix("X"), pauli_matrix("Z")))
    alpha, index = word_decompose((-1j * xz)[None], 2)
    assert tag_words(2)[index[0]] == ("X", "Z") and abs(alpha[0] + 1j) < 1e-15
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    assert word_decompose(hadamard[None], 1)[1].tolist() == [-1]


def test_word_decompose_stack_matches_single_calls():
    words = tag_words(2)
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    mats = np.stack([
        1j * word_matrix(("Z", "X")),
        -word_matrix(("I", "I")),
        np.kron(hadamard, np.eye(2)),
        np.zeros((4, 4)),
    ]).reshape(2, 2, 4, 4)
    phases, indices = word_decompose(mats, 2)
    assert phases.shape == indices.shape == (2, 2)
    assert words[indices[0, 0]] == ("Z", "X") and phases[0, 0] == 1j
    assert words[indices[0, 1]] == ("I", "I") and phases[0, 1] == -1
    assert indices[1, 0] == -1 and indices[1, 1] == -1
    flat = zip(mats.reshape(-1, 4, 4), phases.ravel(), indices.ravel())
    for mat, phase, index in flat:
        one_phase, one_index = word_decompose(mat[None], 2)
        assert one_index.tolist() == [index]
        assert index < 0 or one_phase[0] == phase


def test_word_stack_is_cached_and_read_only():
    stack = word_stack(2)
    assert stack is word_stack(2)
    assert not stack.flags.writeable
    for word, mat in zip(tag_words(2), stack):
        assert np.array_equal(mat, word_matrix(word))
