"""The one memory budget: estimates, refusals and their messages."""

import tracemalloc

import numpy as np
import pytest

from clockless.hamiltonian import SparseOperator
from clockless.limits import (
    MEMORY_BUDGET,
    ResourceError,
    dense_bytes,
    require,
    vector_bytes,
)
from clockless.linalg import embed_operator


def test_require_accepts_at_budget_and_refuses_one_byte_over():
    require("an exact fit", 12, MEMORY_BUDGET)
    with pytest.raises(ResourceError):
        require("one byte over", 12, MEMORY_BUDGET + 1)


def test_resource_error_is_a_value_error():
    assert issubclass(ResourceError, ValueError)
    with pytest.raises(ValueError):
        require("anything", 30, MEMORY_BUDGET * 4)


def test_message_names_operation_qubits_and_gib():
    with pytest.raises(ResourceError) as err:
        require("a dense thing", 13, dense_bytes(13))
    text = str(err.value)
    assert "a dense thing" in text
    assert "13 qubits" in text
    assert "about 1 GiB" in text and "0.25 GiB" in text


def test_estimates():
    assert dense_bytes(12) == MEMORY_BUDGET
    assert vector_bytes(20, 20) == 20 * 16 * 2**20


def test_empty_thirteen_qubit_operator_refuses_dense_without_allocating():
    op = SparseOperator(13, (), ())
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="13 qubits"):
            op.dense()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_library_refusal_is_a_resource_error():
    with pytest.raises(ResourceError, match="dense embedding on 13 qubits"):
        embed_operator(np.eye(2), (0,), 13)
