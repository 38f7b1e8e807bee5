"""The one memory budget (estimates, refusals, messages), BLAS threads and
the fork map."""

import logging
import multiprocessing
import tracemalloc

import numpy as np
import pytest

from clockless import limits
from clockless.hamiltonian import SparseOperator
from clockless.limits import (
    MEMORY_BUDGET,
    ResourceError,
    dense_bytes,
    fork_map,
    require,
    set_blas_threads,
    vector_bytes,
)
from clockless.linalg import embed_operator
from clockless.spectral import ConvergenceError, ground_certificate


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


def test_dense_oracles_refuse_twelve_qubits_without_allocating():
    # one 12-qubit matrix is the whole budget; the ground certificate's
    # dense fallback holds several, and is refused before the sparse factor
    op = SparseOperator(12, ())
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="factorization on 12"):
            ground_certificate(op, np.zeros(op.dim), 1e-10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_library_refusal_is_a_resource_error():
    with pytest.raises(ResourceError, match="dense embedding on 13 qubits"):
        embed_operator(np.eye(2), (0,), 13)


def _no_search():
    pytest.fail("the BLAS library was searched for")


def test_blas_threads_honour_openblas_num_threads(monkeypatch, caplog):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.setattr(limits, "_numpy_openblas", _no_search)
    with caplog.at_level(logging.INFO, logger="clockless.limits"):
        assert set_blas_threads() == {}
    assert "OPENBLAS_NUM_THREADS is set" in caplog.text


def test_blas_threads_without_the_library_do_nothing(monkeypatch, caplog):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setattr(limits, "_numpy_openblas", lambda: None)
    with caplog.at_level(logging.INFO, logger="clockless.limits"):
        assert set_blas_threads() == {}
    assert "not found" in caplog.text


def test_blas_threads_second_call_is_harmless(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    if limits._numpy_openblas() is None:
        pytest.skip("numpy is not linked against its own OpenBLAS here")
    assert set_blas_threads() == {"numpy": 1}
    assert set_blas_threads() == {"numpy": 1}


@pytest.mark.parametrize(
    "cpus, items, record",
    [
        (1, [-3, 1, -2], "items=3 workers=1 in-process"),
        (2, [-3, 1, -2], "items=3 workers=2 forked"),
        (2, [-3], "items=1 workers=1 in-process"),
        (8, [-3, 1, -2], "items=3 workers=3 forked"),
    ],
    ids=["one-cpu", "two-cpus", "one-item", "more-cpus-than-items"],
)
def test_fork_map_keeps_item_order_and_logs_its_pool(
    pin_cpus, caplog, cpus, items, record
):
    pools = pin_cpus(cpus)
    with caplog.at_level(logging.INFO, logger="clockless.limits"):
        assert fork_map(abs, items) == [abs(i) for i in items]
    assert [r.getMessage() for r in caplog.records] == [f"fork_map: {record}"]
    workers = min(cpus, len(items))
    assert [args for args, _ in pools] == ([(workers,)] if workers > 1 else [])
    assert all(kw["mp_context"].get_start_method() == "fork" for _, kw in pools)
    assert multiprocessing.active_children() == []


def _stuck(budget):
    raise ConvergenceError("no convergence", budget)


def test_fork_map_brings_back_a_worker_convergence_error(pin_cpus):
    # an exception whose args do not rebuild it cannot cross the pipe, and
    # the pool would break instead of raising it
    pin_cpus(2)
    with pytest.raises(ConvergenceError) as err:
        fork_map(_stuck, [5, 6])
    assert str(err.value) == "no convergence (after 5 operator applications)"
    assert err.value.iterations == 5
    assert multiprocessing.active_children() == []
