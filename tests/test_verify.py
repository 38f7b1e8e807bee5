"""Verify rows: status classes, oracles, and the checked closed forms."""

import tracemalloc

import numpy as np
import pytest

from clockless import rotation, spectral, verify
from clockless.circuit import NAMED_GATES, layered
from clockless.hamiltonian import parent_spec
from clockless.limits import dense_bytes
from clockless.peps import build_peps
from clockless.rotation import clifford_form, teleport_coefficient, teleport_input
from clockless.verify import (
    check_status,
    ground_fidelity_check,
    named_fixtures,
    verify_checks,
)

# The verify command's default tolerance.
TOL = 1e-10


def test_status_classes():
    assert check_status(1e-12, 1e-10) == "pass"
    assert check_status(5e-10, 1e-10) == "tolerance"
    assert check_status(1e-3, 1e-10) == "fail"


def test_verify_tolerance_class_is_not_a_correctness_failure():
    checks = verify_checks(named_fixtures(), (0.5,), 1e-17)
    statuses = {c.status for c in checks}
    # with the tolerance cranked below float accuracy some checks land in
    # the tolerance class, but none may actually fail
    assert "fail" not in statuses
    assert "tolerance" in statuses


def test_verify_teleported_rows_report_measured_deviation(identity1):
    checks = verify_checks([("id1", identity1)], (0.5,), TOL)
    (row,) = [ch for ch in checks if ch.name.startswith("teleported_input")]
    spec = parent_spec(identity1, 0.5)
    (term,) = [t for t in spec.terms if t.kind == "input"]
    _, attenuation, deviation = teleport_input(term, 0.5)
    assert row.value == attenuation and row.deviation == deviation
    assert row.reference == teleport_coefficient(0.5)
    assert abs(row.value - row.reference) < 1e-13 and row.status == "pass"


def test_ground_fidelity_fails_on_degenerate_ground(hcnot, identity1):
    # hcnot has a data wire, so its ground space is two-dimensional
    spec = parent_spec(hcnot, 0.5)
    state = build_peps(hcnot, (0.5, 0.5))
    row = ground_fidelity_check("hcnot", 0.5, spec, state, state, 1e-10)
    assert row.status == "fail"
    assert np.isnan(row.value) and np.isnan(row.deviation)
    spec = parent_spec(identity1, 0.5)
    state = build_peps(identity1, (0.5,))
    row = ground_fidelity_check("id1", 0.5, spec, state, state, 1e-10)
    assert row.status == "pass" and abs(row.value - 1.0) < 1e-10
    assert row.value == 1.0 - row.deviation


def _cnot_bulk_row(delta: float, tol: float):
    c = dict(named_fixtures())["cnot_bulk"]
    state = build_peps(c, delta)
    return ground_fidelity_check(
        "cnot_bulk", delta, parent_spec(c, delta), state, state, tol
    )


def test_ground_fidelity_below_the_floor_is_a_tolerance_row(monkeypatch):
    # at tolerance 1e-12 the shift of cnot_bulk at delta 0.03 lies above its
    # first excited level; the second count, at the accuracy floor's shift,
    # certifies the ground within 1e-9
    inertia, counts = spectral._inertia, []

    def counted(h, tau, limit):
        counts.append(inertia(h, tau, limit)[0])
        return inertia(h, tau, limit)

    monkeypatch.setattr(spectral, "_inertia", counted)
    row = _cnot_bulk_row(0.03, 1e-12)
    assert counts == [4, 1]
    assert row.status == "tolerance" and 1e-12 < row.deviation <= 1e-9


@pytest.mark.parametrize("name", ["identity1", "cnot_bulk", "t_bulk"])
def test_teleported_rows_pass_at_unit_delta(name):
    # delta = 1 is a legal weight (Q(1) = I): the rotated input term acts
    # as the identity on its pairs, so their projection leaves it unchanged
    c = dict(named_fixtures())[name]
    checks = verify_checks([(name, c)], (1.0,), TOL)
    rows = [ch for ch in checks if ch.name.startswith("teleported_input")]
    assert len(rows) == c.a
    for row in rows:
        assert row.reference == 1.0 and abs(row.value - 1.0) <= 1e-12
        assert row.status == "pass"


def test_teleported_rows_extract_once_on_the_teleport_grid(monkeypatch, pin_cpus):
    # the teleported check depends only on delta, so each delta's is
    # extracted once per process, whatever the wire, on all three qubits of
    # the one-wire teleport grid, where the teleport spreads it. One CPU
    # keeps both cases in this process, and the cache starts empty.
    pin_cpus(1)
    rotation._teleported.cache_clear()
    extract, calls = rotation._conjugated_block, []

    def counting(term, cone, support):
        calls.append((term.kind, cone.num_qubits, tuple(support)))
        return extract(term, cone, support)

    monkeypatch.setattr(rotation, "_conjugated_block", counting)
    c = dict(named_fixtures())["identity2"]
    checks = verify_checks([("identity2", c)], (0.2, 0.5), TOL)
    rows = [ch for ch in checks if ch.name.startswith("teleported_input")]
    assert len(rows) == 4 and {row.status for row in rows} == {"pass"}
    # picked by kind: identity2's last-layer cones are 3 qubits too
    inputs = [call for call in calls if call[0] == "input"]
    assert inputs == [("input", 3, (0, 1, 2))] * 2
    _, reduced, _ = rotation._teleported(0.5)
    assert not reduced.flags.writeable


def test_ground_fidelity_with_a_residual_below_the_floor():
    # identity2 at delta = 1 leaves a residual of 9.8e-32: twice it over
    # sqrt(tol) is a margin the dense factor's error bound of 1e-12
    # swallows, although one level lies below the shift and the gap is 1,
    # so the count is made again with the rounding floor standing in
    c = dict(named_fixtures())["identity2"]
    state = build_peps(c, 1.0)
    spec = parent_spec(c, 1.0)
    row = ground_fidelity_check("identity2", 1.0, spec, state, state, TOL)
    assert row.status == "pass" and 0.0 < row.deviation < 1e-40


@pytest.mark.parametrize("circuit", [
    dict(named_fixtures())["cnot_bulk"],
    layered(3, 3, [[("H", (0,)), ("CNOT", (1, 2))]]),
])
def test_ground_fidelity_of_an_exact_eigenvector(circuit):
    # at delta = 1 the grid state is an exact floating-point eigenvector of
    # its parent (residual 0): the rounding floor sets the shift, and the
    # bound on the angle is 0
    state = build_peps(circuit, 1.0)
    spec = parent_spec(circuit, 1.0)
    row = ground_fidelity_check("c", 1.0, spec, state, state, TOL)
    assert (row.value, row.deviation, row.status) == (1.0, 0.0, "pass")


def test_verify_picks_clifford_form_by_action_not_name():
    # CNOT handed over as a bare matrix is still a Pauli normalizer
    cnot = np.array(NAMED_GATES["CNOT"])
    c = layered(2, 2, [[(cnot, (1, 0))], [("I", (0,)), ("I", (1,))]])
    checks = verify_checks([("cnot_matrix", c)], (0.5,), TOL)
    names = {ch.name for ch in checks}
    assert "clifford_bulk[u@1-0]" in names
    assert not any(n.startswith("nonlocality_diagnostic") for n in names)
    assert [ch.name for ch in checks if ch.status != "pass"] == []


# The Pauli-normalizing bulk gates of the six fixtures.
FIXTURE_CLIFFORD_BULK = [
    ("CNOT", (1, 0)), ("H", (1,)), ("I", (0,)), ("I", (0,)), ("I", (1,)),
    ("I", (1,)),
]


def counted_clifford_form(monkeypatch):
    """Patch ``verify.clifford_form`` to list each gate it builds, in the
    process that builds it."""
    calls = []

    def counting(g, delta_left, delta_right):
        calls.append((g.name, tuple(g.wires)))
        return clifford_form(g, delta_left, delta_right)

    monkeypatch.setattr(verify, "clifford_form", counting)
    return calls


def test_each_case_builds_its_own_clifford_forms(monkeypatch, pin_cpus):
    # one form per case and Clifford bulk gate: three deltas of six gates
    pin_cpus(1)
    calls = counted_clifford_form(monkeypatch)
    checks = verify_checks(named_fixtures(), (0.2, 0.5, 0.8), TOL)
    assert sorted(calls) == sorted(FIXTURE_CLIFFORD_BULK * 3)
    bulk = [ch for ch in checks if ch.name.startswith("clifford_bulk")]
    assert len(bulk) == 18 and all(ch.status == "pass" for ch in bulk)


def test_the_calling_process_builds_no_clifford_form(monkeypatch, pin_cpus):
    # with forking, every form is built in a worker: none before the cases
    # are dispatched, and none in this process after
    forks = pin_cpus(2)
    calls = counted_clifford_form(monkeypatch)
    dispatch, before = verify.fork_map, []

    def recorded(fn, items):
        before.append(len(calls))
        return dispatch(fn, items)

    monkeypatch.setattr(verify, "fork_map", recorded)
    checks = verify_checks(named_fixtures(), (0.2, 0.5, 0.8), TOL)
    assert before == [0] and calls == [] and len(forks) == 2
    assert sum(ch.name.startswith("clifford_bulk") for ch in checks) == 18


def test_rotated_deviations_are_spectral_norms(monkeypatch, pin_cpus):
    # the largest eigenvalue magnitude of each Hermitian difference is its
    # SVD norm, on every last-layer, Clifford and projected row
    pin_cpus(1)
    deviation, seen = verify._norm_deviation, []

    def compared(block, closed):
        got = deviation(block, closed)
        seen.append((got, float(np.linalg.norm(block - closed, 2))))
        return got

    monkeypatch.setattr(verify, "_norm_deviation", compared)
    checks = verify_checks(named_fixtures(), (0.2, 0.5, 0.8), TOL)
    rotated = [
        ch for ch in checks
        if ch.name.split("[")[0] in ("last_layer", "clifford_bulk", "projected_bulk")
    ]
    assert [got for got, _ in seen] == [ch.deviation for ch in rotated]
    assert len(seen) == 60
    assert max(abs(got - svd) for got, svd in seen) <= 1e-15


def test_default_checks_build_no_grid_sized_block(pin_cpus):
    # every term the default rows rotate is a last-layer term, a Clifford
    # bulk term or a teleport-grid input term; none is extracted on all 10
    # qubits of a grid, so the traced peak stays below one 2^10 x 2^10 block.
    # One CPU keeps the cases in this process, where tracemalloc sees them.
    pin_cpus(1)
    tracemalloc.start()
    try:
        verify_checks(named_fixtures(), (0.2, 0.5, 0.8), TOL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes(10)


@pytest.mark.parametrize("cpus", [1, 2])
def test_forked_verify_matches_the_serial_path(pin_cpus, cpus):
    # each single-case call runs in this process; the full call forks one
    # worker per CPU and must return the same rows in the same order
    deltas = (0.2, 0.5, 0.8)
    serial = [
        row
        for fixture in named_fixtures()
        for delta in deltas
        for row in verify_checks([fixture], (delta,), TOL)
    ]
    forks = pin_cpus(cpus)
    assert verify_checks(named_fixtures(), deltas, TOL) == serial
    assert len(forks) == (0 if cpus == 1 else 2)
    assert forks.reaped()


def test_one_verify_case_makes_no_pool(pin_cpus, identity1):
    forks = pin_cpus(2)
    checks = verify_checks([("id1", identity1)], (0.5,), TOL)
    assert forks == [] and {ch.status for ch in checks} == {"pass"}


def test_verify_worker_exception_reaches_the_caller(monkeypatch, pin_cpus):
    # the forked workers inherit the patched name; the error comes back by
    # pickle with its type and message, and no worker outlives the call
    def broken(term, c):
        raise ArithmeticError(f"rotate_term broke on layer {term.layer}")

    forks = pin_cpus(2)
    monkeypatch.setattr(verify, "rotate_term", broken)
    with pytest.raises(ArithmeticError, match="^rotate_term broke on layer 1$"):
        verify_checks(named_fixtures(), (0.2, 0.5, 0.8), TOL)
    assert len(forks) == 2 and forks.reaped()
