"""Fault patterns, error extraction, weight tails, and inequality suites."""

import tracemalloc

import numpy as np
import pytest

from clockless import hamiltonian, limits, soundness
from clockless.circuit import layered
from clockless.linalg import basis_state, random_state
from clockless.peps import build_peps
from clockless.soundness import (
    SUITE_NAMES,
    FaultPattern,
    binomial_tail,
    build_combinatorial_state,
    canonical_payloads,
    extract_decomposition,
    fault_locations,
    high_weight_mass,
    low_energy_probe,
    reassemble_decomposition,
    replay_instance,
    run_suite,
    run_suites,
    site_rate,
    violated_locations,
)


def faulted_bell(bell_circuit, delta=0.5):
    """Bell circuit with a faulted ancilla input and a faulted layer-2 gate."""
    fault = FaultPattern(frozenset({0}), (frozenset(), frozenset({0, 1})))
    payload = np.zeros(16)
    payload[5] = 1.0  # some direction off the gate's Choi state
    state = build_combinatorial_state(
        bell_circuit,
        delta,
        {("input", 0): np.array([0.0, 1.0]), ("gate", 2, (1, 0)): payload},
    )
    return state, fault


def test_fault_pattern_budget():
    # one location per faulted input wire and per faulted gate, in
    # grid_factors order
    fault = FaultPattern([0, 1], ([1],))
    assert (fault.inputs, fault.layers) == (frozenset({0, 1}), (frozenset({1}),))
    c = layered(2, 2, [[("H", (1,))]])
    assert fault_locations(c, fault) == [("input", 0), ("input", 1), ("gate", 1, (1,))]


def test_fault_free_state_matches_build(bell_circuit):
    state = build_combinatorial_state(bell_circuit, 0.5, {})
    built = build_peps(bell_circuit, 0.5)
    assert np.array_equal(state.amplitudes, built.amplitudes)
    assert state.fault == frozenset() and built.fault is None
    assert violated_locations(state) == set()


def test_extraction_needs_a_fault_pattern(bell_circuit):
    with pytest.raises(ValueError, match="no fault pattern"):
        extract_decomposition(build_peps(bell_circuit, 0.5))


def test_combinatorial_state_is_refused_before_allocation(monkeypatch):
    c = layered(2, 1, [[("H", (0,)), ("T", (1,))], [("CNOT", (0, 1))],
                       [("S", (0,)), ("H", (1,))]])
    payloads = canonical_payloads(c, FaultPattern({0}, ((), (0, 1), ())))
    monkeypatch.setattr(limits, "MEMORY_BUDGET", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(limits.ResourceError, match="grid state on 14 qubits"):
            build_combinatorial_state(c, 0.5, payloads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limits.vector_bytes(14)


@pytest.mark.parametrize("name", ["bell_fault_file", "bell_layer_1", "c14", "ccz"])
def test_extraction_stays_within_its_estimate(monkeypatch, bell_circuit, name):
    # the pair-map sweep's grid vectors beside the enumerated entries: bell
    # with the benchmark's fault file, bell with its layer 1 faulted, C14
    # with a fault on every layer, and a 15-qubit circuit with a faulted
    # CCZ; one byte less of budget refuses it before the sweep allocates
    c, fault = {
        "bell_fault_file": (bell_circuit, FaultPattern({0}, ((), (0, 1)))),
        "bell_layer_1": (bell_circuit, FaultPattern((), ((0, 1), ()))),
        "c14": (
            layered(2, 1, [[("H", (0,)), ("T", (1,))], [("CNOT", (0, 1))],
                           [("S", (0,)), ("H", (1,))]]),
            FaultPattern((), ((0,), (0, 1), (1,))),
        ),
        "ccz": (
            layered(3, 1, [[("H", (0,)), ("H", (1,)), ("T", (2,))],
                           [("CCZ", (0, 1, 2))]]),
            FaultPattern((), ((), (0, 1, 2))),
        ),
    }[name]
    state = build_combinatorial_state(c, 0.5, canonical_payloads(c, fault))
    extract_decomposition(state)
    estimates = []
    with monkeypatch.context() as patch:
        patch.setattr(
            soundness, "require", lambda what, n, nbytes: estimates.append(nbytes)
        )
        tracemalloc.start()
        try:
            extract_decomposition(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    (estimate,) = estimates
    assert peak <= estimate
    monkeypatch.setattr(limits, "MEMORY_BUDGET", estimate - 1)
    tracemalloc.start()
    try:
        with pytest.raises(limits.ResourceError, match="error-basis enumeration"):
            extract_decomposition(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < state.amplitudes.nbytes


def test_payload_bookkeeping_is_strict(bell_circuit):
    with pytest.raises(ValueError, match="lacks"):
        build_combinatorial_state(
            bell_circuit, 0.5, {("input", 2): np.array([0.0, 1.0])}
        )
    with pytest.raises(ValueError, match="dimension 2"):
        build_combinatorial_state(bell_circuit, 0.5, {("input", 0): np.ones(4)})
    with pytest.raises(ValueError, match="lacks"):
        build_peps(bell_circuit, 0.5, payloads={("gate", 3, (0,)): np.ones(4)})


def test_non_unit_witness_is_rejected(hcnot):
    # the witness must already be a unit vector, as for build_peps
    with pytest.raises(ValueError, match="unit norm"):
        build_combinatorial_state(hcnot, 0.5, {}, xi=2 * basis_state(0, 1))


def test_violations_sit_exactly_at_faults(bell_circuit):
    state, fault = faulted_bell(bell_circuit)
    declared = fault_locations(bell_circuit, fault)
    assert state.fault == set(declared)
    violated = violated_locations(state)
    assert violated == state.fault
    assert len(violated) == 2


def test_extraction_round_trip(bell_circuit):
    state, _ = faulted_bell(bell_circuit)
    decomp = extract_decomposition(state)
    assert abs(decomp.coefficient_norm_sq - 1.0) < 1e-10
    rebuilt = reassemble_decomposition(decomp)
    fidelity = abs(np.vdot(rebuilt, state.amplitudes)) ** 2
    assert fidelity >= 1.0 - 1e-12


def test_extraction_round_trip_with_a_witness(hcnot, rng):
    # hcnot has one ancilla and one witness wire, so the frame leaves the
    # witness qubit out and each entry's residual is a witness state
    xi = random_state(1, rng)
    payload = rng.normal(size=16) + 1j * rng.normal(size=16)
    state = build_combinatorial_state(
        hcnot, 0.5, {("gate", 2, (0, 1)): payload}, xi=xi
    )
    decomp = extract_decomposition(state)
    assert abs(decomp.coefficient_norm_sq - 1.0) < 1e-10
    rebuilt = reassemble_decomposition(decomp)
    assert abs(np.vdot(rebuilt, state.amplitudes)) ** 2 >= 1.0 - 1e-12
    assert violated_locations(state) == state.fault == {("gate", 2, (0, 1))}


def test_fault_experiment_checks_the_pattern_once(bell_circuit, monkeypatch):
    calls, locate = [], soundness.fault_locations

    def counted(c, fault):
        calls.append(fault)
        return locate(c, fault)

    monkeypatch.setattr(soundness, "fault_locations", counted)
    fault = FaultPattern(frozenset({0}), (frozenset(), frozenset({0, 1})))
    report = soundness.fault_experiment(bell_circuit, 0.5, fault)
    assert report["locations_match"] and len(calls) == 1


def test_extraction_identifies_planted_input_flip(bell_circuit):
    state = build_combinatorial_state(
        bell_circuit, 0.5, {("input", 1): np.array([0.0, 1.0])}
    )
    decomp = extract_decomposition(state)
    assert decomp.slots == (("input", 1),)
    words = {word: coeff for word, coeff, _ in decomp.entries}
    # a hard bit flip is the pure X word
    assert set(words) == {("X",)}


def test_binomial_tail_edges():
    rates = [0.3, 0.5, 0.2]
    assert np.isclose(binomial_tail(rates, 0), 1.0)
    assert binomial_tail(rates, 4) == 0.0
    # threshold 3 = all three fire
    assert np.isclose(binomial_tail(rates, 3), 0.3 * 0.5 * 0.2)
    # complement identity at threshold 1
    assert np.isclose(binomial_tail(rates, 1), 1.0 - 0.7 * 0.5 * 0.8)


def test_site_rate():
    assert np.isclose(site_rate(0.5), 3.0 / 7.0)
    assert np.isclose(site_rate(1.0), 0.75)


def test_high_weight_mass_matches_binomial(bell_circuit):
    state = build_peps(bell_circuit, 0.5)
    for threshold in (1, 2, 3):
        mass, reference = high_weight_mass(state, threshold)
        assert abs(mass - reference) < 1e-10
    # frozen two-site value: 1 - (1 - 3/7)^2 = 33/49
    two_site = layered(2, 2, [[("I", (0,)), ("I", (1,))]])
    mass, reference = high_weight_mass(build_peps(two_site, 0.5), 1)
    assert abs(mass - 33.0 / 49.0) < 1e-12
    assert abs(reference - 33.0 / 49.0) < 1e-12


def test_low_energy_probe_on_ground_state(bell_circuit):
    state = build_peps(bell_circuit, 0.4)
    report = low_energy_probe(bell_circuit, 0.4, state.amplitudes)
    # the ground state sits exactly on every pair ground state a lemma
    # reads, and every lemma holds
    assert report._lemmas
    for key in report._lemmas:
        hypothesis, lhs, rhs = report.record(*key)
        assert all(abs(v) < 1e-10 for v in hypothesis.values())
        assert lhs > 1.0 - 1e-10 and lhs - rhs >= -1e-12


def test_suite_names_complete():
    assert set(SUITE_NAMES) == {
        "detectability",
        "union_bound",
        "geometric",
        "jordan",
        "robust_last_column",
        "robust_bulk_forwarding",
        "robust_input_teleport",
    }
    with pytest.raises(ValueError):
        run_suite("unheard_of", instances=1)


@pytest.mark.parametrize("name", sorted(SUITE_NAMES))
def test_suites_hold_on_samples(name):
    result = run_suite(name, instances=12, seed=5)
    assert result.failures == ()
    assert len(result.records) == 12
    manifest = result.manifest()
    assert manifest["suite"] == name
    assert manifest["instances"] == 12
    assert manifest["failures"] == []


def test_suite_replay(rng):
    result = run_suite("detectability", instances=6, seed=21)
    pick = result.records[4]
    again = replay_instance("detectability", 21, 4)
    assert again == pick


ROBUST_SUITES = ("robust_last_column", "robust_bulk_forwarding", "robust_input_teleport")


@pytest.mark.parametrize("name", ROBUST_SUITES)
def test_row_records_match_the_full_report(monkeypatch, name):
    # each row's on-demand record equals, float for float, the matching
    # record of a fresh report on the same probe vector that builds them all
    # first
    probes, rows = [], []
    real_probe = soundness.low_energy_probe
    real_record = soundness.LowEnergyReport.record

    def probe(c, deltas, state):
        probes.append((c, deltas, state))
        return real_probe(c, deltas, state)

    def record(report, lemma, location):
        rows.append((lemma, location, real_record(report, lemma, location)))
        return rows[-1][2]

    monkeypatch.setattr(soundness, "low_energy_probe", probe)
    monkeypatch.setattr(soundness.LowEnergyReport, "record", record)
    for seed in range(3):
        run_suite(name, instances=40, seed=seed)
    monkeypatch.undo()
    assert len(probes) == len(rows) == 120
    for (c, deltas, state), (lemma, location, rec) in zip(probes, rows):
        fresh = low_energy_probe(c, deltas, state)
        full = {key: fresh.record(*key) for key in fresh._lemmas}
        assert full[lemma, location] == rec


def test_last_column_row_builds_one_term(monkeypatch):
    # a row reads one record: the energy of one propagation term, and no
    # parent spec
    calls = {"parent_spec": 0, "propagation_term": 0}

    def counted(module, fn):
        real = getattr(module, fn)

        def wrapper(*args, **kwargs):
            calls[fn] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, fn, wrapper)

    for module in (hamiltonian, soundness):
        counted(module, "parent_spec")
    counted(soundness, "propagation_term")
    for index in range(5):
        replay_instance("robust_last_column", 41, index)
        assert calls == {"parent_spec": 0, "propagation_term": index + 1}


def test_report_computes_each_value_once(monkeypatch, bell_circuit):
    # the records share their values: each term energy is taken once, and
    # the rotated state is kept
    energies = []
    real = soundness.term_energy
    monkeypatch.setattr(
        soundness, "term_energy", lambda *a: energies.append(a) or real(*a)
    )
    state = build_peps(bell_circuit, 0.4).amplitudes
    report = low_energy_probe(bell_circuit, 0.4, state)
    records = [report.record(*key) for key in report._lemmas]
    assert [report.record(*key) for key in report._lemmas] == records
    # the two input_teleport records read one input-term energy each
    assert len(energies) == bell_circuit.a == 2
    assert report.rotated is report.rotated
    with pytest.raises(ValueError, match="no bulk_forwarding record"):
        report.record("bulk_forwarding", ("gate", 2, (0, 1)))
    with pytest.raises(ValueError, match="unit-norm"):
        low_energy_probe(bell_circuit, 0.4, 2 * state)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "names",
    [SUITE_NAMES, ("robust_input_teleport", "jordan", "detectability")],
    ids=["all", "reordered"],
)
def test_run_suites_match_the_serial_path(pin_cpus, cpus, names):
    forks = pin_cpus(cpus)
    results = run_suites(names, 6, 3)
    assert results == [run_suite(name, 6, 3) for name in names]
    assert [r.suite for r in results] == list(names)
    assert len(forks) == (0 if cpus == 1 else 2)
    assert forks.reaped()


def test_one_suite_runs_in_process(pin_cpus):
    forks = pin_cpus(2)
    assert run_suites(["union_bound"], 3, 0) == [run_suite("union_bound", 3, 0)]
    assert forks == []


def test_run_suites_refuses_an_unknown_suite_before_any_worker(pin_cpus):
    forks = pin_cpus(2)
    with pytest.raises(ValueError, match="unknown suite 'nonsense'"):
        run_suites(["jordan", "nonsense"], 2, 0)
    assert forks == []


def test_run_suites_refuses_a_repeated_suite_before_any_worker(pin_cpus):
    forks = pin_cpus(2)
    with pytest.raises(ValueError, match="suite 'jordan' named more than once"):
        run_suites(["jordan", "union_bound", "jordan"], 2, 0)
    assert forks == []


def test_worker_exception_reaches_the_caller(monkeypatch, pin_cpus):
    # the forked workers inherit the patched table; the error comes back by
    # pickle with its type and message, and the pool is gone when it does
    def broken(suite, index, rng):
        raise ArithmeticError(f"{suite} instance {index} broke")

    forks = pin_cpus(2)
    monkeypatch.setitem(soundness._SUITES, "jordan", (4, broken))
    with pytest.raises(ArithmeticError, match="^jordan instance 0 broke$"):
        run_suites(["detectability", "jordan", "union_bound"], 3, 0)
    assert len(forks) == 2 and forks.reaped()
    assert len(run_suites(["detectability", "union_bound"], 3, 0)) == 2
    assert len(forks) == 4 and forks.reaped()
