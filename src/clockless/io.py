"""File formats behind the command-line front end.

Everything here is deterministic and locale-free: floats go out with 17
significant digits and a '.' decimal point, JSON keys are sorted, and all
writes go through a write-temp-rename so a crashed run never leaves a
partial file behind.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import numbers
import os
import tempfile

import numpy as np

from .circuit import Gate, LayeredCircuit, NAMED_GATES
from .soundness import FaultPattern, SuiteResult

CIRCUIT_SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """A structured input file breaking its schema, with a field path."""

    def __init__(self, message: str, field: str = ""):
        self.field = field
        where = f" (at {field})" if field else ""
        super().__init__(f"{message}{where}")


def fmt_float(x: float) -> str:
    """The one float rendering used in every text export."""
    return f"{float(x):.17g}"


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see halves."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".partial-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# --------------------------------------------------------------------------
# state vectors: raw little-endian f64, re/im interleaved


def write_state_bin(path, vec: np.ndarray) -> None:
    """Raw binary vector: little-endian float64 pairs, real part first."""
    vec = np.asarray(vec, dtype=np.complex128).reshape(-1)
    out = np.empty(2 * vec.size, dtype="<f8")
    out[0::2] = vec.real
    out[1::2] = vec.imag
    atomic_write_bytes(path, out.tobytes())


# --------------------------------------------------------------------------
# CSV


def _cell(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return fmt_float(value)
    if value is None:
        return ""
    return str(value)


def csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([str(h) for h in header])
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buffer.getvalue()


def write_csv(path, header, rows) -> None:
    atomic_write_text(path, csv_text(header, rows))


# --------------------------------------------------------------------------
# JSON


def jsonable(obj):
    """Recursively reduce to JSON types; non-finite floats become null."""
    if type(obj) in (str, int, bool, float):  # the common leaves, as below
        return None if type(obj) is float and not math.isfinite(obj) else obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(jsonable(v) for v in obj)
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        value = float(obj)
        return value if math.isfinite(value) else None
    if isinstance(obj, numbers.Complex):
        return [jsonable(obj.real), jsonable(obj.imag)]
    return obj


def json_text(obj) -> str:
    return json.dumps(jsonable(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    atomic_write_text(path, json_text(obj))


def read_json(path):
    with open(os.fspath(path), "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(
            f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e


# --------------------------------------------------------------------------
# circuit schema


def circuit_to_json(c: LayeredCircuit) -> dict:
    layers = []
    for layer in c.layers:
        entries = []
        for g in layer:
            if g.name is not None and g.name in NAMED_GATES:
                entries.append({"gate": g.name, "wires": list(g.wires)})
            else:
                pairs = [
                    [float(z.real), float(z.imag)] for z in g.unitary.reshape(-1)
                ]
                entries.append({"unitary": pairs, "wires": list(g.wires)})
        layers.append(entries)
    return {
        "version": CIRCUIT_SCHEMA_VERSION,
        "n": c.n,
        "a": c.a,
        "layers": layers,
    }


def _expect_int(obj, field: str, minimum: int | None = None) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise SchemaError("expected an integer", field)
    if minimum is not None and obj < minimum:
        raise SchemaError(f"expected an integer >= {minimum}, got {obj}", field)
    return obj


def _parse_wires(obj, field: str, n: int) -> tuple[int, ...]:
    if not isinstance(obj, list) or not obj:
        raise SchemaError("wires must be a nonempty list", field)
    wires = []
    for pos, w in enumerate(obj):
        w = _expect_int(w, f"{field}[{pos}]", minimum=0)
        if w >= n:
            raise SchemaError(f"wire {w} outside 0..{n - 1}", f"{field}[{pos}]")
        wires.append(w)
    if len(set(wires)) != len(wires):
        raise SchemaError(f"wires must be distinct, got {wires}", field)
    return tuple(wires)


def _parse_unitary(obj, field: str, arity: int) -> np.ndarray:
    dim = 2**arity
    if not isinstance(obj, list) or len(obj) != dim * dim:
        raise SchemaError(
            f"unitary must list {dim * dim} [re, im] pairs row-major for "
            f"{arity} wires",
            field,
        )
    flat = np.empty(dim * dim, dtype=np.complex128)
    for pos, pair in enumerate(obj):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, numbers.Real) for v in pair)
        ):
            raise SchemaError(
                "each unitary entry must be a [re, im] pair of numbers",
                f"{field}[{pos}]",
            )
        flat[pos] = complex(float(pair[0]), float(pair[1]))
    return flat.reshape(dim, dim)


def circuit_from_json(obj) -> LayeredCircuit:
    """Parse and fully check the circuit schema; errors carry field paths."""
    if not isinstance(obj, dict):
        raise SchemaError("top level must be an object")
    version = obj.get("version")
    if version is None:
        raise SchemaError("missing mandatory field", "version")
    if version != CIRCUIT_SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported version {version!r}, this reader handles "
            f"{CIRCUIT_SCHEMA_VERSION}",
            "version",
        )
    for key in obj:
        if key not in ("version", "n", "a", "layers"):
            raise SchemaError(f"unknown field {key!r}", key)
    n = _expect_int(obj.get("n"), "n", minimum=1)
    a = _expect_int(obj.get("a"), "a", minimum=0)
    if a > n:
        raise SchemaError(f"a={a} exceeds n={n}", "a")
    raw_layers = obj.get("layers")
    if not isinstance(raw_layers, list):
        raise SchemaError("layers must be a list of gate lists", "layers")
    layers = []
    for i, raw_layer in enumerate(raw_layers):
        field = f"layers[{i}]"
        if not isinstance(raw_layer, list):
            raise SchemaError("each layer must be a list of gates", field)
        gates = []
        for j, raw_gate in enumerate(raw_layer):
            field_g = f"layers[{i}][{j}]"
            if not isinstance(raw_gate, dict):
                raise SchemaError("each gate must be an object", field_g)
            keys = set(raw_gate)
            if "wires" not in keys:
                raise SchemaError("missing wires", f"{field_g}.wires")
            has_name = "gate" in keys
            has_matrix = "unitary" in keys
            if has_name == has_matrix:
                raise SchemaError(
                    "exactly one of 'gate' and 'unitary' is required", field_g
                )
            extra = keys - {"wires", "gate", "unitary"}
            if extra:
                raise SchemaError(
                    f"unknown field {sorted(extra)[0]!r}", field_g
                )
            wires = _parse_wires(raw_gate["wires"], f"{field_g}.wires", n)
            if has_name:
                name = raw_gate["gate"]
                if not isinstance(name, str) or name not in NAMED_GATES:
                    raise SchemaError(
                        f"unknown gate name {name!r}; known: "
                        f"{sorted(NAMED_GATES)}",
                        f"{field_g}.gate",
                    )
                matrix = NAMED_GATES[name]
                if matrix.shape != (2 ** len(wires),) * 2:
                    raise SchemaError(
                        f"gate {name} acts on "
                        f"{matrix.shape[0].bit_length() - 1} wires, got "
                        f"{len(wires)}",
                        f"{field_g}.wires",
                    )
            else:
                name = None
                matrix = _parse_unitary(
                    raw_gate["unitary"], f"{field_g}.unitary", len(wires)
                )
            try:
                gates.append(Gate(wires=wires, unitary=matrix, name=name))
            except ValueError as e:
                raise SchemaError(str(e), field_g) from e
        layers.append(tuple(gates))
    try:
        return LayeredCircuit(n=n, a=a, layers=tuple(layers))
    except ValueError as e:
        raise SchemaError(str(e), "layers") from e


def read_circuit_json(path) -> LayeredCircuit:
    return circuit_from_json(read_json(path))


def write_circuit_json(path, c: LayeredCircuit) -> None:
    write_json(path, circuit_to_json(c))


# --------------------------------------------------------------------------
# fault pattern files


def fault_from_json(obj) -> FaultPattern:
    if not isinstance(obj, dict):
        raise SchemaError("top level must be an object")
    for key in obj:
        if key not in ("inputs", "layers"):
            raise SchemaError(f"unknown field {key!r}", key)
    raw_inputs = obj.get("inputs", [])
    if not isinstance(raw_inputs, list):
        raise SchemaError("inputs must be a list of wires", "inputs")
    inputs = [
        _expect_int(w, f"inputs[{k}]", minimum=0)
        for k, w in enumerate(raw_inputs)
    ]
    raw_layers = obj.get("layers", [])
    if not isinstance(raw_layers, list):
        raise SchemaError("layers must be a list of wire lists", "layers")
    layers = []
    for i, raw in enumerate(raw_layers):
        if not isinstance(raw, list):
            raise SchemaError("each entry must be a list of wires", f"layers[{i}]")
        layers.append(
            frozenset(
                _expect_int(w, f"layers[{i}][{k}]", minimum=0)
                for k, w in enumerate(raw)
            )
        )
    return FaultPattern(inputs=frozenset(inputs), layers=tuple(layers))


def read_fault_json(path) -> FaultPattern:
    return fault_from_json(read_json(path))


# --------------------------------------------------------------------------
# term manifests and sparse exports


def term_manifest(terms) -> list[dict]:
    """One entry per term: kind, support, grid location, spectral norm.

    A grid term names its wires; a clock term has none, and its location is
    the time step it keeps in ``layer``.
    """
    out = []
    for term in terms:
        if term.wires:
            location = {"layer": term.layer, "wires": list(term.wires)}
        else:
            location = {"step": term.layer}
        out.append(
            {
                "kind": term.kind,
                "support": list(term.support),
                "grid_location": location,
                "norm": float(np.linalg.norm(np.asarray(term.block), 2)),
            }
        )
    return out


def write_term_manifest(path, terms) -> None:
    write_json(path, term_manifest(terms))


def write_matrix_market(path, op) -> None:
    """Coordinate-format complex Hermitian export of a ``SparseOperator``,
    1-based indices."""
    # Imported here: no other writer needs it, and at module import it adds
    # about 1 MB to the peak RSS of every command.
    import scipy.io

    buffer = io.BytesIO()
    scipy.io.mmwrite(
        buffer, op.to_sparse().tocoo(), field="complex", symmetry="hermitian",
        precision=17,
    )
    atomic_write_bytes(path, buffer.getvalue())


# --------------------------------------------------------------------------
# reports


def spectral_report_dict(report) -> dict:
    """JSON form of a spectral report; the ground vector ships separately
    as ground.bin."""
    return {
        "lowest_eigenvalues": list(report.lowest_eigenvalues),
        "ground_dim": report.ground_dim,
        "ground_resolved": report.ground_resolved,
        "gap": report.gap,
        "residuals": list(report.residuals),
        "method": report.method,
    }


def write_spectral_report(path, report) -> None:
    write_json(path, spectral_report_dict(report))


SUITE_CSV_HEADER = ("suite", "index", "lhs", "rhs", "slack", "holds", "parameters")


def suite_rows(result: SuiteResult) -> list[tuple]:
    rows = []
    for r in result.records:
        params = json.dumps(
            jsonable(r.parameters), sort_keys=True, separators=(",", ":")
        )
        rows.append(
            (r.suite, r.index, r.lhs, r.rhs, r.slack, r.holds, params)
        )
    return rows


def write_suite_csv(path, result: SuiteResult) -> None:
    write_csv(path, SUITE_CSV_HEADER, suite_rows(result))


def write_suite_manifest(path, results) -> None:
    write_json(path, {"suites": [r.manifest() for r in results]})
