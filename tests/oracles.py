"""References that only the tests read: oracles the package is checked
against, and the reader of the state files that ``build`` writes."""

import os

import numpy as np

from clockless.circuit import LayeredCircuit, apply_circuit
from clockless.io import SchemaError
from clockless.limits import dense_bytes, require
from clockless.linalg import is_hermitian
from clockless.pauli import _bell


def circuit_unitary(c: LayeredCircuit) -> np.ndarray:
    require("a dense circuit unitary", c.n, dense_bytes(c.n))
    return apply_circuit(c, np.eye(2**c.n, dtype=np.complex128))


def is_psd(m: np.ndarray, tol: float = 1e-12) -> bool:
    if not is_hermitian(m, tol):
        return False
    eigs = np.linalg.eigvalsh(m)
    return bool(eigs[0] >= -tol)


def bell_state(tag: str) -> np.ndarray:
    """Normalized Bell state (I (x) p)(|00> + |11>)/sqrt(2) for tag p."""
    return _bell(tag).copy()


def read_state_bin(path) -> np.ndarray:
    """The vector ``io.write_state_bin`` wrote: little-endian float64 pairs,
    real part first."""
    raw = np.fromfile(os.fspath(path), dtype="<f8")
    if raw.size % 2 != 0:
        raise SchemaError(
            f"binary state file holds {raw.size} floats, expected an even count"
        )
    return raw[0::2] + 1j * raw[1::2]
