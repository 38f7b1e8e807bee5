"""Clock-free circuit-to-Hamiltonian mapping on injective tensor-network grids.

The package builds, for a layered quantum circuit, the grid state obtained by
entangling per-gate Choi states with perturbed Bell pairs, the frustration-free
local Hamiltonian whose ground space is that state, and the rotated-frame and
soundness diagnostics that make the construction checkable at desk scale by
exact dense linear algebra.

Modules:
    pauli        single-site Pauli/Bell algebra, the maps Q and Lambda
    circuit      layered circuits and degree reduction
    peps         the grid state, its Pauli-word expansion and output marginal
    hamiltonian  local terms and assembly of the full operator
    spectral     eigensolvers and the projector-geometry lemma toolkit
    rotation     the grid rotation unitary and rotated closed forms
    soundness    adversarial-fault experiments and inequality suites
    fk           unary-clock Hamiltonian and the two shallow verifiers
    verify       the closed-form identity suite and the scan rows
    cli          batch command-line front end
    linalg, io, limits  shared plumbing and the memory budget
"""

__version__ = "0.1.0"
