"""Ancilla-mediated quantum gate simulation.

Register qubits interact with a single mediating ancilla only through
controlled displacement operators.  Three interchangeable ancilla backends
are provided:

* :mod:`amqc.qudit` / :mod:`amqc.qudit_model` -- a d-level ancilla whose
  phase space is the discrete torus Z(d) x Z(d); geometric phases from closed
  displacement loops implement controlled phase gates, counting into
  orthogonal levels implements generalized Toffoli gates.
* :mod:`amqc.spin` -- an ensemble of N spins tracked through spin-coherent
  labels on a sphere; exact two-qubit gates via curvature-corrected loops,
  closed-form intrinsic errors for the flat-space gate decompositions.
* :mod:`amqc.qubus` -- the exact symbolic field-mode bus, the flat reference
  the other two are compared against.

:mod:`amqc.verify` bundles the identity suites and :mod:`amqc.cli` exposes
them along with error-surface sweeps as a command line tool.
"""

from .linalg import (
    HADAMARD,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    controlled,
    identity,
    is_unitary,
    kron,
    phase_distance,
    phase_gate,
    state_fidelity,
)
from .qudit import (
    HALF_ROOT,
    MOD_INVERSE,
    LatticeLabel,
    OpenLoopError,
    compose_labels,
    displacement,
    fourier,
    generalized_pauli,
    loop_phase,
    rotation,
)
from .qudit_model import (
    APPLY_ON_ONE,
    SYMMETRIC,
    AncillaProjectedGate,
    ControlledAncillaRotation,
    HybridState,
    Interaction,
    InteractionSequence,
    LocalAncillaRotation,
    extract_register_gate,
    extract_register_gates,
    fan_bipartite,
    fan_one_target,
    generalized_toffoli,
    hamiltonian_generator_check,
    mod_d_phase_gate,
    run_sequence,
    single_pair_arbitrary_rotation,
    two_qubit_sequence,
)
from .report import GateReport
from .spin import (
    ETA_MAX,
    ErrorPoint,
    LoopSolution,
    LoopUnclosableError,
    SingularCompositionError,
    SpinBranchState,
    apply_controlled_spin,
    coherent_overlap,
    compose_on_origin,
    contraction_probe,
    eta_for_phase,
    fan_error,
    fan_sequence_simulate,
    fitted_loglog_slope,
    loop_close,
    phi_series_defect,
    spin_generator_check,
    spin_two_qubit_gate,
    su2_displacement,
)
from .qubus import (
    FieldBranchState,
    FieldLabel,
    apply_controlled_field,
    field_fan,
    field_two_qubit,
)

__version__ = "0.1.0"
