"""Simulator for quantum-dot-cavity generation and complete analysis of
two-photon polarization + spatial-mode hyperentangled Bell states."""

from .cavity import (
    CavityParams,
    DephasingParams,
    IDEAL_PAIR,
    ReflectionPair,
    dephasing_penalty,
    reflection_coefficients,
    reflection_operator,
)
from .errors import (
    ConfigurationError,
    InconsistentOutcomeError,
    NumericDomainError,
    PreconditionError,
)
from .hilbert import (
    BranchOutcome,
    HybridState,
    StateLayout,
    apply_single_photon_op,
    apply_spin_conditional_op,
    format_state,
    overlap,
    product_state,
    zero_state,
)
from .optics import (
    Circuit,
    Element,
    ElementKind,
    TrackedBranch,
    TrackedRun,
    parse_circuit,
    run_circuit_tracked,
    serialize_circuit,
)
from .blocks import BlockConfig, heralded_block
from .protocols import (
    Bell,
    DetectorPattern,
    HyperBellLabel,
    SpinOutcome,
    apply_local_correction,
    classify,
    classification_table,
    make_bell,
    run_hbsa,
    run_hbsa_stage1,
    run_hbsg,
)
from .analysis import (
    SweepGrid,
    SweepRecord,
    efficiency_closed_form,
    emit_csv,
    emit_svg_heatmap,
    fidelity,
    parse_csv,
    run_sweep,
)

__version__ = "0.1.0"
