"""The error-heralded quantum-dot block and its parity-gate variant.

Both run the same Hp - qdarm - Hp arm on one path through the circuit
runner. Writing s = (r_o - r_h)/2 and h = (r_o + r_h)/2, the arm acts on
(polarization, spin) at the bound path as  h * identity + s * (pol flip
(x) spin X-flip), and the runner keeps the two components apart as the
leak layers of its branch:

* heralded mode (definite L input): the s component exits R with the
  spin X-flipped, while the h component (still L) is what the macro's
  trailing circular splitter sends to a detector -- imperfect
  interaction is heralded.
* parity-gate mode (any input): a trailing polarization bit flip folds
  the arm into  h * pol-flip + s * spin-X-flip; the h leakage stays in
  the state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cavity import ReflectionPair
from .errors import ConfigurationError, PreconditionError
from .hilbert import AMP_TOL, BranchOutcome, HybridState, R
from .optics import (
    Circuit,
    Element,
    ElementKind,
    PhotonDecl,
    QDDecl,
    TrackedBranch,
    _BRANCH_DROP,
    block_arm,
    run_circuit_tracked,
)

_QDS = (QDDecl("QD1", "+"), QDDecl("QD2", "+"))  # spin slots 1, 2; basis is unread


@dataclass(frozen=True)
class BlockConfig:
    """Binding of a block to a QD spin and a reflection pair."""

    qd: int  # spin slot, 1 or 2
    pair: ReflectionPair
    herald_label: str = "D"

    def __post_init__(self):
        if self.qd not in (1, 2):
            raise ConfigurationError("block qd must be spin 1 or 2")


def _run_arm(state: HybridState, photon: str, path: str, cfg: BlockConfig,
             *tail: ElementKind) -> TrackedBranch:
    """Run Hp - qdarm - Hp (then any tail elements) on the bound path."""
    layout = state.layout
    ops = block_arm(photon, path, _QDS[cfg.qd - 1].name)
    ops += [Element(kind, photon=photon, path=path) for kind in tail]
    circuit = Circuit(qds=_QDS, ops=tuple(ops), photons=tuple(
        PhotonDecl(name, paths) for name, paths in zip(layout.photons, layout.paths)))
    (branch,) = run_circuit_tracked(circuit, state, cfg.pair).branches
    return branch


def heralded_block(state: HybridState, photon: str, path: str,
                   cfg: BlockConfig) -> list[BranchOutcome]:
    """Error-heralded block on one path; input there must be purely L.

    Returns the success branch (photon exits R, spin X-flipped, amplitude
    (r_o - r_h)/2 per passage) and the herald branch (detector click,
    amplitude (r_o + r_h)/2), both renormalized with their probabilities.
    """
    slot = state.layout.photon_slot(photon)
    sel = [slice(None)] * 6
    sel[2 * slot], sel[2 * slot + 1] = R, state.layout.path_index(photon, path)
    r_weight = float(np.sum(np.abs(state.amps[tuple(sel)]) ** 2))
    if r_weight > AMP_TOL:
        raise PreconditionError(
            "heralded block requires pure L polarization on the bound path "
            f"(found R weight {r_weight:.3e})")
    # the leak layer is what the macro's trailing splitter sends to the detector
    no_click, *leaked = _run_arm(state, photon, path, cfg).layers
    branches = []
    for outcome, arr in (("click", sum(leaked)), ("no_click", no_click)):
        prob = float(np.sum(np.abs(arr) ** 2))
        if prob <= _BRANCH_DROP:
            continue
        branches.append(BranchOutcome(
            ((cfg.herald_label, outcome),),
            HybridState(state.layout, arr / np.sqrt(prob)),
            prob,
        ))
    return branches


def parity_gate(state: HybridState, photon: str, path: str,
                cfg: BlockConfig) -> HybridState:
    """Arm followed by a polarization bit flip on the bound path.

    Success component: amplitude (r_o - r_h)/2, polarization restored,
    spin X-flipped. Leakage component: amplitude (r_o + r_h)/2 with the
    polarization flipped, retained in the state.
    """
    return _run_arm(state, photon, path, cfg, ElementKind.Z).physical_state()
