"""The error-heralded quantum-dot block and its parity-gate variant.

Both run the elements of optics.block_ops, the same ones the circuit
language's ``block`` macro expands into, through the circuit runner: an
Hp - qdarm - Hp arm on one path, then a tail. Writing s = (r_o - r_h)/2
and h = (r_o + r_h)/2, the arm acts on (polarization, spin) at the bound
path as  h * identity + s * (pol flip (x) spin X-flip):

* heralded mode (definite L input): the s component exits R with the
  spin X-flipped, while the h component keeps its L polarization, so a
  trailing L-polarization detector on the path catches it -- imperfect
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
from .hilbert import AMP_TOL, BranchOutcome, HybridState, R, _path_slice
from .optics import Circuit, PhotonDecl, QDDecl, TrackedRun, block_ops, run_circuit_tracked

_QDS = (QDDecl("QD1", "+"), QDDecl("QD2", "+"))  # spin slots 1, 2; basis is unread
_HERALD = "D"  # label of the heralded block's detector


@dataclass(frozen=True)
class BlockConfig:
    """Binding of a block to a QD spin and a reflection pair."""

    qd: int  # spin slot, 1 or 2
    pair: ReflectionPair

    def __post_init__(self):
        if self.qd not in (1, 2):
            raise ConfigurationError("block qd must be spin 1 or 2")


def _run_block(mode: str, state: HybridState, photon: str, path: str,
               cfg: BlockConfig) -> TrackedRun:
    """Run one block of the given mode on the bound path of the state's layout."""
    layout = state.layout
    ops = block_ops(mode, photon, path, _QDS[cfg.qd - 1].name, _HERALD)
    circuit = Circuit(qds=_QDS, ops=tuple(ops), photons=tuple(
        PhotonDecl(name, paths) for name, paths in zip(layout.photons, layout.paths)))
    return run_circuit_tracked(circuit, state, cfg.pair)


def heralded_block(state: HybridState, photon: str, path: str,
                   cfg: BlockConfig) -> list[BranchOutcome]:
    """Error-heralded block on one path; input there must be purely L.

    Returns the success branch (photon exits R, spin X-flipped, amplitude
    (r_o - r_h)/2 per passage) and the herald branch (detector click,
    amplitude (r_o + r_h)/2), both renormalized with their probabilities.
    """
    r_on_path = _path_slice(state.layout.photon_slot(photon),
                            state.layout.path_index(photon, path), R)
    r_weight = float(np.sum(np.abs(state.amps[r_on_path]) ** 2))
    if r_weight > AMP_TOL:
        raise PreconditionError(
            "heralded block requires pure L polarization on the bound path "
            f"(found R weight {r_weight:.3e})")
    return [BranchOutcome(tb.record or ((_HERALD, "no_click"),),
                          tb.physical_state().normalized(), tb.probability)
            for tb in _run_block("heralded", state, photon, path, cfg).branches]


def parity_gate(state: HybridState, photon: str, path: str,
                cfg: BlockConfig) -> HybridState:
    """Arm followed by a polarization bit flip on the bound path.

    Success component: amplitude (r_o - r_h)/2, polarization restored,
    spin X-flipped. Leakage component: amplitude (r_o + r_h)/2 with the
    polarization flipped, retained in the state.
    """
    (branch,) = _run_block("parity", state, photon, path, cfg).branches
    return branch.physical_state()
