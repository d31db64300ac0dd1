"""The error-heralded quantum-dot block.

It runs the elements of optics.block_ops, the same ones the circuit
language's ``block mode=heralded`` macro expands into, through the
circuit runner: an Hp - qdarm - Hp arm on one path, then an
L-polarization detector. Writing s = (r_o - r_h)/2 and h = (r_o + r_h)/2,
the arm acts on (polarization, spin) at the bound path as
h * identity + s * (pol flip (x) spin X-flip). With a definite L input the
s component exits R with the spin X-flipped, while the h component keeps
its L polarization, so the detector catches it: imperfect interaction is
heralded. The parity variant for any input (``block mode=parity``, a
trailing polarization bit flip, so h * pol-flip + s * spin-X-flip with the
h leakage kept in the state) is written in the circuit language.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cavity import ReflectionPair
from .errors import ConfigurationError, PreconditionError
from .hilbert import AMP_TOL, BranchOutcome, HybridState, R, _path_slice
from .optics import Circuit, PhotonDecl, QDDecl, block_ops, run_circuit_tracked

_QDS = (QDDecl("QD1", "+"), QDDecl("QD2", "+"))  # spin slots 1, 2; the runner reads no basis
_HERALD = "D"  # label of the heralded block's detector


@dataclass(frozen=True)
class BlockConfig:
    """Binding of a block to a QD spin and a reflection pair."""

    qd: int  # spin slot, the int 1 or 2
    pair: ReflectionPair

    def __post_init__(self):
        if not isinstance(self.qd, (int, np.integer)) or self.qd not in (1, 2):
            raise ConfigurationError("block qd must be spin 1 or 2")


def heralded_block(state: HybridState, photon: str, path: str,
                   cfg: BlockConfig) -> list[BranchOutcome]:
    """Error-heralded block on one path; input there must be purely L.

    Returns the success branch (photon exits R, spin X-flipped, amplitude
    (r_o - r_h)/2 per passage) and the herald branch (detector click,
    amplitude (r_o + r_h)/2), both renormalized with their probabilities.
    """
    layout = state.layout
    r_on_path = _path_slice(layout.photon_slot(photon), layout.path_index(photon, path), R)
    r_weight = float(np.sum(np.abs(state.amps[r_on_path]) ** 2))
    if r_weight > AMP_TOL:
        raise PreconditionError(
            "heralded block requires pure L polarization on the bound path "
            f"(found R weight {r_weight:.3e})")
    ops = block_ops("heralded", photon, path, _QDS[cfg.qd - 1].name, _HERALD)
    circuit = Circuit(qds=_QDS, ops=tuple(ops), photons=tuple(
        PhotonDecl(name, paths) for name, paths in zip(layout.photons, layout.paths)))
    return [BranchOutcome(tb.record or ((_HERALD, "no_click"),),
                          tb.physical_state().normalized(), tb.probability)
            for tb in run_circuit_tracked(circuit, state, cfg.pair).branches]
