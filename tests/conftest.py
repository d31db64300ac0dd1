import numpy as np
import pytest

from hyperbell.hilbert import HybridState, StateLayout
from hyperbell.optics import parse_circuit, run_circuit


@pytest.fixture
def small_layout() -> StateLayout:
    return StateLayout(photons=("A", "B"), paths=(("a1", "a2"), ("b1", "b2")))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260811)


def random_state(layout: StateLayout, rng, normalize=True) -> HybridState:
    amps = rng.normal(size=layout.shape) + 1j * rng.normal(size=layout.shape)
    if normalize:
        amps /= np.linalg.norm(amps)
    return HybridState(layout, amps)


def measure_op(state: HybridState, op: str):
    """Run one measurement op (e.g. "measure_spin qd=QD1") on a state as a
    one-op circuit on the state's own layout, with spins QD1 and QD2."""
    lo = state.layout
    circuit = parse_circuit(
        "qd QD1 basis=+\nqd QD2 basis=+\n"
        f"photon {lo.photons[0]} paths={','.join(lo.paths[0])}\n"
        f"photon {lo.photons[1]} paths={','.join(lo.paths[1])}\n"
        f"op {op}\n")
    return run_circuit(circuit, state)
