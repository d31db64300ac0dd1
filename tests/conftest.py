import numpy as np
import pytest

from hyperbell import optics
from hyperbell.hilbert import HybridState, StateLayout
from hyperbell.cavity import IDEAL_PAIR
from hyperbell.optics import parse_circuit, run_circuit_tracked


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


def one_op_circuit(layout: StateLayout, op: str):
    """A circuit of the one op (e.g. "measure_spin qd=QD1") on a two-photon
    layout, with spins QD1 and QD2."""
    return parse_circuit(
        "qd QD1 basis=+\nqd QD2 basis=+\n"
        f"photon {layout.photons[0]} paths={','.join(layout.paths[0])}\n"
        f"photon {layout.photons[1]} paths={','.join(layout.paths[1])}\n"
        f"op {op}\n")


def measure_op(state: HybridState, op: str):
    """The branches of one measurement op on a state, run as a one-op
    circuit on the state's own layout."""
    return run_circuit_tracked(one_op_circuit(state.layout, op), state).branches


def apply_op(state: HybridState, op: str, pair=IDEAL_PAIR) -> HybridState:
    """Run one op that does not measure (e.g. "wfc photon=A path=a1") on a
    state, unnormalized, as a one-op circuit on the state's own layout."""
    (branch,) = run_circuit_tracked(one_op_circuit(state.layout, op), state, pair).branches
    return branch.physical_state()


def evaluate(c: np.ndarray, s: complex, h: complex) -> np.ndarray:
    """The layers of polynomial-mode coefficients c at (s, h): a new
    (1, h-degrees, *state) array."""
    s_len, h_len = c.shape[:2]
    out = (s ** np.arange(s_len) @ c.reshape(s_len, -1)).reshape((1,) + c.shape[1:])
    out *= (h ** np.arange(h_len)).reshape((1, h_len) + (1,) * (c.ndim - 2))
    return out


def polynomial_run_at(circuit, state: HybridState, pair) -> optics.TrackedRun:
    """The runner's polynomial mode, optics._run with pair=None, its ring coefficients
    made complex (optics._ring_value) and evaluated at one pair by evaluate: the
    click-free branches and every click probability of the run_circuit_tracked run
    there, up to rounding and branches of weight at most the drop threshold. The
    mode stops each branch at its first click."""
    s, h = pair.success_amplitude, pair.herald_amplitude
    branches, clicks = optics._run(circuit, state, None)

    def at(c):
        return evaluate(optics._ring_value(c), s, h)

    run = optics._tracked_run(
        state.layout, [(rec, at(c)) for rec, c in branches],
        {label: [at(c) for c in cs] for label, cs in clicks.items()})
    run.branches = [tb for tb in run.branches
                    if sum(map(optics._weight, tb.layers)) > optics._BRANCH_DROP]
    return run
