"""Deterministic generation of hyperentangled photon pairs.

Two H-polarized photons pass, one after the other, through the same two
quantum-dot stages. Measuring both dot spins in the X basis afterwards
projects the pair onto one of four polarization (x) spatial-mode Bell
products -- each with probability 1/4, so every attempt that survives
the heralds yields a known hyperentangled state. Single-photon
corrections on photon A then reach any of the 16 basis states.
"""

from pathlib import Path

from hyperbell import (
    CavityParams,
    format_state,
    make_bell,
    overlap,
    parse_circuit,
    reflection_coefficients,
    run_hbsg,
)
from hyperbell.analysis import hbsg_statistics
from hyperbell.protocols import (
    HBSG_CIRCUIT_TEXT,
    HBSG_OUTPUT_RAILS,
    all_labels,
    apply_local_correction,
)

print("=== ideal quantum dots ===")
for b in run_hbsg():
    print(f"spins ({b.spins.e1},{b.spins.e2})  p = {b.probability:.4f}  "
          f"-> {b.label}")
    print("   ", format_state(b.state))
print()

print("=== realistic dots: g = kappa, gamma = 0.1 kappa ===")
pair = reflection_coefficients(CavityParams(g=1.0, gamma=0.1))
branches = run_hbsg(pair)
survived = sum(b.probability for b in branches if not b.heralds)
heralded = hbsg_statistics(pair).herald_rate
print(f"unheralded probability {survived:.6f}, heralded (retry) {heralded:.6f}")
for b in branches:
    if b.heralds:
        continue
    target = make_bell(b.label.pol, b.label.spatial, b.state.layout,
                       rails=HBSG_OUTPUT_RAILS, spins=(b.spins.e1, b.spins.e2))
    print(f"spins ({b.spins.e1},{b.spins.e2})  p = {b.probability:.6f}  "
          f"fidelity = {abs(overlap(target, b.state)) ** 2:.9f}  "
          f"silent-leak share = {b.leaked_weight / b.probability:.2e}")
print()

print("=== reaching the other twelve states ===")
b = next(b for b in run_hbsg() if (b.spins.e1, b.spins.e2) == ("+", "+"))
for target_label in all_labels():
    out = apply_local_correction(b.state, b.label, target_label,
                                 rails=HBSG_OUTPUT_RAILS)
    target = make_bell(target_label.pol, target_label.spatial, b.state.layout,
                       rails=HBSG_OUTPUT_RAILS, spins=("+", "+"))
    print(f"  {b.label} -> {target_label}: fidelity "
          f"{abs(overlap(target, out)) ** 2:.12f}")
print()

circ_path = Path(__file__).parent / "hbsg.circ"
print(f"The same circuit, as shipped in {circ_path.name}:")
print(parse_circuit(circ_path.read_text()) == parse_circuit(HBSG_CIRCUIT_TEXT)
      and "  parses identically to the built-in definition." or "  MISMATCH!")
