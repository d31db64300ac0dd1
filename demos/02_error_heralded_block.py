"""The error-heralded block: imperfect interactions click a detector.

An L photon enters the block, takes the Hp - QD - Hp arm, and leaves
either transformed (R polarization, quantum-dot spin X-flipped) or
unchanged. The unchanged component is exactly the imperfect-interaction
amplitude (r_o + r_h)/2 and keeps its L polarization, so a detector of L
light at the exit (a circular splitter and a detector, in the lab)
catches it: instead of silently degrading the fidelity, the error
announces itself.
"""

from hyperbell import (
    BlockConfig,
    CavityParams,
    StateLayout,
    format_state,
    heralded_block,
    product_state,
    reflection_coefficients,
)

layout = StateLayout(photons=("A", "B"), paths=(("a1",), ("b1",)))
state = product_state(layout, "L", "a1", "R", "b1", "+", "+")
print("input:", format_state(state))
print()

for g, gamma in ((1.0, 0.0), (1.0, 0.1), (0.5, 0.1), (0.24, 0.3)):
    pair = reflection_coefficients(CavityParams(g=g, gamma=gamma))
    cfg = BlockConfig(qd=1, pair=pair)
    print(f"--- g = {g} kappa, gamma = {gamma} kappa ---")
    branches = heralded_block(state, "A", "a1", cfg)
    total = 0.0
    for branch in branches:
        outcome = branch.record[0][1]
        total += branch.probability
        print(f"  {outcome:9s} p = {branch.probability:.6f}  "
              f"state: {format_state(branch.residual)}")
    print(f"  absorbed  p = {1 - total:.6f}")
    print()

print("Whatever the parameters, the transmitted photon is exactly")
print("|R>|phi-> -- the success branch never needs a fidelity discount,")
print("only a retry whenever the detector fires.")
