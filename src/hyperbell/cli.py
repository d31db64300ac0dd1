"""Command-line interface.

Exit codes: 0 success, 1 output pipe closed early, 2 configuration error,
3 numeric-domain error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import analysis, protocols
from .cavity import (
    CavityParams,
    DephasingParams,
    dephasing_penalty,
    reflection_coefficients,
)
from .errors import ConfigurationError, NumericDomainError
from .hilbert import format_state


def _add_cavity_args(parser: argparse.ArgumentParser):
    parser.add_argument("--g", type=float, default=1.0,
                        help="coupling strength in units of kappa (default 1)")
    parser.add_argument("--kappa-s", type=float, default=0.0,
                        help="side-leakage rate in units of kappa (default 0)")
    parser.add_argument("--gamma", type=float, default=0.1,
                        help="exciton decay rate in units of kappa (default 0.1)")
    parser.add_argument("--detuning", type=float, default=0.0,
                        help="photon detuning from the resonant cavity/trion (default 0)")


def _pair_from_args(args) -> "analysis.ReflectionPair":
    params = CavityParams(g=args.g, kappa_s=args.kappa_s, gamma=args.gamma,
                          omega=args.detuning)
    return reflection_coefficients(params)


def _cmd_coeffs(args) -> int:
    pair = _pair_from_args(args)
    values = {"r_o_re": pair.r_o.real, "r_o_im": pair.r_o.imag, "r_h_re": pair.r_h.real,
              "r_h_im": pair.r_h.imag, "phi_o": pair.phi_o, "phi_h": pair.phi_h,
              "success_prob_per_passage": abs(pair.success_amplitude) ** 2}
    print("\n".join(f"{name}={value!r}" for name, value in values.items()))
    return 0


def _cmd_block(args) -> int:
    from .blocks import BlockConfig, heralded_block
    from .hilbert import StateLayout, product_state

    pair = _pair_from_args(args)
    layout = StateLayout(photons=("A", "B"), paths=(("a1",), ("b1",)))
    state = product_state(layout, "L", "a1", "R", "b1", "+", "+")
    cfg = BlockConfig(qd=1, pair=pair)
    print(f"input: {format_state(state)}")
    branches = heralded_block(state, "A", "a1", cfg)
    for branch in branches:
        name = dict(branch.record)["D"]
        print(f"{name}: probability={branch.probability!r}")
        print(f"  state: {format_state(branch.residual)}")
    absorbed = 1.0 - sum(b.probability for b in branches)
    print(f"absorbed={absorbed!r}")
    return 0


def _cmd_hbsg(args) -> int:
    pair = _pair_from_args(args)
    print(f"herald_rate={analysis.hbsg_statistics(pair).herald_rate!r}")
    for b in protocols.run_hbsg(pair):
        if b.heralds:
            continue
        print(f"spins=({b.spins.e1},{b.spins.e2}) -> {b.label} "
              f"probability={b.probability!r}")
        print(f"  state: {format_state(b.state)}")
    return 0


def _cmd_hbsa(args) -> int:
    label = protocols.parse_label(args.input)
    pair = _pair_from_args(args)
    branches = protocols.run_hbsa(label, pair)
    total = sum((b.probability for b in branches), 0.0)
    correct = sum(b.probability for b in branches if b.classified == label)
    print(f"input={label}")
    print("e1 e2 pattern      probability           classified")
    # ties of the printed probability fall back to the row's own text, so the
    # order does not follow the last bits of the probabilities
    rows = sorted(branches, key=lambda b: (-float(f"{b.probability:.12g}"), b.spins.e1,
                                           b.spins.e2, b.pattern.a, b.pattern.b))
    for b in rows:
        mark = "" if b.classified == label else "  (misclassified)"
        print(f"{b.spins.e1:2s} {b.spins.e2:2s} {b.pattern.a},{b.pattern.b}  "
              f"{b.probability:<20.12g}  {b.classified}{mark}")
    print(f"survival_probability={total!r}")
    print(f"classification_accuracy={correct / total if total > 0 else 0.0!r}")
    return 0


def _cmd_classify_table(args) -> int:
    print("e1,e2,detector_a,detector_b,pol,spatial")
    for spins, pattern, label in protocols.classification_table():
        print(f"{spins.e1},{spins.e2},{pattern.a},{pattern.b},"
              f"{label.pol.value},{label.spatial.value}")
    return 0


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_writable(path: str):
    """Fail before any work when path cannot be opened for writing."""
    parent = os.path.dirname(path) or "."
    target = path if os.path.exists(path) else parent
    if os.path.isdir(path) or not os.path.isdir(parent) or not os.access(target, os.W_OK):
        raise ConfigurationError(f"cannot write {path}")


def _cmd_sweep(args) -> int:
    grid = analysis.SweepGrid.regular(
        ks_min=args.ks_min, ks_max=args.ks_max, ks_steps=args.ks_steps,
        g_min=args.g_min, g_max=args.g_max, g_steps=args.g_steps,
        gamma_over_kappa=args.gamma, detuning=args.detuning)
    dephasing = None
    if (args.tau is None) != (args.big_gamma is None):
        raise ConfigurationError("--tau and --big-gamma must be given together")
    if args.tau is not None:
        dephasing = DephasingParams(tau=args.tau, big_gamma=args.big_gamma)
        print(f"# dephasing_penalty={dephasing_penalty(dephasing)!r}", file=sys.stderr)
    for path in filter(None, (args.out, args.svg)):
        _check_writable(path)
    records = analysis.run_sweep(grid)
    csv_text = analysis.emit_csv(records, dephasing)
    if args.out:
        _write(args.out, csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.svg:
        _write(args.svg, analysis.emit_svg_heatmap(records, args.svg_column))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperbell",
        description=("Simulate quantum-dot-cavity generation and complete "
                     "analysis of two-photon hyperentangled Bell states."))
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (("coeffs", _cmd_coeffs, "cold/hot cavity reflection coefficients"),
                             ("block", _cmd_block, "error-heralded block on one L photon"),
                             ("hbsg", _cmd_hbsg, "hyperentangled Bell-state generation run")):
        p = sub.add_parser(name, help=text)
        _add_cavity_args(p)
        p.set_defaults(func=func)

    p = sub.add_parser("hbsa", help="complete hyperentangled Bell-state analysis run")
    p.add_argument("--input", required=True, metavar="POL,SPATIAL",
                   help="input state, e.g. phi+,psi-")
    _add_cavity_args(p)
    p.set_defaults(func=_cmd_hbsa)

    p = sub.add_parser("classify-table",
                       help="full (spins x detector pattern) -> label map as CSV")
    p.set_defaults(func=_cmd_classify_table)

    p = sub.add_parser("sweep", help="efficiency sweep over cavity parameters")
    p.add_argument("--ks-min", type=float, default=0.0)
    p.add_argument("--ks-max", type=float, default=1.0)
    p.add_argument("--ks-steps", type=int, default=101)
    p.add_argument("--g-min", type=float, default=0.0)
    p.add_argument("--g-max", type=float, default=2.5)
    p.add_argument("--g-steps", type=int, default=101)
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--detuning", type=float, default=0.0)
    p.add_argument("--tau", type=float, default=None,
                   help="cavity photon lifetime in ps (adds dephasing columns)")
    p.add_argument("--big-gamma", type=float, default=None,
                   help="trion coherence time in ps")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.add_argument("--svg", help="also write an SVG heatmap here")
    p.add_argument("--svg-column", default="eta_sim",
                   choices=sorted(analysis.VALUE_COLUMNS),
                   help="record column to plot (default eta_sim)")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # the reader left early, as `| head -1` does
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericDomainError as exc:
        print(f"numeric-domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
