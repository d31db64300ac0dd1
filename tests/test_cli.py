import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hyperbell.cli import main
from hyperbell.errors import NumericDomainError


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(text):
    out = {}
    for line in text.splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            out[key] = value
    return out


class TestCoeffs:
    def test_example_point(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--g", "1.0", "--kappa-s", "0",
                               "--gamma", "0.1", "--detuning", "0")
        assert code == 0
        kv = parse_kv(out)
        assert abs(float(kv["r_o_re"]) + 1.0) < 1e-12
        assert abs(float(kv["r_h_re"]) - 39 / 41) < 1e-12
        assert abs(float(kv["phi_o"]) - math.pi) < 1e-12
        assert abs(float(kv["phi_h"])) < 1e-12
        assert abs(float(kv["success_prob_per_passage"]) - (40 / 41) ** 2) < 1e-12

    def test_invalid_kappa_handled(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--g", "-1")
        assert code == 2
        assert "configuration error" in err


class TestBlock:
    def test_reports_branches(self, capsys):
        code, out, _ = run_cli(capsys, "block", "--g", "1.0", "--gamma", "0.1")
        assert code == 0
        kv = parse_kv(out)
        assert abs(float(kv["no_click: probability"]) - (40 / 41) ** 2) < 1e-10
        assert abs(float(kv["click: probability"]) - (1 / 41) ** 2) < 1e-10

    GOLDEN = {
        ("--g", "1.0", "--gamma", "0.1"): """\
input: +1.000000|L a1; R b1; ++>
click: probability=0.0005948839976204652
  state: -1.000000|L a1; R b1; ++>
no_click: probability=0.9518143961927418
  state: -1.000000|R a1; R b1; -+>
absorbed=0.047590719809637805
""",
        ("--g", "0.5", "--kappa-s", "0.3", "--gamma", "0.2", "--detuning", "0.4"): """\
input: +1.000000|L a1; R b1; ++>
click: probability=0.06435698067116895
  state: +(-0.599589-0.800308i)|L a1; R b1; ++>
no_click: probability=0.23524695755109776
  state: +(0.074693-0.997207i)|R a1; R b1; -+>
absorbed=0.7003960617777333
""",
    }
    NUMBER = re.compile(r"[-+]?\d+\.\d+(?:e[-+]?\d+)?")

    @pytest.mark.parametrize("args", list(GOLDEN), ids=["paper-point", "detuned"])
    def test_golden_stdout(self, capsys, args):
        # exact text and line structure; numbers may move in the last digits
        code, out, _ = run_cli(capsys, "block", *args)
        assert code == 0
        golden = self.GOLDEN[args]
        assert self.NUMBER.sub("#", out) == self.NUMBER.sub("#", golden)
        for got, want in zip(self.NUMBER.findall(out), self.NUMBER.findall(golden)):
            assert abs(float(got) - float(want)) < 1e-12


    def test_fully_absorbed_arm(self, capsys):
        # g = 0 and kappa_s = kappa give r_o = r_h = 0: the arm absorbs all of photon A
        code, out, _ = run_cli(capsys, "block", "--g", "0", "--kappa-s", "1")
        assert code == 0
        assert out.splitlines()[1:] == ["absorbed=1.0"]


class TestHbsg:
    def test_ideal_run_lists_four_branches(self, capsys):
        code, out, _ = run_cli(capsys, "hbsg", "--g", "1.0", "--gamma", "0")
        assert code == 0
        assert out.count("spins=") == 4
        assert "phi+,phi+" in out
        kv = parse_kv(out)
        assert float(kv["herald_rate"]) < 1e-15

    def test_herald_rate_is_exactly_zero_without_leak(self, capsys):
        # gamma = 0 gives h = 0: a herald needs a leak, so none can fire
        code, out, _ = run_cli(capsys, "hbsg", "--g", "1", "--gamma", "0")
        assert code == 0
        assert out.splitlines()[0] == "herald_rate=0.0"

    def test_herald_rate_is_the_sweep_statistic(self, capsys):
        # the same probability that a herald fires as the sweep's herald_rate column
        from hyperbell.analysis import hbsg_statistics
        from hyperbell.cavity import CavityParams, reflection_coefficients

        code, out, _ = run_cli(capsys, "hbsg", "--g", "1", "--gamma", "0.1")
        assert code == 0
        pair = reflection_coefficients(CavityParams(g=1.0, gamma=0.1))
        assert float(parse_kv(out)["herald_rate"]) == hbsg_statistics(pair).herald_rate


def hbsa_table(text):
    """(header lines, {(e1, e2, pattern): (probability, classified)}, closing
    key=values) of one ``hbsa`` printout."""
    lines = text.splitlines()
    rows = {}
    for line in lines[2:-2]:
        e1, e2, pattern, probability, *classified = line.split()
        rows[e1, e2, pattern] = (float(probability), " ".join(classified))
    return lines[:2], rows, parse_kv("\n".join(lines[-2:]))


class TestHbsa:
    def test_classifies_input(self, capsys):
        code, out, _ = run_cli(capsys, "hbsa", "--input", "psi-,phi+",
                               "--g", "1", "--gamma", "0")
        assert code == 0
        assert "classification_accuracy=1.0" in out

    def test_absorbing_dots_print_float_sums(self, capsys):
        # g = 0 and kappa_s = kappa absorb both photons, so no branch survives
        code, out, _ = run_cli(capsys, "hbsa", "--input", "phi+,psi-",
                               "--g", "0", "--kappa-s", "1")
        assert code == 0
        kv = parse_kv(out)
        assert kv["survival_probability"] == "0.0"
        assert kv["classification_accuracy"] == "0.0"

    def test_bad_label_is_configuration_error(self, capsys):
        code, _, err = run_cli(capsys, "hbsa", "--input", "nope")
        assert code == 2
        assert "configuration error" in err

    @pytest.mark.parametrize("cavity", [
        ("--g", "1", "--gamma", "0.1"),
        ("--g", "0.5", "--kappa-s", "0.3", "--gamma", "0.2", "--detuning", "0.4")])
    def test_row_order_ignores_last_bits(self, capsys, monkeypatch, cavity):
        # rows whose printed probabilities tie must not follow the bits below;
        # a relative move of 1e-15 leaves every printed digit in place (an
        # absolute 1e-18 would move the 12th digit of the 8e-8 rows)
        from hyperbell import protocols

        args = ("hbsa", "--input", "phi+,psi-", *cavity)
        _, want, _ = run_cli(capsys, *args)
        run_hbsa = protocols.run_hbsa

        def perturbed(label, pair):
            return [b._replace(probability=b.probability * (1 + 1e-15 * (-1) ** i))
                    for i, b in enumerate(run_hbsa(label, pair))]

        monkeypatch.setattr(protocols, "run_hbsa", perturbed)
        _, got, _ = run_cli(capsys, *args)
        # the table is unchanged; the two closing lines are sums of the
        # perturbed probabilities and may move in their last bits
        assert got.splitlines()[:-2] == want.splitlines()[:-2]
        for g, w in zip(parse_kv(got).values(), parse_kv(want).values()):
            assert g == w or abs(float(g) - float(w)) < 1e-15

    GOLDEN = Path(__file__).parent / "data" / "hbsa_g1_gamma0.1.txt"

    def test_golden_stdout(self, capsys):
        # every label at --g 1 --gamma 0.1 against the printout of the
        # runner forking the full analysis circuit; rows are keyed by
        # (spins, pattern), as rows of about 2e-15 that tie in exact
        # arithmetic swap places on moves of 1e-24
        blocks = ["input=" + b for b in self.GOLDEN.read_text().split("input=")[1:]]
        assert len(blocks) == 16
        for want in blocks:
            label = want.splitlines()[0].split("=")[1]
            code, got, _ = run_cli(capsys, "hbsa", "--input", label,
                                   "--g", "1", "--gamma", "0.1")
            assert code == 0
            got_head, got_rows, got_kv = hbsa_table(got)
            want_head, want_rows, want_kv = hbsa_table(want)
            assert got_head == want_head
            assert got_rows.keys() == want_rows.keys()
            for key, (probability, classified) in want_rows.items():
                assert got_rows[key][1] == classified
                assert abs(got_rows[key][0] - probability) < 1e-12
            assert got_kv.keys() == want_kv.keys()
            for key, value in want_kv.items():
                assert abs(float(got_kv[key]) - float(value)) < 1e-12


class TestClassifyTable:
    # the header and 64 rows, as printed by the hand-written single-photon
    # Bell expansion that the table was derived from before it was read off
    # the SPBSM circuit
    GOLDEN = Path(__file__).parent / "data" / "classify_table.txt"

    def test_emits_64_rows(self, capsys):
        code, out, _ = run_cli(capsys, "classify-table")
        assert code == 0
        assert len(out.splitlines()) == 65
        assert out == self.GOLDEN.read_text()


class TestSweep:
    def test_writes_csv_and_svg(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        svg_path = tmp_path / "sweep.svg"
        code, _, _ = run_cli(capsys, "sweep", "--ks-steps", "2", "--g-steps", "3",
                             "--out", str(csv_path), "--svg", str(svg_path))
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 1 + 2 * 3
        assert svg_path.read_text().startswith("<svg")

    def test_stdout_csv(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--ks-steps", "1", "--g-steps", "2")
        assert code == 0
        assert out.splitlines()[0].startswith("kappa_s_over_kappa,")

    def test_dephasing_flags_must_be_paired(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--ks-steps", "1", "--g-steps", "1",
                               "--tau", "20")
        assert code == 2
        assert "configuration error" in err

    def test_dephasing_flags_checked_before_sweep(self, capsys, monkeypatch):
        from hyperbell import analysis

        def no_sweep(grid):
            raise AssertionError("the sweep ran before its flags were checked")

        monkeypatch.setattr(analysis, "run_sweep", no_sweep)
        for flags in (("--tau", "20"), ("--tau", "inf", "--big-gamma", "300")):
            code, _, err = run_cli(capsys, "sweep", *flags)
            assert code == 2
            assert "configuration error" in err

    def test_dephasing_columns_present(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--ks-steps", "1", "--g-steps", "1",
                               "--tau", "20", "--big-gamma", "300")
        assert code == 0
        assert out.splitlines()[0].endswith("cond_fidelity_exp_scaled")


class TestExitCodes:
    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("command", ["hbsg", "classify-table", "coeffs"])
    def test_closed_output_pipe_exits_1_without_traceback(self, command, buffered):
        # the pipe's reader is gone before the command writes, as after `| head -1`;
        # a buffered stdout fails at its flush, an unbuffered one at the first print
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env.update(PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
                   **({} if buffered else {"PYTHONUNBUFFERED": "1"}))
        try:
            done = subprocess.run([sys.executable, "-m", "hyperbell.cli", command],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env,
                                  text=True, timeout=60)
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr and "Exception" not in done.stderr

    @pytest.mark.parametrize("args", [
        ("coeffs", "--g", "nan"),
        ("coeffs", "--kappa-s", "inf"),
        ("block", "--gamma", "nan"),
        ("hbsg", "--g", "nan"),
        ("hbsa", "--input", "phi+,phi+", "--detuning=-inf"),
        ("sweep", "--gamma", "nan", "--ks-steps", "2", "--g-steps", "2"),
        ("sweep", "--detuning", "inf", "--ks-steps", "2", "--g-steps", "2"),
        ("sweep", "--ks-steps", "0"),
        ("sweep", "--ks-steps", "-1"),
        ("sweep", "--g-steps", "0"),
        ("sweep", "--ks-steps", "1", "--g-steps", "1", "--tau", "inf", "--big-gamma", "300"),
        ("sweep", "--ks-steps", "1", "--g-steps", "1", "--tau", "20", "--big-gamma", "inf"),
        ("sweep", "--g-max", "inf", "--ks-steps", "2", "--g-steps", "2"),
    ])
    def test_non_finite_or_empty_input_exits_2(self, capsys, args):
        code, out, err = run_cli(capsys, *args)
        assert code == 2
        assert "configuration error" in err
        assert out == ""

    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_unwritable_output_exits_2(self, capsys, tmp_path, flag):
        missing = str(tmp_path / "missing" / "x")
        args = ["sweep", "--ks-steps", "2", "--g-steps", "2", flag, missing]
        if flag == "--svg":  # the CSV goes to a file, so stdout stays empty
            args += ["--out", str(tmp_path / "x.csv")]
        code, out, err = run_cli(capsys, *args)
        assert code == 2
        assert "configuration error" in err
        assert out == ""
        assert not (tmp_path / "x.csv").exists()

    def test_output_paths_checked_before_sweep(self, capsys, monkeypatch, tmp_path):
        from hyperbell import analysis

        def no_sweep(grid):
            raise AssertionError("the sweep ran before its output paths were checked")

        monkeypatch.setattr(analysis, "run_sweep", no_sweep)
        missing = str(tmp_path / "missing" / "x")
        for flags in (("--out", missing), ("--svg", missing),
                      ("--out", str(tmp_path / "x.csv"), "--svg", missing),
                      ("--out", str(tmp_path))):
            code, out, err = run_cli(capsys, "sweep", *flags)
            assert code == 2
            assert "configuration error" in err
            assert out == ""
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("args", [
        ("coeffs", "--g", "1e200", "--gamma", "1e200"),
        ("hbsa", "--input", "phi+,psi-", "--g", "1e308", "--kappa-s", "1e308"),
        ("coeffs", "--g", "1e150", "--kappa-s", "1e308", "--detuning", "1e308"),
        ("sweep", "--ks-steps", "1", "--g-steps", "2", "--g-max", "1e200"),
    ])
    def test_overflow_exits_3(self, capsys, args):
        code, out, err = run_cli(capsys, *args)
        assert code == 3
        assert "numeric-domain error" in err
        assert out == ""

    def test_numeric_domain_error_maps_to_3(self, capsys, monkeypatch):
        import hyperbell.cli as cli

        def boom(args):
            raise NumericDomainError("synthetic")

        monkeypatch.setattr(cli, "_cmd_coeffs", boom)
        # main() rebuilds the parser, so dispatch picks up the patched command
        code = cli.main(["coeffs"])
        assert code == 3

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
