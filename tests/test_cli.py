import math
import re

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


class TestHbsg:
    def test_ideal_run_lists_four_branches(self, capsys):
        code, out, _ = run_cli(capsys, "hbsg", "--g", "1.0", "--gamma", "0")
        assert code == 0
        assert out.count("spins=") == 4
        assert "phi+,phi+" in out
        kv = parse_kv(out)
        assert float(kv["herald_rate"]) < 1e-15


class TestHbsa:
    def test_classifies_input(self, capsys):
        code, out, _ = run_cli(capsys, "hbsa", "--input", "psi-,phi+",
                               "--g", "1", "--gamma", "0")
        assert code == 0
        assert "classification_accuracy=1.0" in out

    def test_bad_label_is_configuration_error(self, capsys):
        code, _, err = run_cli(capsys, "hbsa", "--input", "nope")
        assert code == 2
        assert "configuration error" in err


class TestClassifyTable:
    def test_emits_64_rows(self, capsys):
        code, out, _ = run_cli(capsys, "classify-table")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "e1,e2,detector_a,detector_b,pol,spatial"
        assert len(lines) == 65


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

    def test_dephasing_columns_present(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--ks-steps", "1", "--g-steps", "1",
                               "--tau", "20", "--big-gamma", "300")
        assert code == 0
        assert out.splitlines()[0].endswith("cond_fidelity_exp_scaled")


class TestExitCodes:
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
