"""Command-line behaviour: verbs, formats, files, exit codes."""

import hashlib
import math
import os
import stat
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import lmgcycle
from lmgcycle import (
    CycleSpec, SweepRecord, SweepSpec, figure_ids, figure_sweep, run_cycle, sweep_lambda1,
)
from lmgcycle.cli import CSV_HEADER, main, records_to_csv, records_to_svg


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    def test_no_verb(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_verb(self):
        with pytest.raises(SystemExit) as info:
            main(["conjure"])
        assert info.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as info:
            main(["spectrum", "--n", "4"])
        assert info.value.code == 2

    def test_sweep_figure_conflicts_with_manual_flags(self):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--figure", "3a", "--n", "2"])
        assert info.value.code == 2

    def test_sweep_needs_figure_or_full_parameters(self):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--n", "2", "--t-hot", "0.6"])
        assert info.value.code == 2


class TestDomainErrors:
    def test_cycle_bath_order(self, capsys):
        code, _, err = run_main(
            ["cycle", "--n", "4", "--t-hot", "0.1", "--t-cold", "0.3",
             "--lambda1", "0.5", "--lambda2", "2"],
            capsys,
        )
        assert code == 1
        assert err.startswith("error:")

    def test_unknown_figure(self, capsys):
        code, _, err = run_main(["figures", "--figure", "99x"], capsys)
        assert code == 1
        assert "unknown figure id" in err

    def test_negative_field(self, capsys):
        code, _, err = run_main(["spectrum", "--n", "4", "--lambda1", "-1"], capsys)
        assert code == 1

    @pytest.mark.parametrize("lambda2", ["inf", "nan", "-1"])
    def test_sweep_bad_lambda2_without_grid(self, lambda2, capsys):
        # lambda2 sets the default grid size, so it must be rejected as a
        # field before any grid is derived from it.
        code, out, err = run_main(
            ["sweep", "--n", "3", "--t-hot", "2", "--t-cold", "1", "--lambda2", lambda2],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: lam must be finite and >= 0")

    def test_thermal_temperature_below_float_range(self, capsys):
        code, out, err = run_main(
            ["thermal", "--n", "3", "--lambda1", "0.5", "--t", "1e-310"], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: temperature too low")

    @pytest.mark.parametrize("verb", [["cycle", "--lambda1", "0.5"], ["sweep", "--grid", "5"]])
    def test_field_whose_energies_overflow(self, capsys, verb):
        # Used to end in an OverflowError traceback, then in a numpy
        # warning and an error blaming the temperature.
        args = ["--n", "3", "--t-hot", "1", "--t-cold", "0.5", "--lambda2", "1e200"]
        code, out, err = run_main(verb + args, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: lam=1e+200 makes the level energies overflow for n=3")

    def test_thermal_huge_finite_temperature(self, capsys):
        # Used to end in an OverflowError traceback.
        code, out, err = run_main(
            ["thermal", "--n", "1000", "--lambda1", "0.5", "--t", "1e306"], capsys
        )
        assert code == 0
        assert err == ""
        header, row = out.strip().split("\n")
        assert header.split(",")[-1] == "entropy"
        assert float(row.split(",")[-1]) == pytest.approx(math.log(1001), rel=1e-11)


class TestSpectrumVerb:
    def test_stdout_table(self, capsys):
        code, out, _ = run_main(["spectrum", "--n", "2", "--lambda1", "0.5"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "twice_m,m,energy"
        assert lines[1:] == ["-2,-1,0", "0,0,-2", "2,1,-2"]


class TestThermalVerb:
    def test_zero_temperature_prints_inf_log_z(self, capsys):
        code, out, _ = run_main(
            ["thermal", "--n", "4", "--lambda1", "0.25", "--t", "0"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,lambda,t,log_z,internal_energy,entropy"
        fields = lines[1].split(",")
        assert fields[3] == "inf"
        assert float(fields[5]) == pytest.approx(0.6931471805599453, rel=1e-12)

    def test_regular_temperature(self, capsys):
        code, out, _ = run_main(
            ["thermal", "--n", "2", "--lambda1", "1.0", "--t", "1"], capsys
        )
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[3] == "3.32656264127"


class TestCycleVerb:
    def test_single_row_matches_library(self, capsys):
        code, out, _ = run_main(
            ["cycle", "--n", "2", "--t-hot", "0.6", "--t-cold", "0.3",
             "--lambda1", "0.5", "--lambda2", "4"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        row = lines[1].split(",")
        result = run_cycle(CycleSpec(2, 0.6, 0.3, 0.5, 4.0))
        assert row[0] == "0.5"
        assert float(row[1]) == pytest.approx(result.efficiency, rel=1e-11)
        assert float(row[3]) == pytest.approx(result.work, rel=1e-11)

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run_main(
            ["cycle", "--n", "2", "--t-hot", "0.6", "--t-cold", "0.3",
             "--lambda1", "0.5", "--lambda2", "4"],
            capsys,
        )
        eta = out.strip().split("\n")[1].split(",")[1]
        assert eta == "0.473103330568"


class TestSweepVerb:
    def test_stdout_csv(self, capsys):
        code, out, _ = run_main(
            ["sweep", "--n", "2", "--t-hot", "0.6", "--t-cold", "0.3",
             "--lambda2", "1", "--grid", "5"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6
        assert [row.split(",")[0] for row in lines[1:]] == ["0", "0.25", "0.5", "0.75", "1"]

    def test_figure_preset_to_file(self, tmp_path, capsys):
        target = tmp_path / "fig7b.csv"
        code, out, _ = run_main(["sweep", "--figure", "7b", "--out", str(target)], capsys)
        assert code == 0
        text = target.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 42
        for row in lines[1:]:
            assert len(row.split(",")) == 13

    def test_default_grid_density(self, capsys):
        code, out, _ = run_main(
            ["sweep", "--n", "2", "--t-hot", "0.6", "--t-cold", "0.3", "--lambda2", "0.1"],
            capsys,
        )
        assert code == 0
        # 200 points per unit field plus the closing endpoint.
        assert len(out.strip().split("\n")) == 22

    def test_repeat_runs_identical_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_main(["sweep", "--figure", "7b", "--out", str(a)], capsys)
        run_main(["sweep", "--figure", "7b", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_lf_line_endings(self, tmp_path, capsys):
        target = tmp_path / "x.csv"
        run_main(["sweep", "--figure", "7b", "--out", str(target)], capsys)
        assert b"\r" not in target.read_bytes()


class TestFiguresVerb:
    def test_single_figure_both_formats(self, tmp_path, capsys):
        stem = tmp_path / "out.csv"
        code, out, _ = run_main(
            ["figures", "--figure", "7b", "--format", "both", "--out", str(stem)], capsys
        )
        assert code == 0
        csv_path = tmp_path / "out.csv"
        svg_path = tmp_path / "out.svg"
        assert csv_path.exists() and svg_path.exists()
        root = ET.fromstring(svg_path.read_text())
        assert root.tag.endswith("svg")
        body = svg_path.read_text()
        assert "polyline" in body
        assert "Carnot" in body

    def test_default_output_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_main(["figures", "--figure", "7b"], capsys)
        assert code == 0
        assert (tmp_path / "fig7b.csv").exists()

    def test_all_figures_land_in_directory(self, tmp_path, capsys, monkeypatch):
        import lmgcycle.cli as cli_module

        monkeypatch.setattr(cli_module, "figure_ids", lambda: ["7b"])
        code, _, _ = run_main(
            ["figures", "--out", str(tmp_path / "plots"), "--format", "both"], capsys
        )
        assert code == 0
        assert (tmp_path / "plots" / "fig7b.csv").exists()
        assert (tmp_path / "plots" / "fig7b.svg").exists()

    def test_single_figure_default_svg_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_main(["figures", "--figure", "7b", "--format", "svg"], capsys)
        assert code == 0
        assert (tmp_path / "fig7b.svg").exists()

    def test_sweep_svg_stdout(self, capsys):
        code, out, _ = run_main(
            ["sweep", "--n", "2", "--t-hot", "0.6", "--t-cold", "0.3",
             "--lambda2", "1", "--grid", "9", "--format", "svg"],
            capsys,
        )
        assert code == 0
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")

    def test_both_to_stdout_is_rejected(self, capsys):
        code, _, err = run_main(
            ["sweep", "--n", "2", "--t-hot", "0.6", "--t-cold", "0.3",
             "--lambda2", "1", "--grid", "5", "--format", "both"],
            capsys,
        )
        assert code == 1
        assert "requires --out" in err


def reference_csv(rows):
    """CSV text formatted field by field, independent of the CLI's formatter."""
    lines = [CSV_HEADER]
    lines.extend(",".join(format(value, ".12g") for value in row) for row in rows)
    return "\n".join(lines) + "\n"


def record_row(r):
    return (r.lambda1, r.efficiency, r.eta_carnot, r.work, r.q_h, r.q_ab, r.q_bc, r.q_cd,
            r.q_da, r.s_a, r.s_b, r.s_c, r.s_d)


def sweep_title(spec):
    return (
        f"n={spec.n} t_hot={spec.t_hot:g} t_cold={spec.t_cold:g} "
        f"lambda2={spec.lambda2:g} backend={spec.backend}"
    )


class TestOutputBytes:
    """The files and streams the verbs write, byte for byte."""

    @pytest.mark.parametrize("figure_id", figure_ids())
    def test_figures_both_match_library(self, figure_id, tmp_path, capsys):
        stem = tmp_path / f"fig{figure_id}"
        code, _, _ = run_main(
            ["figures", "--figure", figure_id, "--format", "both", "--out", str(stem)], capsys
        )
        assert code == 0
        spec = figure_sweep(figure_id)
        records = sweep_lambda1(spec)
        csv_bytes = (tmp_path / f"fig{figure_id}.csv").read_bytes()
        assert csv_bytes == records_to_csv(records).encode()
        assert csv_bytes == reference_csv(map(record_row, records)).encode()
        title = f"figure {figure_id}: " + sweep_title(spec)
        svg_bytes = (tmp_path / f"fig{figure_id}.svg").read_bytes()
        assert svg_bytes == records_to_svg(records, title).encode()

    @pytest.mark.parametrize("backend", ["exact", "asymptotic"])
    def test_cycle_verb_row_formats_run_cycle(self, backend, capsys):
        code, out, _ = run_main(
            ["cycle", "--n", "30", "--t-hot", "0.5", "--t-cold", "0.3", "--lambda1", "0.4",
             "--lambda2", "0.8", "--backend", backend],
            capsys,
        )
        assert code == 0
        r = run_cycle(CycleSpec(30, 0.5, 0.3, 0.4, 0.8, backend))
        a, b, c, d = (corner.entropy for corner in r.corners)
        row = (0.4, r.efficiency, r.eta_carnot, r.work, r.q_h, r.q_ab, r.q_bc, r.q_cd, r.q_da,
               a, b, c, d)
        assert out == reference_csv([row])
        spec = SweepSpec(30, 0.5, 0.3, 0.8, (0.4,), backend)
        assert out == records_to_csv(sweep_lambda1(spec))

    def test_one_point_sweep_svg(self, capsys):
        # A one-point grid takes the widened x range (x_hi == x_lo).
        code, out, _ = run_main(
            ["sweep", "--n", "2", "--t-hot", "0.6", "--t-cold", "0.3",
             "--lambda2", "1", "--grid", "1", "--format", "svg"],
            capsys,
        )
        assert code == 0
        spec = SweepSpec(2, 0.6, 0.3, 1.0, (0.0,))
        assert out == records_to_svg(sweep_lambda1(spec), sweep_title(spec))
        digest = "a45a660b4200a4e07311a72abdbcfad312cdf5dae29997b4a29fe552c5d745c9"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_small_sweep_svg_bytes(self, capsys):
        _, out, _ = run_main(
            ["sweep", "--n", "2", "--t-hot", "0.6", "--t-cold", "0.3",
             "--lambda2", "1", "--grid", "9", "--format", "svg"],
            capsys,
        )
        digest = "2416cc41f5f83963693212a0a03c582aae5aa7d20a68b9e25408d192b3f00fa1"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_no_records_gives_header_only(self):
        assert records_to_csv([]) == CSV_HEADER + "\n"

    def test_cli_builds_no_records(self, tmp_path, capsys, monkeypatch):
        built = []
        init = SweepRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SweepRecord, "__init__", counting_init)
        code, _, _ = run_main(
            ["figures", "--figure", "8", "--format", "both", "--out", str(tmp_path / "f")],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "f.csv").exists() and (tmp_path / "f.svg").exists()
        assert len(built) == 0
        sweep_lambda1(SweepSpec(2, 0.6, 0.3, 1.0, (0.0, 0.5)))
        assert len(built) == 2


@pytest.mark.skipif(os.name != "posix", reason="file modes are POSIX")
@pytest.mark.parametrize("mask", [0o022, 0o027, 0o002], ids=oct)
def test_written_files_get_open_mode(mask, tmp_path, capsys):
    previous = os.umask(mask)
    try:
        code, _, _ = run_main(
            ["figures", "--figure", "7b", "--format", "both", "--out", str(tmp_path / "f")],
            capsys,
        )
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(previous)
    assert code == 0
    expected = stat.S_IMODE(os.stat(tmp_path / "plain").st_mode)
    assert expected == 0o666 & ~mask
    for name in ("f.csv", "f.svg"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == expected
    assert sorted(os.listdir(tmp_path)) == ["f.csv", "f.svg", "plain"]


class TestValidateVerb:
    def test_passes_and_reports(self, capsys):
        code, out, _ = run_main(["validate"], capsys)
        assert code == 0
        assert "validation passed" in out
        for n in range(1, 9):
            assert f"n={n}" in out


class TestConsoleScript:
    def test_entry_point_runs(self):
        # The child interpreter must find the same package as this one,
        # also when it is imported from a source checkout.
        source_root = os.path.dirname(os.path.dirname(os.path.abspath(lmgcycle.__file__)))
        path = [source_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        proc = subprocess.run(
            [sys.executable, "-m", "lmgcycle.cli", "spectrum", "--n", "2", "--lambda1", "0"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("twice_m,m,energy")
