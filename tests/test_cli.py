"""Command-line contract: formats, grids, exit codes, determinism."""
import argparse
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fdradiance
from fdradiance import acceptance, cli, spectra
from fdradiance.cli import _build_parser, main
from fdradiance.errors import ConvergenceError, DomainError
from fdradiance.spectra import (
    distribution_grid,
    energy_spectrum,
    fermi_dirac_distribution,
    total_energy_spectral,
)
from fdradiance.trajectory import (
    E_SQUARED_DEFAULT,
    TrajectoryParams,
    coordinate_time,
    penrose_coordinates,
    position_at_time,
    total_energy_larmor,
)


# the ends of the bound on kappa and e^2, 2^-256 and 2^256, as the
# command line takes them
LOW, HIGH = repr(2.0**-256), repr(2.0**256)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_outside_the_bound(capsys, argv, name, value):
    """``argv`` with --name value is a usage error naming the bound."""
    code, out, err = run(capsys, argv + [f"--{name}", value])
    option = name.replace("-", "_")
    assert (code, out) == (2, "")
    assert err == f"error: {option} must lie in [2^-256, 2^256], got {float(value)!r}\n"


def at_time(t):
    """A single coordinate time: the one-step --t-* grid."""
    return ["--t-min", t, "--t-max", t, "--t-steps", "1"]


def csv_cell(value):
    """A cell as the CSV writer's contract states it, one value at a time."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["energy", "--nope"]) == 2

    def test_bad_format_value(self, capsys):
        assert main(["energy", "--format", "xml"]) == 2

    def test_empty_grid(self, capsys):
        code, _, err = run(capsys, ["distribution", "--omega-steps", "0"])
        assert code == 2 and "error:" in err

    def test_negative_omega(self, capsys):
        code, _, _ = run(capsys, ["distribution", "--omega-min", "-1.0",
                                  "--omega-max", "1.0"])
        assert code == 2

    def test_tol_out_of_range(self, capsys):
        code, _, _ = run(capsys, ["energy", "--tol", "0.5"])
        assert code == 2

    def test_bad_zeta(self, capsys):
        code, _, _ = run(capsys, ["energy", "--zeta", "1.5"])
        assert code == 2

    @pytest.mark.parametrize("command", ["trajectory", "energy", "distribution",
                                         "spectrum", "mirror"])
    def test_kappa_or_charge_outside_the_bound_exits_2(self, capsys, command):
        # one ulp outside [2^-256, 2^256] is refused by every command that
        # takes the option; the ends themselves are no usage error (at kappa
        # 2^256 the default t grid's z lies below the normal doubles)
        outside = (repr(math.nextafter(2.0**-256, 0.0)),
                   repr(math.nextafter(2.0**256, math.inf)), "1e-320", "1e308")
        names = ["kappa"] + (["e-squared"] if command != "trajectory" else [])
        for name, value in itertools.product(names, outside):
            assert_outside_the_bound(capsys, [command], name, value)
        if command in ("trajectory", "mirror"):
            for name, value in itertools.product(names, (LOW, HIGH)):
                code, _, err = run(capsys, [command, f"--{name}", value])
                assert code != 2 and "must lie in" not in err

    def test_exact_needs_symmetric_worldline(self, capsys):
        code, _, err = run(capsys, ["distribution", "--zeta", "0.3",
                                    "--method", "exact-zeta0"])
        assert code == 2 and "zeta" in err

    @pytest.mark.parametrize("command", ["distribution", "mirror"])
    def test_theta_outside_zero_pi(self, capsys, command):
        code, out, err = run(capsys, [command, "--omega-min", "1", "--omega-max", "1",
                                      "--omega-steps", "1", "--theta-min", "0",
                                      "--theta-max", "4", "--theta-steps", "2"])
        assert code == 2 and out == "" and "theta" in err

    @pytest.mark.parametrize("name", ["exact", "fd"])
    def test_short_method_names_rejected(self, capsys, name):
        # --method takes the library's route names, as the rows print them
        code, out, err = run(capsys, ["distribution", "--method", name])
        assert code == 2 and out == "" and "invalid choice" in err

    def test_conflicting_trajectory_grids(self, capsys):
        code, _, _ = run(capsys, ["trajectory", *at_time("1.0"),
                                  "--z-min", "1", "--z-max", "2", "--z-steps", "2"])
        assert code == 2

    def test_theta_grid_without_omega_grid(self, capsys):
        # without --omega-* mirror reads the --pq-* line, not a theta grid
        code, out, err = run(capsys, ["mirror", "--theta-min", "0", "--theta-max", "1",
                                      "--theta-steps", "3"])
        assert code == 2 and out == "" and "--theta-*" in err

    def test_pq_grid_with_emission_grid(self, capsys):
        # with --omega-* mirror maps the emission grid, not a pq line
        code, out, err = run(capsys, ["mirror", "--pq-min", "1", "--pq-max", "2",
                                      "--pq-steps", "2", "--omega-min", "1",
                                      "--omega-max", "2", "--omega-steps", "1"])
        assert code == 2 and out == "" and "--pq-*" in err

    @pytest.mark.parametrize("command, rest", [
        ("trajectory", at_time("1.0")), ("energy", ["--method", "larmor"])])
    def test_zeta_with_zeta_grid(self, capsys, command, rest):
        # the grid would silently win over --zeta
        zeta = ["--zeta", "0.3"]
        grid = ["--zeta-min", "-0.5", "--zeta-max", "0.5", "--zeta-steps", "2"]
        code, out, err = run(capsys, [command, *zeta, *grid, *rest])
        assert code == 2 and out == "" and "--zeta-*" in err
        # either one alone still runs
        assert main([command, *zeta, *rest]) == 0
        assert main([command, *grid, *rest]) == 0

    def test_descending_grid(self, capsys):
        code, out, err = run(capsys, ["distribution", "--omega-min", "2",
                                      "--omega-max", "1", "--omega-steps", "3"])
        assert code == 2 and out == "" and "ascending" in err

    def test_partial_z_grid(self, capsys):
        code, _, _ = run(capsys, ["trajectory", "--z-min", "1.0"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["check", "--criteria", "3", "--kappa", "2"],
        ["check", "--criteria", "3", "--tol", "1e-3"],
        ["trajectory", *at_time("1.0"), "--tol", "1e-3"]])
    def test_option_the_command_does_not_read(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and "unrecognized arguments" in err


class TestOptionSets:
    """Every subcommand's options, pinned as the package pins its names."""

    OUTPUT = {"--format", "--output"}
    WORLDLINE = {"--kappa", "--zeta"} | OUTPUT
    RADIATION = WORLDLINE | {"--e-squared", "--tol"}

    @staticmethod
    def grid(*names):
        return {f"--{name}-{end}" for name in names for end in ("min", "max", "steps")}

    def test_each_command_takes_exactly_its_options(self):
        # a new CLI knob, or a second way to ask for a grid, fails here
        subs = next(a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
        got = {name: {opt for action in sub._actions for opt in action.option_strings}
               - {"-h", "--help"} for name, sub in subs.choices.items()}
        assert got == {
            "trajectory": self.WORLDLINE | self.grid("zeta", "t", "z") | {"--penrose"},
            "energy": self.RADIATION | self.grid("zeta") | {"--method"},
            "distribution": self.RADIATION | self.grid("omega", "theta") | {"--method"},
            "spectrum": self.RADIATION | self.grid("omega") | {"--kind"},
            "mirror": self.RADIATION | self.grid("pq", "omega", "theta") | {"--duality"},
            "check": self.OUTPUT | {"--tolerance-scale", "--criteria"},
        }
        assert [len(opts) for opts in got.values()] == [14, 10, 13, 10, 16, 4]


class TestTrajectoryCommand:
    def test_single_time_row(self, capsys):
        code, out, _ = run(capsys, ["trajectory", *at_time("1.0")])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["zeta", "t", "z"]
        assert len(rows) == 1
        z = float(rows[0]["z"])
        params = TrajectoryParams(1.0, 0.0, 1.0)
        from fdradiance.trajectory import position_at_time
        assert z == position_at_time(params, 1.0)

    def test_penrose_columns(self, capsys):
        code, out, _ = run(capsys, ["trajectory", *at_time("0.0"), "--penrose"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["zeta", "t", "z", "U", "V"]
        assert abs(float(rows[0]["U"])) < math.pi / 2

    def test_z_grid_echoes_exact_positions(self, capsys):
        code, out, _ = run(capsys, ["trajectory", "--z-min", "0.5",
                                    "--z-max", "2.0", "--z-steps", "4"])
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(r["z"]) for r in rows] == [0.5, 1.0, 1.5, 2.0]

    def test_zeta_sweep_sorted(self, capsys):
        code, out, _ = run(capsys, [
            "trajectory", "--zeta-min", "-0.5", "--zeta-max", "0.5",
            "--zeta-steps", "2", "--t-min", "-1", "--t-max", "1",
            "--t-steps", "3"])
        assert code == 0
        _, rows = parse_csv(out)
        keys = [(float(r["zeta"]), float(r["t"])) for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 6

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, ["trajectory", *at_time("1.0"),
                                    "--format", "json", "--penrose"])
        assert code == 0
        doc = json.loads(out)
        assert sorted(doc.keys()) == ["config", "rows", "summary"]
        assert doc["config"]["penrose"] is True
        assert set(doc["rows"][0]) == {"zeta", "t", "z", "U", "V"}

    def test_time_near_the_largest_double(self, capsys):
        # t(z) = 1.5e308 at z = 3.46e154 is a finite double for kappa 0.5
        code, out, _ = run(capsys, ["trajectory", "--kappa", "0.5", *at_time("1.5e308")])
        assert code == 0
        z = float(parse_csv(out)[1][0]["z"])
        back = coordinate_time(TrajectoryParams(0.5, 0.0, 1.0), z)
        assert abs(back - 1.5e308) <= 1e-15 * 1.5e308
        # no finite z reaches the largest double itself
        code, out, err = run(capsys, ["trajectory", "--kappa", "0.5",
                                      *at_time(repr(sys.float_info.max))])
        assert code == 3 and out == "" and err

    @pytest.mark.parametrize("argv", [
        ["--z-min", "1e300", "--z-max", "1e301", "--z-steps", "2"],
        ["--kappa", "1e-10", "--z-min", "1e-320", "--z-max", "1e-310", "--z-steps", "2"]],
        ids=["large-z", "tiny-kappa-z"])
    def test_time_overflow_exits_3(self, capsys, argv):
        # t(z) = inf and -inf are refused, not printed
        code, out, err = run(capsys, ["trajectory", *argv])
        assert code == 3 and out == "" and "finite" in err

    def test_json_round_trip_stable(self, capsys):
        _, out, _ = run(capsys, ["trajectory", *at_time("2.0"),
                                 "--format", "json"])
        again = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        assert again == out

    def test_readme_command_gives_the_scalar_rows(self, capsys):
        # the README command inverts each worldline's 101 times in one call;
        # every row is the one-time call, and its z maps back to its t
        code, out, _ = run(capsys, ["trajectory", "--zeta-min", "-0.5",
                                    "--zeta-max", "0.5", "--zeta-steps", "3",
                                    "--penrose"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 303
        for r in rows:
            zeta, t, z = float(r["zeta"]), float(r["t"]), float(r["z"])
            params = TrajectoryParams(1.0, zeta)
            assert z == position_at_time(params, t)
            assert (float(r["U"]), float(r["V"])) == penrose_coordinates(params, z)
            assert abs(coordinate_time(params, z) - t) < 1e-11 * max(1.0, abs(t))

    def test_z_grid_gives_the_scalar_times(self, capsys):
        argv = ["trajectory", "--zeta-min", "-0.5", "--zeta-max", "0.5",
                "--zeta-steps", "3", "--z-min", "0.01", "--z-max", "50",
                "--z-steps", "77", "--penrose"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        lines = ["zeta,t,z,U,V"]
        for zeta in (-0.5, 0.0, 0.5):
            params = TrajectoryParams(1.0, zeta)
            for z in np.linspace(0.01, 50.0, 77).tolist():
                cells = (zeta, coordinate_time(params, z), z,
                         *penrose_coordinates(params, z))
                lines.append(",".join("%.17g" % c for c in cells))
        assert out == "\n".join(lines) + "\n"


class TestEnergyCommand:
    def test_single_row_matches_library(self, capsys):
        code, out, _ = run(capsys, ["energy", "--zeta", "0.25",
                                    "--e-squared", "1.0"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["zeta", "method", "E", "E_over_e2kappa"]
        want = total_energy_larmor(TrajectoryParams(1.0, 0.25, 1.0))
        assert float(rows[0]["E"]) == pytest.approx(want, rel=1e-12)

    def test_seventeen_digit_round_trip(self, capsys):
        _, out, _ = run(capsys, ["energy", "--e-squared", "1.0"])
        _, rows = parse_csv(out)
        want = total_energy_larmor(TrajectoryParams(1.0, 0.0, 1.0))
        assert float(rows[0]["E"]) == want

    def test_both_methods_close(self, capsys):
        code, out, _ = run(capsys, ["energy", "--method", "both",
                                    "--tol", "1e-4"])
        assert code == 0
        header, rows = parse_csv(out)
        assert "rel_diff" in header and "E_spectral" in header
        assert float(rows[0]["rel_diff"]) < 1e-3

    def test_both_methods_close_at_a_tiny_kappa(self, capsys):
        code, out, _ = run(capsys, ["energy", "--method", "both",
                                    "--kappa", LOW, "--tol", "1e-4"])
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["rel_diff"]) < 1e-9

    def test_huge_kappa_is_quiet(self, capsys):
        code, out, err = run(capsys, ["energy", "--kappa", HIGH])
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert math.isfinite(float(rows[0]["E"]))

    def test_ratio_column_where_e2_kappa_overflows(self, capsys):
        # kappa 1e300 lies outside the bound, where e^2 kappa = 1e309 would
        # overflow; at the corners e^2 kappa = 2^+-512 scales E exactly, and
        # the ratio column reads the unit total
        assert_outside_the_bound(capsys, ["energy", "--e-squared", "1e9"], "kappa", "1e300")
        _, out, _ = run(capsys, ["energy", "--e-squared", "1.0"])
        want = float(parse_csv(out)[1][0]["E_over_e2kappa"])
        for value in (LOW, HIGH):
            code, out, _ = run(capsys, ["energy", "--kappa", value, "--e-squared", value])
            assert code == 0
            assert float(parse_csv(out)[1][0]["E_over_e2kappa"]) == want

    def test_huge_charge_is_quiet_on_both_routes(self, capsys):
        # e^2 leaves the Larmor integrand, so E = e^2 x 0.0031 is a double
        # up to the top of the bound; it closes against the spectral route
        code, out, err = run(capsys, ["energy", "--method", "both",
                                      "--e-squared", HIGH, "--tol", "1e-4"])
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert float(rows[0]["E_larmor"]) == pytest.approx(3.1353505e-3 * 2.0**256, rel=1e-7)
        assert float(rows[0]["rel_diff"]) < 1e-9

    def test_charge_near_the_largest_double(self, capsys):
        # e^2 1e308 lies outside the bound: a usage error
        assert_outside_the_bound(capsys, ["energy", "--method", "both", "--tol", "1e-4"],
                                 "e-squared", "1e308")

    def test_overflowing_spectral_total_exits_3(self, capsys):
        # at zeta -0.99 every I(omega) is a double but their integral, e^2 x
        # 5.19, would not be at e^2 1.7e308: that charge is a usage error,
        # and at the top of the bound the total is a double
        argv = ["energy", "--method", "spectral", "--zeta", "-0.99", "--tol", "1e-4"]
        assert_outside_the_bound(capsys, argv, "e-squared", "1.7e308")
        code, out, _ = run(capsys, argv + ["--e-squared", HIGH])
        assert code == 0
        assert float(parse_csv(out)[1][0]["E"]) == pytest.approx(5.193645 * 2.0**256, rel=1e-6)

    def test_spectral_total_near_the_divergent_end(self, capsys):
        # at zeta -0.99 the tail rate c is 0.0027 and the spectrum ends near
        # 9,200 kappa
        code, out, _ = run(capsys, ["energy", "--method", "spectral",
                                    "--zeta", "-0.99", "--tol", "1e-4"])
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["E"]) == pytest.approx(0.4762636, rel=1e-4)

    # a RuntimeWarning shows, as on the command line, in place of the
    # suite's error::RuntimeWarning
    @pytest.mark.filterwarnings("default::RuntimeWarning")
    def test_warning_is_one_line_with_the_exit_code_kept(self, capsys):
        # the Larmor total warns near zeta = -1: one line, as errors print,
        # and no source path or source line; a second run in the same
        # process prints it again
        for _ in range(2):
            code, out, err = run(capsys, ["energy", "--zeta", "-0.995"])
            assert code == 0 and out.startswith("zeta,method,E")
            assert err == ("warning: total energy grows without bound as zeta -> -1; "
                           "zeta=-0.995 is close to the divergent endpoint\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_error_filter_still_raises_the_warning(self, capsys):
        # the run keeps its caller's filters: under error::RuntimeWarning,
        # as under python -W error, it stops at the warning
        with pytest.raises(RuntimeWarning, match="divergent endpoint"):
            main(["energy", "--zeta", "-0.995"])
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("default::RuntimeWarning")
    def test_warnings_print_before_the_refusal(self, capsys, monkeypatch):
        def refusing(params, tol):
            warnings.warn("first", RuntimeWarning)
            warnings.warn("first", RuntimeWarning)
            warnings.warn("second", UserWarning)
            raise DomainError("refused")

        monkeypatch.setattr(cli, "total_energy_larmor", refusing)
        code, out, err = run(capsys, ["energy", "--zeta", "-0.5"])
        assert code == 2 and out == ""
        assert err == "warning: first\nwarning: second\nerror: refused\n"

    def test_subnormal_charge_scales_the_unit_total(self, capsys):
        # a subnormal e^2 lies below the bound, a usage error; at its bottom,
        # 2^-256, E = e^2 x 0.0031 is the unit total scaled exactly
        argv = ["energy", "--method", "spectral", "--tol", "1e-4"]
        assert_outside_the_bound(capsys, argv, "e-squared", "1e-315")
        code, out, err = run(capsys, argv + ["--e-squared", LOW])
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        unit = total_energy_spectral(TrajectoryParams(1.0, 0.0, 1.0), 1e-4)
        assert float(rows[0]["E"]) == 2.0**-256 * unit
        assert float(rows[0]["E_over_e2kappa"]) == unit

    def test_total_that_underflows_exits_3(self, capsys):
        # at e^2 1e-320 the total, 3e-323, would be six subnormal steps:
        # that charge lies below the bound, a usage error
        assert_outside_the_bound(capsys, ["energy", "--method", "spectral", "--tol", "1e-4"],
                                 "e-squared", "1e-320")

    @pytest.mark.filterwarnings("default::RuntimeWarning")
    @pytest.mark.parametrize("method, zeta, why", [
        ("spectral", "-0.9999999999999999",
         "the tail rate of I(omega) at zeta=-0.9999999999999999 rounds to 0.0"),
        ("spectral", "-0.999999", "the frequency integral 1.046e-12 is below "
                                  "0.9 min(I(0.1 kappa), I(kappa)) = 5.589e-04"),
        ("both", "-0.999999", "the frequency integral 1.046e-12 is below")])
    def test_spectral_total_near_zeta_minus_1_exits_3(self, capsys, fresh_caches,
                                                      method, zeta, why):
        # at zeta = -(1 - 2^-53) the tail rate rounds to 0, where the cutoff
        # 20/c divided by zero; at -0.999999 the frequency rule missed the
        # spectrum's bulk and printed 1.05e-12 beside the Larmor 4.8e5
        code, out, err = run(capsys, ["energy", "--method", method, "--zeta", zeta,
                                      "--tol", "1e-4"])
        assert code == 3 and out == ""
        assert f"numerical failure: {why}" in err

    @pytest.mark.filterwarnings("default::RuntimeWarning")
    def test_larmor_total_names_where_1_minus_v_squared_rounds_to_0(self, capsys,
                                                                     fresh_caches):
        # at zeta = -(1 - 2^-53), 2 + zeta rounds to 1, so 1 - v^2 rounds to 0
        # near kappa z = 2 and the integrand has no value there: the refusal
        # names the node and the cause, as larmor_power's does
        code, out, err = run(capsys, ["energy", "--zeta", "-0.9999999999999999"])
        assert code == 3 and out == ""
        failure = err.splitlines()[-1]
        head = "numerical failure: the Larmor integrand at kappa z="
        tail = " has no value: 1 - v^2 rounds to 0 there"
        assert failure.startswith(head) and failure.endswith(tail)
        assert abs(float(failure[len(head):-len(tail)]) - 2.0) < 1e-6

    def test_spectrum_that_never_decays_exits_3(self, capsys, monkeypatch, fresh_caches):
        # the frequency cutoff refuses instead of truncating the integral
        monkeypatch.setattr(spectra, "energy_spectrum",
                            lambda params, omegas, *args, **kw: 1.0 / omegas)
        code, out, err = run(capsys, ["energy", "--method", "spectral"])
        assert code == 3 and out == "" and "cutoff" in err


class TestDistributionCommand:
    def test_all_methods_at_special_angle(self, capsys):
        code, out, _ = run(capsys, [
            "distribution", "--method", "all", "--e-squared", "1.0",
            "--omega-min", "1", "--omega-max", "1", "--omega-steps", "1",
            "--theta-min", "1.5707963267948966",
            "--theta-max", "1.5707963267948966", "--theta-steps", "1",
            "--tol", "1e-8"])
        assert code == 0
        _, rows = parse_csv(out)
        by_method = {r["method"]: float(r["value"]) for r in rows}
        assert set(by_method) == {"numeric", "exact-zeta0", "fermi-dirac"}
        spread = max(by_method.values()) - min(by_method.values())
        assert spread < 1e-10 * max(by_method.values())

    def test_numeric_far_in_the_tail_at_special_angle(self, capsys):
        # at omega 30 the value is 4.8e-84; the numeric route once printed
        # 2.1e-77 +- 5.9e-75 here
        code, out, _ = run(capsys, [
            "distribution", "--method", "all",
            "--omega-min", "30", "--omega-max", "30", "--omega-steps", "1",
            "--theta-min", "1.5707963267948966",
            "--theta-max", "1.5707963267948966", "--theta-steps", "1"])
        assert code == 0
        _, rows = parse_csv(out)
        by_method = {r["method"]: float(r["value"]) for r in rows}
        fd = by_method["fermi-dirac"]
        assert abs(by_method["numeric"] - fd) <= 1e-10 * fd

    def test_numeric_refusal_exits_3(self, capsys):
        # a numeric row whose bar exceeds 1e-3 of its value is refused
        theta = repr(math.radians(150))
        code, out, err = run(capsys, [
            "distribution", "--method", "numeric",
            "--omega-min", "48", "--omega-max", "48", "--omega-steps", "1",
            "--theta-min", theta, "--theta-max", theta, "--theta-steps", "1"])
        assert code == 3 and out == "" and "error bar" in err

    def test_fermi_dirac_underflow_exits_3(self, capsys):
        # the special-angle route meets the other two routes' refusal: at
        # omega/kappa 120 the value, 4.5e-329, underflows to 0
        code, out, err = run(capsys, [
            "distribution", "--method", "fermi-dirac", "--zeta", "0.3",
            "--omega-min", "110", "--omega-max", "125", "--omega-steps", "4"])
        assert code == 3 and out == ""
        assert err == ("numerical failure: fermi-dirac dI/dOmega at omega=120, "
                       "theta=1.2661 is 0.000e+00 +- 0.000e+00, a positive value "
                       "that underflows a double\n")

    @pytest.mark.parametrize("y, deg", [(8, 170), (12, 150), (12, 170)])
    def test_exact_refusal_exits_3(self, capsys, y, deg):
        # behind the special angle the closed form's two terms cancel, and
        # its bar grows with the cancellation past the refusal limit
        theta = repr(math.radians(deg))
        code, out, err = run(capsys, [
            "distribution", "--method", "exact-zeta0",
            "--omega-min", str(y), "--omega-max", str(y), "--omega-steps", "1",
            "--theta-min", theta, "--theta-max", theta, "--theta-steps", "1"])
        assert code == 3 and out == "" and "error bar" in err

    @pytest.mark.parametrize("method", ["numeric", "exact-zeta0"])
    def test_underflowing_value_exits_3(self, capsys, method):
        # at omega/kappa 200, theta pi/2 the value is about 5e-547, below the
        # double range; both routes once printed 0,0 there with exit 0
        code, out, err = run(capsys, [
            "distribution", "--method", method,
            "--omega-min", "200", "--omega-max", "200", "--omega-steps", "1",
            "--theta-min", "1.5707963267948966",
            "--theta-max", "1.5707963267948966", "--theta-steps", "1"])
        assert code == 3 and out == ""
        assert err == (f"numerical failure: {method} dI/dOmega at omega=200, "
                       "theta=1.5708 is 0.000e+00 +- 0.000e+00, a positive value "
                       "that underflows a double\n")

    def test_first_refused_sample_of_a_grid(self, capsys):
        # three of the four rows refuse on their own (see above), and so
        # does (8, 150 deg): the message names the first, omega-major, as
        # distribution_grid's best does
        thetas = [math.radians(150), math.radians(170)]
        code, out, err = run(capsys, [
            "distribution", "--method", "exact-zeta0",
            "--omega-min", "8", "--omega-max", "12", "--omega-steps", "2",
            "--theta-min", repr(thetas[0]), "--theta-max", repr(thetas[1]),
            "--theta-steps", "2"])
        assert code == 3 and out == ""
        assert err == ("numerical failure: exact-zeta0 dI/dOmega at omega=8, "
                       "theta=2.61799 is 8.609e-37 +- 3.810e-38, an error bar "
                       "above 0.001 of the value\n")
        with pytest.raises(ConvergenceError) as info:
            distribution_grid(TrajectoryParams(1.0, 0.0), [8.0, 12.0], thetas,
                              "exact-zeta0")
        best = info.value.best
        assert (best.omega, best.theta, best.method) == (8.0, thetas[0], "exact-zeta0")
        assert err == f"numerical failure: {info.value}\n"

    def test_numeric_value_at_a_tiny_frequency(self, capsys):
        # dI/dOmega/omega tends to a constant as omega -> 0; (omega/kappa)^2
        # alone underflows below 1e-154, and the route once printed 0,0 here
        def value(omega):
            code, out, _ = run(capsys, [
                "distribution", "--method", "numeric", "--zeta", "0.3",
                "--omega-min", omega, "--omega-max", omega, "--omega-steps", "1",
                "--theta-min", "1.5707963267948966",
                "--theta-max", "1.5707963267948966", "--theta-steps", "1"])
            assert code == 0
            return float(parse_csv(out)[1][0]["value"]) / float(omega)

        soft = value("1e-100")
        assert soft > 0.0
        assert abs(value("1e-200") - soft) <= 1e-8 * soft
        assert abs(value("1e-300") - soft) <= 1e-8 * soft

    @pytest.mark.parametrize("method", ["numeric", "exact-zeta0"])
    def test_charge_near_the_largest_double(self, capsys, method):
        # e^2 1e308 lies outside the bound; at its top, 2^256, every value
        # is e^2 times its unit-charge value, exactly
        grid = ["distribution", "--method", method, "--omega-min", "1",
                "--omega-max", "5", "--omega-steps", "2", "--theta-steps", "3"]
        assert_outside_the_bound(capsys, grid, "e-squared", "1e308")
        _, out, _ = run(capsys, grid + ["--e-squared", "1.0"])
        unit = [float(r["value"]) for r in parse_csv(out)[1]]
        code, out, err = run(capsys, grid + ["--e-squared", HIGH])
        assert code == 0 and err == ""
        got = [float(r["value"]) for r in parse_csv(out)[1]]
        assert got == [2.0**256 * v for v in unit]

    def test_overflowing_value_exits_3(self, capsys):
        # near zeta = -1 the forward cone's dI/dOmega is 1.3 e^2 at omega
        # 3000, past the largest double at e^2 1.7e308: that charge is a
        # usage error, and at the top of the bound the value is a double
        argv = ["distribution", "--zeta", "-0.9999",
                "--omega-min", "3000", "--omega-max", "3000", "--omega-steps", "1",
                "--theta-min", "0.056", "--theta-max", "0.056", "--theta-steps", "1"]
        assert_outside_the_bound(capsys, argv, "e-squared", "1.7e308")
        code, out, _ = run(capsys, argv + ["--e-squared", HIGH])
        assert code == 0
        assert float(parse_csv(out)[1][0]["value"]) == pytest.approx(1.3 * 2.0**256, rel=0.05)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_frequency_past_the_contour_exits_3_quietly(self, capsys):
        # b = 2 omega/kappa would overflow the saddle set-up at omega 1e300;
        # the refusal is its one line, with no numpy warning before it
        code, out, err = run(capsys, [
            "distribution", "--method", "numeric", "--omega-min", "1e300",
            "--omega-max", "1e300", "--omega-steps", "1"])
        assert code == 3 and out == ""
        assert err == ("numerical failure: log_coeff 2e+300 is past 1e+150, where the "
                       "contour's set-up overflows a double\n")

    def test_rows_carry_error_column(self, capsys):
        _, out, _ = run(capsys, [
            "distribution", "--omega-min", "1", "--omega-max", "2",
            "--omega-steps", "2", "--theta-min", "1.0", "--theta-max", "2.0",
            "--theta-steps", "2", "--method", "exact-zeta0"])
        header, rows = parse_csv(out)
        assert header == ["omega", "omega_over_kappa", "theta", "method",
                          "value", "abs_error"]
        assert len(rows) == 4
        assert all(float(r["abs_error"]) >= 0.0 for r in rows)


class TestSpectrumCommand:
    def test_kinds_and_ratio(self, capsys):
        code, out, _ = run(capsys, [
            "spectrum", "--kind", "both", "--omega-min", "1",
            "--omega-max", "2", "--omega-steps", "2", "--tol", "1e-3"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 4
        energy = {r["omega"]: float(r["value"]) for r in rows
                  if r["kind"] == "energy-spectrum"}
        particle = {r["omega"]: float(r["value"]) for r in rows
                    if r["kind"] == "particle-spectrum"}
        for w in energy:
            assert particle[w] == energy[w] / float(w)

    def test_grid_rows_match_single_calls(self, capsys):
        # the whole grid is one batched call; each row must be what a
        # one-omega call gives, in grid order
        code, out, _ = run(capsys, [
            "spectrum", "--omega-min", "0.2", "--omega-max", "6",
            "--omega-steps", "9", "--e-squared", "1.0"])
        assert code == 0
        _, rows = parse_csv(out)
        params = TrajectoryParams(1.0, 0.0, 1.0)
        assert [float(r["value"]) for r in rows] == [
            energy_spectrum(params, w, 1e-8)
            for w in np.linspace(0.2, 6.0, 9).tolist()]


    @pytest.mark.parametrize("zeta", ["0.3", "-0.6"])
    @pytest.mark.parametrize("omega", ["1e-156", "1e-200", "1e-300"])
    def test_tiny_frequency_keeps_the_soft_limit(self, capsys, zeta, omega):
        # N(omega) -> e^2/(6 pi kappa) as omega -> 0 at every zeta; a value
        # is that limit within tol or a refusal, never a printed 0
        code, out, _ = run(capsys, [
            "spectrum", "--zeta", zeta, "--kind", "particle",
            "--omega-min", omega, "--omega-max", omega, "--omega-steps", "1"])
        if code != 3:
            assert code == 0
            want = E_SQUARED_DEFAULT / (6.0 * math.pi)
            assert float(parse_csv(out)[1][0]["value"]) == pytest.approx(want, rel=1e-8)

    def test_spectrum_over_an_overflowing_direction(self, capsys):
        # the cone whose dI/dOmega would overflow at e^2 1.7e308
        # (distribution, above) is narrow: I = 0.028 e^2 there. That charge
        # is a usage error; at the top of the bound I is e^2 times its
        # unit-charge value, exactly
        grid = ["spectrum", "--zeta", "-0.9999", "--tol", "1e-4", "--omega-min",
                "3000", "--omega-max", "3000", "--omega-steps", "1"]
        assert_outside_the_bound(capsys, grid, "e-squared", "1.7e308")
        _, out, _ = run(capsys, grid + ["--e-squared", "1.0"])
        unit = float(parse_csv(out)[1][0]["value"])
        code, out, err = run(capsys, grid + ["--e-squared", HIGH])
        assert code == 0 and err == ""
        assert float(parse_csv(out)[1][0]["value"]) == 2.0**256 * unit

    @pytest.mark.parametrize("zeta", ["0", "0.3"])
    def test_charge_near_the_largest_double(self, capsys, zeta):
        # e^2 1e308 lies outside the bound; at its top, 2^256, every value
        # is e^2 times its unit-charge value, exactly
        grid = ["spectrum", "--zeta", zeta, "--omega-steps", "2", "--tol", "1e-6"]
        assert_outside_the_bound(capsys, grid, "e-squared", "1e308")
        _, out, _ = run(capsys, grid + ["--e-squared", "1.0"])
        unit = [float(r["value"]) for r in parse_csv(out)[1]]
        code, out, err = run(capsys, grid + ["--e-squared", HIGH])
        assert code == 0 and err == ""
        got = [float(r["value"]) for r in parse_csv(out)[1]]
        assert got == [2.0**256 * v for v in unit]


class TestMirrorCommand:
    def test_constrained_grid_with_summary(self, capsys):
        code, out, _ = run(capsys, ["mirror", "--zeta", "0.5",
                                    "--pq-min", "0.5", "--pq-max", "2.0",
                                    "--pq-steps", "3", "--duality"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["p", "q", "beta_squared"]
        for r in rows:
            # pairs are generated on the constraint line p/q = 3
            assert float(r["p"]) == pytest.approx(3.0 * float(r["q"]),
                                                  rel=1e-12)
        assert "# duality_rel_diff," in out
        assert "# fd_energy," in out

    def test_duality_summary_is_tight(self, capsys):
        _, out, _ = run(capsys, ["mirror", "--duality", "--format", "json"])
        doc = json.loads(out)
        assert doc["summary"]["duality_rel_diff"] < 1e-12

    def test_explicit_pair_violating_constraint(self, capsys):
        # mirror takes pairs on the constraint line only, as a --pq-* grid:
        # there is no option left that names a pair off it
        code, out, err = run(capsys, ["mirror", "--p", "0.9", "--q", "0.1"])
        assert code == 2 and out == "" and "--p" in err

    def test_explicit_pair_on_constraint_line(self, capsys):
        # a single pair is the one-step grid at its total frequency p + q
        code, out, _ = run(capsys, ["mirror", "--zeta", "0.5", "--pq-min", "1",
                                    "--pq-max", "1", "--pq-steps", "1"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["p", "q", "beta_squared"]
        assert len(rows) == 1
        assert (float(rows[0]["p"]), float(rows[0]["q"])) == (0.75, 0.25)
        params = TrajectoryParams(1.0, 0.5)
        u = 0.75 + 0.25
        emission = fermi_dirac_distribution(params, u).value
        want = 4.0 * math.pi * emission / (params.e_squared * u**2)
        assert float(rows[0]["beta_squared"]) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("argv", [
        ["--pq-min", "1e-320", "--pq-max", "1e-320", "--pq-steps", "1"],
        ["--pq-min", "1e-320", "--pq-steps", "2"],
        ["--kappa", LOW, "--pq-min", "1e-240", "--pq-max", "1e-240",
         "--pq-steps", "1"]], ids=["tiny-pq", "tiny-pq-grid", "tiny-kappa"])
    def test_overflowing_beta_squared_exits_3(self, capsys, argv):
        # (1 - zeta^2)/(2 pi (p + q) kappa (e^{2 pi (p + q)/kappa} + 1)) is
        # no finite double: a numerical failure, not a usage error
        code, out, err = run(capsys, ["mirror", *argv])
        assert code == 3 and out == "" and "overflows" in err

    def test_underflowing_beta_squared_is_zero(self, capsys):
        # at kappa 2^-256 the occupancy e^{-2 pi (p + q)/kappa} underflows:
        # |beta|^2 is 0, not a refusal
        code, out, _ = run(capsys, ["mirror", "--kappa", LOW, "--pq-steps", "2"])
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(r["beta_squared"]) for r in rows] == [0.0, 0.0]

    def test_constrained_grid_is_one_call(self, capsys, monkeypatch):
        calls = []
        fd = cli.beta_squared_fd

        def counting(p, q, kappa, zeta):
            calls.append(np.size(p))
            return fd(p, q, kappa, zeta)

        monkeypatch.setattr(cli, "beta_squared_fd", counting)
        code, _, _ = run(capsys, ["mirror", "--pq-steps", "25"])
        assert code == 0 and calls == [25]

    def test_emission_grid_at_a_charge_near_the_largest_double(self, capsys):
        # |beta|^2 = 4 pi value/(e^2 omega^2) does not depend on e^2, up to
        # the top of the bound; e^2 1e308 lies past it, a usage error
        grid = ["mirror", "--omega-min", "1", "--omega-max", "2",
                "--omega-steps", "2", "--theta-steps", "3"]
        assert_outside_the_bound(capsys, grid, "e-squared", "1e308")
        _, out, _ = run(capsys, grid + ["--e-squared", "1.0"])
        unit = [float(r["beta_squared"]) for r in parse_csv(out)[1]]
        code, out, err = run(capsys, grid + ["--e-squared", HIGH])
        assert code == 0 and err == ""
        got = [float(r["beta_squared"]) for r in parse_csv(out)[1]]
        assert got == pytest.approx(unit, rel=1e-14)

    def test_duality_at_a_subnormal_charge_exits_2(self, capsys):
        # at e^2 1e-320 the electron count is subnormal and its quotient by
        # e^2 read 0.013 off the mirror count: that charge is a usage error
        assert_outside_the_bound(capsys, ["mirror", "--duality"], "e-squared", "1e-320")

    def test_duality_at_the_bottom_of_the_bound_is_exact(self, capsys):
        code, out, _ = run(capsys, ["mirror", "--duality", "--format", "json",
                                    "--e-squared", LOW])
        assert code == 0
        assert json.loads(out)["summary"]["duality_rel_diff"] == 0.0

    def test_emission_grid_route(self, capsys):
        code, out, _ = run(capsys, [
            "mirror", "--e-squared", "1.0", "--omega-min", "1",
            "--omega-max", "1", "--omega-steps", "1",
            "--theta-min", "1.5707963267948966",
            "--theta-max", "1.5707963267948966", "--theta-steps", "1",
            "--tol", "1e-8"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["beta_squared"]) == pytest.approx(
            2.966587484687330053575e-4, rel=1e-10)


class TestCheckCommand:
    def test_single_criterion_passes(self, capsys):
        code, out, _ = run(capsys, ["check", "--criteria", "1"])
        assert code == 0
        assert "[PASS] criterion  1" in out

    def test_output_rows_parse_as_csv(self, tmp_path, capsys):
        # criteria 8 and 9 put commas in their detail, which is quoted
        path = tmp_path / "rows.csv"
        code, _, _ = run(capsys, ["check", "--criteria", "6,8,9", "--output", str(path)])
        assert code == 0
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        header, *rows = csv.reader(lines)
        assert len(rows) == 3 and all(len(row) == len(header) for row in rows)
        assert rows[1][-1].startswith("E(zeta) ratios 0.105, 0.370, ")

    def test_zero_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, ["check", "--criteria", "1",
                                    "--tolerance-scale", "0"])
        assert code == 1
        assert "[FAIL]" in out

    def test_json_report(self, capsys):
        code, out, err = run(capsys, ["check", "--criteria", "7",
                                      "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["all_passed"] is True
        assert doc["rows"][0]["criterion"] == 7
        assert "criterion" in err

    def test_json_config_echo(self, capsys):
        code, out, _ = run(capsys, ["check", "--criteria", "7",
                                    "--format", "json"])
        assert code == 0
        assert sorted(json.loads(out)["config"]) == [
            "criteria", "format", "output", "tolerance_scale"]

    def test_bad_criteria_list(self, capsys):
        code, _, _ = run(capsys, ["check", "--criteria", "1,banana"])
        assert code == 2

    def test_unknown_criterion(self, capsys):
        code, _, err = run(capsys, ["check", "--criteria", "99"])
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("scale", ["-1", "nan"])
    def test_bad_tolerance_scale(self, capsys, scale):
        code, _, err = run(capsys, ["check", "--criteria", "1",
                                    "--tolerance-scale", scale])
        assert code == 2 and "error:" in err


class TestEndsOfZetaRange:
    """Every command keeps the exit-code contract at the ends of zeta's range."""

    SMALL = ["--omega-min", "0.5", "--omega-max", "2", "--omega-steps", "2"]
    COMMANDS = {
        "energy-larmor": ["energy", "--method", "larmor", "--tol", "1e-4"],
        "energy-spectral": ["energy", "--method", "spectral", "--tol", "1e-4"],
        "spectrum": ["spectrum", *SMALL],
        "distribution": ["distribution", *SMALL, "--theta-min", "0.5", "--theta-max", "2",
                         "--theta-steps", "2"],
        "mirror": ["mirror", "--duality"],
    }

    # the Larmor total's warning near zeta = -1 prints, as on the command line
    @pytest.mark.filterwarnings("default::RuntimeWarning")
    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("zeta", [-(1.0 - 2.0**-53), -(1.0 - 2.0**-30), -0.999999,
                                      1.0 - 2.0**-53])
    def test_exits_0_2_or_3_without_a_traceback(self, capsys, fresh_caches, zeta, command):
        # an uncaught exception would end the process with a traceback and
        # exit 1, the code of a failed acceptance check; numpy's warnings
        # would show a rounding the command did not handle
        code, out, err = run(capsys, [*self.COMMANDS[command], "--zeta", repr(zeta)])
        assert code in (0, 2, 3), err
        assert (out != "") == (code == 0)
        assert "Traceback" not in err and "encountered in" not in err


class TestCsvWriter:
    def test_bytes_are_the_csv_modules(self):
        # each row mixes every kind of cell; 300 copies make the text span
        # several 8 KiB writes, and the summary rows sort by name without "lines"
        floats = [0.1 + 0.2, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                  1.7976931348623157e308, 2.0**-1074 * 3, 123456789.12345678]
        texts = ["a,b", 'say "hi"', "cr\rhere", "lf\nhere", "", "plain",
                 'both, "and"\n', " ", "-0"]
        n = len(floats)
        table = {
            "x": floats * 300,
            "y": [np.float64(v) for v in floats[::-1]] * 300,
            "count": list(range(-4, n - 4)) * 300,
            "flag": [i % 3 == 0 for i in range(n)] * 300,
            "text": texts * 300,
        }
        summary = {"z_total": 2.5, "all_passed": False, "lines": ["not a row"],
                   "note": "a, b"}
        got = io.StringIO()
        cli._write_csv(got, table, summary)
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(table)
        writer.writerows([csv_cell(v) for v in row] for row in zip(*table.values()))
        writer.writerows([f"# {key}", csv_cell(summary[key])]
                         for key in ("all_passed", "note", "z_total"))
        assert len(want.getvalue()) > 8 * io.DEFAULT_BUFFER_SIZE
        # line by line, so that a failure names its first line
        got_lines = got.getvalue().split("\n")
        want_lines = want.getvalue().split("\n")
        for i, (line, want_line) in enumerate(zip(got_lines, want_lines)):
            assert (i, line) == (i, want_line)
        assert len(got_lines) == len(want_lines)


class TestOutputFile:
    def test_linefeed_only(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        code, _, _ = run(capsys, ["trajectory", *at_time("1.0"),
                                  "--output", str(path)])
        assert code == 0
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_file_matches_stdout(self, tmp_path, capsys):
        argv = ["energy", "--e-squared", "1.0"]
        _, out, _ = run(capsys, argv)
        path = tmp_path / "e.csv"
        run(capsys, argv + ["--output", str(path)])
        assert path.read_text() == out

    def test_json_file(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        code, _, _ = run(capsys, ["mirror", "--format", "json",
                                  "--output", str(path)])
        assert code == 0
        doc = json.loads(path.read_text())
        assert "rows" in doc and "summary" in doc

    @pytest.mark.parametrize("argv", [["mirror"], ["check", "--criteria", "3"]])
    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_unwritable_path_exits_2(self, tmp_path, capsys, argv, target):
        # exit 1 is kept for a real acceptance failure
        path = tmp_path if target == "directory" else tmp_path / "no" / "x.csv"
        code, out, err = run(capsys, argv + ["--output", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


class TestBrokenPipe:
    """A reader that closes stdout early (``| head -1``) gets exit 141."""

    @pytest.mark.parametrize("argv", [
        ["trajectory", "--t-min", "-5", "--t-max", "5", "--t-steps", "1000"],
        ["trajectory", *at_time("1.0")],
        ["check", "--criteria", "10"]], ids=["many-rows", "one-row", "check"])
    def test_closed_stdout_exits_141(self, capfd, monkeypatch, argv):
        # a real pipe whose read end is gone: every write fails with EPIPE,
        # whether it comes mid-stream or at the final flush
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as pipe:
            monkeypatch.setattr(sys, "stdout", pipe)
            code = main(argv)
            monkeypatch.undo()
        # closing flushed the pipe's buffer without a BrokenPipeError
        assert code == 141
        assert capfd.readouterr().err == ""

    def test_head_sees_no_traceback(self):
        # 160 kB of rows: more than the pipe holds, so the writer is still
        # writing when the reader goes, and nothing is printed at exit
        src = os.path.dirname(os.path.dirname(fdradiance.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from fdradiance.cli import main; sys.exit(main())",
             "trajectory", "--t-min", "-5", "--t-max", "5", "--t-steps", "4000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"zeta,t,z\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""


class TestModuleEntry:
    """python -m fdradiance.cli and python -m fdradiance run the CLI."""

    def test_module_runs_the_command(self, capsys):
        src = os.path.dirname(os.path.dirname(fdradiance.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        refusal = subprocess.run(
            [sys.executable, "-m", "fdradiance.cli", "spectrum", "--omega-min", "1000",
             "--omega-max", "1000", "--omega-steps", "1"],
            capture_output=True, env=env, timeout=120)
        assert refusal.returncode == 3
        energy = subprocess.run([sys.executable, "-m", "fdradiance", "energy"],
                                capture_output=True, env=env, timeout=120)
        code, out, err = run(capsys, ["energy"])
        assert (energy.returncode, energy.stdout, energy.stderr) == \
            (code, out.encode(), err.encode())


class TestOneProcess:
    """main() called again in one process gives a fresh process's bytes."""

    @pytest.mark.parametrize("calls", [
        [["trajectory", "--zeta", "0.3", *at_time("1")],
         ["trajectory", "--zeta-min", "0", "--zeta-max", "0.3", "--zeta-steps", "2",
          *at_time("1")]],
        [["energy", "--nope"], ["energy", "--format", "json"]],
    ], ids=["zeta-then-zeta-grid", "usage-error-then-good"])
    def test_calls_match_fresh_processes(self, capsys, monkeypatch, calls):
        # the parser is built once per process; what one parse gave (the
        # --zeta in ``given``, an error exit) must not reach the next
        monkeypatch.setenv("COLUMNS", "80")
        src = os.path.dirname(os.path.dirname(fdradiance.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        for argv in calls:
            code, out, err = run(capsys, argv)
            fresh = subprocess.run([sys.executable, "-m", "fdradiance", *argv],
                                   capture_output=True, env=env, timeout=120)
            assert (code, out.encode(), err.encode()) == \
                (fresh.returncode, fresh.stdout, fresh.stderr)


class TestJsonRows:
    """Every JSON row holds the CSV row's values, as JSON numbers and strings."""

    @pytest.mark.parametrize("argv", [
        ["distribution", "--method", "all", "--omega-min", "0.5",
         "--omega-max", "2", "--omega-steps", "2", "--theta-steps", "3"],
        ["spectrum", "--kind", "both", "--omega-min", "0.5",
         "--omega-max", "2", "--omega-steps", "3", "--tol", "1e-6"],
        ["energy", "--method", "both", "--tol", "1e-4"],
        ["trajectory", "--zeta-min", "-0.5", "--zeta-max", "0.5",
         "--zeta-steps", "3", "--penrose"],
        ["mirror", "--zeta", "-0.5", "--duality"],
        ["check", "--criteria", "6,8,9"]],
        ids=["distribution", "spectrum", "energy", "trajectory", "mirror", "check"])
    def test_json_matches_csv(self, capsys, monkeypatch, tmp_path, argv):
        # check's runtimes come from a clock that ticks 0.25 s a reading,
        # so that both runs print the same ones
        ticks = itertools.count(step=0.25)
        monkeypatch.setattr(acceptance.time, "perf_counter", lambda: next(ticks))
        code, out, _ = run(capsys, argv + ["--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert sorted(doc) == ["config", "rows", "summary"]
        path = tmp_path / "rows.csv"
        assert run(capsys, argv + ["--output", str(path)])[0] == 0
        lines = list(csv.reader(io.StringIO(path.read_text(), newline="")))
        header = lines[0]
        csv_rows = [ln for ln in lines[1:] if not ln[0].startswith("# ")]
        summary = {ln[0][2:]: ln[1] for ln in lines[1:] if ln[0].startswith("# ")}
        assert len(doc["rows"]) == len(csv_rows) > 0
        for got, want in zip(doc["rows"], csv_rows):
            assert sorted(got) == sorted(header)
            assert [csv_cell(got[key]) for key in header] == want
        assert {k: csv_cell(v) for k, v in doc["summary"].items()} == summary


class TestReadme:
    def test_command_block_runs(self, capsys):
        # every command of README.md's "## Command line" block, through
        # main, exits 0: a stale example there fails here
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "README.md"), encoding="utf-8") as f:
            text = f.read()
        section = text.split("\n## Command line\n", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [ln.split()[1:] for ln in block.splitlines()
                    if ln.startswith("fdradiance ")]
        assert len(commands) == 6
        for argv in commands:
            code, out, _ = run(capsys, argv)
            assert code == 0, argv
            assert out
