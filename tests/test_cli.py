"""Tests for the command-line front end."""

import argparse
import configparser
import hashlib
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import covertpilot
from covertpilot import cli, monte_carlo
from covertpilot.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    build_parser,
    config_hash,
    dbm_to_linear,
    linear_to_dbm,
    main,
)
from covertpilot.detection import covert_margin
from covertpilot.monte_carlo import McEstimate


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_ini():
    """The README's INI example, the text of its first ```ini block."""
    text = README.read_text(encoding="utf-8")
    return text.split("```ini\n", 1)[1].split("```", 1)[0]


def resolve(tmp_path, text, command="design", *flags):
    config = tmp_path / "run.ini"
    config.write_text(text)
    args = build_parser().parse_args([command, "--config", str(config), *flags])
    return cli.resolve_run_config(args, command)


def read_csv(path):
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def column(header, rows, name, convert=float):
    idx = header.index(name)
    return [convert(row[idx]) for row in rows]


class TestUnitConversion:
    def test_dbm_round_trip(self):
        assert dbm_to_linear(0.0) == 1.0
        assert dbm_to_linear(10.0) == pytest.approx(10.0, rel=1e-14)
        for dbm in (-30.0, -3.0, 0.0, 7.5, 20.0):
            assert linear_to_dbm(dbm_to_linear(dbm)) == pytest.approx(dbm, abs=1e-12)

    def test_dbm_suffix_in_config(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[system]\nsigma_w2 = 3 dBm\n")
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(config), "--out", str(out)])
        assert code == EXIT_OK
        header, rows = read_csv(out)
        # tau_star -> sigma_w2 as rho -> 0; first grid point has rho = 0.001
        taus = column(header, rows, "tau_star")
        assert taus[0] == pytest.approx(dbm_to_linear(3.0), rel=1e-2)

    def test_units_flag_applies_to_unsuffixed_powers(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[system]\nsigma_w2 = 0\n")  # 0 dBm = 1.0 linear
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--config", str(config), "--out", str(out), "--units", "dbm"]
        )
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert column(header, rows, "tau_star")[0] == pytest.approx(1.0, rel=1e-2)


class TestConfigHandling:
    def test_unknown_key_is_a_config_error(self, tmp_path, capsys):
        # [fig1] is not read by design, but its key names are still checked,
        # and before any value is parsed, so a bad epsilon does not hide them
        config = tmp_path / "run.ini"
        cases = [
            ("[system]\nnoise_floor = 1.0\n", "noise_floor"),
            ("[fig1]\nbogus = 1\n", "bogus"),
            ("[system]\nepsilon = 1.5\n[fig1]\nbogus = 1\n", "bogus"),
        ]
        for text, key in cases:
            config.write_text(text)
            assert main(["design", "--config", str(config)]) == EXIT_CONFIG
            assert key in capsys.readouterr().err

    def test_invalid_value_names_field(self, tmp_path, capsys):
        # SystemConfig's ValueError reaches main as it is, with no rewrap
        config = tmp_path / "run.ini"
        config.write_text("[system]\nepsilon = 1.5\n")
        assert main(["design", "--config", str(config)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == "config error: epsilon must lie in (0, 1), got 1.5\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["design", "fig2", "fig3", "sweep"])
    @pytest.mark.parametrize("trials", ["5", "5000"])
    def test_trials_flag_refused_without_monte_carlo(self, capsys, command, trials):
        assert main([command, "--trials", trials]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "--trials" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["fig1", "verify"])
    def test_trials_flag_sets_the_monte_carlo_commands(self, tmp_path, command):
        assert resolve(tmp_path, "", command, "--trials", "5000")["trials"] == 5000

    @pytest.mark.parametrize("command", ["design", "fig2", "fig3", "sweep"])
    def test_seed_flag_refused_without_monte_carlo(self, capsys, command):
        assert main([command, "--seed", "5"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "--seed" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["fig1", "verify"])
    def test_seed_flag_sets_the_monte_carlo_commands(self, tmp_path, command):
        assert resolve(tmp_path, "", command, "--seed", "5")["seed"] == 5
        assert resolve(tmp_path, "", command)["seed"] == cli.DEFAULT_SEED

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_config_seed_accepted_everywhere(self, tmp_path, command):
        # [system] seed is part of every resolved config, so it enters the hash
        resolved = resolve(tmp_path, "[system]\nseed = 5\n", command)
        assert resolved["seed"] == 5
        assert config_hash(resolved) != config_hash(resolve(tmp_path, "", command))

    @pytest.mark.parametrize("command", ["fig1", "verify"])
    @pytest.mark.parametrize("seed,code", [(-1, EXIT_CONFIG), (2**64, EXIT_CONFIG),
                                           (2**64 - 1, EXIT_OK)])
    def test_seed_must_be_unsigned_64_bit(self, tmp_path, capsys, command, seed, code):
        config = tmp_path / "run.ini"
        config.write_text(
            f"[system]\nseed = {seed}\n[fig1]\nnp_values = 20\neta_grid = 0.5\n"
        )
        out = tmp_path / "out.csv"
        flags = ["--config", str(config), "--trials", "2000", "--out", str(out)]
        assert main([command, *flags]) == code
        assert main([command, *flags, "--seed", str(seed)]) == code
        err = capsys.readouterr().err
        if code == EXIT_CONFIG:
            assert err == f"config error: seed must be an unsigned 64-bit integer, got {seed}\n" * 2
            assert not out.exists()
        else:
            assert err == ""

    @pytest.mark.parametrize(
        "section,key,raw",
        [("verify", "rho", "-0.05"), ("verify", "rho", "0"), ("fig1", "rho", "-0.05"),
         ("fig3", "epsilon_grid", "0:0.2:0.1"), ("fig2", "epsilon_values", "0.1, 1.5"),
         ("fig3", "n_values", "1, 100"), ("fig1", "np_values", "0, 20"),
         ("fig1", "eta_grid", "0:1:0.5")],
    )
    def test_out_of_range_value_names_its_key(self, tmp_path, capsys, section, key, raw):
        config = tmp_path / "run.ini"
        config.write_text(f"[{section}]\n{key} = {raw}\n")
        assert main([section, "--config", str(config)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: config key '{key}': ")
        assert captured.out == ""

    def test_default_config_hashes(self, tmp_path):
        expected = {
            "design": "f092ea752d32",
            "fig1": "8ae5d66a4d32",
            "fig2": "de33cbdaa11b",
            "fig3": "fd7ad7c3a2f4",
            "sweep": "d53315e152ef",
            "verify": "23b11528a1be",
        }
        assert {c: config_hash(resolve(tmp_path, "", c)) for c in expected} == expected

    def test_subcommands_and_keys_are_listed_once(self):
        assert set(cli._SECTIONS) == {"system", *cli._COMMANDS}
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert list(subparsers.choices) == list(cli._COMMANDS)
        keys = {key for section in cli._SECTIONS.values() for key in section}
        assert keys == set(cli._PARSERS)
        system = set(cli._SECTIONS["system"]) - {"seed"}
        assert system == set(cli.SystemConfig._fields)

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_readme_config_example_resolves(self, tmp_path, capsys, command):
        resolved = resolve(tmp_path, readme_ini(), command)
        cli.system_config(resolved)
        assert (resolved["n"], resolved["epsilon"], resolved["seed"]) == (200, 0.05, 7)
        assert resolved["sigma_w2"] == 1.0
        assert capsys.readouterr().err == ""

    def test_readme_config_example_sets_every_key(self):
        parser = configparser.ConfigParser()
        parser.read_string(readme_ini())
        shown = {section: set(parser.options(section)) for section in parser.sections()}
        expected = {section: set(keys) for section, keys in cli._SECTIONS.items() if keys}
        assert shown == expected

    def test_readme_key_table_matches_the_tables(self):
        text = README.read_text(encoding="utf-8")
        lines = text.split("| section | key |", 1)[1].split("\n\n", 1)[0].splitlines()
        rows = [
            [cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in lines[2:]
        ]
        table = {(section, key): (default, dbm) for section, key, default, _, dbm in rows}
        assert set(table) == {
            (section, key) for section, keys in cli._SECTIONS.items() for key in keys
        }
        for (section, key), (default, dbm) in table.items():
            parse = cli._PARSERS[key]
            is_power = parse is cli._parse_power
            value = parse(key, default, "linear") if is_power else parse(key, default)
            assert value == cli._SECTIONS[section][key], key
            assert (dbm == "dBm") == is_power, key

    def test_readme_csv_schemas_match_the_commands(self):
        text = README.read_text(encoding="utf-8")
        lines = text.split("| command | columns |", 1)[1].split("\n\n", 1)[0].splitlines()
        table = {}
        for line in lines[2:]:
            command, columns = (cell.strip() for cell in line.strip("|").split("|"))
            table[command.strip("`")] = columns.split(", ")
        assert table == {
            name: [*columns, "config_hash"] for name, (_, _, columns) in cli._COMMANDS.items()
        }

    @pytest.mark.parametrize(
        "text",
        ["# note\n; note\n[system]\n# note\nn = 40\n; note\n",
         "[system]\n  # indented note\nn = 40\n"],
    )
    def test_full_line_comments_are_accepted(self, tmp_path, text):
        assert resolve(tmp_path, text)["n"] == 40

    @pytest.mark.parametrize("marker", ["#", ";"])
    def test_inline_comment_stays_in_the_value(self, tmp_path, capsys, marker):
        config = tmp_path / "run.ini"
        config.write_text(f"[system]\nepsilon = 0.05 {marker} tighter\n")
        assert main(["design", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config key 'epsilon': cannot parse '0.05 {marker} tighter'" in err

    def test_keys_are_case_insensitive(self, tmp_path):
        resolved = resolve(tmp_path, "[system]\nN = 50\nSigma_W2 = 3\n")
        assert (resolved["n"], resolved["sigma_w2"]) == (50, 3.0)

    def test_colon_delimiter(self, tmp_path):
        resolved = resolve(tmp_path, "[system]\nn: 50\n[fig1]\neta_grid: 0.2:0.8:0.2\n", "fig1")
        assert resolved["n"] == 50
        assert resolved["eta_grid"] == [0.2, 0.4, 0.6, 0.8]

    def test_duplicate_key_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[system]\nn = 50\nN = 60\n")
        assert main(["design", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "option 'n' in section 'system' already exists" in err
        assert "Traceback" not in err

    def test_annotation_key_refused(self, tmp_path, capsys):
        # tau was once accepted as a caption annotation; no code reads it
        config = tmp_path / "run.ini"
        for section in ("system", "design", "sweep"):
            config.write_text(f"[{section}]\ntau = 0 dBm\n")
            assert main(["design", "--config", str(config)]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert f"unknown config key 'tau' in section [{section}]" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize(
        "key,raw",
        [
            ("lambda_ab", "inf"),
            ("lambda_ab", "nan"),
            ("sigma_b2", "inf"),
            ("sigma_b2", "nan"),
            ("sigma_w2", "inf"),
            ("sigma_w2", "nan dBm"),
            ("sigma_w2", "4000 dBm"),
            ("epsilon", "inf"),
            ("epsilon", "nan"),
            ("rho", "inf"),
            ("rho", "-inf dBm"),
            ("rho_min", "nan"),
            ("rho_max", "inf"),
            ("epsilon_values", "0.1, inf"),
        ],
    )
    def test_non_finite_value_names_field(self, tmp_path, capsys, key, raw):
        # a [system] key is read by design; a subcommand key by every
        # subcommand whose section takes it
        commands = [c for c in cli._COMMANDS if key in cli._SECTIONS[c]]
        for command in commands or ["design"]:
            config = tmp_path / "run.ini"
            config.write_text(f"[{command if commands else 'system'}]\n{key} = {raw}\n")
            assert main([command, "--config", str(config)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"config key '{key}'" in err
            assert "Traceback" not in err

    def test_percent_in_value_is_a_config_error(self, tmp_path, capsys):
        # configparser reads a bare '%' as the start of an interpolation
        config = tmp_path / "run.ini"
        config.write_text("[system]\nepsilon = 10%\n")
        assert main(["design", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'epsilon' in section [system]" in err
        assert "Traceback" not in err
        # every raw value is read before any is parsed
        config.write_text("[system]\nn = abc\nepsilon = 10%\n")
        assert main(["design", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'epsilon' in section [system]" in err
        assert "cannot parse" not in err
        # a command reads the values of [system] and its own section only
        config.write_text("[fig1]\nrho = 10%\n")
        assert main(["design", "--config", str(config)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert main(["fig1", "--config", str(config)]) == EXIT_CONFIG
        assert "'rho' in section [fig1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,section",
        [("[sytem]\nn = 7\n", "sytem"),
         ("[DEFAULT]\nn = 7\n", "DEFAULT"),
         ("[DEFAULT]\nn = 7\n[system]\nepsilon = 0.1\n", "DEFAULT")],
    )
    def test_unknown_section_is_a_config_error(self, tmp_path, capsys, text, section):
        config = tmp_path / "run.ini"
        config.write_text(text)
        assert main(["design", "--config", str(config)]) == EXIT_CONFIG
        assert f"[{section}]" in capsys.readouterr().err

    def test_oversized_grid_is_refused_before_it_is_built(self, tmp_path, capsys):
        # about 9e11 points: building the list first would exhaust memory
        config = tmp_path / "run.ini"
        config.write_text("[fig1]\neta_grid = 0.05:0.95:1e-12\n")
        assert main(["fig1", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "eta_grid" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "raw,points",
        [("0:9999:1", 10_000), ("0:10000:1", None), ("0:1:1e-320", None),
         ("0:1:nan", None), ("nan:1:0.1", None), ("0:inf:1", None)],
    )
    def test_grid_size_cap(self, tmp_path, capsys, raw, points):
        config = tmp_path / "run.ini"
        config.write_text(f"[fig3]\nepsilon_grid = {raw}\n")
        args = build_parser().parse_args(["fig3", "--config", str(config)])
        if points is None:
            with pytest.raises(cli.ConfigError, match="epsilon_grid"):
                cli.resolve_run_config(args, "fig3")
        else:
            grid = cli.resolve_run_config(args, "fig3")["epsilon_grid"]
            assert len(grid) == points

    def test_rho_points_cap(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "run.ini"
        out = tmp_path / "sweep.csv"

        def sweep(points):
            config.write_text(f"[sweep]\nrho_points = {points}\n")
            return main(["sweep", "--config", str(config), "--out", str(out)])

        assert sweep(20_000) == EXIT_CONFIG
        assert "'rho_points'" in capsys.readouterr().err
        assert not out.exists()
        # the cap admits exactly _MAX_GRID_POINTS rows
        monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 4)
        assert sweep(5) == EXIT_CONFIG
        assert sweep(4) == EXIT_OK
        assert len(read_csv(out)[1]) == 4

    def test_fig2_pilot_count_cap(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "run.ini"
        out = tmp_path / "fig2.csv"

        def fig2(n):
            config.write_text(f"[system]\nn = {n}\n[fig2]\nepsilon_values = 0.1\n")
            return main(["fig2", "--config", str(config), "--out", str(out)])

        # n - 1 rows per epsilon, held in memory: about 90 GB at n = 1e8
        start = time.perf_counter()
        assert fig2(100_000_000) == EXIT_CONFIG
        assert time.perf_counter() - start < 1.0
        assert "config key 'n'" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 4)
        assert fig2(6) == EXIT_CONFIG
        assert not out.exists()
        assert fig2(5) == EXIT_OK
        assert len(read_csv(out)[1]) == 4

    @pytest.mark.parametrize(
        "raw,expected",
        [("1.2345e-9:3.2345e-9:1e-9", [1.2345e-9, 2.2345e-9, 3.2345e-9]),
         ("1e-13:3e-13:1e-13", [1e-13, 2e-13, 3e-13])],
    )
    def test_grid_points_keep_their_digits(self, tmp_path, raw, expected):
        # each point comes from the decimal text, not from rounding start + i step
        config = tmp_path / "run.ini"
        config.write_text(f"[fig3]\nepsilon_grid = {raw}\nn_values = 100\n")
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--config", str(config), "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert column(header, rows, "epsilon") == expected

    def test_default_grids_come_from_the_grid_parser(self):
        defaults = cli._SECTIONS
        assert defaults["fig1"]["eta_grid"] == [round(0.05 * k, 12) for k in range(1, 20)]
        assert defaults["fig3"]["epsilon_grid"] == [round(0.02 * k, 12) for k in range(1, 16)]

    def test_sweep_at_large_n_matches_covert_margin(self, tmp_path):
        # alpha and beta integrate the same saddle-point density as the
        # covert margin, so sweep runs at any slot length and agrees with it
        for n in (10_000_000, 100_000_000):
            config = tmp_path / f"run_{n}.ini"
            config.write_text(
                f"[system]\nn = {n}\n"
                "[sweep]\nrho_min = 0.0001\nrho_max = 0.002\nrho_points = 4\n"
            )
            out = tmp_path / f"sweep_{n}.csv"
            assert main(["sweep", "--config", str(config), "--out", str(out)]) == EXIT_OK
            header, rows = read_csv(out)
            assert len(rows) == 4
            # sigma_w2 is 1, so rho is the warden SNR
            for rho, xi in zip(column(header, rows, "rho"), column(header, rows, "xi_star")):
                assert abs(xi - (1.0 - covert_margin(n, rho)[0])) <= 1e-12
            for name in ("alpha", "beta"):
                assert all(0.0 <= v <= 1.0 for v in column(header, rows, name))

    def test_sweep_alpha_keeps_its_tail_at_large_n(self, tmp_path):
        # at n = 1e8, rho = 0.002 alpha is ~8e-24, far below 1 - P's resolution
        config = tmp_path / "run.ini"
        config.write_text(
            "[system]\nn = 100000000\n"
            "[sweep]\nrho_min = 0.001\nrho_max = 0.003\nrho_points = 3\n"
        )
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        alphas, betas, xis = (
            column(header, rows, name) for name in ("alpha", "beta", "xi_star")
        )
        assert all(a > 0.0 for a in alphas)
        assert 1e-24 < alphas[1] < 1e-22
        assert all(xi == a + b for xi, a, b in zip(xis, alphas, betas))

    def test_parser_is_built_once(self, capsys):
        assert build_parser() is build_parser()
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["design", "--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
            with pytest.raises(SystemExit) as exc:
                main(["design", "--units", "watts"])
            assert exc.value.code == 2
            texts.append(capsys.readouterr().err)
        assert texts[:2] == texts[2:]

    def test_missing_config_file(self):
        assert main(["design", "--config", "/nonexistent/run.ini"]) == EXIT_CONFIG

    def test_trial_budget_refused(self):
        assert main(["verify", "--trials", "10"]) == EXIT_BUDGET

    def test_hash_changes_with_config(self):
        a = config_hash({"command": "design", "n": 100})
        b = config_hash({"command": "design", "n": 200})
        assert a != b and len(a) == 12

    def test_hash_is_sha256_of_sorted_lines(self):
        resolved = {"n": 100, "command": "design", "epsilon": 0.1, "np_values": [20, 50]}
        text = "command=design\nepsilon=0.10000000000000001\nn=100\nnp_values=20,50"
        expected = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
        assert config_hash(resolved) == expected


class TestDesignCommand:
    def test_prints_design_and_writes_row(self, tmp_path, capsys):
        out = tmp_path / "design.csv"
        assert main(["design", "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "rho_star" in stdout
        header, rows = read_csv(out)
        assert len(rows) == 1
        xi = column(header, rows, "xi_star_achieved")[0]
        assert abs(xi - 0.9) < 1e-9

    def test_tighter_covertness_needs_more_pilots(self, tmp_path):
        values = {}
        for eps in ("0.05", "0.2"):
            config = tmp_path / f"eps{eps}.ini"
            config.write_text(f"[system]\nepsilon = {eps}\n")
            out = tmp_path / f"design{eps}.csv"
            assert main(["design", "--config", str(config), "--out", str(out)]) == EXIT_OK
            header, rows = read_csv(out)
            values[eps] = column(header, rows, "np_star", int)[0]
        assert values["0.05"] >= values["0.2"]

    @pytest.mark.parametrize("command", ["design", "fig2", "fig3"])
    def test_non_finite_sinr_is_refused(self, tmp_path, capsys, command):
        # the closed-form SINR overflows from about lambda_ab = 1e155 here
        config = tmp_path / "run.ini"
        for lambda_ab, code in (("1e154", EXIT_OK), ("1e156", EXIT_CONFIG), ("1e160", EXIT_CONFIG)):
            config.write_text(f"[system]\nlambda_ab = {lambda_ab}\n")
            assert main([command, "--config", str(config)]) == code
            captured = capsys.readouterr()
            if code == EXIT_OK:
                assert captured.err == ""
                assert "inf" not in captured.out
            else:
                assert captured.err.startswith("config error: ")
                assert "lambda_ab" in captured.err
                assert captured.out == ""


    @pytest.mark.parametrize(
        "text,keys",
        [
            ("sigma_w2 = 1e-310", ("sigma_w2",)),
            ("sigma_w2 = -3100 dBm", ("sigma_w2",)),
            ("sigma_b2 = -3100 dBm", ("sigma_b2",)),
            ("lambda_ab = 1e-310", ("lambda_ab",)),
            ("sigma_w2 = 1e-318", ("sigma_w2",)),
            ("lambda_ab = 1e-318", ("lambda_ab",)),
            ("sigma_w2 = 1e-306\nepsilon = 1e-9", ("sigma_w2", "epsilon")),
        ],
    )
    def test_subnormal_scale_is_refused(self, tmp_path, capsys, text, keys):
        config = tmp_path / "run.ini"
        config.write_text(f"[system]\n{text}\n")
        out = tmp_path / "design.csv"
        assert main(["design", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert all(key in captured.err for key in keys)
        assert captured.out == ""
        assert not out.exists()

    def test_smallest_accepted_power_keeps_the_covert_margin(self, tmp_path):
        # rho* = 2.5e-300 is a normal double, so it rounds by half an ulp at most
        config = tmp_path / "run.ini"
        config.write_text("[system]\nsigma_w2 = 1e-290\nepsilon = 1e-9\n")
        out = tmp_path / "design.csv"
        assert main(["design", "--config", str(config), "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        rho_star = column(header, rows, "rho_star")[0]
        snr = float(Fraction(rho_star) / Fraction(1e-290))
        assert covert_margin(100, snr)[0] <= 1e-9 * (1.0 + 1e-15)

    def test_sweep_refuses_a_non_finite_sinr(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[system]\nlambda_ab = 1e154\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: effective SINR is not finite at rho = ")
        assert "rho_min = 0.001 to rho_max = 1.0, lambda_ab = 1e+154 and sigma_b2 = 1.0" in err
        assert not out.exists()
        # a scale at which every row's SNRs have room keeps these bytes
        config.write_text("[system]\nlambda_ab = 1e150\n")
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "f817720220f16de575b502a3ef1b34b6c5787b2d6b2462f6b4700c48eaddeaec"
        )

    @pytest.mark.parametrize(
        "command,config_text,keys,values",
        [
            # a subnormal warden SNR, where tau* overflowed and the kernel
            # refused x = inf without naming a key
            ("sweep", "[sweep]\nrho_min = 1e-320\nrho_max = 1e-310\n",
             "config keys 'rho_min'/'rho_max'", "rho = 1e-320 and sigma_w2 = 1.0"),
            ("verify", "[verify]\nrho = 1e-320\n",
             "config key 'rho'", "rho = 1e-320 and sigma_w2 = 1.0"),
            # a normal warden SNR with sigma_w2^2 / rho past the double range
            ("sweep", "[system]\nsigma_w2 = 1e300\n",
             "config keys 'rho_min'/'rho_max'", "rho = 0.001 and sigma_w2 = 1e+300"),
            ("verify", "[system]\nsigma_w2 = 10\n[verify]\nrho = 2.3e-307\n",
             "config key 'rho'", "rho = 2.3e-307 and sigma_w2 = 10.0"),
        ],
        ids=["sweep-subnormal", "verify-subnormal", "sweep-overflow", "verify-overflow"],
    )
    def test_out_of_range_warden_snr_names_rho(
        self, tmp_path, capsys, command, config_text, keys, values
    ):
        config = tmp_path / "run.ini"
        config.write_text(config_text)
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {keys}: min_detection_error needs a normal rho / sigma_w2 "
            f"and a finite optimal threshold, got {values}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["design", "fig2", "fig3"])
    @pytest.mark.parametrize(
        "system,where,keys",
        [
            # rho* = s* sigma_w2 ~ 2.5e298 overflows the product of Bob's SNRs
            ("sigma_w2 = 1e300", "n_p = ", "sigma_w2 = 1e+300, lambda_ab = 1.0 and sigma_b2 = 1.0"),
            # rho* g ~ 5e317 overflows Bob's SNR itself
            ("sigma_w2 = 1e20\nlambda_ab = 1e300", "rho = ",
             "sigma_w2 = 1e+20, lambda_ab = 1e+300 and sigma_b2 = 1.0"),
        ],
        ids=["snr-product", "snr"],
    )
    def test_out_of_range_covert_power_names_sigma_w2(
        self, tmp_path, capsys, command, system, where, keys
    ):
        config = tmp_path / "run.ini"
        config.write_text(f"[system]\n{system}\n")
        assert main([command, "--config", str(config)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: effective SINR is not finite at {where}")
        assert keys in captured.err
        assert captured.out == ""


class TestNoiseUnits:
    """lambda_ab and sigma_b2 reach every link formula only as lambda_ab / sigma_b2."""

    def run_all(self, tmp_path, system):
        """Exit code and CSV cells of each closed-form command and verify,
        without the two scale columns and the config hash."""
        config = tmp_path / "run.ini"
        config.write_text(f"[system]\n{system}\n[verify]\ntrials = 2000\n")
        runs = {}
        for command in ("design", "fig2", "fig3", "sweep", "verify"):
            out = tmp_path / f"{command}.csv"
            code = main([command, "--config", str(config), "--out", str(out)])
            header, rows = read_csv(out)
            keep = [i for i, name in enumerate(header)
                    if name not in ("lambda_ab", "sigma_b2", "config_hash")]
            runs[command] = (code, [[row[i] for i in keep] for row in rows])
        return runs

    def test_co_scaled_link_gives_the_unit_bytes(self, tmp_path, capsys):
        # (c lambda_ab, c sigma_b2) keeps the gain at 1.0 exactly, so every
        # cell keeps its bytes; a form that multiplied the scales moved
        # cells by ulps at every c != 1 here, and failed from 1e-175 and 1e175
        unit = self.run_all(tmp_path, "")
        assert unit["verify"][0] == EXIT_OK
        for exponent in range(-300, 301, 25):
            scale = f"1e{exponent}"
            runs = self.run_all(tmp_path, f"lambda_ab = {scale}\nsigma_b2 = {scale}")
            assert runs == unit, scale
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("scale", ["1e-161", "1e-162", "1e200"])
    def test_co_scaled_extremes_design_as_the_default(self, tmp_path, capsys, scale):
        # the old form printed np* = 34 at 1e-161, raised ZeroDivisionError
        # at 1e-162 and refused 1e200
        config = tmp_path / "run.ini"
        config.write_text(f"[system]\nlambda_ab = {scale}\nsigma_b2 = {scale}\n")
        out = tmp_path / "design.csv"
        assert main(["design", "--config", str(config), "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert column(header, rows, "np_star", int) == [35]
        assert column(header, rows, "gamma_eff_star") == [0.0077000966168839554]
        assert capsys.readouterr().err == ""


# SHA-256 of each command's CSV on the default and the README configs, and
# of design's printed summary; a stated CSV change updates these digests
GOLDEN = {
    ("default", "design"): "26f1079e0d1c38de30b7319cdb97706a691918729cc050d3f264be377a490288",
    ("default", "design stdout"): "693b5305895d900c1fba5983255e5abb9727d993f2e2d976359cbe43debde6cc",
    ("default", "fig1"): "28c3814c7ab63b1449acd86517173c59e46b8583e7a7b535a2ec0f7e0fcb8829",
    ("default", "fig2"): "3b3517da64782c9420e18d4f919043452dd8e42cd292514c94be244c314489c0",
    ("default", "fig3"): "aa914232d041900e6d3fcd02ef6be066460a8ebe6d32138f138116bb439d2c9c",
    ("default", "sweep"): "46a65778406405ab055b782f4ecc0b49b664804a4681ed0daa0d3f4aff1e7fa1",
    ("default", "verify"): "2c9dc08752282b255f7009a7b963432c9b1799c4df0af5119ce775ac3b62f5e6",
    ("readme", "design"): "9cb47b5153c8de97de58cbd1c0eb9bf6a091cb1b5dd81d511a06e3e6365e9f3b",
    ("readme", "design stdout"): "6cb8584e2de1aad7803c439f511b1b65b24cc28ebfa73d28748b8da898221ea2",
    ("readme", "fig1"): "707c317444497baede2108876c993bcb84c330ee225212ed1b24cd8b3bbf789d",
    ("readme", "fig2"): "ca80aab97fb23ba011e6ce8959aab96641c3186693c51bc1537cc17b2d02ae31",
    ("readme", "fig3"): "45507c2c6d7a2f09a926deaa9c5c1b37de314b5a14065c00779997d28001fda1",
    ("readme", "sweep"): "bd9e3cba0c873db1f7542c982a6423d6dd8aab76b54466ffe609e27e54ef1b1f",
    ("readme", "verify"): "29ed8556bf499bbecf59f7749f11339b83c7680fea8c4f7fa22154dc74445755",
}


def test_golden_bytes(tmp_path, capsys):
    config = tmp_path / "readme.ini"
    config.write_text(readme_ini())
    digests = {}
    for label, flags in (("default", []), ("readme", ["--config", str(config)])):
        for command in ("design", "fig1", "fig2", "fig3", "sweep", "verify"):
            out = tmp_path / f"{label}-{command}.csv"
            assert main([command, *flags, "--out", str(out)]) == EXIT_OK
            digests[label, command] = hashlib.sha256(out.read_bytes()).hexdigest()
            captured = capsys.readouterr()
            assert captured.err == ""
            if command == "design":
                stdout = captured.out.encode("utf-8")
                digests[label, "design stdout"] = hashlib.sha256(stdout).hexdigest()
            else:
                assert captured.out == ""
    assert digests == GOLDEN


def test_closed_form_commands_do_not_load_numpy(tmp_path):
    # nor the Monte Carlo module, nor what only it or the old integer check
    # loaded: the package and the closed-form commands import none of them
    config = tmp_path / "run.ini"
    config.write_text("[system]\nn = 40\n")
    script = (
        "import sys\n"
        "unused = {'numpy', 'covertpilot.monte_carlo', 'numbers', '__future__'}\n"
        "import covertpilot\n"
        "print(sorted(unused & set(sys.modules)))\n"
        "import covertpilot.cli as cli\n"
        "for command in ('design', 'fig2', 'fig3', 'sweep'):\n"
        f"    flags = ['--config', {str(config)!r}, '--out', {str(tmp_path / 'out.csv')!r}]\n"
        "    assert cli.main([command, *flags]) == 0\n"
        "print(sorted(unused & set(sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(covertpilot.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[]")


def test_module_entry_point_returns_the_exit_code(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(covertpilot.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for args, code in ((["design"], EXIT_OK), (["verify", "--trials", "10"], EXIT_BUDGET)):
        result = subprocess.run(
            [sys.executable, "-m", "covertpilot", *args],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == code, result.stderr
        if code == EXIT_OK:
            assert result.stdout.startswith("covert design for n=100")


def test_design_loads_neither_dataclasses_nor_inspect(tmp_path):
    # the records are NamedTuples, so the CLI's import skips these two and
    # the ast, dis and tokenize modules that inspect pulls in
    script = (
        "import sys, covertpilot.cli as cli\n"
        f"assert cli.main(['design', '--out', {str(tmp_path / 'out.csv')!r}]) == 0\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(covertpilot.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


class TestFigureCommands:
    def test_fig1_columns_and_bound(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(
            "[fig1]\nnp_values = 20\neta_grid = 0.2:0.8:0.2\ntrials = 2000\n"
        )
        out = tmp_path / "fig1.csv"
        assert main(["fig1", "--config", str(config), "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert header[:5] == ["eta", "n_p", "xi_lrt", "xi_lrt_stderr", "kl_bound"]
        assert len(rows) == 4
        for xi, se, bound in zip(
            column(header, rows, "xi_lrt"),
            column(header, rows, "xi_lrt_stderr"),
            column(header, rows, "kl_bound"),
        ):
            assert bound <= xi + 3.0 * se

    def test_fig1_duplicate_pilot_counts_read_the_same_draws(self, tmp_path):
        # one pass for every row: a pilot count given twice reads the same
        # segments, while another seed draws other slots
        config = tmp_path / "run.ini"
        config.write_text("[fig1]\nnp_values = 20, 50, 20\neta_grid = 0.3, 0.6\ntrials = 2000\n")
        outputs = {}
        for seed, run in ((5, "a"), (6, "a"), (5, "b")):
            out = tmp_path / f"fig1-{seed}-{run}.csv"
            flags = ["--config", str(config), "--seed", str(seed), "--out", str(out)]
            assert main(["fig1", *flags]) == EXIT_OK
            outputs[seed, run] = out.read_bytes()
        assert outputs[5, "a"] == outputs[5, "b"]
        header, rows_5 = read_csv(tmp_path / "fig1-5-a.csv")
        _, rows_6 = read_csv(tmp_path / "fig1-6-a.csv")
        assert column(header, rows_5, "n_p", int) == [20, 20, 50, 50, 20, 20]
        assert rows_5[:2] == rows_5[4:]
        assert column(header, rows_5, "xi_lrt") != column(header, rows_6, "xi_lrt")

    def test_fig1_checks_every_allocation_before_the_first_pass(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(monte_carlo, "simulate_warden", lambda *args: calls.append(args))
        config = tmp_path / "run.ini"
        config.write_text("[fig1]\nnp_values = 20, 0\n")
        out = tmp_path / "fig1.csv"
        assert main(["fig1", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        assert calls == []
        assert capsys.readouterr().err == (
            "config error: config key 'np_values': n_p must lie in [1, n-1], got 0 for n=100\n"
        )
        assert not out.exists()

    def test_fig1_distinct_pilot_count_cap(self, tmp_path, capsys, monkeypatch):
        # each distinct count holds 256 KiB for the whole pass; a repeated
        # entry reads the same segments and costs nothing
        config = tmp_path / "run.ini"
        out = tmp_path / "fig1.csv"
        at_cap = ", ".join(str(n_p) for n_p in [*range(1, 65), 64])
        config.write_text(f"[fig1]\nnp_values = {at_cap}\neta_grid = 0.5\ntrials = 1000\n")
        assert main(["fig1", "--config", str(config), "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert column(header, rows, "n_p", int) == [*range(1, 65), 64]
        calls = []
        monkeypatch.setattr(monte_carlo, "simulate_warden", lambda *args: calls.append(args))
        over_cap = ", ".join(str(n_p) for n_p in range(1, 66))
        config.write_text(f"[fig1]\nnp_values = {over_cap}\n")
        out.unlink()
        assert main(["fig1", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        assert calls == []
        assert capsys.readouterr().err == (
            "config error: config key 'np_values': 65 distinct pilot counts, more than 64\n"
        )
        assert not out.exists()

    def test_fig2_marker_is_column_argmax(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[system]\nn = 40\n[fig2]\nepsilon_values = 0.1\n")
        out = tmp_path / "fig2.csv"
        assert main(["fig2", "--config", str(config), "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        gammas = column(header, rows, "gamma_eff")
        markers = column(header, rows, "analytic_optimum", int)
        assert sum(markers) == 1
        assert markers[int(np.argmax(gammas))] == 1

    def test_fig3_monotone_in_epsilon(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[fig3]\nepsilon_grid = 0.05:0.25:0.05\nn_values = 50\n")
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--config", str(config), "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        counts = column(header, rows, "np_star", int)
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_rows_carry_constant_config_hash(self, tmp_path):
        out = tmp_path / "fig3.csv"
        config = tmp_path / "run.ini"
        config.write_text("[fig3]\nepsilon_grid = 0.1:0.2:0.1\nn_values = 30\n")
        assert main(["fig3", "--config", str(config), "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        hashes = column(header, rows, "config_hash", str)
        assert len(set(hashes)) == 1


class TestVerifyCommand:
    def test_passes_and_is_deterministic(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[verify]\ntrials = 20000\n")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["verify", "--config", str(config), "--out", str(out_a), "--seed", "7"]) == EXIT_OK
        assert main(["verify", "--config", str(config), "--out", str(out_b), "--seed", "7"]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_different_seed_changes_output(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["verify", "--trials", "20000", "--out", str(out_a), "--seed", "1"]) == EXIT_OK
        assert main(["verify", "--trials", "20000", "--out", str(out_b), "--seed", "2"]) == EXIT_OK
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_low_snr_lrt_agrees_with_radiometer(self, tmp_path):
        # the LRT weight 1/sigma_w2 - 1/(rho + sigma_w2) cancels to ~1e-4
        # relative here when formed as that difference
        config = tmp_path / "run.ini"
        config.write_text("[verify]\nrho = 1e-12\ntrials = 20000\n")
        out = tmp_path / "verify.csv"
        assert main(["verify", "--config", str(config), "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        checks = dict(zip(column(header, rows, "check", str), column(header, rows, "simulated")))
        assert checks["lrt_vs_radiometer_disagreements"] == 0.0

    def test_each_stream_chunk_is_opened_once(self, tmp_path, monkeypatch):
        opened = []
        stream = monte_carlo._stream

        def counted(seed, domain, chunk):
            opened.append((domain, chunk))
            return stream(seed, domain, chunk)

        monkeypatch.setattr(monte_carlo, "_stream", counted)
        trials = 2 * monte_carlo.CHUNK_TRIALS + 1000
        out = tmp_path / "verify.csv"
        # once per run: a second run in the same process draws afresh
        for _ in range(2):
            opened.clear()
            assert main(["verify", "--trials", str(trials), "--out", str(out)]) == EXIT_OK
            chunks = [0, 1, 2]
            assert [c for d, c in opened if d == monte_carlo._DOMAIN_WILLIE] == chunks
            assert [c for d, c in opened if d == monte_carlo._DOMAIN_BOB] == chunks

    def test_zero_std_err_is_floored_at_one_trial(self, tmp_path):
        # the radiometer never errs at this SNR, so every warden count is 0
        config = tmp_path / "run.ini"
        config.write_text("[system]\nn = 2000\n[verify]\nrho = 1.0\ntrials = 2000\n")
        out = tmp_path / "verify.csv"
        assert main(["verify", "--config", str(config), "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        named = dict(zip(column(header, rows, "check", str), rows))
        for check in ("radiometer_alpha", "radiometer_beta", "radiometer_xi"):
            row = dict(zip(header, named[check]))
            assert float(row["simulated"]) == 0.0
            assert float(row["std_err"]) == 1.0 / 2000

    @pytest.mark.parametrize(
        "system",
        ["lambda_ab = 1e200\nsigma_b2 = 1e-106", "lambda_ab = 1e-170"],
        ids=["overflow", "underflow"],
    )
    def test_orthogonality_rows_without_a_finite_std_err_fail(self, tmp_path, capsys, system):
        # at lambda_ab / sigma_b2 = 1e306 the moment sums, in units of Bob's
        # noise, overflow and the standard errors are NaN; at lambda_ab =
        # 1e-170 the estimate's variance underflows to 0, so no correlation
        # can be formed, and verify still writes every row, with nothing on
        # stderr
        config = tmp_path / "run.ini"
        config.write_text(f"[system]\n{system}\n[verify]\ntrials = 2000\n")
        out = tmp_path / "verify.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["verify", "--config", str(config), "--out", str(out)])
        assert code == EXIT_CHECK_FAILED
        assert [str(warning.message) for warning in caught] == []
        assert capsys.readouterr().err == ""
        header, rows = read_csv(out)
        named = dict(zip(column(header, rows, "check", str), rows))
        assert len(named) == 7
        for check in ("bob_orthogonality_re", "bob_orthogonality_im"):
            row = dict(zip(header, named[check]))
            assert (row["std_err"], row["passed"]) == ("nan", "0"), check

    @pytest.mark.parametrize("lambda_ab", ["1e-120", "1e-160"])
    def test_orthogonality_rows_with_a_zero_std_err_fail(self, tmp_path, lambda_ab):
        # the variances' product would underflow here, but each variance
        # does not, so the correlations are formed; their squares underflow,
        # so the standard errors are 0 and a nonzero value cannot pass
        config = tmp_path / "run.ini"
        config.write_text(f"[system]\nlambda_ab = {lambda_ab}\n[verify]\ntrials = 2000\n")
        out = tmp_path / "verify.csv"
        assert main(["verify", "--config", str(config), "--out", str(out)]) == EXIT_CHECK_FAILED
        header, rows = read_csv(out)
        named = dict(zip(column(header, rows, "check", str), rows))
        for check in ("bob_orthogonality_re", "bob_orthogonality_im"):
            row = dict(zip(header, named[check]))
            assert 0.0 < abs(float(row["simulated"])) < 1.0, check
            assert (row["std_err"], row["z_score"], row["passed"]) in (
                ("0", "inf", "0"), ("0", "-inf", "0")), check

    def test_bob_sinr_fails_where_the_closed_form_underflows(self, tmp_path):
        # Bob's SINR here is below the smallest double, so the estimate and
        # the closed form both read 0; a row that checked nothing fails
        config = tmp_path / "run.ini"
        config.write_text("[system]\nlambda_ab = 1e-165\n[verify]\ntrials = 2000\n")
        out = tmp_path / "verify.csv"
        assert main(["verify", "--config", str(config), "--out", str(out)]) == EXIT_CHECK_FAILED
        header, rows = read_csv(out)
        row = dict(zip(header, dict(zip(column(header, rows, "check", str), rows))["bob_sinr"]))
        assert (row["simulated"], row["analytic"], row["std_err"]) == ("0", "0", "0")
        assert (row["z_score"], row["passed"]) == ("0", "0")

    @pytest.mark.parametrize("lambda_ab", ["1e60", "1e150"])
    def test_bob_rows_pass_at_a_huge_pilot_snr(self, tmp_path, lambda_ab):
        # the estimation error is formed without subtracting two numbers
        # of size sqrt(lambda_ab), so it keeps its digits here
        config = tmp_path / "run.ini"
        config.write_text(f"[system]\nlambda_ab = {lambda_ab}\n[verify]\ntrials = 20000\n")
        out = tmp_path / "verify.csv"
        assert main(["verify", "--config", str(config), "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert len(rows) == 7
        assert column(header, rows, "passed", int) == [1] * 7

    def test_low_snr_bob_sinr_keeps_its_own_std_err(self, tmp_path, monkeypatch):
        # Bob's SINR here is ~5e-20 and its standard error far below one
        # trial in T, so flooring this row at 1/T would pass any estimate
        config = tmp_path / "run.ini"
        config.write_text("[system]\nsigma_b2 = 1e9\n[verify]\ntrials = 20000\n")
        out = tmp_path / "verify.csv"
        assert main(["verify", "--config", str(config), "--out", str(out)]) == EXIT_OK
        simulate_bob_sinr = cli.simulate_bob_sinr
        seen = []

        def off_by_ten_std_errs(*args):
            estimate = simulate_bob_sinr(*args)
            seen.append(estimate)
            return estimate._replace(value=estimate.value + 10.0 * estimate.std_err)

        monkeypatch.setattr(cli, "simulate_bob_sinr", off_by_ten_std_errs)
        assert main(["verify", "--config", str(config), "--out", str(out)]) == EXIT_CHECK_FAILED
        assert 0.0 < seen[0].std_err < 1e-3 / 20000
        header, rows = read_csv(out)
        row = dict(zip(header, dict(zip(column(header, rows, "check", str), rows))["bob_sinr"]))
        assert row["passed"] == "0"
        assert float(row["std_err"]) == seen[0].std_err

    def test_zero_bob_std_err_fails_a_wrong_estimate(self, tmp_path, monkeypatch):
        simulate_bob_sinr = cli.simulate_bob_sinr

        def off_with_zero_std_err(*args):
            estimate = simulate_bob_sinr(*args)
            return estimate._replace(value=2.0 * estimate.value, std_err=0.0)

        monkeypatch.setattr(cli, "simulate_bob_sinr", off_with_zero_std_err)
        out = tmp_path / "verify.csv"
        assert main(["verify", "--trials", "20000", "--out", str(out)]) == EXIT_CHECK_FAILED
        header, rows = read_csv(out)
        row = dict(zip(header, dict(zip(column(header, rows, "check", str), rows))["bob_sinr"]))
        assert (float(row["z_score"]), row["passed"]) == (float("inf"), "0")

    def test_zero_std_err_cannot_pass_a_wrong_estimate(self, tmp_path, monkeypatch):
        simulate_willie = cli.simulate_willie

        def off_with_zero_std_err(*args):
            rates = simulate_willie(*args)
            alpha = McEstimate(rates.alpha.value + 0.01, 0.0, rates.alpha.trials)
            return rates._replace(alpha=alpha)

        monkeypatch.setattr(cli, "simulate_willie", off_with_zero_std_err)
        out = tmp_path / "verify.csv"
        assert main(["verify", "--trials", "20000", "--out", str(out)]) == EXIT_CHECK_FAILED
        header, rows = read_csv(out)
        assert dict(zip(column(header, rows, "check", str),
                        column(header, rows, "passed", int)))["radiometer_alpha"] == 0
