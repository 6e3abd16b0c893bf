import json
import math

import numpy as np
import pytest

from b92sec import __version__
from b92sec.attacks import full_info_region
from b92sec.cli import (
    EXIT_DOMAIN,
    EXIT_INFEASIBLE,
    EXIT_MISMATCH,
    EXIT_OK,
    SCHEMAS,
    _grid,
    _oracle_sample,
    build_parser,
    main,
)
from b92sec.estimation import ChannelTriple
from b92sec.evebound import collision_gain, eve_bound, shannon_gain
from b92sec.keyrate import (
    KTH_LINK,
    MODES,
    PhysicalLink,
    distance_sweep,
    key_gains,
    optimal_angle,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# each subcommand with its required arguments; the simulate config does not
# exist, so the schema must print before the command runs
SCHEMA_ARGS = {
    "infogain": ("--alpha", "1", "--eps-grid", "0:0:1"),
    "region": ("--alpha-grid", "1:2:2", "--eps-grid", "0:0:1"),
    "keygain": ("--alpha", "1", "--eps-grid", "0:0:1"),
    "optangle": ("--eps-grid", "0:0:1"),
    "distance": (),
    "simulate": ("--config", "no-such-config.cfg"),
    "oracle-check": (),
}


@pytest.mark.parametrize("command", SCHEMA_ARGS)
def test_schema_flag(capsys, command):
    code, out, err = run(capsys, command, "--schema", *SCHEMA_ARGS[command])
    assert code == EXIT_OK and err == ""
    assert out == f"{command} v{__version__}: {SCHEMAS[command]}\n"


class TestInfogain:
    def test_basic_run(self, capsys):
        code, out, _ = run(capsys, "infogain", "--alpha", "40", "--T", "0.8",
                           "--eps-grid", "0:0.2:5")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "eps,q_min,i_gc,i_gc_shannon,i_s_upper"
        assert len(lines) == 6
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[2] == pytest.approx(0.1977069552, abs=1e-9)

    def test_single_point_noiseless(self, capsys):
        code, out, _ = run(capsys, "infogain", "--alpha", "30",
                           "--eps-grid", "0:0:1")
        assert code == EXIT_OK
        row = [float(x) for x in out.strip().splitlines()[1].split(",")]
        assert row[1] == pytest.approx(1.0)   # undisturbed: full overlap
        assert row[2] == pytest.approx(0.0)   # nothing leaks

    def test_domain_error_exit_code(self, capsys):
        for angles in (("--alpha", "120"), ("--alpha", "10", "--theta", "nan"),
                       ("--alpha", "10", "--theta", "inf"),
                       ("--alpha", "nan", "--alpha-prime", "10")):
            code, out, err = run(capsys, "infogain", *angles, "--eps-grid", "0:0.1:3")
            assert code == EXIT_DOMAIN, angles
            assert out == ""
            assert "error" in err

    def test_unreachable_exit_code(self, capsys):
        # tiny angle, deep loss, almost no noise: inconsistent inputs
        code, _, err = run(capsys, "infogain", "--alpha", "2", "--theta", "30",
                           "--T", "0.2", "--eps-grid", "0.01:0.01:1")
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in err


class TestRegion:
    def test_matrix_values(self, capsys):
        code, out, _ = run(capsys, "region", "--alpha-grid", "10:10:1",
                           "--eps-grid", "0.0603:0.0603:1", "--T", "1.0")
        assert code == EXIT_OK
        row = out.strip().splitlines()[1].split(",")
        assert row[2] == "1"  # rotation-attack point is inside


class TestKeygainCommands:
    def test_keygain_columns(self, capsys):
        code, out, _ = run(capsys, "keygain", "--alpha", "12", "--T", "0.3",
                           "--eps-grid", "0:0.01:3", "--mode", "shannon")
        assert code == EXIT_OK
        header = out.strip().splitlines()[0]
        assert header == "eps,p_conc,e,i_gc,i_gf,g_correct,g_flipped,g,g_clipped"
        for line in out.strip().splitlines()[1:]:
            row = [float(x) for x in line.split(",")]
            assert row[-1] == max(row[-2], 0.0)

    @pytest.mark.parametrize("transmission", ("-0.5", "nan", "1.5"))
    def test_keygain_rejects_transmission_outside_unit_interval(self, capsys, transmission):
        code, out, err = run(capsys, "keygain", "--alpha", "12", "--T", transmission,
                             "--eps-grid", "0:0.1:3")
        assert code == EXIT_DOMAIN and out == ""
        assert err == f"error: transmission outside [0, 1]: {float(transmission)}\n"

    def test_optangle_at_zero_noise(self, capsys):
        code, out, _ = run(capsys, "optangle", "--T", "0.8",
                           "--eps-grid", "0:0:1")
        assert code == EXIT_OK
        row = [float(x) for x in out.strip().splitlines()[1].split(",")]
        assert row[1] == pytest.approx(52.1, abs=0.2)

    def test_optangle_searches_the_grid_in_one_batch(self, capsys, gain_calls):
        # the per-row loop the batched search replaced is the reference
        lines = [SCHEMAS["optangle"]]
        for eps in np.linspace(0.0, 0.04, 41):
            alpha_star, gain_star = optimal_angle(ChannelTriple(0.0, float(eps), 0.8))
            lines.append(f"{float(eps)},{math.degrees(alpha_star)},{gain_star}")
        gain_calls.clear()
        code, out, _ = run(capsys, "optangle", "--T", "0.8", "--eps-grid", "0:0.04:41")
        assert code == EXIT_OK
        assert out == "\n".join(lines) + "\n"
        assert len(gain_calls) <= 4

    @pytest.mark.parametrize("args", (("--T", "1.5", "--eps-grid", "0:0.04:5"),
                                      ("--T", "-0.5", "--eps-grid", "0:0.04:5"),
                                      ("--T", "0.8", "--eps-grid", "0:1.5:4")))
    def test_optangle_rejects_rows_outside_the_domain(self, capsys, args):
        code, out, err = run(capsys, "optangle", *args)
        assert code == EXIT_DOMAIN and out == "" and err.startswith("error:")

    def test_distance_preset(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "distance", "--preset", "kth",
                           "--alpha", "11", "--l-grid", "0:10:3",
                           "--output", str(target))
        assert code == EXIT_OK
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "l_km,g_b92,g_bb84,log10_g_b92,log10_g_bb84"
        first = [float(x) for x in lines[1].split(",")]
        assert first[1] > 0.0 and first[2] > first[1]

    def test_distance_explicit_link_matches_preset(self, capsys):
        code, preset, _ = run(capsys, "distance", "--preset", "kth",
                              "--alpha", "11", "--l-grid", "0:10:3")
        code2, explicit, _ = run(capsys, "distance", "--channel-loss", "0.2",
                                 "--receiver-loss", "1.0", "--dark-mean",
                                 "2e-4", "--efficiency", "0.18",
                                 "--alpha", "11", "--l-grid", "0:10:3")
        assert code == code2 == EXIT_OK
        assert preset == explicit

    def test_csv_to_a_directory_is_domain_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "distance", "--output", str(tmp_path))
        assert code == EXIT_DOMAIN and out == ""
        assert err.startswith("error: ") and str(tmp_path) in err

    @pytest.mark.parametrize("args, message", (
        (("--l-grid=-1:1:3",), "error: length_km must be non-negative: -1.0\n"),
        (("--l-grid", "0:nan:2"), "error: length_km must be non-negative: nan\n"),
        (("--efficiency", "0", "--dark-mean", "0"), "error: link transmission is zero\n"),
        (("--channel-loss", "nan"), "error: channel_loss_db_km must be non-negative: nan\n")))
    def test_distance_rejects_bad_lengths_and_dead_links(self, capsys, args, message):
        code, out, err = run(capsys, "distance", *args)
        assert code == EXIT_DOMAIN and out == "" and err == message

    def test_bad_grid_syntax_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["optangle", "--T", "0.8", "--eps-grid", "0-0.1-5"])
        assert excinfo.value.code == 2


def test_options_do_not_leak_between_calls(capsys):
    # the parser is built once per process, and each call parses afresh
    assert build_parser() is build_parser()
    second = ("infogain", "--alpha", "20", "--T", "0.8", "--eps-grid", "0:0.2:3")
    _, alone, _ = run(capsys, *second)
    code, out, _ = run(capsys, "infogain", "--alpha", "20", "--alpha-prime", "25",
                       "--theta", "5", "--T", "0.8", "--eps-grid", "0:0.2:3")
    assert code == EXIT_OK and out != alone
    assert run(capsys, *second) == (EXIT_OK, alone, "")


class TestSimulate:
    @pytest.mark.parametrize("content", (None, b"n_total = 1000\xff\xfe\n"))
    def test_missing_or_undecodable_config_is_domain_error(self, capsys, tmp_path, content):
        cfg = tmp_path / "run.cfg"
        if content is not None:
            cfg.write_bytes(content)
        code, out, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == EXIT_DOMAIN and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ("--output", "--counts-csv"))
    def test_unwritable_output_is_domain_error(self, capsys, tmp_path, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_total = 20000\nalpha_deg = 12\n"
                       "attack = depolarize(epsilon=0.05)|loss(T=0.9)\nseed = 4\n")
        target = tmp_path / "no-such-dir" / "out"
        code, _, err = run(capsys, "simulate", "--config", str(cfg), flag, str(target))
        assert code == EXIT_DOMAIN
        assert err.startswith("error: ") and str(target) in err

    def test_unwritable_counts_csv_leaves_no_json_record(self, capsys, tmp_path):
        # the counts file is written first, so its failure comes before any JSON
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_total = 20000\nalpha_deg = 12\n"
                       "attack = depolarize(epsilon=0.05)|loss(T=0.9)\nseed = 4\n")
        counts = str(tmp_path / "no-such-dir" / "c.csv")
        code, out, err = run(capsys, "simulate", "--config", str(cfg), "--counts-csv", counts)
        assert code == EXIT_DOMAIN and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and counts in err
        record = tmp_path / "run.json"
        code, out, _ = run(capsys, "simulate", "--config", str(cfg), "--counts-csv", counts,
                           "--output", str(record))
        assert code == EXIT_DOMAIN and out == "" and not record.exists()

    def test_full_run_with_counts_export(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_total = 20000\nalpha_deg = 12\n"
                       "attack = depolarize(epsilon=0.05)|loss(T=0.9)\n"
                       "seed = 4\n")
        counts_path = tmp_path / "counts.csv"
        code, out, _ = run(capsys, "simulate", "--config", str(cfg),
                           "--counts-csv", str(counts_path))
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["counts"]["n_total"] == 20000
        assert 0.0 <= record["estimated"]["epsilon"] <= 1.0
        assert "key_gain" in record
        header = counts_path.read_text().splitlines()[0]
        assert header == "n00,n01,n0b0,n0b1,n10,n11,n1b0,n1b1,n_total"
        # the exported record round-trips through the estimator interface
        from b92sec.estimation import ObservedCounts, estimate_channel
        counts = ObservedCounts.from_csv(counts_path.read_text())
        est = estimate_channel(counts, math.radians(12), clamp_tol=1e-2)
        assert est.epsilon == pytest.approx(record["estimated"]["epsilon"])

    def test_missing_config_key_is_domain_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha_deg = 10\n")
        code, _, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == EXIT_DOMAIN

    @pytest.mark.parametrize("bad", ("seed = -1", "seed = 1.5",
                                     "n_total = lots", "alpha_deg = ten"))
    def test_bad_seed_or_value_is_domain_error(self, capsys, tmp_path, bad):
        entries = {"n_total": "1000", "alpha_deg": "12", "seed": "4"}
        key, value = (part.strip() for part in bad.split("="))
        entries[key] = value
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        code, out, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("error: ")


    @pytest.mark.parametrize("extra", ({"attack": "loss(transmision=0.5)"},
                                       {"attack": "weak-meas"},
                                       {"alpha_deg": "100", "alpha_prime_deg": "10"}))
    def test_bad_attack_or_angle_is_domain_error(self, capsys, tmp_path, extra):
        entries = {"n_total": "1000", "alpha_deg": "12", "seed": "4", **extra}
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        code, out, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("error: ")


class TestOracleCheck:
    def test_small_run_passes(self, capsys):
        code, out, err = run(capsys, "oracle-check", "--samples", "3", "--seed", "7")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "sample,alpha_deg,theta_deg,eps,T,analytic,oracle,diff"
        assert len(lines) == 4
        assert err.startswith("# worst_diff=") and " worst_gap=" in err

    def test_resolution_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["oracle-check", "--samples", "1", "--resolution", "24"])
        assert excinfo.value.code == 2  # argparse's usage error

    @pytest.mark.parametrize("samples", ("0", "-1"))
    def test_sample_count_below_one_is_domain_error(self, capsys, samples):
        code, out, err = run(capsys, "oracle-check", "--samples", samples)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("error: ")

    def test_negative_seed_is_domain_error(self, capsys):
        code, out, err = run(capsys, "oracle-check", "--samples", "2", "--seed", "-1")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err == "error: --seed must be non-negative: -1\n"

    def test_impossible_tolerance_exits_mismatch(self, capsys):
        code, _, _ = run(capsys, "oracle-check", "--samples", "2",
                         "--seed", "7", "--tol", "-1")
        assert code == EXIT_MISMATCH

    @pytest.mark.parametrize("tol", ("nan", "inf"))
    def test_non_finite_tolerance_is_domain_error(self, capsys, tol):
        code, out, err = run(capsys, "oracle-check", "--samples", "2", "--tol", tol)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("nan_at", (0, 2))
    def test_nan_difference_exits_mismatch(self, capsys, monkeypatch, nan_at):
        # wherever the NaN row sits, max() must not drop it
        import numpy as np

        from b92sec import cli
        from b92sec.oracle import OracleResult

        calls = []
        real = cli.oracle_min_overlap_lossy

        def oracle(*args):
            calls.append(None)
            if len(calls) - 1 == nan_at:
                return OracleResult(value=math.nan, point=np.zeros((2, 2)), gap=0.0)
            return real(*args)

        monkeypatch.setattr(cli, "oracle_min_overlap_lossy", oracle)
        code, _, err = run(capsys, "oracle-check", "--samples", "3", "--seed", "7")
        assert code == EXIT_MISMATCH
        assert "worst_diff=nan" in err


def assert_cells(out: str, header: str, rows) -> None:
    """Each CSV cell is exactly str() of the library's value for its row."""
    lines = out.split("\n")
    assert lines[0] == header and lines[-1] == ""
    rows = list(rows)
    assert len(lines) - 2 == len(rows)
    for line, row in zip(lines[1:-1], rows):
        assert line.split(",") == [str(v) for v in row], line


class TestExactCells:
    def test_infogain_tilted_with_another_analyzer(self, capsys):
        code, out, _ = run(capsys, "infogain", "--alpha", "20", "--alpha-prime", "25",
                           "--theta", "5", "--T", "0.8", "--eps-grid", "0.05:0.5:10")
        assert code == EXIT_OK
        eps = np.linspace(0.05, 0.5, 10).tolist()
        rows = []
        for e in eps:
            q = float(eve_bound(math.radians(25), math.radians(20), math.radians(5), e,
                                0.8).overlap_min)
            rows.append((e, q, float(collision_gain(q)), float(shannon_gain(q)), math.nan))
        assert_cells(out, SCHEMAS["infogain"], rows)
        assert out.count(",nan\n") == 10  # no Shannon ceiling off the symmetric channel

    @pytest.mark.parametrize("alpha_grid, eps_grid", (("10:30:3", "0:0.4:5"),
                                                      ("10:10:1", "0.0603:0.0603:1")))
    def test_region_rows_run_alpha_major(self, capsys, alpha_grid, eps_grid):
        code, out, _ = run(capsys, "region", "--alpha-grid", alpha_grid,
                           "--eps-grid", eps_grid, "--T", "1")
        assert code == EXIT_OK
        alpha, eps = _grid(alpha_grid).tolist(), _grid(eps_grid).tolist()
        region = full_info_region(np.radians(alpha), eps, 1.0)
        rows = [(alpha[k // len(eps)], eps[k % len(eps)],
                 int(region[k // len(eps), k % len(eps)]))
                for k in range(len(alpha) * len(eps))]
        assert_cells(out, SCHEMAS["region"], rows)
        assert {row[2] for row in rows} == ({0, 1} if len(rows) > 1 else {1})

    @pytest.mark.parametrize("mode", MODES)
    def test_keygain_clips_negative_gains(self, capsys, mode):
        code, out, _ = run(capsys, "keygain", "--alpha", "12", "--T", "0.3",
                           "--eps-grid", "0:0.1:11", "--mode", mode)
        assert code == EXIT_OK
        rows = []
        for e in np.linspace(0.0, 0.1, 11).tolist():
            g = key_gains(math.radians(12), 0.0, e, 0.3, mode)
            values = [float(v) for v in (g.p_conc, g.error_rate, g.info_correct,
                                         g.info_flipped, g.gain_correct, g.gain_flipped,
                                         g.gain)]
            rows.append((e, *values, max(values[-1], 0.0)))
        assert_cells(out, SCHEMAS["keygain"], rows)
        assert any(row[-2] < 0.0 for row in rows) and any(row[-2] > 0.0 for row in rows)

    def test_optangle(self, capsys):
        code, out, _ = run(capsys, "optangle", "--T", "0.8", "--eps-grid", "0:0.2:6")
        assert code == EXIT_OK
        rows = []
        for e in np.linspace(0.0, 0.2, 6).tolist():
            alpha, gain = optimal_angle(ChannelTriple(0.0, e, 0.8))
            rows.append((e, math.degrees(alpha), gain))
        assert_cells(out, SCHEMAS["optangle"], rows)
        assert rows[-1][1:] == (0.0, 0.0)  # no key at eps = 0.2

    @pytest.mark.parametrize("argv, link, alpha, lengths", (
        (("--preset", "kth", "--alpha", "11", "--l-grid", "0:60:7"),
         KTH_LINK, 11.0, np.linspace(0.0, 60.0, 7)),
        (("--alpha", "30", "--l-grid", "0:200:21"),
         PhysicalLink(0.2, 1.0, 2e-4, 0.18), 30.0, np.linspace(0.0, 200.0, 21))))
    def test_distance(self, capsys, argv, link, alpha, lengths):
        code, out, _ = run(capsys, "distance", *argv)
        assert code == EXIT_OK

        def log10_or_nan(x):
            return float(np.log10(x)) if x > 0.0 else math.nan

        sweep = distance_sweep(link, lengths, math.radians(alpha))
        rows = [(length, b92, bb84, log10_or_nan(b92), log10_or_nan(bb84))
                for length, b92, bb84 in zip(sweep.length_km.tolist(), sweep.gain_b92.tolist(),
                                             sweep.gain_bb84.tolist())]
        assert_cells(out, SCHEMAS["distance"], rows)
        assert ",nan," in out  # the B92 gain falls to or below zero on both links

    def test_oracle_check(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--samples", "3", "--seed", "7")
        assert code == EXIT_OK
        rngs = np.random.default_rng(7).spawn(3)
        rows = [_oracle_sample(k, r)[0] for k, r in enumerate(rngs)]
        assert_cells(out, SCHEMAS["oracle-check"], rows)


def test_entry_point_runs_as_module():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "b92sec.cli", "infogain", "--alpha", "30",
         "--eps-grid", "0:0:1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("eps,")
