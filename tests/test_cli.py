"""Command-line interface: subcommands, exit codes, and output schemas."""

import json
import math

import numpy as np
import pytest

from plstab import GridFunctionND, read_function, write_function
from plstab.cli import main
from plstab.synth import gaussian, indicator


def square(n, step=0.05):
    return GridFunctionND((0.0, 0.0), (step, step), np.ones((n, n)))


def write_pair(tmp_path, f, g):
    pf, pg = tmp_path / "f.json", tmp_path / "g.json"
    write_function(f, pf)
    write_function(g, pg)
    return str(pf), str(pg)


# -- deficit ---------------------------------------------------------------------


def test_deficit_canonical_boxes(tmp_path, capsys):
    pf, pg = write_pair(
        tmp_path, indicator(0.0, 1.0, 1.0, 1e-3), indicator(0.0, 2.0, 1.0, 1e-3)
    )
    assert main(["deficit", pf, pg, "--lam", "0.5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["epsilon"] == pytest.approx(1.5 / math.sqrt(2.0) - 1.0, abs=5e-3)
    assert rep["a"] == pytest.approx(2.0, rel=1e-6)


def test_deficit_explicit_h(tmp_path, capsys):
    f = indicator(0.0, 1.0, 1.0, 1e-3)
    pf, pg = write_pair(tmp_path, f, f)
    ph = tmp_path / "h.json"
    write_function(f, ph)
    assert main(["deficit", pf, pg, "--h", str(ph), "--lam", "0.25"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["epsilon"] == pytest.approx(0.0, abs=1e-12)


def test_deficit_missing_file_exit_3(tmp_path, capsys):
    pf, _ = write_pair(
        tmp_path, indicator(0.0, 1.0, 1.0, 0.01), indicator(0.0, 1.0, 1.0, 0.01)
    )
    assert main(["deficit", pf, str(tmp_path / "nope.json"), "--lam", "0.5"]) == 3
    assert "error:" in capsys.readouterr().err


def test_deficit_bad_lambda_exit_2(tmp_path, capsys):
    pf, pg = write_pair(
        tmp_path, indicator(0.0, 1.0, 1.0, 0.01), indicator(0.0, 1.0, 1.0, 0.01)
    )
    assert main(["deficit", pf, pg, "--lam", "1.5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_deficit_malformed_json_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    pf, _ = write_pair(
        tmp_path, indicator(0.0, 1.0, 1.0, 0.01), indicator(0.0, 1.0, 1.0, 0.01)
    )
    assert main(["deficit", pf, str(bad), "--lam", "0.5"]) == 3
    assert "error:" in capsys.readouterr().err


def test_deficit_reads_2d_files(tmp_path, capsys):
    # f = 1 on [0,1]^2, g = 1 on [0,2]^2 and h = 1 on [0,1.5]^2: eps = 1/8.
    pf, pg = write_pair(tmp_path, square(20), square(40))
    ph = tmp_path / "h.json"
    write_function(square(30), ph)
    assert main(["deficit", pf, pg, "--h", str(ph), "--lam", "0.5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["epsilon"] == pytest.approx(0.125, abs=1e-12)
    # The canonical h is the 2D halfgrid: 1 on 59 x 59 cells of step 0.025.
    assert main(["deficit", pf, pg, "--lam", "0.5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["epsilon"] == pytest.approx((59 * 0.025) ** 2 / 2.0 - 1.0, rel=1e-12)


# -- rearrange --------------------------------------------------------------------


def test_rearrange_two_bump_to_box(tmp_path, capsys):
    from plstab import GridFunction, l1_distance

    v = np.concatenate([np.ones(100), np.zeros(50), np.ones(100)])
    src = tmp_path / "f.json"
    write_function(GridFunction(0.0, 0.01, v), src)
    out = tmp_path / "out.json"
    assert main(["rearrange", str(src), "--out", str(out)]) == 0
    fs = read_function(out)
    ref = GridFunction(-1.0, 0.01, np.ones(200))
    assert l1_distance(fs, ref) <= 1e-12
    # stdout default
    assert main(["rearrange", str(src)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"origin", "step", "values"}


def test_rearrange_2d_file_exit_2(tmp_path, capsys):
    src = tmp_path / "f.json"
    write_function(square(4), src)
    assert main(["rearrange", str(src)]) == 2
    assert "one dimension, got 2" in capsys.readouterr().err


def test_rearrange_boolean_in_file_exit_3(tmp_path, capsys):
    src = tmp_path / "f.json"
    src.write_text(json.dumps({"origin": True, "step": 0.5, "values": [1, True, 2]}))
    assert main(["rearrange", str(src)]) == 3
    assert "origin" in capsys.readouterr().err


# -- reconstruct --------------------------------------------------------------------


def test_reconstruct_reports_nine_keys(tmp_path, capsys):
    f = gaussian(0.0, 1.0, 1.0, step=4e-3, window=(-3, 3))
    pf, pg = write_pair(tmp_path, f, f)
    report_path = tmp_path / "report.json"
    code = main(
        [
            "reconstruct",
            pf,
            pg,
            "--lam",
            "0.5",
            "--levels",
            "128",
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert sorted(rep.keys()) == [
        "a",
        "epsilon",
        "err_f",
        "err_g",
        "err_h",
        "hypothesis_satisfied",
        "log10_bound",
        "stage_flags",
        "w",
    ]
    assert json.loads(report_path.read_text()) == rep
    assert abs(rep["epsilon"]) <= 1e-3
    assert rep["err_f"] + rep["err_g"] + rep["err_h"] <= 0.2


def test_reconstruct_2d_files_exit_2(tmp_path, capsys):
    pf, pg = write_pair(tmp_path, square(4), square(6))
    for lam in ("0.5", "0.3"):
        assert main(["reconstruct", pf, pg, "--lam", lam]) == 2
        assert "one dimension, got 2" in capsys.readouterr().err


@pytest.mark.parametrize("levels", ["5000", "1"])
def test_reconstruct_level_count_out_of_range_exit_2(tmp_path, capsys, monkeypatch, levels):
    f = gaussian(0.0, 1.0, 1.0, step=4e-3, window=(-3, 3))
    pf, pg = write_pair(tmp_path, f, f)

    def no_stage_runs(*args, **kwargs):
        raise AssertionError("the level count is checked before any stage runs")

    monkeypatch.setattr("plstab.cli.sup_convolution", no_stage_runs)
    assert main(["reconstruct", pf, pg, "--lam", "0.5", "--levels", levels]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: level_count must be an integer in 2..4096, got " + levels)


# -- example families ---------------------------------------------------------------


def test_example1_csv_schema(tmp_path, capsys):
    out = tmp_path / "ex1.csv"
    code = main(["example1", "--etas", "0.05,0.1", "--step", "0.004", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema: plstab/example1/v1"
    assert lines[1] == "eta,epsilon,d,g_log_concave,skipped"
    assert len(lines) == 4
    for line in lines[2:]:
        eta, eps, d, lc, skipped = line.split(",")
        assert skipped == "0" and lc == "1"
        assert float(eps) > 0 and float(d) > 0
    summary = json.loads(capsys.readouterr().err)
    assert 0.3 <= summary["slope_logd_vs_logeps"] <= 0.7


def test_example1_rejects_bad_eta():
    assert main(["example1", "--etas", "0.5"]) == 2


@pytest.mark.parametrize("command", ["example1", "example2"])
@pytest.mark.parametrize("step", ["0", "nan"])
def test_examples_reject_bad_step_exit_2(capsys, command, step):
    assert main([command, "--step", step]) == 2
    assert "step must be positive and finite" in capsys.readouterr().err


def test_example1_rejects_a_step_too_small_for_its_window_exit_2(capsys):
    assert main(["example1", "--step", "5e-324"]) == 2
    assert "2**52" in capsys.readouterr().err


def test_example2_closed_form(tmp_path):
    out = tmp_path / "ex2.csv"
    assert main(["example2", "--A", "3,5", "--step", "0.002", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema: plstab/example2/v1"
    header = lines[1].split(",")
    assert header == [
        "A",
        "epsilon",
        "epsilon_closed_form",
        "hull_gap",
        "hull_gap_over_int_f",
        "h_matches_closed_form",
    ]
    assert len(lines) == 4
    for line in lines[2:]:
        rec = dict(zip(header, line.split(",")))
        assert rec["h_matches_closed_form"] == "1"
        assert float(rec["epsilon"]) == pytest.approx(
            float(rec["epsilon_closed_form"]), abs=0.02
        )
        assert float(rec["hull_gap_over_int_f"]) >= 0.4


# -- sweep -----------------------------------------------------------------------


def sweep_config(tmp_path, **overrides):
    payload = {
        "amplitudes": [0.0, 0.1],
        "n_seeds": 2,
        "seed": 7,
        "step": 0.004,
        "level_count": 128,
    }
    payload.update(overrides)
    p = tmp_path / "sweep.json"
    p.write_text(json.dumps(payload))
    return str(p)


def test_sweep_runs_and_is_deterministic(tmp_path):
    cfg = sweep_config(tmp_path)
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "# schema: plstab/sweep/v1"
    assert lines[1] == "seed,amplitude,epsilon,err_f,err_g,err_h,w,failed"
    assert len(lines) == 2 + 4
    for line in lines[2:]:
        rec = line.split(",")
        assert rec[-1] == "0"


def test_sweep_config_errors(tmp_path):
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"n_seeds": 2}))
    assert main(["sweep", "--config", str(missing)]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("[[[")
    assert main(["sweep", "--config", str(bad)]) == 3
    assert main(["sweep", "--config", str(tmp_path / "absent.json")]) == 3


@pytest.mark.parametrize(
    "key, value",
    [
        ("step", 0),
        ("window", [4, -4]),
        ("step", 5e-324),
        ("lam", 1.5),
        ("lam", 0.0),
        ("level_count", 1),
        ("level_count", 5000),
        ("n_seeds", -3),
        ("n_seeds", 0),
        ("seed", -5),
    ],
)
def test_sweep_config_bad_grid_exit_2(tmp_path, capsys, key, value):
    cfg = sweep_config(tmp_path, **{key: value})
    assert main(["sweep", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""  # no row was written


def test_sweep_config_level_count_4096_is_accepted():
    from plstab.cli import SweepConfig

    assert SweepConfig((0.1,), level_count=4096).level_count == 4096
    assert SweepConfig((0.1,), level_count=2).level_count == 2


def test_sweep_config_boolean_amplitude_exit_3(tmp_path, capsys):
    cfg = sweep_config(tmp_path, amplitudes=[True])
    assert main(["sweep", "--config", cfg]) == 3
    assert "amplitudes must be nonnegative numbers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("n_seeds", "x"),
        ("seed", [1]),
        ("lam", "half"),
        ("step", None),
        ("level_count", math.inf),
        ("window", ["a", 1.0]),
        ("n_seeds", True),
        ("lam", False),
        ("window", [True, 2.0]),
        ("n_seeds", "2"),
        ("lam", "0.5"),
        ("level_count", 64.9),
        ("seed", 1.5),
        ("window", ["-4", 4]),
    ],
)
def test_sweep_config_bad_value_exit_3(tmp_path, capsys, key, value):
    cfg = sweep_config(tmp_path, **{key: value})
    assert main(["sweep", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err


# -- constants ---------------------------------------------------------------------


def test_constants_table_csv(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert main(["constants", "--tau", "0.5,0.25,0.1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema: plstab/constants/v1"
    assert lines[1] == "tau,alpha_tau,log10_Q,log10_M,omega,hypothesis_representable"
    assert len(lines) == 5
    for line in lines[2:]:
        rec = line.split(",")
        assert rec[-1] == "0"  # never representable in floats
    # stdout mode
    assert main(["constants", "--tau", "0.5"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("# schema: plstab/constants/v1")


def test_constants_bad_tau_exit_2():
    assert main(["constants", "--tau", "0.9"]) == 2


def test_min_shift_l1_matches_per_shift_loop():
    from plstab import from_samples, l1_distance
    from plstab.cli import run_example1
    from plstab.synth import bump_profile

    # run_example1's family at a coarser step.
    step = 4e-3
    etas = (0.02, 0.1, 0.2)
    rows, _ = run_example1(etas, step=step)
    f = from_samples(lambda x: np.exp(-math.pi * x**2), -4.0, 4.0, step)
    for eta, row in zip(etas, rows):
        assert not row.skipped
        g = f.with_values(f.values * (1.0 + eta * bump_profile(f.centers())))
        # A per-shift loop over |w| <= 1, one shifted copy per shift: the
        # minimum lies well inside that range, so align's wider window
        # finds the same d.
        s_max = int(round(1.0 / step))
        shifts = np.arange(-s_max, s_max + 1)
        stride = max(1, shifts.size // 256)
        coarse = shifts[::stride]
        vals = [l1_distance(g, f.shift(int(s) * step)) for s in coarse]
        best = int(coarse[int(np.argmin(vals))])
        fine = np.arange(best - stride, best + stride + 1)
        d = min(l1_distance(g, f.shift(int(s) * step)) for s in fine)
        assert row.d == pytest.approx(d, rel=1e-12)
