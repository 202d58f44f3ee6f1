"""CLI behavior: configs, outputs, determinism, exit codes."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys

import golden
import numpy as np
import pytest

from ergodia.cli import main
from oracles import traced_peak

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
GOLDEN = golden.entries()


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def small_gamma_config():
    return {
        "system": {"name": "drift", "M": 200},
        "observable": {"name": "ex01"},
        "start_points": {"explicit": [7]},
        "gamma": {"k": 1.0},
        "seed": 0,
    }


def test_gamma_writes_csv_and_meta(tmp_path):
    cfg = write_config(tmp_path, small_gamma_config())
    out = tmp_path / "out"
    assert main(["gamma", "--config", cfg, "--out", str(out)]) == 0
    csv = (out / "gamma_ex01_y7.csv").read_text()
    lines = csv.splitlines()
    assert lines[0] == "n,n_over_M,mean"
    assert len(lines) == 201
    # y=7 is odd: A_1 = -M = -200
    assert lines[1] == "1,0.005,-200"
    meta = json.loads((out / "gamma_meta.json").read_text())
    assert meta["start_points"] == [7]
    assert meta["M"] == 200


def test_gamma_csv_uses_lf_and_dot_decimal(tmp_path):
    cfg = write_config(tmp_path, small_gamma_config())
    out = tmp_path / "out"
    main(["gamma", "--config", cfg, "--out", str(out)])
    raw = (out / "gamma_ex01_y7.csv").read_bytes()
    assert b"\r" not in raw
    assert b"," in raw and b";" not in raw


def test_gamma_determinism(tmp_path):
    cfg = write_config(tmp_path, small_gamma_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["gamma", "--config", cfg, "--out", str(out1)])
    main(["gamma", "--config", cfg, "--out", str(out2)])
    f = "gamma_ex01_y7.csv"
    assert (out1 / f).read_bytes() == (out2 / f).read_bytes()


def test_gamma_svg_no_timestamp_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, small_gamma_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["gamma", "--config", cfg, "--out", str(out1), "--svg", "--no-timestamp"])
    main(["gamma", "--config", cfg, "--out", str(out2), "--svg", "--no-timestamp"])
    f = "gamma_ex01_y7.svg"
    svg = (out1 / f).read_text()
    assert svg.startswith("<svg")
    assert "generated" not in svg
    assert (out1 / f).read_bytes() == (out2 / f).read_bytes()


def test_gamma_svg_timestamp_comment(tmp_path):
    cfg = write_config(tmp_path, small_gamma_config())
    out = tmp_path / "out"
    main(["gamma", "--config", cfg, "--out", str(out), "--svg"])
    assert "<!-- generated" in (out / "gamma_ex01_y7.svg").read_text()


def test_fig_configs_run(tmp_path):
    # the two cheap reference figure configs run end to end
    for fig in ("fig1", "fig2"):
        cfg = os.path.join(CONFIG_DIR, f"{fig}.json")
        assert main(["gamma", "--config", cfg, "--out", str(tmp_path / fig)]) == 0


def test_fig1_figure_content(tmp_path):
    cfg = os.path.join(CONFIG_DIR, "fig1.json")
    main(["gamma", "--config", cfg, "--out", str(tmp_path)])
    rows = (tmp_path / "gamma_ex01_y698.csv").read_text().splitlines()[1:]
    for row in rows:
        n, _, mean = row.split(",")
        n = int(n)
        if n % 2 == 0:
            assert float(mean) == 0.0
        else:
            # CSV carries 12 significant digits
            assert float(mean) == pytest.approx(1000.0 / n, rel=1e-10)


def test_fig2_figure_content(tmp_path):
    # delta spike at 0 starting from y=322 on the drift: means are 0 until
    # the orbit hits 0 at step 678, then decay like M/n
    cfg = os.path.join(CONFIG_DIR, "fig2.json")
    main(["gamma", "--config", cfg, "--out", str(tmp_path)])
    rows = (tmp_path / "gamma_delta_y322.csv").read_text().splitlines()[1:]
    vals = {int(r.split(",")[0]): float(r.split(",")[2]) for r in rows}
    assert vals[678] == 0.0
    assert vals[679] == pytest.approx(1000.0 / 679)
    assert vals[10000] == pytest.approx(10 * 1000.0 / 10000)


def test_stab_report(tmp_path):
    cfg = write_config(tmp_path, {
        "system": {"name": "drift", "M": 2000},
        "observable": {"name": "ex03", "K": 100},
        "start_points": {"stratified": 20, "extras": 5},
        "stab": {"epsilon": 0.05, "eta": 0.1, "n_min": 10,
                 "scan_limit": 100, "pairs": [[100, 50]]},
        "seed": 1,
    })
    out = tmp_path / "out"
    assert main(["stab", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "stab_report.json").read_text())
    assert rep["epsilon"] == 0.05
    assert "common_segment" in rep
    assert rep["discrepancies"][0]["K"] == 100


def test_stab_requires_epsilon_eta(tmp_path):
    cfg = write_config(tmp_path, {
        "system": {"name": "drift", "M": 100},
        "observable": {"name": "linear"},
        "stab": {"epsilon": 0.05},
    })
    assert main(["stab", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_approx_metrics_report(tmp_path):
    cfg = write_config(tmp_path, {
        "system": {"name": "drift", "M": 500},
        "approx": {"mode": "metrics", "closed_intervals": [[0.2, 0.4]],
                   "target": {"name": "identity"}},
    })
    out = tmp_path / "out"
    assert main(["approx", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "approx_report.json").read_text())
    assert rep["weak_star_errors"]["x^1"] <= 2.0 / 500
    assert rep["cycle_count"] == 1


def test_seed_flag_overrides_config_seed(tmp_path):
    payload = small_gamma_config()
    payload["start_points"] = {"random": 2}
    cfg = write_config(tmp_path, payload)
    drawn = {}
    for flag in (None, 1, 2):
        out = tmp_path / f"seed{flag}"
        argv = ["gamma", "--config", cfg, "--out", str(out)]
        if flag is not None:
            argv += ["--seed", str(flag)]
        assert main(argv) == 0
        meta = json.loads((out / "gamma_meta.json").read_text())
        assert meta["seed"] == (0 if flag is None else flag)
        drawn[flag] = meta["start_points"]
    assert drawn[1] != drawn[2]


def assert_config_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    return err


# its sums overflow float64 within any horizon of 2 or more
OVERFLOWING = {"name": "constant", "value": 1e308}


def assert_refused_before_any_kernel(err, recwarn):
    # the CLI names the observable, and no kernel ran into an overflow
    assert "constant(1e+308)" in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_stab_n_min_above_scan_limit_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "system": {"name": "drift", "M": 100},
        "observable": {"name": "linear"},
        "stab": {"epsilon": 0.05, "eta": 0.1, "n_min": 50, "scan_limit": 20},
    })
    assert_config_error(capsys, ["stab", "--config", cfg, "--out", str(tmp_path / "o")])


def small_stab_config():
    return {
        "system": {"name": "drift", "M": 1000},
        "observable": {"name": "ex03", "K": 10},
        "start_points": {"random": 20},
        "stab": {"epsilon": 0.05, "eta": 0.1, "n_min": 5, "scan_limit": 200,
                 "pairs": [[40, 20]]},
        "seed": 3,
    }


@pytest.mark.parametrize("key,value", [
    ("epsilon", float("nan")),
    ("exceedance_epsilons", [float("nan")]),
    ("epsilon", "x"),
    ("eta", "x"),
    ("scan_limit", 100.7),
    ("n_min", 2.5),
    ("per_point_limit", 1.5),
    ("pairs", [[40.9, 20]]),
    ("pairs", [[40, 20.5]]),
    ("pairs", [40]),
    ("seed", "abc"),
    ("random", 2.5),
    ("epsilson", 0.1),
    ("scan_limit", 1e30),
    ("epsilon", float("inf")),
    ("observable", OVERFLOWING),
    ("random", True),
    ("n_min", True),
    ("pairs", [[40, True]]),
    ("epsilon", True),
    ("exceedance_epsilons", [True]),
    ("epsilon", "0.05"),
    ("exceedance_epsilons-no-pairs", [-1, "x"]),
], ids=["epsilon-nan", "exceedance-epsilon-nan", "epsilon-string", "eta-string",
        "scan-limit-fraction", "n-min-fraction", "per-point-limit-fraction", "pair-K-fraction",
        "pair-L-fraction", "pair-not-a-pair", "seed-string", "random-fraction",
        "unknown-key", "scan-limit-over-budget", "epsilon-inf", "constant-sums-overflow",
        "random-bool", "n-min-bool", "pair-L-bool", "epsilon-bool", "exceedance-epsilon-bool",
        "epsilon-numeric-string", "exceedance-epsilons-no-pairs"])
def test_malformed_stab_config_is_config_error(tmp_path, capsys, recwarn, key, value):
    payload = small_stab_config()
    if key in ("seed", "observable"):
        payload[key] = value
    elif key == "random":
        payload["start_points"] = {"random": value}
    elif key == "exceedance_epsilons-no-pairs":
        # no pairs, so no discrepancy reads the epsilons: they are checked before the scan all the same
        del payload["stab"]["pairs"]
        payload["stab"]["exceedance_epsilons"] = value
    else:
        payload["stab"][key] = value
    cfg = write_config(tmp_path, payload)
    err = assert_config_error(capsys, ["stab", "--config", cfg, "--out", str(tmp_path / "o")])
    assert not (tmp_path / "o").exists()  # every bad value is refused before the output directory is made
    if value == OVERFLOWING:
        assert_refused_before_any_kernel(err, recwarn)


def test_stab_integral_floats_pass_as_integers(tmp_path):
    # integral floats in every integer stab key give the same report as ints
    reports = []
    for kind in (int, float):
        payload = small_stab_config()
        payload["start_points"] = {"stratified": kind(8), "extras": kind(4)}
        payload["stab"].update(n_min=kind(5), scan_limit=kind(200), per_point_limit=kind(3),
                               pairs=[[kind(40), kind(20)]])
        payload["seed"] = kind(3)
        out = tmp_path / kind.__name__
        assert main(["stab", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        reports.append((out / "stab_report.json").read_bytes())
    assert reports[0] == reports[1]


def in_process(argv):
    """The golden table's runner for tier-1: ergodia.cli.main in this process, an argparse exit
    taken as the console script's exit code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, stdout.getvalue().encode(), stderr.getvalue().encode(), None


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_figure_outputs_are_pinned(tmp_path, name):
    # every pinned output in tests/golden.json: each file the entry writes and no other, its
    # stdout where pinned, and its exit code
    golden.check(GOLDEN[name], in_process, tmp_path)


def test_every_shipped_config_has_a_golden_entry():
    # a new config under configs/ fails here until it has a pin
    pinned = {entry["config"] for entry in GOLDEN.values() if isinstance(entry["config"], str)}
    assert {f"configs/{name}" for name in os.listdir(CONFIG_DIR)} <= pinned


def over_the_bound(argv):
    code, stdout, stderr, _ = in_process(argv)
    return code, stdout, stderr, 1e6


def fails_after_making_the_out_directory(argv):
    os.mkdir(argv[argv.index("--out") + 1])
    return 2, b"", b"config error: x\n", None


def usage_error(argv):
    # a misspelt flag: argparse exits 2 before any config is read, as a config error does
    return in_process([*argv, "--no-such-flag"])


@pytest.mark.parametrize("outputs,fields,run,message", [
    ({"gamma_chi0_y11.csv": "0" * 64}, {}, in_process, "gamma_chi0_y11.csv has digest fa11038"),
    ({"gamma_chi0_y12.csv": "0" * 64}, {}, in_process, "gamma_chi0_y12.csv missing"),
    ({"gamma_meta.json": None}, {}, in_process, "gamma_meta.json extra"),
    ({}, {"exit": 2}, in_process, "exit code 0, want 2"),
    ({}, {"max_rss_mb": 85}, over_the_bound, "peak RSS 1000000.0 MB, bound 85 MB"),
    ({}, {"exit": 2, "stderr": "config error:"}, fails_after_making_the_out_directory,
     "exit 2 made the --out directory"),
    ({}, {"exit": 2, "stderr": "config error:"}, usage_error,
     "stderr starts 'usage: ergodia .*', want 'config error:'"),
    ({}, {"exit": 2}, fails_after_making_the_out_directory, "stderr starts 'config error: x', want None"),
], ids=["wrong-digest", "missing-file", "extra-file", "wrong-exit-code", "over-rss-bound",
        "out-directory-on-failure", "wrong-message", "no-message-pinned"])
def test_golden_check_rejects_a_changed_entry(tmp_path, outputs, fields, run, message):
    # the naive-gamma entry with outputs changed (None drops a file) and fields replaced
    entry = {**GOLDEN["naive-gamma"], **fields}
    entry["outputs"] = {k: v for k, v in {**entry["outputs"], **outputs}.items() if v is not None}
    with pytest.raises(AssertionError, match=message):
        golden.check(entry, run, tmp_path)


@pytest.mark.parametrize("stab,message", [
    ({"eta": 1.5}, "eta must be in (0, 1)"),
    ({"pairs": [[500, 1000]]}, "require 1 <= L < K"),
], ids=["eta", "pair-L-above-K"])
def test_stab_refuses_a_bad_eta_or_pair_before_any_kernel(tmp_path, capsys, monkeypatch, stab, message):
    # both are refused with the library's message, but before the band scan or the discrepancy pass
    from ergodia import cli

    def kernel(*args):
        raise AssertionError("a kernel ran")

    monkeypatch.setattr(cli, "stabilization_segment", kernel)
    monkeypatch.setattr(cli, "sup_discrepancy", kernel)
    payload = small_stab_config()
    payload["stab"].update(stab)
    assert main(["stab", "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_stab_scans_every_start_point_once(tmp_path, monkeypatch):
    # one band scan covers the per-point rows and the common segment alike
    from ergodia import cli, stabilization

    rows, started, scanning = [], [], []
    segment, carried_sums = cli.stabilization_segment, stabilization._carried_sums

    def counting(F, T, points, *rest):
        rows.append(len(points))
        scanning.append(True)
        try:
            return segment(F, T, points, *rest)
        finally:
            scanning.pop()

    def tiling(along, start, p, pos, lo, *rest):
        if scanning and lo == 0:
            started.append(np.size(start))
        return carried_sums(along, start, p, pos, lo, *rest)

    monkeypatch.setattr(cli, "stabilization_segment", counting)
    monkeypatch.setattr(stabilization, "_carried_sums", tiling)
    cfg = os.path.join(CONFIG_DIR, "fig4.json")
    assert main(["stab", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert rows == [125]
    # the scan starts each point's row of carried sums once, 1000 columns by 65 rows at a time
    assert started == [65, 60]


def test_stab_serves_every_pair_from_one_cycle_pass(tmp_path, monkeypatch):
    # the golden stab config has two pairs; one pass over all cycles serves both.  Its chi0 is
    # counted by key, so the same cycles are read with a float observable, which takes the tiles
    from ergodia import stabilization

    passes, rows, inside = [], [], []
    row_means, carried_sums = stabilization._row_means, stabilization._carried_sums

    def counting(along, index, horizons):
        passes.append(tuple(horizons))
        inside.append(True)
        yield from row_means(along, index, horizons)
        inside.pop()

    def tiling(along, start, p, pos, *rest):
        if inside:
            rows.append((np.size(start), p, pos))
        return carried_sums(along, start, p, pos, *rest)

    monkeypatch.setattr(stabilization, "_row_means", counting)
    monkeypatch.setattr(stabilization, "_carried_sums", tiling)
    cfg = write_config(tmp_path, {**GOLDEN["stab-naive"]["config"], "observable": {"name": "linear"}})
    assert main(["stab", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert passes == [(40, 20, 9, 4)]
    # its cursors read whole cycles from position 0, a length class per tile: the 56 cycles of 9
    # and the 2 of 3; every horizon is a multiple of the 2 fixed points' period, so they need none
    assert sorted(set(rows)) == [(2, 3, 0), (56, 9, 0)]


def test_approx_metrics_on_bernoulli_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "system": {"name": "bernoulli", "m": 2, "N": 2, "mode": "naive"},
        "approx": {"mode": "metrics"},
    })
    assert_config_error(capsys, ["approx", "--config", cfg, "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("section,spec", [
    ("gamma", {"k": 0}),
    ("gamma", {"k": 1.0, "stride": 0}),
    ("system", {"name": "drift"}),
    ("system", {"name": "rotation", "t": "2/3"}),
    ("system", {"name": "bernoulli", "N": 2, "mode": "naive"}),
    ("system", {"name": "bernoulli", "m": 2, "mode": "naive"}),
    ("observable", {"name": "ex03", "K": 0}),
    ("gamma", {"k": 1.0, "stride": "x"}),
    ("gamma", {"k": 1.0, "stride": [7]}),
    ("start_points", {"random": "x"}),
    ("system", {"name": "drift", "M": 1000.5}),
    ("system", {"name": "rotation", "M": 1000.5, "t": 0.3}),
    ("system", {"name": "bernoulli", "m": 2, "N": 2.5, "mode": "naive"}),
    ("system", {"name": "bernoulli", "m": 2.5, "N": 1, "mode": "debruijn"}),
    ("system", {"name": "drift", "M": "200"}),
    ("start_points", {"explicit": "698"}),
    ("start_points", {"explicit": [69.7]}),
    ("start_points", {"explicit": ["7"]}),
    ("gamma", {"k": "inf"}),
    ("gamma", {"k": "-inf"}),
    ("gamma", {"k": 1.0, "stride": "7"}),
    ("gamma", {"k": 1.0, "stride": 2.5}),
    ("start_points", {"random": 2.5}),
    ("start_points", {"stratified": 2.5}),
    ("start_points", {"stratified": 4, "extras": 2.5}),
    ("seed", "abc"),
    ("seed", 1.5),
    ("system", [1]),
    ("gamma", [1]),
    ("observable", "ex01"),
    ("start_points", None),
    ("system", {"name": "drift", "M": 200, "typo": 1}),
    ("gamma", {"k": 1.0, "strid": 7}),
    ("volume", 1),
    ("observable", {"name": "constant", "value": [1]}),
    ("start_points", {"stratified": 5, "random": 3}),
    ("start_points", {"explicit": [7], "random": 3}),
    ("start_points", {"explicit": [7], "stratified": 5}),
    ("start_points", {"random": 3, "extras": 2}),
    ("start_points", {"explicit": [7], "extras": 2}),
    ("gamma", {"k": 1e308}),
    ("gamma", {"k": 1e12}),
    ("observable", {"name": "constant", "value": float("nan")}),
    ("observable", {"name": "constant", "value": float("inf")}),
    ("observable", {"name": "constant", "value": float("-inf")}),
    ("gamma", {"k": 1, "stride": 201}),
    ("observable", OVERFLOWING),
    ("start_points", {"explicit": [True]}),
    ("gamma", {"k": 1.0, "stride": True}),
    ("observable", {"name": "ex03", "K": True}),
    ("gamma", {"k": True}),
    ("gamma", {"k": "1.0"}),
    ("observable", {"name": "constant", "value": True}),
    ("observable", {"name": "constant", "value": "0.5"}),
    ("system", {"name": "rotation", "M": 200, "t": False}),
    ("observable", {"name": "tent", "K": 5}),
    ("observable", {"name": "ex03", "K": 5, "N": 3}),
], ids=["k-zero", "stride-zero", "drift-no-M", "rotation-no-M", "bernoulli-no-m",
        "bernoulli-no-N", "ex03-K-zero", "stride-not-int", "stride-list", "random-not-int",
        "drift-M-fraction", "rotation-M-fraction", "bernoulli-N-fraction", "bernoulli-m-fraction",
        "drift-M-string", "explicit-string", "explicit-fraction", "explicit-string-item",
        "k-inf", "k-minus-inf", "stride-string", "stride-fraction", "random-fraction",
        "stratified-fraction", "extras-fraction", "seed-string", "seed-fraction",
        "system-list", "gamma-list", "observable-string", "start-points-null",
        "system-unknown-key", "gamma-unknown-key", "top-level-unknown-key", "constant-value-list",
        "stratified-and-random", "explicit-and-random", "explicit-and-stratified",
        "extras-with-random", "extras-with-explicit", "k-overflows-horizon", "k-over-budget",
        "constant-nan", "constant-inf", "constant-minus-inf", "stride-above-horizon",
        "constant-sums-overflow", "explicit-bool", "stride-bool", "ex03-K-bool", "k-bool",
        "k-numeric-string", "constant-value-bool", "constant-value-numeric-string", "rotation-t-bool",
        "tent-K", "ex03-N"])
def test_malformed_gamma_config_is_config_error(tmp_path, capsys, recwarn, section, spec):
    payload = small_gamma_config()
    payload[section] = spec
    if section == "system":
        payload["observable"] = {"name": "constant", "value": 1.0}
    cfg = write_config(tmp_path, payload)
    err = assert_config_error(capsys, ["gamma", "--config", cfg, "--out", str(tmp_path / "o")])
    if spec == OVERFLOWING:
        assert_refused_before_any_kernel(err, recwarn)


def test_gamma_of_a_negative_zero_constant_writes_negative_zeros(tmp_path, monkeypatch):
    # several chunks of the carried prefix sum, and no +0 from a carry of 0.0
    from ergodia import dynamics

    monkeypatch.setattr(dynamics, "CHUNK_POINTS", 7)
    payload = small_gamma_config()
    payload["observable"] = {"name": "constant", "value": -0.0}
    out = tmp_path / "o"
    assert main(["gamma", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    rows = (out / "gamma_constant(-0.0)_y7.csv").read_text().splitlines()[1:]
    assert len(rows) == 200 and {r.rsplit(",", 1)[1] for r in rows} == {"-0"}


@pytest.mark.parametrize("value,dtype", [(-128, np.int8), (-(2**31), np.int32)])
def test_gamma_of_the_narrowest_minimum_constant_runs(tmp_path, recwarn, value, dtype):
    # stored as int8 or int32, whose negation of the minimum wraps; the overflow check widens first
    from ergodia.systems import paper_observable

    assert paper_observable("constant", 200, value=value).values.dtype == dtype
    payload = small_gamma_config()
    payload["observable"] = {"name": "constant", "value": value}
    out = tmp_path / "o"
    assert main(["gamma", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    rows = (out / f"gamma_constant({value})_y7.csv").read_text().splitlines()[1:]
    assert len(rows) == 200 and {r.rsplit(",", 1)[1] for r in rows} == {str(value)}
    assert not [w for w in recwarn if "overflow" in str(w.message)]


@pytest.mark.parametrize("command", ["gamma", "stab"])
def test_a_rotation_run_builds_no_point_order_array_of_F(tmp_path, monkeypatch, command):
    # the kernels and the overflow check read T.along(F), filled from tent's rule one order chunk
    # at a time: F.values, 8 bytes per point, is never built, so the traced peak stays under two
    # float64 arrays of M values (a run that also built F.values would hold three)
    from ergodia import cli

    M, made, build = 10**6, [], cli.paper_observable
    monkeypatch.setattr(cli, "paper_observable", lambda *a, **k: made.append(build(*a, **k)) or made[-1])
    payload = {"system": {"name": "rotation", "M": M, "t": "1/sqrt2"}, "observable": {"name": "tent"}}
    if command == "gamma":
        payload.update(start_points={"explicit": [0, 271828, M - 1]}, gamma={"k": 2.0})
    else:
        payload.update(start_points={"random": 20}, stab={"epsilon": 0.002, "eta": 0.05, "n_min": 50,
                                                          "scan_limit": 10_000, "pairs": [[20_000, 10_000]]})
    cfg = write_config(tmp_path, payload)
    code, peak = traced_peak(main, [command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 0
    assert peak < 2 * 8 * M, peak
    assert len(made) == 1 and "values" not in vars(made[0])


def test_integral_floats_pass_as_integers(tmp_path):
    # "M": 2000.0, "explicit": [7.0] and "K": 1000.0 run exactly as 2000, [7] and 1000,
    # and the observable is named from the int
    outs = []
    for kind in (int, float):
        payload = small_gamma_config()
        payload["system"]["M"] = kind(2000)
        payload["observable"] = {"name": "ex03", "K": kind(1000)}
        payload["start_points"]["explicit"] = [kind(7)]
        out = tmp_path / f"o{kind.__name__}"
        assert main(["gamma", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["gamma_ex03(K=1000)_y7.csv", "gamma_meta.json"]
        outs.append(((out / "gamma_ex03(K=1000)_y7.csv").read_bytes(),
                     (out / "gamma_meta.json").read_bytes()))
    assert outs[0] == outs[1]


def test_gamma_outputs_of_a_dotted_observable_name_keep_their_start_points(tmp_path):
    # "constant(0.5)" holds a '.', and each start point still gets its own CSV and SVG
    payload = small_gamma_config()
    payload["system"] = {"name": "rotation", "M": 200, "t": 0.3}
    payload["observable"] = {"name": "constant", "value": 0.5}
    payload["start_points"] = {"explicit": [5, 17]}
    out = tmp_path / "o"
    cfg = write_config(tmp_path, payload)
    assert main(["gamma", "--config", cfg, "--out", str(out), "--svg", "--no-timestamp"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "gamma_constant(0.5)_y17.csv", "gamma_constant(0.5)_y17.svg",
        "gamma_constant(0.5)_y5.csv", "gamma_constant(0.5)_y5.svg", "gamma_meta.json"]
    for y in (5, 17):
        assert f"y={y}," in (out / f"gamma_constant(0.5)_y{y}.svg").read_text()


def test_gamma_stride_is_converted_like_M(tmp_path):
    # an integral float stride runs as the int; a string is refused (stride-string above)
    outs = []
    for stride in (7, 7.0):
        payload = small_gamma_config()
        payload["gamma"]["stride"] = stride
        out = tmp_path / f"o{type(stride).__name__}"
        assert main(["gamma", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        outs.append((out / "gamma_ex01_y7.csv").read_bytes())
        assert json.loads((out / "gamma_meta.json").read_text())["stride"] == 7
    assert outs[0] == outs[1]


def test_approx_pipeline_report(tmp_path):
    cfg = write_config(tmp_path, {
        "approx": {"mode": "pipeline", "M": 500,
                   "target": {"name": "rotation", "t": 0.7071067811865476},
                   "deltas": [0.004]},
    })
    out = tmp_path / "out"
    assert main(["approx", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "approx_report.json").read_text())
    stage = rep["pipeline"][0]
    assert stage["matcher_mismatch_count"] == 0
    assert stage["transitivity_mismatch"] <= stage["cycle_count_before_merge"]


@pytest.mark.parametrize("approx", [
    {"mode": "pipeline"},
    {"mode": "pipeline", "M": "abc"},
    {"mode": "pipeline", "M": 0},
    {"mode": "pipeline", "M": 100, "deltas": [0]},
    {"mode": "pipeline", "M": 100, "target": {"name": "rotation"}},
    {"mode": "metrics", "closed_intervals": [[0.1]]},
    {"mode": "metrics", "target": {"name": "identity"}, "mismatch_epsilons": [0]},
    {"mode": "metrics", "closed_intervals": [[0.2, 0.4]], "thickening_epsilon": float("nan")},
    {"mode": "metrics", "target": {"name": "identity"}, "mismatch_epsilons": [float("nan")]},
    {"mode": "pipeline", "M": 100, "mismatch_epsilon": float("nan")},
    {"mode": "metrics", "closed_intervals": [[0.25, float("nan")]]},
    {"mode": "metrics", "closed_intervals": [[0.25, 1.5]]},
    {"mode": "metrics", "closed_intervals": [[-0.1, 0.25]]},
    {"mode": "metrics", "degree": 2.5},
    {"mode": "metrics", "degree": -2},
    {"mode": "pipeline", "M": 500.5},
    [1],
    {"mode": "metrics", "target": "identity"},
    {"mode": "pipeline", "M": 100, "target": "identity"},
    {"mode": "metrics", "target": {"name": "identity", "typo": 1}},
    {"mode": "metrics", "degre": 2},
    {"mode": "metrics", "target": {"name": "rotation", "t": float("nan")}},
    {"mode": "metrics", "target": {"name": "rotation", "t": float("inf")}},
    {"mode": "metrics", "target": {"name": "rotation", "t": float("-inf")}},
    {"mode": "pipeline", "M": 100, "mismatch_epsilon": float("inf")},
    {"mode": "pipeline", "M": 100, "deltas": [True]},
    {"mode": "pipeline", "M": 100, "deltas": ["0.01"]},
    {"mode": "pipeline", "M": 100, "mismatch_epsilon": True},
    {"mode": "pipeline", "M": 100, "target": {"name": "rotation", "t": True}},
    {"mode": "metrics", "target": {"name": "identity"}, "mismatch_epsilons": [True]},
    {"mode": "metrics", "closed_intervals": [[0.2, 0.4]], "thickening_epsilon": True},
    {"mode": "metrics", "closed_intervals": [[False, True]]},
], ids=["pipeline-no-M", "M-not-int", "M-zero", "delta-zero", "rotation-no-t",
        "interval-not-pair", "mismatch-epsilon-zero", "thickening-epsilon-nan",
        "mismatch-epsilons-nan", "pipeline-mismatch-epsilon-nan", "interval-nan-endpoint",
        "interval-endpoint-above-1", "interval-endpoint-below-0", "degree-fraction",
        "degree-negative", "pipeline-M-fraction", "approx-list", "metrics-target-string",
        "pipeline-target-string", "target-unknown-key", "unknown-key", "rotation-t-nan",
        "rotation-t-inf", "rotation-t-minus-inf", "pipeline-mismatch-epsilon-inf", "delta-bool",
        "delta-numeric-string", "pipeline-mismatch-epsilon-bool", "rotation-t-bool",
        "mismatch-epsilons-bool", "thickening-epsilon-bool", "interval-bool-ends"])
def test_malformed_approx_config_is_config_error(tmp_path, capsys, approx):
    cfg = write_config(tmp_path, {"system": {"name": "drift", "M": 100}, "approx": approx})
    assert_config_error(capsys, ["approx", "--config", cfg, "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("degree,keys", [(0, ["x^0"]), (2.0, ["x^0", "x^1", "x^2"])])
def test_approx_degree_takes_integral_values(tmp_path, degree, keys):
    cfg = write_config(tmp_path, {"system": {"name": "drift", "M": 100},
                                  "approx": {"mode": "metrics", "degree": degree}})
    assert main(["approx", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    rep = json.loads((tmp_path / "o" / "approx_report.json").read_text())
    assert sorted(rep["weak_star_errors"]) == keys


# the approx configs of the golden table
GOLDEN_APPROX = {name: GOLDEN[name]["config"]
                 for name in ("approx-pipeline", "approx-metrics", "approx-metrics-drift")}


def test_approx_metrics_wrapped_interval_and_mismatch_values(tmp_path):
    cfg = write_config(tmp_path, GOLDEN_APPROX["approx-metrics"])
    assert main(["approx", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    rep = json.loads((tmp_path / "o" / "approx_report.json").read_text())
    assert len(rep["weak_star_errors"]) == 4
    assert rep["map_mismatch"] == {"0.0001": 0.0, "1e-05": 1.0}
    assert rep["thickening_errors"] == {"(0.9, 0.1)": 0.000250000000000028}


def test_approx_report_keys_that_compare_equal_are_one_entry(tmp_path):
    # 1 == 1.0 and (0, 1) == (0.0, 1.0): one entry each, under the first key's string
    cfg = write_config(tmp_path, GOLDEN["approx-equal-keys"]["config"])
    assert main(["approx", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    rep = json.loads((tmp_path / "o" / "approx_report.json").read_text())
    assert list(rep["map_mismatch"]) == ["0.001", "1"]
    assert list(rep["thickening_errors"]) == ["(0, 1)"]


def test_approx_pipeline_traced_peak_at_1e6():
    # the mismatch pass reads C.image / M a chunk at a time, and _cycle_minima gathers a chunk at a
    # time: 33.3 bytes per point.  A second grid np.arange(M) / M and whole-array gathers took 40.0.
    from ergodia.cli import _approx_pipeline

    M = 10**6
    report, peak = traced_peak(_approx_pipeline, {"mode": "pipeline", "M": M, "deltas": [1e-3, 5e-3],
                                                  "target": {"name": "rotation", "t": 0.381966011250105}})
    assert [entry["delta"] for entry in report["pipeline"]] == [1e-3, 5e-3]
    assert peak <= 36 * M, peak / M


@pytest.mark.parametrize("target", [
    {"name": "identity"}, {"name": "rotation", "t": 0.7071067811865476}, {"name": "doubling"},
])
def test_pipeline_targets_equal_per_point_map(target):
    from ergodia.cli import _target_images

    grid = np.arange(997) / 997
    per_point = np.asarray([_target_images(target, x) for x in grid.tolist()])
    assert _target_images(target, grid).tobytes() == per_point.tobytes()


def test_check_subcommand_passes():
    assert main(["check"]) == 0


def test_check_negative_control(tmp_path):
    # corrupted fixture: a non-bijective image must trip the invariant suite
    cfg = write_config(tmp_path, {"fixtures": {"permutation_image": [0, 0, 1]}})
    assert main(["check", "--config", cfg]) == 1


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["gamma", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)]) == 2


def test_malformed_config_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["gamma", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_unknown_system_is_config_error(tmp_path):
    cfg = write_config(tmp_path, {"system": {"name": "lorenz"}})
    assert main(["gamma", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_bad_start_point_is_config_error(tmp_path):
    payload = small_gamma_config()
    payload["start_points"] = {"explicit": [9999]}
    cfg = write_config(tmp_path, payload)
    assert main(["gamma", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command,config", [
    ("gamma", [small_gamma_config()]),
    ("gamma", "config"),
    ("check", {"fixtures": [1]}),
    ("check", {"fixtures": {"permutation_image": "abc"}}),
    ("check", {"fixtures": {"permutation_image": [0.5, 1]}}),
    ("check", {"fixtures": {"permutation_image": [1e30, 0]}}),
    ("check", {"fixtures": {"permutation_image": 0}}),
], ids=["config-list", "config-string", "fixtures-list", "permutation-image-string",
        "permutation-image-fraction", "permutation-image-beyond-int64", "permutation-image-zero"])
def test_malformed_config_or_fixture_is_config_error(tmp_path, capsys, command, config):
    cfg = write_config(tmp_path, config)
    assert_config_error(capsys, [command, "--config", cfg, "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("section,spec,message", [
    ("system", {"name": "drift"}, "missing key 'M'"),
    ("gamma", {"k": 1.0, "strid": 7}, "unknown key 'strid' in gamma"),
    ("gamma", [1], "gamma must be a JSON object, not list"),
], ids=["missing", "unknown", "not-an-object"])
def test_config_error_names_the_key_or_section(tmp_path, capsys, section, spec, message):
    cfg = write_config(tmp_path, {**small_gamma_config(), section: spec})
    assert main(["gamma", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


# a config per system kind and approx mode, and each key of another kind or mode, with a value that
# the kind or mode reading it accepts
VARIANT_CONFIGS = {
    "drift": ("gamma", small_gamma_config()),
    "rotation": ("gamma", {**small_gamma_config(), "system": {"name": "rotation", "M": 200, "t": 0.3}}),
    "bernoulli": ("gamma", {**small_gamma_config(), "observable": {"name": "chi0", "N": 3},
                            "system": {"name": "bernoulli", "m": 2, "N": 3, "mode": "naive"}}),
    "metrics": ("approx", {"system": {"name": "drift", "M": 200}, "approx": {"mode": "metrics"}}),
    "pipeline": ("approx", {"approx": {"mode": "pipeline", "M": 200}}),
}
FOREIGN_KEYS = {"drift": "t m N mode", "rotation": "m N mode", "bernoulli": "M t",
                "metrics": "M deltas mismatch_epsilon",
                "pipeline": "closed_intervals thickening_epsilon mismatch_epsilons degree"}
FOREIGN_VALUES = {"t": 0.5, "m": 2, "N": 3, "mode": "naive", "M": 200, "deltas": [0.01],
                  "mismatch_epsilon": 0.05, "closed_intervals": [[0.1, 0.2]], "thickening_epsilon": 0.01,
                  "mismatch_epsilons": [0.01], "degree": 2}


@pytest.mark.parametrize("kind,key", [(kind, key) for kind, keys in FOREIGN_KEYS.items()
                                      for key in keys.split()])
def test_a_key_of_another_system_kind_or_approx_mode_is_config_error(tmp_path, capsys, kind, key):
    # the config runs without the key; with it, it exits 2 naming the key and the kind, making no --out
    command, config = copy.deepcopy(VARIANT_CONFIGS[kind])
    assert main([command, "--config", write_config(tmp_path, config), "--out", str(tmp_path / "ok")]) == 0
    section = "approx" if command == "approx" else "system"
    config[section][key] = FOREIGN_VALUES[key]
    assert main([command, "--config", write_config(tmp_path, config), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: unknown key {key!r} in {section} {kind}\n"
    assert not (tmp_path / "o").exists()


def test_check_fixture_entries_are_integers(tmp_path):
    # integral floats pass as ints; a negative entry reaches the bijection check
    ok = write_config(tmp_path, {"fixtures": {"permutation_image": [1.0, 2, 0]}}, "ok.json")
    assert main(["check", "--config", ok]) == 0
    negative = write_config(tmp_path, {"fixtures": {"permutation_image": [-1, 0, 1]}}, "neg.json")
    assert main(["check", "--config", negative]) == 1


# no large positives, so no mutant asks for a huge system
MUTANTS = (float("nan"), float("inf"), float("-inf"), -1, 0, 0.5, 2.5, "x", "", [], {}, None,
           True, [1])
DELETE = object()


def mutation_inputs():
    for fig in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6"):
        with open(os.path.join(CONFIG_DIR, f"{fig}.json"), encoding="utf-8") as fh:
            yield pytest.param("stab" if fig == "fig4" else "gamma", json.load(fh), id=fig)
    for name, config in GOLDEN_APPROX.items():
        yield pytest.param("approx", config, id=name)


def key_paths(spec, prefix=()):
    """Every key path through the nested objects of spec, parents first."""
    for key, value in spec.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


def mutated(config, path, value):
    config = copy.deepcopy(config)
    node = config
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return config


@pytest.mark.parametrize("command,config", mutation_inputs())
def test_one_key_mutations_exit_0_or_2(tmp_path, command, config):
    # each key path deleted or replaced by each mutant: main returns 0 or 2 and raises nothing
    escaped = []
    for path in key_paths(config):
        for value in (DELETE, *MUTANTS):
            cfg = write_config(tmp_path, mutated(config, path, value))
            try:
                code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
            except Exception as e:
                code = repr(e)
            if code not in (0, 2):
                escaped.append((".".join(path), "delete" if value is DELETE else value, code))
    assert escaped == []


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path, small_gamma_config())
    proc = subprocess.run(
        [sys.executable, "-m", "ergodia.cli", "gamma", "--config", cfg,
         "--out", str(tmp_path / "o")],
        capture_output=True,
    )
    assert proc.returncode == 0
