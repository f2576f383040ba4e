"""Command-line front end: output contracts, exit codes, error JSON."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

import structdist
from structdist import (
    POISSONIZED,
    STREAM_VERSION,
    CountsVector,
    RngStream,
    StudyConfig,
    cells_from_generator,
    check_regime,
    draw_multinomial,
    draw_poissonized,
    example_generator,
    grouped_estimator,
    poisson_mixture_cdf,
    run_mse_study,
    table_generator,
)
from structdist.cli import _jump_rows, main, reproduce_figures
from structdist.sampling import MAX_N

MIX_THIRD = 0.33002833043111157  # mixture CDF at 1/3, lambda=3 (quadrature-frozen)
# The numpy and scipy versions MIX_THIRD and LIMIT_EXAMPLE_DOC were frozen under
LIMIT_PINNED_UNDER = {"numpy": "2.4.6", "scipy": "1.17.1"}


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def fail_cli(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    payload = json.loads(err.strip().splitlines()[-1])
    return exc.value.code, payload["error"], out


def assert_stream_meta(meta):
    assert meta["stream_version"] == STREAM_VERSION == 10
    assert meta["numpy"] == np.__version__ and meta["scipy"] == scipy.__version__


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


# ---------- limit ----------

def test_limit_csv_and_sidecar(capsys, pinned_under):
    code, out, err = run_cli(
        ["limit", "--lambda", "3", "--generator", "example", "--x-grid=-1,0.3333333333333333,1.0"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "mixture_cdf"]
    assert float(rows[0][1]) == 0.0  # negative x
    note = pinned_under(**LIMIT_PINNED_UNDER)
    assert float(rows[1][1]) == pytest.approx(MIX_THIRD, abs=1e-9), note
    assert float(rows[2][1]) == pytest.approx(0.6278328825655605, abs=1e-9), note
    vals = [float(r[1]) for r in rows]
    assert vals == sorted(vals)
    meta = json.loads(err)
    assert meta["schema"] == 1 and meta["command"] == "limit" and meta["lambda"] == 3.0


def test_limit_json_document(capsys, pinned_under):
    code, out, _ = run_cli(
        ["limit", "--lambda", "3", "--x-grid", "0.5", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["columns"] == ["x", "mixture_cdf"]
    assert doc["rows"][0][1] == pytest.approx(MIX_THIRD, abs=1e-9), pinned_under(**LIMIT_PINNED_UNDER)


def test_json_documents_are_compact_and_sidecars_indented(capsys):
    _, out, _ = run_cli(["limit", "--lambda", "3", "--x-grid", "0.5,1", "--format", "json"], capsys)
    assert out == json.dumps(json.loads(out)) + "\n"
    _, _, err = run_cli(["limit", "--lambda", "3", "--x-grid", "0.5,1"], capsys)
    assert err == json.dumps(json.loads(err), indent=2) + "\n"


def test_limit_non_finite_x(capsys, pinned_under):
    code, out, _ = run_cli(["limit", "--lambda", "3", "--x-grid=-inf,0.5,inf", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r[1] for r in rows] == [0.0, pytest.approx(MIX_THIRD, abs=1e-9), 1.0], pinned_under(**LIMIT_PINNED_UNDER)


@pytest.mark.parametrize(
    "argv",
    [["limit", "--lambda", "3"], ["simulate", "--M", "100", "--n", "300", "--reps", "2"]],
    ids=["limit", "simulate"],
)
def test_nan_x_is_a_validation_error(argv, capsys):
    code, error, out = fail_cli(argv + ["--x-grid", "0.5,nan"], capsys)
    assert code == 2 and error["type"] == "ValidationError"
    assert "NaN" in error["message"]
    assert out == ""


def test_limit_records_its_method(tmp_path, capsys):
    table = tmp_path / "steps.csv"
    table.write_text("0,0\n0.25,0\n0.5,0.5\n1,1\n")  # slopes 0, 2, 1
    argv = ["limit", "--lambda", "3", "--x-grid", "0.2,0.5,1.4", "--format", "json"]
    doc = json.loads(run_cli(argv + ["--generator", f"table:{table}"], capsys)[1])
    assert doc["method"] == "exact_sum"

    def poisson_cdf(K, mu):
        return math.exp(-mu) * sum(mu**j / math.factorial(j) for j in range(K + 1))

    # widths 1/4, 1/4, 1/2 times P(Poisson(3 slope) <= K), K = floor(3x) = 0, 1, 4
    expect = [0.25 + 0.25 * poisson_cdf(K, 6.0) + 0.5 * poisson_cdf(K, 3.0) for K in (0, 1, 4)]
    assert [r[1] for r in doc["rows"]] == pytest.approx(expect, abs=1e-15)
    assert [r[1] for r in doc["rows"]] == poisson_mixture_cdf(np.array([0.2, 0.5, 1.4]), table_generator(str(table)), 3.0).tolist()
    assert json.loads(run_cli(argv, capsys)[1])["method"] == "quadrature"


def test_limit_requires_lambda(capsys):
    code, error, _ = fail_cli(["limit", "--x-grid", "1.0"], capsys)
    assert code == 2
    assert error["exit_code"] == 2


def test_limit_rejects_nonpositive_lambda(capsys):
    code, error, _ = fail_cli(["limit", "--lambda", "0", "--x-grid", "1.0"], capsys)
    assert code == 2
    assert error["type"] == "ValidationError"


# ---------- estimate ----------

def test_estimate_writes_file_and_sidecar(tmp_path, capsys):
    out = tmp_path / "est.csv"
    argv = [
        "estimate", "--generator", "example", "--M", "12", "--n", "36",
        "--m", "4", "--seed", "7", "--out", str(out),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    header, rows = parse_csv(out.read_text())
    assert header == ["x", "F"]
    assert float(rows[0][1]) == 0.0  # anchor row
    assert float(rows[-1][1]) == 1.0
    meta = json.loads((tmp_path / "est.csv.json").read_text())
    assert meta["command"] == "estimate"
    assert meta["kind"] == ["grouped", "multinomial"]
    assert meta["m"] == 4 and meta["k"] == 3
    assert meta["lambda_hat"] == 3.0
    assert_stream_meta(meta)


def test_estimate_writes_the_exact_share_at_each_jump(capsys):
    argv = ["estimate", "--M", "1000", "--n", "3000", "--m", "40", "--seed", "5", "--format", "json"]
    rows = json.loads(run_cli(argv, capsys)[1])["rows"][1:]
    xs, F = [r[0] for r in rows], [r[1] for r in rows]
    # a cumulative float sum of the 1/40 masses wrote 0.9250000000000005 here
    assert 0.925 in F and 0.9250000000000005 not in F
    cells = cells_from_generator(example_generator(), 1000)
    vec = draw_multinomial(cells, 3000, RngStream(5).generator())
    est = grouped_estimator(vec, 40)
    assert xs == est.cdf.locations.tolist()
    assert F == est(np.array(xs)).tolist()


@pytest.mark.parametrize("poissonized", [False, True], ids=["multinomial", "poissonized"])
def test_estimate_ordered_groups_counts_in_probability_order(poissonized, tmp_path, capsys):
    """--ordered groups the drawn counts after sorting the cells by
    ascending probability (stable), the order the model's blocks use."""
    table = tmp_path / "bumps.csv"
    table.write_text("0,0\n0.25,0.125\n0.5,0.625\n0.75,0.75\n1,1\n")  # slopes 1/2, 2, 1/2, 1
    argv = ["estimate", "--generator", f"table:{table}", "--M", "1000", "--n", "3000", "--m", "40",
            "--seed", "3", "--ordered", "--format", "json"]
    doc = json.loads(run_cli(argv + (["--poissonized"] if poissonized else []), capsys)[1])
    cells = cells_from_generator(table_generator(str(table)), 1000)
    rng = RngStream(3).generator()
    vec = (draw_poissonized if poissonized else draw_multinomial)(cells, 3000, rng)
    grouped = vec.counts[np.argsort(cells.p, kind="stable")].reshape(40, 25).sum(axis=1)
    est = CountsVector(vec.kind, grouped, 3000)
    assert doc["rows"] == [list(r) for r in _jump_rows(est)]
    assert doc["kind"] == ["grouped", vec.kind] and doc["k"] == 25 and doc["ordered"] is True
    # the density is not monotone, so grouping in cell order gives other rows
    unsorted = CountsVector(vec.kind, vec.counts.reshape(40, 25).sum(axis=1), 3000)
    assert doc["rows"] != [list(r) for r in _jump_rows(unsorted)]


@pytest.mark.parametrize(
    "extra, kind",
    [
        ([], ["natural", "multinomial"]),
        (["--m", "4"], ["natural", "multinomial"]),
        (["--poissonized"], ["natural", "poissonized"]),
        (["--m", "2", "--poissonized"], ["grouped", "poissonized"]),
    ],
    ids=["default-m", "m-equals-M", "poissonized", "grouped-poissonized"],
)
def test_estimate_sidecar_kind_is_the_form_and_the_sampling(extra, kind, capsys):
    """An estimate carries its sampling kind; the sidecar adds the form,
    natural exactly when m = M."""
    code, out, _ = run_cli(["estimate", "--M", "4", "--n", "8", "--format", "json"] + extra, capsys)
    assert code == 0 and strict_json(out)["kind"] == kind


def test_jump_rows_prepend_zero_anchor():
    rows = _jump_rows(CountsVector(POISSONIZED, [3, 1], 2))
    # anchor sits 2% of the span left of the first jump, at height zero
    assert rows[0] == (0.96, 0.0)
    assert rows[1:] == [(1.0, 0.5), (3.0, 1.0)]
    # a single jump: the anchor sits 2% of its location to the left
    assert _jump_rows(CountsVector(POISSONIZED, [5, 5], 2)) == [(4.9, 0.0), (5.0, 1.0)]


def test_estimate_is_deterministic(tmp_path, capsys):
    argv = ["estimate", "--M", "30", "--n", "90", "--m", "10", "--seed", "99", "--out"]
    main(argv + [str(tmp_path / "a.csv")])
    main(argv + [str(tmp_path / "b.csv")])
    capsys.readouterr()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_estimate_rejects_non_divisor_m(capsys):
    code, error, out = fail_cli(["estimate", "--M", "10", "--n", "30", "--m", "3"], capsys)
    assert code == 2
    assert error["type"] == "ValidationError"
    assert error["message"] == "m=3 does not divide M=10; nearest divisor is 2"
    assert out == ""
    code, error, _ = fail_cli(["estimate", "--M", "10", "--n", "30", "--m", "0"], capsys)
    assert code == 2
    assert "nearest divisor is 1" in error["message"]


def test_estimate_rejects_unknown_generator(capsys):
    code, error, _ = fail_cli(["estimate", "--generator", "zipf", "--M", "10", "--n", "30"], capsys)
    assert code == 2
    assert error["type"] == "ValidationError"


# ---------- simulate ----------

def test_simulate_long_format(capsys):
    code, out, err = run_cli(
        ["simulate", "--M", "100", "--n", "300", "--m", "20", "--reps", "3",
         "--x-grid", "0.5,1.0", "--seed", "21"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["rep", "x", "estimate"]
    assert len(rows) == 6  # reps * grid points
    assert [r[0] for r in rows] == ["0", "0", "1", "1", "2", "2"]
    meta = json.loads(err)
    assert meta["reps"] == 3 and meta["x_grid"] == [0.5, 1.0]
    assert_stream_meta(meta)


@pytest.mark.parametrize(
    "extra, needle",
    [
        (["--x-grid", "1.0,0.5"], "sorted"),
        (["--reps", "0"], "reps"),
        (["--m", "30"], "nearest divisor is 25"),
    ],
    ids=["unsorted-grid", "zero-reps", "non-divisor-m"],
)
def test_simulate_validates_like_mse(extra, needle, capsys):
    code, error, out = fail_cli(["simulate", "--M", "1000", "--n", "3000", "--m", "40"] + extra, capsys)
    assert code == 2
    assert error["type"] == "ValidationError"
    assert needle in error["message"]
    assert out == ""


def test_simulate_rows_are_the_study_estimates(capsys):
    argv = ["simulate", "--M", "1000", "--n", "3000", "--m", "40", "--reps", "20",
            "--x-grid", "0.5,1.0,1.5", "--seed", "7", "--poissonized"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    _, rows = parse_csv(out)
    cfg = StudyConfig("example", M=1000, n=3000, m_values=(40,), x_grid=(0.5, 1.0, 1.5),
                      reps=20, seed=7, poissonized=True)
    est = run_mse_study(cfg).estimates
    assert est.shape == (1, 3, 20)
    expect = [(r, x, est[0, j, r]) for r in range(20) for j, x in enumerate(cfg.x_grid)]
    assert [(int(r), float(x), float(v)) for r, x, v in rows] == expect


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_out_of_range_seed_is_a_validation_error(seed, capsys):
    """--seed -1 used to write the same rows as --seed 18446744073709551615
    while the sidecar recorded a different seed."""
    argv = ["simulate", "--M", "1000", "--n", "3000", "--m", "40", "--reps", "5", "--x-grid", "0.5", "--seed", seed]
    code, error, out = fail_cli(argv, capsys)
    assert code == 2 and error["type"] == "ValidationError"
    assert "2**64 - 1" in error["message"] and out == ""
    code, out, _ = run_cli(argv[:-1] + ["18446744073709551615"], capsys)
    assert code == 0 and out


def test_study_sidecars_report_stage_timings(tmp_path, capsys):
    stages = {"cells_s", "draw_s", "evaluate_s", "summarize_s"}
    _, _, err = run_cli(["simulate", "--M", "100", "--n", "300", "--m", "20", "--reps", "3", "--seed", "2"], capsys)
    _, _, err_mse = run_cli(["mse", "--config", write_config(tmp_path)], capsys)
    for meta, reps in ((json.loads(err), 3), (json.loads(err_mse), 5)):
        timings = meta["timings"]
        assert set(timings) == stages | {"draws", "slabs"}
        assert all(timings[k] >= 0.0 for k in stages)
        assert timings["draws"] == reps and timings["slabs"] == 1


def test_sidecars_report_the_regime_of_each_group_count(tmp_path, capsys):
    _, _, err = run_cli(["estimate", "--M", "1000", "--n", "3000", "--m", "40", "--seed", "1"], capsys)
    assert json.loads(err)["regime"] == check_regime(1000, 3000, 40)
    _, _, err = run_cli(["simulate", "--M", "100", "--n", "300", "--m", "20", "--reps", "3"], capsys)
    assert json.loads(err)["regime"] == check_regime(100, 300, 20)
    _, _, err = run_cli(["mse", "--config", write_config(tmp_path, m_values=[10, 100])], capsys)
    regimes = json.loads(err)["regimes"]
    assert regimes == {"10": check_regime(100, 300, 10), "100": check_regime(100, 300, 100)}
    assert regimes["100"]["note"].startswith("natural-estimator regime")


# ---------- mse ----------

def write_config(tmp_path, **overrides):
    cfg = {
        "schema": 1, "generator": "example", "M": 100, "n": 300,
        "m_values": [10], "x_grid": [1.0], "reps": 5, "seed": 3,
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_mse_csv_and_config_echo(tmp_path, capsys):
    path = write_config(tmp_path)
    code, out, err = run_cli(["mse", "--config", path], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["m", "x", "F", "mean", "bias", "var", "mse", "se_mean", "se_var"]
    assert len(rows) == 1
    m, x, F, mean, bias, var, mse, se_mean, se_var = map(float, rows[0])
    assert m == 10 and x == 1.0 and F == 0.5
    assert bias == pytest.approx(mean - F, abs=1e-15)
    meta = json.loads(err)
    assert meta["config"]["M"] == 100 and meta["config"]["schema"] == 1
    assert meta["wall_time"] >= 0.0
    assert_stream_meta(meta)


def test_mse_rejects_unknown_schema(tmp_path, capsys):
    path = write_config(tmp_path, schema=2)
    code, error, _ = fail_cli(["mse", "--config", path], capsys)
    assert code == 2
    assert "schema" in error["message"]


def test_mse_rejects_unknown_fields(tmp_path, capsys):
    path = write_config(tmp_path, bootstrap=True)
    code, error, _ = fail_cli(["mse", "--config", path], capsys)
    assert code == 2
    assert "bootstrap" in error["message"]


@pytest.mark.parametrize(
    "field, value, needle",
    [
        ("poissonized", "no", "poissonized must be true or false"),
        ("poissonized", 1, "poissonized must be true or false"),
        ("m_values", [3.5], "every m must be an integer, got 3.5"),
        ("m_values", [True], "every m must be an integer, got True"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("M", 12.0, "M must be an integer, got 12.0"),
        ("n", "300", "n must be an integer"),
        ("reps", 2.5, "reps must be an integer, got 2.5"),
        ("generator", 5, "generator must be a name string, got 5"),
        ("x_grid", [float("nan")], "other than NaN, got nan"),
        ("x_grid", ["a"], "every x must be a real number"),
        ("x_grid", [None], "every x must be a real number"),
    ],
    ids=["poissonized-str", "poissonized-int", "m-float", "m-bool", "seed-float", "M-float", "n-str",
         "reps-float", "generator-int", "x-nan", "x-str", "x-null"],
)
def test_mse_rejects_mistyped_config_values(field, value, needle, tmp_path, capsys):
    """Each of these used to run (truncated, read as truthy, or with NaN rows)
    or exit 1 with a traceback."""
    code, error, out = fail_cli(["mse", "--config", write_config(tmp_path, **{field: value})], capsys)
    assert code == 2 and error["type"] == "ValidationError"
    assert needle in error["message"] and out == ""


def test_mse_accepts_infinite_and_integer_x(tmp_path, capsys):
    path = write_config(tmp_path, x_grid=[float("-inf"), 1, float("inf")], poissonized=False)
    code, out, err = run_cli(["mse", "--config", path, "--format", "json"], capsys)
    assert code == 0 and err == ""
    assert [r[2] for r in json.loads(out)["rows"]] == [0.0, 0.5, 1.0]


def test_mse_reruns_its_echoed_config(tmp_path, capsys):
    path = write_config(tmp_path, x_grid=[float("-inf"), 1.0, float("inf")], m_values=[1, 10])
    _, out, _ = run_cli(["mse", "--config", path, "--format", "json"], capsys)
    doc = strict_json(out)
    assert doc["config"]["x_grid"] == ["-inf", 1.0, "inf"]
    echoed = tmp_path / "echoed.json"
    echoed.write_text(json.dumps(doc["config"]))
    _, again, _ = run_cli(["mse", "--config", str(echoed), "--format", "json"], capsys)
    assert strict_json(again)["rows"] == doc["rows"]


def test_mse_missing_config_is_io_error(tmp_path, capsys):
    code, error, _ = fail_cli(["mse", "--config", str(tmp_path / "absent.json")], capsys)
    assert code == 4
    assert error["type"] == "IOError"


# ---------- bounds ----------

def test_bounds_table(capsys):
    code, out, err = run_cli(
        ["bounds", "--n", "3000", "--m-values", "10,40", "--tau", "2.0", "--c", "0.3333333333333333"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["m", "n", "Tn", "bias_bound", "mse_bound", "m_n"]
    by_m = {int(r[0]): r for r in rows}
    assert float(by_m[40][2]) == pytest.approx(15.326188647871058, rel=1e-12)
    assert float(by_m[40][3]) == pytest.approx(1.5936991483868337, rel=1e-12)
    assert float(by_m[10][4]) == 1.0 / 40.0  # variance-only regime
    meta = json.loads(err)
    assert "vacuous" in meta["note"]


def test_bounds_accept_c_zero(capsys):
    """c = 0 (a flat density) exits 0 with strict JSON and a finite Tn at
    every m, taking the group-count branch below n^(1/3) too."""
    code, out, _ = run_cli(["bounds", "--n", "1000", "--m-values", "1,2,50", "--c", "0", "--format", "json"], capsys)
    assert code == 0
    doc = strict_json(out)
    assert doc["c"] == 0.0
    Tn = [row[2] for row in doc["rows"]]
    assert all(math.isfinite(t) for t in Tn)
    assert Tn == pytest.approx([(48.0 * 1000 / m) ** (1 / 3) for m in (1, 2, 50)], rel=1e-15)


def test_bounds_rejects_nonpositive_m(capsys):
    code, error, out = fail_cli(["bounds", "--n", "100", "--m-values", "3,0"], capsys)
    assert code == 2 and error["message"] == "m must be >= 1, got 0"
    assert out == ""


NAN_TABLE = "0,0\n0.5,nan\n1,1\n"


@pytest.mark.parametrize(
    "argv, field",
    [
        (["estimate", "--M", "10", "--n", "30"], "table"),
        (["simulate", "--M", "10", "--n", "30", "--reps", "2"], "table"),
        (["limit", "--lambda", "3", "--x-grid", "0.5,1"], "table"),
        (["bounds", "--n", "100", "--m-values", "3", "--tau", "nan"], "tau"),
        (["bounds", "--n", "100", "--m-values", "3", "--lambda", "nan"], "lambda"),
        (["bounds", "--n", "100", "--m-values", "3", "--c", "inf"], "c"),
    ],
    ids=["estimate-nan-table", "simulate-nan-table", "limit-nan-table", "bounds-nan-tau", "bounds-nan-lambda",
         "bounds-inf-c"],
)
def test_non_finite_inputs_exit_2_with_strict_json(tmp_path, capsys, argv, field):
    if field == "table":
        table = tmp_path / "nan.csv"
        table.write_text(NAN_TABLE)
        argv = argv + ["--generator", f"table:{table}"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()

    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    error = json.loads(err, parse_constant=reject)["error"]
    assert exc.value.code == 2 and error["type"] == "ValidationError" and out == ""
    assert error["message"].startswith(f"{field} ")
    assert "finite" in error["message"]


@pytest.mark.parametrize("command", ["estimate", "simulate", "mse", "limit"])
def test_table_that_is_not_utf8_exits_2_with_strict_json(tmp_path, capsys, command):
    table = tmp_path / "latin1.csv"
    table.write_bytes(b"0,0\n0.5,0.5\xff\n1,1\n")
    generator = f"table:{table}"
    argv = {
        "estimate": ["estimate", "--generator", generator, "--M", "10", "--n", "30"],
        "simulate": ["simulate", "--generator", generator, "--M", "10", "--n", "30", "--reps", "2"],
        "mse": ["mse", "--config", write_config(tmp_path, generator=generator)],
        "limit": ["limit", "--generator", generator, "--lambda", "3", "--x-grid", "0.5,1"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    error = strict_json(err)["error"]
    assert exc.value.code == 2 and error["type"] == "ValidationError" and out == ""
    assert error["message"] == f"table {table}: invalid UTF-8 at byte offset 11"


def test_simulate_estimates_0_below_zero_and_1_where_x_overflows(capsys):
    code, out, _ = run_cli(["simulate", "--M", "4", "--n", "8", "--reps", "1", "--x-grid=-1e-20,1e308",
                            "--format", "json"], capsys)
    assert code == 0 and strict_json(out)["rows"] == [[0, -1e-20, 0.0], [0, 1e308, 1.0]]


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--n", "100", "--m-values", "3", "--tau", "1e80"],
        ["bounds", "--n", "100", "--m-values", "3", "--tau", "1e200"],
        ["bounds", "--n", "100", "--m-values", "3", "--tau", "1e308"],
        ["limit", "--lambda", "1e308", "--x-grid", "1"],
    ],
    ids=["bounds-tau-1e80", "bounds-tau-1e200", "bounds-tau-1e308", "limit-lambda-1e308"],
)
def test_overflowing_bounds_and_failed_quadratures_exit_3_with_strict_json(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    error = strict_json(err)["error"]
    assert exc.value.code == 3 and error["type"] == "NumericError" and out == ""


# ---------- ingest ----------

def test_ingest_end_to_end(tmp_path, capsys):
    doc = tmp_path / "corpus.txt"
    doc.write_text("the cat sat on the mat the end")
    code, out, err = run_cli(["ingest", "--text", str(doc), "--m", "2"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "F"]
    assert float(rows[-1][1]) == 1.0
    meta = json.loads(err)
    assert meta["command"] == "ingest"
    assert meta["n"] == 8 and meta["M"] == 6
    assert "exploratory" in meta["caveat"]


def test_ingest_missing_file_is_io_error(tmp_path, capsys):
    code, error, _ = fail_cli(["ingest", "--text", str(tmp_path / "nope.txt"), "--m", "2"], capsys)
    assert code == 4
    assert error["type"] == "IOError"


# ---------- reproduce-figures ----------

def test_reproduce_figures_outputs(tmp_path, capsys):
    code, out, _ = run_cli(["reproduce-figures", "--out-dir", str(tmp_path), "--seed", "1"], capsys)
    assert code == 0
    assert_stream_meta(strict_json(out))
    for name in ("natural.csv", "grouped_m40.csv", "grouped_m10.csv"):
        assert (tmp_path / name).exists()

    header, rows = parse_csv((tmp_path / "natural.csv").read_text())
    assert header == ["x", "estimate", "limit"]
    assert float(rows[0][1]) == 0.0  # anchor row
    # every jump of the natural estimator sits on the 1/3 lattice
    for r in rows[1:]:
        ratio = float(r[0]) * 3.0
        assert abs(ratio - round(ratio)) < 1e-9

    _, rows40 = parse_csv((tmp_path / "grouped_m40.csv").read_text())
    overlay_at_2 = [float(r[2]) for r in rows40 if float(r[0]) == 2.0]
    assert overlay_at_2 == [1.0]
    estimates = [float(r[1]) for r in rows40]
    assert estimates == sorted(estimates) and estimates[-1] == 1.0


def test_reproduce_figures_raises_os_error_and_the_cli_exits_4(tmp_path, capsys):
    # the library function raises; only main turns the error into exit code 4
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(OSError):
        reproduce_figures(str(blocker / "sub"), 1)
    code, error, _ = fail_cli(["reproduce-figures", "--out-dir", str(blocker / "sub")], capsys)
    assert code == 4
    assert error["type"] == "IOError"


def test_reproduce_figures_is_seed_deterministic(tmp_path, capsys):
    run_cli(["reproduce-figures", "--out-dir", str(tmp_path / "a"), "--seed", "5"], capsys)
    run_cli(["reproduce-figures", "--out-dir", str(tmp_path / "b"), "--seed", "5"], capsys)
    a = (tmp_path / "a" / "grouped_m10.csv").read_bytes()
    b = (tmp_path / "b" / "grouped_m10.csv").read_bytes()
    assert a == b


@pytest.mark.parametrize("command", ["mse", "bounds", "limit", "ingest"])
def test_seed_is_refused_where_nothing_reads_it(command, tmp_path, capsys):
    """These used to accept --seed and ignore it; mse runs its config's seed."""
    with pytest.raises(SystemExit) as exc:
        main(strict_json_argv(command, tmp_path) + ["--seed", "1"])
    out, err = capsys.readouterr()
    error = strict_json(err)["error"]
    assert exc.value.code == error["exit_code"] == 2 and error["type"] == "ConfigError" and out == ""
    assert "--seed" in error["message"]


@pytest.mark.parametrize("command", ["estimate", "simulate", "mse", "bounds", "limit", "ingest"])
def test_documents_and_sidecars_open_with_schema_then_command(command, tmp_path, capsys):
    argv = strict_json_argv(command, tmp_path)
    texts = [run_cli(argv + ["--format", "json"], capsys)[1], run_cli(argv, capsys)[2]]
    run_cli(argv + ["--out", str(tmp_path / "t.csv")], capsys)
    run_cli(argv + ["--out", str(tmp_path / "t.json"), "--format", "json"], capsys)
    texts += [(tmp_path / "t.csv.json").read_text(), (tmp_path / "t.json").read_text()]
    for text in texts:
        doc = strict_json(text)
        assert list(doc)[:2] == ["schema", "command"] and (doc["schema"], doc["command"]) == (1, command)


def test_reproduce_figures_summary_opens_with_schema_then_command(tmp_path, capsys):
    _, out, _ = run_cli(["reproduce-figures", "--out-dir", str(tmp_path), "--seed", "1"], capsys)
    doc = strict_json(out)
    assert list(doc)[:3] == ["schema", "command", "seed"] and (doc["schema"], doc["command"]) == (1, "reproduce-figures")


# sha256 of the CSVs written under stream version 3, numpy and scipy at
# V3_PINNED_UNDER; a single draw is row 0 of a one-row slab from the seed's
# stream 0, and its rows have fewer than 2**12 cells, so versions 4 to 7
# write the same bytes
V3_PINNED_UNDER = {"numpy": "2.4.6", "scipy": "1.17.1"}
V3_OUTPUTS = [
    (["estimate", "--M", "1000", "--n", "3000", "--seed", "3"],
     {"e.csv": "a1e373ed13c539e061301e843cdde1425b1a9833ff84262c79be497a8b8e7ca5"}),
    (["estimate", "--M", "1000", "--n", "3000", "--m", "40", "--poissonized", "--seed", "4"],
     {"e.csv": "15c1d3b06c48952686cdb1ab950de5a2bb909f87ccea7187ba29e634172e00c6"}),
    (["estimate", "--M", "1000", "--n", "3000", "--m", "40", "--ordered", "--seed", "5"],
     {"e.csv": "2f91ac85484707f52dab6c111c1b8a7b575e340ee454dc4de013adf6ae132cd1"}),
    (["reproduce-figures", "--seed", "1"],
     {"natural.csv": "393d4b7b6d0f2c14e6a163f564d4c8bc561a536f57627ff3c7b08135bb2fe5bf",
      "grouped_m40.csv": "078492fae060517b99312c0d15d8b466ff233365bf5c6c196787d8b5ee9ead05",
      "grouped_m10.csv": "c88e7d08def7ba2c665bb10cf234eb787b974fb8fd5a5ad896c0ce7cbfc0b75c"}),
]


@pytest.mark.parametrize("argv, digests", V3_OUTPUTS, ids=["natural", "poissonized", "ordered", "figures"])
def test_single_draw_outputs_are_byte_identical_to_stream_version_3(tmp_path, capsys, pinned_under, argv, digests):
    out = ["--out-dir", str(tmp_path)] if argv[0] == "reproduce-figures" else ["--out", str(tmp_path / "e.csv")]
    assert run_cli(argv + out, capsys)[0] == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in digests} == digests, (
        pinned_under(**V3_PINNED_UNDER))


# ---------- strict JSON ----------

def strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    return json.loads(text, parse_constant=reject)


def strict_json_argv(command, tmp_path):
    """One run per subcommand that meets a non-finite float where it can:
    check_regime's ratios at m = 1 and echoed infinite x values."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the cat sat on the mat the end")
    return {
        "estimate": ["estimate", "--M", "1", "--n", "1"],
        "simulate": ["simulate", "--M", "4", "--n", "2", "--reps", "2", "--x-grid=-inf,0.5,inf"],
        "mse": ["mse", "--config", write_config(tmp_path, m_values=[1, 10], x_grid=[float("-inf"), 1.0, float("inf")])],
        "bounds": ["bounds", "--n", "3000", "--m-values", "1,40"],
        "limit": ["limit", "--lambda", "3", "--x-grid=-inf,0.5,inf"],
        "ingest": ["ingest", "--text", str(corpus), "--m", "1"],
    }[command]


@pytest.mark.parametrize("command", ["estimate", "simulate", "mse", "bounds", "limit", "ingest"])
def test_documents_and_sidecars_are_strict_json(command, tmp_path, capsys):
    argv = strict_json_argv(command, tmp_path)
    _, out, _ = run_cli(argv + ["--format", "json"], capsys)
    doc = strict_json(out)
    _, _, err = run_cli(argv, capsys)
    assert strict_json(err).keys() == doc.keys() - {"columns", "rows"}
    run_cli(argv + ["--out", str(tmp_path / "t.csv")], capsys)
    assert strict_json((tmp_path / "t.csv.json").read_text()).keys() == doc.keys() - {"columns", "rows"}


def test_non_finite_floats_are_written_as_strings(tmp_path, capsys, pinned_under):
    _, out, _ = run_cli(["estimate", "--M", "1", "--n", "1", "--format", "json"], capsys)
    regime = strict_json(out)["regime"]
    assert regime["ratio_grouping"] == regime["ratio_rate"] == "inf"
    _, out, _ = run_cli(strict_json_argv("simulate", tmp_path) + ["--format", "json"], capsys)
    doc = strict_json(out)
    assert doc["x_grid"] == ["-inf", 0.5, "inf"]
    assert [r[1] for r in doc["rows"][:3]] == ["-inf", 0.5, "inf"]
    assert [r[2] for r in doc["rows"][::3]] == [0.0, 0.0]
    _, out, _ = run_cli(strict_json_argv("limit", tmp_path) + ["--format", "json"], capsys)
    assert strict_json(out)["rows"] == [["-inf", 0.0], [0.5, pytest.approx(MIX_THIRD, abs=1e-9)], ["inf", 1.0]], (
        pinned_under(**LIMIT_PINNED_UNDER))


# ---------- edge inputs ----------

# Edge inputs that either run (exit 0, a strict JSON document whose last
# row reaches F = 1) or exit 2 with a strict JSON error and no output. FLAT
# is a table whose first half is flat (two cells of probability 0 at M = 4),
# CORPUS a small text file and LATIN1 a config that is not UTF-8.
CLI_EDGES = [
    (["estimate", "--M", "1", "--n", "1"], 0),
    (["estimate", "--M", "5", "--n", "2", "--m", "5"], 0),
    (["estimate", "--M", "6", "--n", "2", "--m", "3"], 0),
    (["estimate", "--generator", "FLAT", "--M", "4", "--n", "8"], 0),
    (["estimate", "--generator", "FLAT", "--M", "4", "--n", "8", "--ordered", "--m", "2"], 0),
    (["ingest", "--text", "CORPUS", "--m", "1"], 0),
    (["estimate", "--M", "4", "--n", "8", "--seed", str(2**64)], 2),
    (["estimate", "--M", "4", "--n", "8", "--seed", "-1"], 2),
    (["estimate", "--M", "0", "--n", "8"], 2),
    (["estimate", "--M", "4", "--n", "0"], 2),
    (["estimate", "--M", "4", "--n", str(2**62 + 1)], 2),
    (["simulate", "--M", "4", "--n", "8", "--reps", "0"], 2),
    (["estimate", "--M", "4", "--n", "8", "--m", "0"], 2),
    (["ingest", "--text", "CORPUS", "--m", "0"], 2),
    (["bounds", "--n", "0", "--m-values", "3"], 2),
    (["limit", "--lambda", "0", "--x-grid", "1"], 2),
    (["mse", "--config", "LATIN1"], 2),
    # sizes no numpy array can hold, and sizes that do not fit in memory
    (["estimate", "--M", str(2**64), "--n", "8", "--m", "3"], 2),
    (["simulate", "--M", "4", "--n", "8", "--reps", str(2**64)], 2),
    (["estimate", "--M", str(2**58), "--n", "8", "--m", "1"], 2),
    (["simulate", "--M", "4", "--n", "8", "--reps", str(2**56)], 2),
]


@pytest.mark.parametrize("argv, code", CLI_EDGES, ids=[" ".join(argv) for argv, _ in CLI_EDGES])
def test_edge_inputs_run_or_exit_2_with_strict_json(argv, code, tmp_path, capsys):
    (tmp_path / "flat.csv").write_text("0,0\n0.5,0\n1,1\n")
    (tmp_path / "corpus.txt").write_text("the cat sat on the mat the end")
    (tmp_path / "latin1.json").write_bytes(b'{"M": 4\xff}')
    paths = {"FLAT": f"table:{tmp_path / 'flat.csv'}", "CORPUS": str(tmp_path / "corpus.txt"),
             "LATIN1": str(tmp_path / "latin1.json")}
    argv = [paths.get(a, a) for a in argv] + ["--format", "json"]
    if code == 0:
        got, out, _ = run_cli(argv, capsys)
        assert got == 0 and strict_json(out)["rows"][-1][1] == 1.0
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and strict_json(err)["error"]["type"] == "ValidationError"


# x exactly on a lattice point: the estimate at x = k m / n and the limit at
# x = k / lambda include the count k (right-continuity), also where the
# float product lambda x lands a few ulps below k (2.7 * 1.111111111111111 =
# 2.9999999999999996). FLAT gives every draw the group counts (0, n) at
# M = 4, m = 2, and a mixture CDF of 1/2 + P(Poisson(2 lambda) <= K) / 2.
def _flat_mixture(K, lam):
    mu = 2 * lam
    return 0.5 + 0.5 * math.exp(-mu) * sum(mu**j / math.factorial(j) for j in range(K + 1))


LATTICE_POINTS = [
    # K = floor(4x) = -1, 0, 7 and 8
    (["simulate", "--generator", "FLAT", "--M", "4", "--n", "8", "--m", "2", "--reps", "2",
      "--x-grid=-1e-300,-0.0,1.999,2"], [0.0, 0.5, 0.5, 1.0] * 2),
    # K = 2 and 3
    (["limit", "--generator", "FLAT", "--lambda", "2.7", "--x-grid", "1.11,1.111111111111111"],
     [_flat_mixture(2, 2.7), _flat_mixture(3, 2.7)]),
]


@pytest.mark.parametrize("argv, values", LATTICE_POINTS, ids=["simulate", "limit"])
def test_x_on_a_lattice_point_includes_it(argv, values, tmp_path, capsys):
    (tmp_path / "flat.csv").write_text("0,0\n0.5,0\n1,1\n")
    argv = [f"table:{tmp_path / 'flat.csv'}" if a == "FLAT" else a for a in argv] + ["--format", "json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert [r[-1] for r in strict_json(out)["rows"]] == pytest.approx(values, abs=1e-15)


# ---------- sample-size limits ----------

@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--M", "10", "--n", "9223372036854775808"],
        ["estimate", "--M", "10", "--n", "100000000000000000000", "--poissonized"],
        ["simulate", "--M", "10", "--n", "100000000000000000000", "--reps", "2"],
    ],
    ids=["multinomial", "poissonized", "simulate"],
)
def test_n_above_the_draw_limit_is_a_validation_error(argv, capsys):
    code, error, out = fail_cli(argv, capsys)
    assert code == 2 and error["type"] == "ValidationError"
    assert error["message"] == f"n must be <= {MAX_N}, got {argv[4]}"
    assert out == ""


def test_estimate_at_the_draw_limit(capsys):
    code, out, _ = run_cli(["estimate", "--M", "10", "--n", str(MAX_N), "--m", "2", "--format", "json"], capsys)
    assert code == 0 and strict_json(out)["rows"][-1][1] == 1.0


# ---------- parser-level errors ----------

def test_unknown_flag_is_config_error(capsys):
    code, error, _ = fail_cli(["limit", "--lambda", "3", "--x-grid", "1", "--fast"], capsys)
    assert code == 2
    assert error["type"] == "ConfigError"


def test_unknown_subcommand(capsys):
    code, error, _ = fail_cli(["transmogrify"], capsys)
    assert code == 2


# ---------- argv fuzzing ----------

# The values the fuzz gives each flag: small valid ones, and names that
# fuzz_files resolves to a valid, a malformed and a missing table, corpus
# and config, and to output paths that can and cannot be written. A switch
# takes no value.
FUZZ_VALUES = {
    "--generator": ["example", "uniform", "TABLE", "BAD_TABLE", "NO_TABLE"],
    "--M": ["1", "4", "12", "40", "1000"],
    "--n": ["1", "8", "36", "3000", "10000", str(2**62)],
    "--m": ["1", "2", "3", "4", "40"],
    "--reps": ["1", "2", "3"],
    "--x-grid": ["0.5", "0.25,1.0,1.75", "-inf,0.5,inf", "1e308"],
    "--lambda": ["0.5", "3", "1e308"],
    "--m-values": ["1", "2,50", "3,40"],
    "--tau": ["2", "0.5", "1e80"],
    "--c": ["0", "0.3333333333333333"],
    "--config": ["CONFIG", "BAD_CONFIG", "NO_CONFIG"],
    "--text": ["CORPUS", "BAD_CORPUS", "NO_CORPUS"],
    "--seed": ["0", "7", str(2**64 - 1)],
    "--format": ["csv", "json"],
    "--out": ["OUT", "UNDER_FILE"],
    "--out-dir": ["DIR", "UNDER_FILE"],
    "--poissonized": [],
    "--ordered": [],
}
# Each subcommand's flags other than its output path, the required ones first.
FUZZ_FLAGS = {
    "estimate": (["--M", "--n"], ["--generator", "--m", "--poissonized", "--ordered", "--seed", "--format"]),
    "simulate": (["--M", "--n"], ["--generator", "--m", "--poissonized", "--reps", "--x-grid", "--seed", "--format"]),
    "mse": (["--config"], ["--format"]),
    "bounds": (["--n", "--m-values"], ["--tau", "--c", "--lambda", "--format"]),
    "limit": (["--lambda", "--x-grid"], ["--generator", "--format"]),
    "ingest": (["--text", "--m"], ["--format"]),
    "reproduce-figures": ([], ["--seed"]),
}
FUZZ_SENTINELS = ["0", "-1", "nan", "inf", str(2**64), "not-a-number"]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "table.csv").write_text("0,0\n0.25,0.125\n0.5,0.625\n0.75,0.75\n1,1\n")
    (d / "bad_table.csv").write_text(NAN_TABLE)
    (d / "corpus.txt").write_text("the cat sat on the mat the end and the dog ran")
    (d / "bad_corpus.txt").write_bytes(b"the cat \xff\xfe sat")
    (d / "config.json").write_text(json.dumps(
        {"schema": 1, "generator": "example", "M": 12, "n": 36, "m_values": [2, 3, 4], "x_grid": [0.5, 1.0], "reps": 3,
         "seed": 7}
    ))
    (d / "bad_config.json").write_text('{"M": 12, "n": ')
    return {
        "TABLE": f"table:{d / 'table.csv'}", "BAD_TABLE": f"table:{d / 'bad_table.csv'}",
        "NO_TABLE": f"table:{d / 'absent.csv'}", "CORPUS": str(d / "corpus.txt"),
        "BAD_CORPUS": str(d / "bad_corpus.txt"), "NO_CORPUS": str(d / "absent.txt"),
        "CONFIG": str(d / "config.json"), "BAD_CONFIG": str(d / "bad_config.json"),
        "NO_CONFIG": str(d / "absent.json"), "OUT": str(d / "out.csv"), "DIR": str(d / "figures"),
        "UNDER_FILE": str(d / "corpus.txt" / "o.csv"),
    }


@st.composite
def fuzz_argv(draw):
    """A subcommand with its required flags and some optional ones, each
    with a valid value, then up to two faults: an invalid sentinel for one
    value, a dropped flag, --seed (which only estimate, simulate and
    reproduce-figures take) or an unknown flag. The output path is drawn
    apart from the faults, so nothing is written to the working directory."""
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    required, optional = FUZZ_FLAGS[command]
    args = [[flag, *([draw(st.sampled_from(FUZZ_VALUES[flag]))] if FUZZ_VALUES[flag] else [])]
            for flag in required + [f for f in optional if draw(st.booleans())]]
    for fault in draw(st.lists(st.sampled_from(["sentinel", "drop", "seed", "unknown"]), max_size=2)):
        if fault == "seed":
            args.append(["--seed", draw(st.sampled_from(FUZZ_VALUES["--seed"]))])
        elif fault == "unknown":
            args.append(["--fast"])
        elif args:
            k = draw(st.integers(0, len(args) - 1))
            if fault == "drop":
                del args[k]
            else:
                args[k][1:] = [draw(st.sampled_from(FUZZ_SENTINELS))]
    out = "--out-dir" if command == "reproduce-figures" else "--out"
    if out == "--out-dir" or draw(st.booleans()):
        args.append([out, draw(st.sampled_from(FUZZ_VALUES[out]))])
    return [command] + [a for arg in args for a in arg]


@settings(max_examples=300, deadline=None)
@given(argv=fuzz_argv())
def test_fuzzed_argv_exits_0_or_with_one_strict_json_error(argv, fuzz_files):
    """Any argv runs (exit 0) or exits 2, 3 or 4 with one strict JSON error
    line on stderr whose exit_code is the exit code; never a traceback."""
    argv = [fuzz_files.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    if code == 0:
        return
    assert code in (2, 3, 4)
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and strict_json(lines[0])["error"]["exit_code"] == code


# ---------- start-up ----------

# Runs in a fresh interpreter, since pytest itself imports scipy.integrate
# to read the IntegrationWarning filter in pyproject.toml: imports the
# package and the CLI, then calls main on each argv of argv[1] (a JSON
# list) in order, and prints, per step, the exit code, stdout and the
# scipy modules loaded so far.
_SCIPY_PROBE = """
import contextlib, io, json, sys
import structdist, structdist.cli

def step(name, code=0, out=""):
    return [name, code, out, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]

steps = [step("import")]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = structdist.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    steps.append(step(" ".join(argv[:2]), code, out.getvalue()))
print(json.dumps(steps))
"""

# limit --lambda 3 --x-grid 0.5,1 --format json on example, as written when
# scipy was imported with the package
LIMIT_EXAMPLE_DOC = (
    '{"schema": 1, "command": "limit", "generator": "example", "lambda": 3.0, "x_grid": [0.5, 1.0], '
    '"method": "quadrature", "columns": ["x", "mixture_cdf"], '
    '"rows": [[0.5, 0.33002833043111157], [1.0, 0.6278328825655605]]}\n'
)


def test_scipy_is_loaded_only_by_the_limit_laws(tmp_path, pinned_under):
    """Only the limit laws use scipy, and they import it on first use:
    special for a table's exact sum, integrate too for a quadrature."""
    corpus, table = tmp_path / "corpus.txt", tmp_path / "steps.csv"
    corpus.write_text("the cat sat on the mat the end")
    table.write_text("0,0\n0.25,0\n0.5,0.5\n1,1\n")
    without_scipy = [
        (["bounds", "--n", "1000", "--m-values", "1,2,50"], 0),
        (["estimate", "--M", "12", "--n", "36", "--m", "3"], 0),
        (["simulate", "--M", "12", "--n", "36", "--reps", "2"], 0),
        (["mse", "--config", write_config(tmp_path)], 0),
        (["ingest", "--text", str(corpus), "--m", "1"], 0),
        (["reproduce-figures", "--out-dir", str(tmp_path / "figures")], 0),
        (["simulate", "--M", "1000", "--n", "3000", "--m", "30"], 2),
        (["bounds", "--n", "10", "--fast"], 2),
    ]
    limits = [
        ["limit", "--generator", f"table:{table}", "--lambda", "3", "--x-grid", "0.5,1", "--format", "json"],
        ["limit", "--lambda", "3", "--x-grid", "0.5,1", "--format", "json"],
    ]
    src = str(Path(structdist.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argvs = [argv for argv, _ in without_scipy] + limits
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    assert steps[0] == ["import", 0, "", []]
    for (name, code, _, loaded), (_, expect) in zip(steps[1:], without_scipy):
        assert (code, loaded) == (expect, []), name
    (_, table_code, _, after_table), (_, code, doc, after_example) = steps[-2:]
    assert table_code == 0 and "scipy.special" in after_table
    assert not [m for m in after_table if m.startswith("scipy.integrate")]
    assert code == 0 and "scipy.integrate" in after_example
    assert doc == LIMIT_EXAMPLE_DOC, pinned_under(**LIMIT_PINNED_UNDER)
