"""Command-line front end: output contracts, exit codes, error JSON."""

import json
import math

import numpy as np
import pytest
import scipy

from structdist import (
    NATURAL,
    STREAM_VERSION,
    EstimatorOutput,
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
from structdist.cli import _jump_rows, main

MIX_THIRD = 0.33002833043111157  # mixture CDF at 1/3, lambda=3 (quadrature-frozen)


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
    assert meta["stream_version"] == STREAM_VERSION == 3
    assert meta["numpy"] == np.__version__ and meta["scipy"] == scipy.__version__


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


# ---------- limit ----------

def test_limit_csv_and_sidecar(capsys):
    code, out, err = run_cli(
        ["limit", "--lambda", "3", "--generator", "example", "--x-grid=-1,0.3333333333333333,1.0"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "mixture_cdf"]
    assert float(rows[0][1]) == 0.0  # negative x
    assert float(rows[1][1]) == pytest.approx(MIX_THIRD, abs=1e-9)
    assert float(rows[2][1]) == pytest.approx(0.6278328825655605, abs=1e-9)
    vals = [float(r[1]) for r in rows]
    assert vals == sorted(vals)
    meta = json.loads(err)
    assert meta["schema"] == 1 and meta["command"] == "limit" and meta["lambda"] == 3.0


def test_limit_json_document(capsys):
    code, out, _ = run_cli(
        ["limit", "--lambda", "3", "--x-grid", "0.5", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["columns"] == ["x", "mixture_cdf"]
    assert doc["rows"][0][1] == pytest.approx(MIX_THIRD, abs=1e-9)


def test_json_documents_are_compact_and_sidecars_indented(capsys):
    _, out, _ = run_cli(["limit", "--lambda", "3", "--x-grid", "0.5,1", "--format", "json"], capsys)
    assert out == json.dumps(json.loads(out)) + "\n"
    _, _, err = run_cli(["limit", "--lambda", "3", "--x-grid", "0.5,1"], capsys)
    assert err == json.dumps(json.loads(err), indent=2) + "\n"


def test_limit_non_finite_x(capsys):
    code, out, _ = run_cli(["limit", "--lambda", "3", "--x-grid=-inf,0.5,inf", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r[1] for r in rows] == [0.0, pytest.approx(MIX_THIRD, abs=1e-9), 1.0]


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
    est = EstimatorOutput(grouped, 3000, ("grouped", vec.kind))
    assert doc["rows"] == [list(r) for r in _jump_rows(est)]
    assert doc["kind"] == list(est.kind) and doc["k"] == 25 and doc["ordered"] is True
    # the density is not monotone, so grouping in cell order gives other rows
    unsorted = EstimatorOutput(vec.counts.reshape(40, 25).sum(axis=1), 3000, est.kind)
    assert doc["rows"] != [list(r) for r in _jump_rows(unsorted)]


def test_jump_rows_prepend_zero_anchor():
    rows = _jump_rows(EstimatorOutput(np.array([3, 1]), 2, (NATURAL, "multinomial")))
    # anchor sits 2% of the span left of the first jump, at height zero
    assert rows[0] == (0.96, 0.0)
    assert rows[1:] == [(1.0, 0.5), (3.0, 1.0)]
    # a single jump: the anchor sits 2% of its location to the left
    assert _jump_rows(EstimatorOutput(np.array([5, 5]), 2, (NATURAL, "multinomial"))) == [(4.9, 0.0), (5.0, 1.0)]


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


def test_bounds_rejects_nonpositive_m(capsys):
    code, error, out = fail_cli(["bounds", "--n", "100", "--m-values", "3,0"], capsys)
    assert code == 2 and error["message"] == "m must be >= 1, got 0"
    assert out == ""


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
    assert_stream_meta(json.loads(out))
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


def test_reproduce_figures_is_seed_deterministic(tmp_path, capsys):
    run_cli(["reproduce-figures", "--out-dir", str(tmp_path / "a"), "--seed", "5"], capsys)
    run_cli(["reproduce-figures", "--out-dir", str(tmp_path / "b"), "--seed", "5"], capsys)
    a = (tmp_path / "a" / "grouped_m10.csv").read_bytes()
    b = (tmp_path / "b" / "grouped_m10.csv").read_bytes()
    assert a == b


# ---------- parser-level errors ----------

def test_unknown_flag_is_config_error(capsys):
    code, error, _ = fail_cli(["limit", "--lambda", "3", "--x-grid", "1", "--fast"], capsys)
    assert code == 2
    assert error["type"] == "ConfigError"


def test_unknown_subcommand(capsys):
    code, error, _ = fail_cli(["transmogrify"], capsys)
    assert code == 2
