"""Command-line front end: output contracts, exit codes, error JSON."""

import json

import numpy as np
import pytest
import scipy

from structdist import STREAM_VERSION, StudyConfig, run_mse_study
from structdist.cli import main

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
    assert meta["stream_version"] == STREAM_VERSION == 2
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
    code, _, _ = run_cli(["reproduce-figures", "--out-dir", str(tmp_path), "--seed", "1"], capsys)
    assert code == 0
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
