"""End-to-end tests of the command-line interface."""

import contextlib
import csv
import io
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest

import ivtskit as iv


def run_cli(*args, env=None):
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "ivtskit", *map(str, args)],
        capture_output=True,
        text=True,
        env=merged,
    )


def read_report(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "run,kernel,dgp,seed,accuracy"
    rows = [line.split(",") for line in lines[1:]]
    return [(int(r[0]), r[1], r[2], int(r[3]), float(r[4])) for r in rows]


def write_ragged_csv(path):
    """A dataset CSV whose third item has T = 7 and the others T = 6."""
    rng = np.random.default_rng(0)
    rows = ["item,dim,t,lower,upper,label"]
    for item, (T, label) in enumerate(((6, 1), (6, 1), (7, 2), (6, 2))):
        rows += [f"{item},0,{t},{lo!r},{up!r},{label}"
                 for t, (lo, up) in enumerate(rng.standard_normal((T, 2)).tolist())]
    path.write_text("\n".join(rows) + "\n")


@pytest.fixture()
def mix_csv(tmp_path):
    path = tmp_path / "mix.csv"
    out = run_cli(
        "generate", "--scenario", "mix", "--rho", "0.7", "--per-class", "4",
        "--T", "30", "--seed", "5", "--out", path,
    )
    assert out.returncode == 0, out.stderr
    return path


class TestConsoleScript:
    def test_entry_point_resolves(self, tmp_path):
        exe = os.path.join(os.path.dirname(sys.executable), "ivtskit")
        if not os.path.exists(exe):
            exe = shutil.which("ivtskit")
        if exe is None:
            pytest.skip("console script not installed")
        out = subprocess.run(
            [exe, "generate", "--dgp", "3", "--per-class", "2", "--T", "8",
             "--rhos", "0,0.7", "--out", str(tmp_path / "x.csv")],
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert "n=4" in out.stdout

    def test_dash_values_need_equals_form(self, tmp_path):
        bad = run_cli("generate", "--dgp", "3", "--rhos", "-0.9,0.7",
                      "--out", tmp_path / "x.csv")
        assert bad.returncode == 2
        good = run_cli("generate", "--dgp", "3", "--per-class", "2", "--T", "8",
                       "--rhos=-0.9,0.7", "--out", tmp_path / "x.csv")
        assert good.returncode == 0, good.stderr


class TestGenerate:
    def test_summary_and_shape(self, tmp_path):
        path = tmp_path / "d1.csv"
        out = run_cli(
            "generate", "--dgp", "1", "--per-class", "5", "--T", "20",
            "--seed", "7", "--out", path, "--rhos", "0,0.7",
        )
        assert out.returncode == 0, out.stderr
        assert "n=10 C=2 d=1 T=20" in out.stdout
        ds = iv.load_dataset_csv(path)
        assert len(ds) == 10

    def test_scenario_c1_has_five_dims(self, tmp_path):
        path = tmp_path / "c1.csv"
        out = run_cli(
            "generate", "--scenario", "c1", "--per-class", "1", "--T", "8",
            "--seed", "0", "--out", path,
        )
        assert out.returncode == 0, out.stderr
        assert "C=3 d=5" in out.stdout

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            out = run_cli(
                "generate", "--dgp", "3", "--per-class", "3", "--T", "12",
                "--seed", "9", "--out", path,
            )
            assert out.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_usage_errors(self, tmp_path):
        assert run_cli("generate", "--out", tmp_path / "x.csv").returncode == 2
        assert run_cli(
            "generate", "--dgp", "9", "--out", tmp_path / "x.csv"
        ).returncode == 2
        assert run_cli("generate", "--dgp", "1").returncode == 2

    def test_bad_rho_is_numeric_error(self, tmp_path):
        out = run_cli(
            "generate", "--dgp", "1", "--rhos", "2.0", "--per-class", "1",
            "--T", "5", "--out", tmp_path / "x.csv",
        )
        assert out.returncode == 4


class TestIngest:
    def _write_raw(self, path, n_days=60, dims=("temp",), sid="s1", label="north"):
        rows = ["series_id,dim,timestamp,value,label"]
        start = date(2020, 1, 1)
        for i in range(n_days):
            day = start + timedelta(days=i)
            for dim in dims:
                for hour, bump in ((0, 0.0), (6, 2.5), (12, -1.5)):
                    rows.append(
                        f"{sid},{dim},{day.isoformat()}T{hour:02d}:00:00,"
                        f"{i + bump},{label}"
                    )
        path.write_text("\n".join(rows) + "\n")

    def test_sixty_days_make_two_windows(self, tmp_path):
        raw, out_csv = tmp_path / "raw.csv", tmp_path / "ds.csv"
        self._write_raw(raw, n_days=60)
        out = run_cli("ingest", "--input", raw, "--out", out_csv)
        assert out.returncode == 0, out.stderr
        assert "n=2" in out.stdout and "T=30" in out.stdout
        ds = iv.load_dataset_csv(out_csv)
        # daily interval = [i - 1.5, i + 2.5]
        first = ds.items[0][0]
        assert first[0] == iv.Interval(-1.5, 2.5)
        assert first[1] == iv.Interval(-0.5, 3.5)

    def test_single_reading_day_degenerate_interval(self, tmp_path):
        raw, out_csv = tmp_path / "raw.csv", tmp_path / "ds.csv"
        rows = ["series_id,dim,timestamp,value,label"]
        for i in range(3):
            rows.append(f"s1,x,2021-03-0{i + 1},{float(i)},a")
        raw.write_text("\n".join(rows) + "\n")
        out = run_cli("ingest", "--input", raw, "--out", out_csv, "--window", "3")
        assert out.returncode == 0, out.stderr
        ds = iv.load_dataset_csv(out_csv)
        assert ds.items[0][0][1] == iv.Interval(1.0, 1.0)

    def test_missing_dimension_day_dropped_with_warning(self, tmp_path):
        raw, out_csv = tmp_path / "raw.csv", tmp_path / "ds.csv"
        rows = ["series_id,dim,timestamp,value,label"]
        start = date(2022, 5, 1)
        for i in range(5):
            day = (start + timedelta(days=i)).isoformat()
            rows.append(f"s1,a,{day}T01:00:00,{i},L")
            if i != 2:  # day 3 lacks dimension b
                rows.append(f"s1,b,{day}T01:00:00,{i * 10},L")
        raw.write_text("\n".join(rows) + "\n")
        out = run_cli("ingest", "--input", raw, "--out", out_csv, "--window", "4")
        assert out.returncode == 0, out.stderr
        assert "dropped 1 day(s)" in out.stderr
        ds = iv.load_dataset_csv(out_csv)
        assert len(ds) == 1
        series = ds.items[0][0]
        assert series.d == 2
        # the retained days are 1, 2, 4, 5
        assert np.array_equal(series.dimension(0).lowers, [0.0, 1.0, 3.0, 4.0])

    def test_stride_controls_overlap(self, tmp_path):
        raw, out_csv = tmp_path / "raw.csv", tmp_path / "ds.csv"
        self._write_raw(raw, n_days=6)
        out = run_cli(
            "ingest", "--input", raw, "--out", out_csv, "--window", "4", "--stride", "1"
        )
        assert out.returncode == 0, out.stderr
        assert "n=3" in out.stdout

    def test_label_mapping_sorted(self, tmp_path):
        raw, out_csv = tmp_path / "raw.csv", tmp_path / "ds.csv"
        rows = ["series_id,dim,timestamp,value,label"]
        for sid, label in (("s1", "zeta"), ("s2", "alpha")):
            for i in range(2):
                rows.append(f"{sid},x,2020-01-0{i + 1},1.0,{label}")
        raw.write_text("\n".join(rows) + "\n")
        out = run_cli("ingest", "--input", raw, "--out", out_csv, "--window", "2")
        assert out.returncode == 0, out.stderr
        assert "'alpha'->1" in out.stdout and "'zeta'->2" in out.stdout

    def test_malformed_row_is_data_error(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("series_id,dim,timestamp,value,label\ns1,x,notadate,1.0,a\n")
        out = run_cli("ingest", "--input", raw, "--out", tmp_path / "o.csv")
        assert out.returncode == 3


    @staticmethod
    def _two_series(path, cell_value="0.5"):
        """Series a and b over three days with readings at 00:00 and 12:00;
        the 12:00 reading of day 2 of series a is `cell_value`."""
        rows = ["series_id,dim,timestamp,value,label"]
        for sid in ("a", "b"):
            for day in (1, 2, 3):
                for hour in ("00", "12"):
                    v = cell_value if (sid, day, hour) == ("a", 2, "12") else str((day - 1) * 0.5)
                    rows.append(f"{sid},x,2021-01-0{day}T{hour}:00:00,{v},{sid.upper()}")
        path.write_text("\n".join(rows) + "\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_reading_is_data_error(self, tmp_path, value):
        raw, out_csv = tmp_path / "raw.csv", tmp_path / "ds.csv"
        self._two_series(raw, value)
        out = run_cli("ingest", "--input", raw, "--out", out_csv, "--window", "2")
        assert out.returncode == 3
        assert out.stderr == f"data error: {raw}:5: non-finite value {value!r}\n"
        assert not out_csv.exists()

    def test_non_finite_first_reading_is_data_error(self, tmp_path):
        raw, out_csv = tmp_path / "raw.csv", tmp_path / "ds.csv"
        raw.write_text("series_id,dim,timestamp,value,label\ns,x,2021-01-01, nan ,L\n")
        out = run_cli("ingest", "--input", raw, "--out", out_csv, "--window", "1")
        assert out.returncode == 3
        assert out.stderr == f"data error: {raw}:2: non-finite value 'nan'\n"

    def test_finite_fixture_ingests(self, tmp_path):
        raw, out_csv = tmp_path / "raw.csv", tmp_path / "ds.csv"
        self._two_series(raw)
        out = run_cli("ingest", "--input", raw, "--out", out_csv, "--window", "2")
        assert out.returncode == 0, out.stderr
        ds = iv.load_dataset_csv(out_csv)
        assert ds.items[0][0][1] == iv.Interval(0.5, 0.5)

    def test_non_utf8_input_is_one_line_data_error(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_bytes(b"series_id,dim,timestamp,value,label\ns\xe9,x,2021-01-01,1,L\n")
        out = run_cli("ingest", "--input", raw, "--out", tmp_path / "o.csv", "--window", "1")
        assert out.returncode == 3
        assert out.stderr.startswith(f"data error: {raw}: not UTF-8 text")
        assert len(out.stderr.splitlines()) == 1 and "Traceback" not in out.stderr

    def test_dropped_days_warning_text_and_order(self, tmp_path):
        # perfbench/run.py counts dropped days from this exact text
        raw, out_csv = tmp_path / "raw.csv", tmp_path / "ds.csv"
        rows = ["series_id,dim,timestamp,value,label"]
        lacking = {"zeta": (2,), "alpha": (1, 3), "mid": ()}  # days lacking dimension b
        for sid, missing in lacking.items():
            for day in range(1, 6):
                rows.append(f"{sid},a,2022-05-0{day},{day},L")
                if day not in missing:
                    rows.append(f"{sid},b,2022-05-0{day},{-day},L")
        raw.write_text("\n".join(rows) + "\n")
        out = run_cli("ingest", "--input", raw, "--out", out_csv, "--window", "2")
        assert out.returncode == 0, out.stderr
        assert out.stderr == (
            "warning: series 'alpha': dropped 2 day(s) with missing dimensions\n"
            "warning: series 'zeta': dropped 1 day(s) with missing dimensions\n"
        )
        dropped = sum(int(line.split("dropped ")[1].split()[0])
                      for line in out.stderr.splitlines() if "dropped " in line)
        assert dropped == 3


class TestImage:
    def test_outputs_and_index(self, mix_csv, tmp_path):
        outdir = tmp_path / "imgs"
        out = run_cli(
            "image", "--data", mix_csv, "--outdir", outdir, "--kernel", "K4",
            "--threads", "2",
        )
        assert out.returncode == 0, out.stderr
        pgms = sorted(outdir.glob("*.pgm"))
        assert len(pgms) == 12
        index = (outdir / "index.csv").read_text().splitlines()
        assert index[0] == "file,item,label"
        assert len(index) == 13
        config = (outdir / "run_config.txt").read_text()
        assert f"epsilon={math.pi / 18!r}" in config
        assert "m=1" in config and "kappa=1" in config

    def test_preset_equals_literal(self, mix_csv, tmp_path):
        d_preset, d_literal = tmp_path / "p", tmp_path / "l"
        for outdir, kernel in ((d_preset, "K4"), (d_literal, "1,0,1")):
            out = run_cli(
                "image", "--data", mix_csv, "--outdir", outdir, "--kernel", kernel,
                "--stem", "img",
            )
            assert out.returncode == 0, out.stderr
        for name in sorted(p.name for p in d_preset.glob("*.pgm")):
            assert (d_preset / name).read_bytes() == (d_literal / name).read_bytes()

    def test_thread_count_does_not_change_bytes(self, mix_csv, tmp_path):
        d1, d4 = tmp_path / "t1", tmp_path / "t4"
        for outdir, threads in ((d1, 1), (d4, 4)):
            out = run_cli(
                "image", "--data", mix_csv, "--outdir", outdir, "--kernel", "K5",
                "--threads", threads, "--stem", "img",
            )
            assert out.returncode == 0, out.stderr
        for path in sorted(d1.iterdir()):
            if path.name == "run_config.txt":
                continue  # records the differing --threads value
            assert path.read_bytes() == (d4 / path.name).read_bytes()

    def test_env_var_threads(self, mix_csv, tmp_path):
        out = run_cli(
            "image", "--data", mix_csv, "--outdir", tmp_path / "env", "--kernel", "K4",
            env={"IVTS_THREADS": "2"},
        )
        assert out.returncode == 0, out.stderr

    def test_bad_env_var_threads_is_usage_error(self, mix_csv, tmp_path):
        out = run_cli("image", "--data", mix_csv, "--outdir", tmp_path / "o",
                      "--kernel", "K4", env={"IVTS_THREADS": "abc"})
        assert out.returncode == 2
        assert len(out.stderr.strip().splitlines()) == 1
        assert "IVTS_THREADS" in out.stderr

    def test_csv_format(self, mix_csv, tmp_path):
        outdir = tmp_path / "csvimgs"
        out = run_cli(
            "image", "--data", mix_csv, "--outdir", outdir, "--kernel", "K4",
            "--format", "csv",
        )
        assert out.returncode == 0, out.stderr
        assert len(list(outdir.glob("*.csv"))) == 13  # 12 images + index
        img = iv.load_csv_image(outdir / "mix_0.csv")
        assert img.n == 30

    def test_missing_data_file_is_data_error(self, tmp_path):
        out = run_cli(
            "image", "--data", tmp_path / "nope.csv", "--outdir", tmp_path / "o",
            "--kernel", "K4",
        )
        assert out.returncode == 3

    def test_indefinite_kernel_is_numeric_error(self, mix_csv, tmp_path):
        out = run_cli(
            "image", "--data", mix_csv, "--outdir", tmp_path / "o",
            "--kernel", "1,2,1",
        )
        assert out.returncode == 4
        assert "item" in out.stderr  # failure is tagged with the item index

    def test_ragged_lengths_are_data_error(self, tmp_path):
        data = tmp_path / "ragged.csv"
        write_ragged_csv(data)
        out = run_cli("image", "--data", data, "--outdir", tmp_path / "o", "--kernel", "K4")
        assert out.returncode == 3
        assert len(out.stderr.strip().splitlines()) == 1
        assert "Traceback" not in out.stderr
        assert f"{data}: items disagree on series length T: [6, 7]" in out.stderr


def _write_separable_dataset(path):
    """Two classes whose recurrence images differ in block structure."""
    items = []
    for i in range(6):
        c = 0.001 * i
        flat = iv.IntervalSeries([iv.Interval(c, c + 0.1)] * 12)
        items.append((flat, 1))
    for i in range(6):
        c = 0.001 * i
        jumpy = iv.IntervalSeries(
            [iv.Interval(c, c + 0.1)] * 6 + [iv.Interval(100 + c, 100.1 + c)] * 6
        )
        items.append((jumpy, 2))
    iv.save_dataset_csv(iv.LabeledDataset(tuple(items), 2), path)


def assert_one_line_error(out, code, text):
    assert out.returncode == code, out.stderr
    assert len(out.stderr.strip().splitlines()) == 1
    assert "Traceback" not in out.stderr
    assert text in out.stderr


@pytest.fixture()
def sep_images(tmp_path):
    """The separable dataset imaged; tests rewrite the labels of its index.csv."""
    data, imgdir = tmp_path / "sep.csv", tmp_path / "imgs"
    _write_separable_dataset(data)
    out = run_cli("image", "--data", data, "--outdir", imgdir, "--kernel", "K4")
    assert out.returncode == 0, out.stderr
    return imgdir


def relabel_index(imgdir, relabel):
    index = imgdir / "index.csv"
    lines = index.read_text().splitlines()
    rows = [line.rsplit(",", 1) for line in lines[1:]]
    index.write_text("\n".join(
        [lines[0]] + [f"{head},{relabel(i, label)}" for i, (head, label) in enumerate(rows)]
    ) + "\n")


class TestClassify:
    def test_knn_self_test_is_perfect(self, mix_csv, tmp_path):
        outdir = tmp_path / "knn"
        out = run_cli(
            "classify", "--data", mix_csv, "--mode", "knn", "--k", "1",
            "--kernel", "K4", "--self-test", "--outdir", outdir,
        )
        assert out.returncode == 0, out.stderr
        rows = read_report(outdir / "report.csv")
        assert rows[0][4] == 1.0

    def test_linear_separable_fixture(self, tmp_path):
        data = tmp_path / "sep.csv"
        _write_separable_dataset(data)
        outdir = tmp_path / "lin"
        out = run_cli(
            "classify", "--data", data, "--mode", "linear", "--blocks", "2",
            "--steps", "300", "--train-fraction", "0.5", "--seed", "1",
            "--outdir", outdir, "--tag", "sep",
        )
        assert out.returncode == 0, out.stderr
        rows = read_report(outdir / "report.csv")
        assert rows[0][2] == "sep"
        assert rows[0][4] == 1.0
        model, kind = iv.load_model(outdir / "model_run0.txt")
        assert kind == "hinge"
        assert model.n_classes == 2

    def test_zero_model_warns_once_per_run(self, tmp_path):
        # on this dgp 2 fixture no training step of run 0 beats the zero
        # model; run 1 (another split) learns
        data = tmp_path / "dgp2.csv"
        assert run_cli("generate", "--dgp", "2", "--per-class", "40", "--T", "60",
                       "--seed", "0", "--out", data).returncode == 0
        outdir = tmp_path / "lin"
        out = run_cli("classify", "--data", data, "--mode", "linear", "--runs", "2",
                      "--outdir", outdir)
        assert out.returncode == 0, out.stderr
        assert out.stderr == (
            "warning: run 0: no training step beat the zero model's risk, so the model "
            "is all zeros and predicts class 1 for every item\n"
        )
        assert "dropped " not in out.stderr
        zero, _ = iv.load_model(outdir / "model_run0.txt")
        assert not zero.weights.any() and not zero.biases.any()
        learned, _ = iv.load_model(outdir / "model_run1.txt")
        assert learned.weights.any()
        assert read_report(outdir / "report.csv")[0][4] == 0.2
        assert out.stdout.splitlines()[0] == (
            f"run 0 (seed 0): linear accuracy 0.2 -> {outdir / 'model_run0.txt'}"
        )

    def test_learning_model_does_not_warn(self, tmp_path):
        data = tmp_path / "sep.csv"
        _write_separable_dataset(data)
        out = run_cli("classify", "--data", data, "--mode", "linear", "--blocks", "2",
                      "--train-fraction", "0.5", "--outdir", tmp_path / "lin")
        assert out.returncode == 0 and out.stderr == ""

    def test_linear_from_image_directory(self, tmp_path):
        data = tmp_path / "sep.csv"
        _write_separable_dataset(data)
        imgdir = tmp_path / "imgs"
        assert run_cli(
            "image", "--data", data, "--outdir", imgdir, "--kernel", "K4"
        ).returncode == 0
        outdir = tmp_path / "lin2"
        out = run_cli(
            "classify", "--images", imgdir, "--mode", "linear", "--blocks", "2",
            "--steps", "300", "--train-fraction", "0.5", "--seed", "1",
            "--outdir", outdir,
        )
        assert out.returncode == 0, out.stderr
        assert read_report(outdir / "report.csv")[0][4] == 1.0

    def test_multiple_runs_and_report_columns(self, mix_csv, tmp_path):
        outdir = tmp_path / "runs"
        out = run_cli(
            "classify", "--data", mix_csv, "--mode", "knn", "--k", "3",
            "--kernel", "K1", "--runs", "3", "--seed", "10", "--outdir", outdir,
        )
        assert out.returncode == 0, out.stderr
        rows = read_report(outdir / "report.csv")
        assert [r[0] for r in rows] == [0, 1, 2]
        assert [r[3] for r in rows] == [10, 11, 12]
        assert all(r[1] == "K1" for r in rows)

    def test_report_byte_identical_across_reruns(self, mix_csv, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            outdir = tmp_path / name
            out = run_cli(
                "classify", "--data", mix_csv, "--mode", "knn", "--kernel", "K4",
                "--outdir", outdir, "--seed", "3",
            )
            assert out.returncode == 0, out.stderr
            outs.append((outdir / "report.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_report_names_the_kernel_the_images_were_rendered_with(self, mix_csv, tmp_path):
        imgdir = tmp_path / "imgs"
        assert run_cli(
            "image", "--data", mix_csv, "--outdir", imgdir, "--kernel", "K1"
        ).returncode == 0
        out = run_cli("classify", "--images", imgdir, "--mode", "linear",
                      "--steps", "5", "--outdir", tmp_path / "lin")
        assert out.returncode == 0, out.stderr
        assert read_report(tmp_path / "lin" / "report.csv")[0][1] == "K1"
        (imgdir / "run_config.txt").unlink()
        out = run_cli("classify", "--images", imgdir, "--mode", "linear",
                      "--steps", "5", "--outdir", tmp_path / "lin2")
        assert out.returncode == 0, out.stderr
        assert read_report(tmp_path / "lin2" / "report.csv")[0][1] == ""

    def test_report_quotes_fields_with_commas(self, mix_csv, tmp_path):
        outdir = tmp_path / "knn"
        out = run_cli(
            "classify", "--data", mix_csv, "--mode", "knn", "--kernel", "1,0,1",
            "--tag", "a,b", "--outdir", outdir,
        )
        assert out.returncode == 0, out.stderr
        with open(outdir / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["run", "kernel", "dgp", "seed", "accuracy"]
        assert len(rows[1]) == 5
        assert rows[1][1:3] == ["1,0,1", "a,b"]

    def test_flatten_on_unequal_lengths_is_data_error(self, tmp_path):
        data = tmp_path / "ragged.csv"
        write_ragged_csv(data)
        out = run_cli("classify", "--data", data, "--mode", "linear",
                      "--feature-mode", "flatten", "--outdir", tmp_path / "o")
        assert out.returncode == 3
        assert len(out.stderr.strip().splitlines()) == 1
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize(
        "option",
        [
            ("--cap", "0"), ("--steps", "-1"), ("--c-a", "0"), ("--c-b", "0"),
            ("--step-size", "nan"), ("--step-size", "0"), ("--step-size", "-1"),
            ("--step-size", "inf"), ("--c-a", "inf"), ("--c-b", "inf"),
        ],
    )
    def test_bad_linear_option_is_numeric_error(self, tmp_path, option):
        data = tmp_path / "sep.csv"
        _write_separable_dataset(data)
        out = run_cli("classify", "--data", data, "--mode", "linear", "--steps", "5",
                      *option, "--outdir", tmp_path / "o")
        assert_one_line_error(out, 4, "numeric error: ")

    def test_overflowing_step_is_one_line_numeric_error(self, mix_csv, tmp_path):
        out = run_cli("classify", "--data", mix_csv, "--mode", "linear", "--steps", "5",
                      "--loss", "exponential", "--step-size", "1e300", "--c-a", "1e300",
                      "--c-b", "1e300", "--outdir", tmp_path / "o")
        assert_one_line_error(out, 4, "numeric error: training risk is inf at step 1;")
        assert "Warning" not in out.stderr

    @pytest.mark.parametrize(
        "relabel,text",
        [
            (lambda i, label: "abc" if i == 1 else label, "index.csv:3: bad label 'abc'"),
            (lambda i, label: "1", "every item has label 1"),
            (lambda i, label: "0" if i == 0 else label, "label 0 is not a class id"),
            (lambda i, label: "3" if label == "2" else label, "no item has class id 2"),
        ],
        ids=["not-a-number", "one-class", "zero", "skips-a-class"],
    )
    def test_bad_index_labels_are_data_error(self, sep_images, tmp_path, relabel, text):
        relabel_index(sep_images, relabel)
        out = run_cli("classify", "--images", sep_images, "--mode", "linear",
                      "--steps", "5", "--outdir", tmp_path / "o")
        assert_one_line_error(out, 3, text)

    def test_non_ascii_index_is_data_error(self, sep_images, tmp_path):
        relabel_index(sep_images, lambda i, label: "\u00b2" if i == 0 else label)
        out = run_cli("classify", "--images", sep_images, "--mode", "linear",
                      "--steps", "5", "--outdir", tmp_path / "o")
        assert_one_line_error(out, 3, "index.csv")

    @pytest.mark.parametrize(
        "mode,labels,text",
        [
            ("knn", ("1", "3"), "no item has class id 2"),
            ("linear", ("1", "3"), "no item has class id 2"),
            ("linear", ("1", "1"), "every item has label 1"),
        ],
    )
    def test_data_labels_must_be_every_class_id(self, tmp_path, mode, labels, text):
        data = tmp_path / "sep.csv"
        _write_separable_dataset(data)
        rows = data.read_text().splitlines()
        data.write_text("\n".join(
            [rows[0]] + [row.rsplit(",", 1)[0] + "," + labels[row.endswith(",2")]
                         for row in rows[1:]]
        ) + "\n")
        out = run_cli("classify", "--data", data, "--mode", mode, "--steps", "5",
                      "--outdir", tmp_path / "o")
        assert_one_line_error(out, 3, text)

    def test_non_finite_bound_is_data_error(self, mix_csv, tmp_path):
        lines = mix_csv.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:3] + ["inf", "1.0"] + lines[3].split(",")[5:])
        mix_csv.write_text("\n".join(lines) + "\n")
        out = run_cli("classify", "--data", mix_csv, "--mode", "knn",
                      "--outdir", tmp_path / "o")
        assert out.returncode == 3
        assert f"{mix_csv}:4:" in out.stderr

    @pytest.mark.parametrize("entry", ["-1", "256", "2", "x"])
    def test_bad_csv_image_entry_is_data_error(self, mix_csv, tmp_path, entry):
        imgdir = tmp_path / "imgs"
        out = run_cli("image", "--data", mix_csv, "--outdir", imgdir, "--kernel", "K4",
                      "--format", "csv")
        assert out.returncode == 0, out.stderr
        path = imgdir / "mix_0.csv"
        path.write_text(path.read_text().replace("1", entry, 1))
        out = run_cli("classify", "--images", imgdir, "--outdir", tmp_path / "o")
        assert_one_line_error(out, 3, "mix_0.csv")

    def test_requires_exactly_one_input(self, tmp_path):
        assert run_cli(
            "classify", "--mode", "knn", "--outdir", tmp_path / "o"
        ).returncode == 2

    def test_bad_fraction_is_numeric_error(self, mix_csv, tmp_path):
        out = run_cli(
            "classify", "--data", mix_csv, "--mode", "knn",
            "--train-fraction", "1.5", "--outdir", tmp_path / "o",
        )
        assert out.returncode == 4


class TestBound:
    def test_prints_hand_value(self):
        out = run_cli("bound", "--n", "100", "--log-covering", "10")
        assert out.returncode == 0, out.stderr
        assert "offset_rademacher_bound = 16.44" in out.stdout
        assert "excess_risk_bound = 65.76" in out.stdout

    def test_mc_flag_adds_estimate(self):
        out = run_cli(
            "bound", "--n", "50", "--log-covering", "3", "--mc",
            "--mc-draws", "16", "--inner-steps", "50", "--threads", "1",
        )
        assert out.returncode == 0, out.stderr
        assert "mc_offset_rademacher = " in out.stdout

    def test_json_output(self):
        out = run_cli("bound", "--n", "100", "--log-covering", "10", "--json")
        assert out.returncode == 0, out.stderr
        import json

        report = json.loads(out.stdout)
        assert report["excess_risk_bound"] == pytest.approx(65.76, abs=1e-9)

    def test_missing_required_is_usage_error(self):
        assert run_cli("bound", "--n", "100").returncode == 2

    def test_bad_numerics(self):
        out = run_cli("bound", "--n", "0", "--log-covering", "1")
        assert out.returncode == 4

    @pytest.mark.parametrize("flag", ["--mc-n", "--mc-p"])
    def test_negative_mc_shape_is_numeric_error(self, flag):
        out = run_cli("bound", "--n", "50", "--log-covering", "3", "--mc", flag, "-1")
        assert_one_line_error(out, 4, flag)

    def test_mc_biases_only_class(self):
        out = run_cli(
            "bound", "--n", "50", "--log-covering", "3", "--mc", "--mc-p", "0",
            "--mc-draws", "16", "--inner-steps", "50",
        )
        assert out.returncode == 0, out.stderr
        varrho = iv.optimal_varrho(1.0, 1.0, 1.0, 1.0)
        est = iv.empirical_offset_rademacher(np.zeros((50, 0)), 1.0, 1.0, varrho,
                                             mc_draws=16, inner_steps=50, seed=0)
        assert f"mc_offset_rademacher = {est.value!r}" in out.stdout
        assert "stderr" not in out.stdout


class TestConfigFile:
    def test_config_supplies_defaults_cli_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("per-class=2\nT=6\nseed=4\nrhos=0,0.7\n")
        path = tmp_path / "out.csv"
        out = run_cli(
            "generate", "--dgp", "3", "--config", cfg, "--T", "9", "--out", path
        )
        assert out.returncode == 0, out.stderr
        assert "n=4 C=2 d=1 T=9" in out.stdout  # T overridden, rest from config

    def test_effective_config_echoed(self, mix_csv, tmp_path):
        cfg = tmp_path / "img.cfg"
        cfg.write_text("kernel=K5\nm=1\n")
        outdir = tmp_path / "imgs"
        out = run_cli("image", "--data", mix_csv, "--outdir", outdir, "--config", cfg)
        assert out.returncode == 0, out.stderr
        text = (outdir / "run_config.txt").read_text()
        assert "kernel=K5" in text and text.startswith("# image run")

    def test_echoed_config_round_trips(self, mix_csv, tmp_path):
        first = tmp_path / "first"
        out = run_cli(
            "image", "--data", mix_csv, "--outdir", first, "--kernel", "K3",
            "--epsilon", "0.4", "--stem", "img", "--threads", "1",
        )
        assert out.returncode == 0, out.stderr
        second = tmp_path / "second"
        out = run_cli(
            "image", "--config", first / "run_config.txt", "--outdir", second
        )
        assert out.returncode == 0, out.stderr
        for path in sorted(first.iterdir()):
            if path.name == "run_config.txt":
                continue  # differs in the overridden outdir
            assert path.read_bytes() == (second / path.name).read_bytes()

    def test_config_value_outside_choices_is_usage_error(self, mix_csv, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# run\nformat=bogus\n")
        outdir = tmp_path / "o"
        out = run_cli("image", "--data", mix_csv, "--outdir", outdir, "--kernel", "K4",
                      "--config", cfg)
        assert_one_line_error(out, 2, f"{cfg}:2")
        assert not list(outdir.glob("*.bogus"))

    def test_config_mode_outside_choices_is_usage_error(self, mix_csv, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mode=bogus\n")
        outdir = tmp_path / "o"
        out = run_cli("classify", "--data", mix_csv, "--outdir", outdir, "--config", cfg)
        assert_one_line_error(out, 2, f"{cfg}:1")
        assert not (outdir / "report.csv").exists()

    def test_unknown_config_key_is_usage_error(self, mix_csv, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus=1\n")
        out = run_cli(
            "image", "--data", mix_csv, "--outdir", tmp_path / "o", "--config", cfg
        )
        assert out.returncode == 2


class TestClassifyMemory:
    """`classify` holds one n x p feature matrix and nothing of its size beside it."""

    @pytest.mark.parametrize("source", ["--data", "--images"])
    def test_traced_peak_below_one_and_a_half_matrices(self, tmp_path, source):
        from ivtskit import cli

        data, imgdir = tmp_path / "ds.csv", tmp_path / "img"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["generate", "--dgp", "1", "--per-class", "20", "--T", "160",
                             "--out", str(data)]) == 0
            assert cli.main(["image", "--data", str(data), "--outdir", str(imgdir),
                             "--kernel", "K4", "--threads", "1"]) == 0
        n = len((imgdir / "index.csv").read_text().splitlines()) - 1
        matrix_bytes = n * 160 * 160 * 8  # float64 at p = N^2
        argv = ["classify", source, str(data if source == "--data" else imgdir),
                "--feature-mode", "flatten", "--steps", "20", "--runs", "2", "--threads", "1",
                "--outdir", str(tmp_path / "lin")]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert matrix_bytes < peak < 1.5 * matrix_bytes
