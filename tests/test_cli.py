"""End-to-end tests of the command-line interface."""

import contextlib
import csv
import gc
import io
import math
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from datetime import date, timedelta
from pathlib import Path

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

    @pytest.mark.parametrize("flags", [("--dgp", "1", "--rhos=nan"),
                                       ("--dgp", "2", "--rhos=0.3,nan"),
                                       ("--scenario", "mix", "--rho", "nan")])
    def test_nan_rho_is_a_correlation_error(self, tmp_path, flags):
        out = run_cli("generate", *flags, "--per-class", "1", "--T", "5",
                      "--out", tmp_path / "x.csv")
        assert_one_line_error(out, 4, "numeric error: correlation must satisfy |rho| <= 1")
        assert not (tmp_path / "x.csv").exists()


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

    def test_c1_flatten_trains_the_zero_model(self, tmp_path):
        # flatten features of c1 have p = 900 > n = 24 training rows, so
        # train runs its Gram form; every image here is the identity, so
        # every feature row is equal and the zero model stays the best
        data = tmp_path / "c1.csv"
        assert run_cli("generate", "--scenario", "c1", "--per-class", "10", "--T", "30",
                       "--out", data).returncode == 0
        outdir = tmp_path / "lin"
        out = run_cli("classify", "--data", data, "--feature-mode", "flatten",
                      "--kernel", "K5", "--outdir", outdir)
        assert out.returncode == 0, out.stderr
        assert out.stderr == (
            "warning: run 0: no training step beat the zero model's risk, so the model "
            "is all zeros and predicts class 1 for every item\n"
        )
        lines = (outdir / "model_run0.txt").read_text().splitlines()
        assert lines[0] == "3 900 1.0 1.0 hinge"
        assert all(v == "0.0" for line in lines[1:] for v in line.split())
        assert len(lines) == 4
        assert read_report(outdir / "report.csv")[0][4] == 1 / 3

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

    def test_non_utf8_run_config_is_data_error(self, sep_images, tmp_path):
        (sep_images / "run_config.txt").write_bytes(b"kernel=\xff\n")
        out = run_cli("classify", "--images", sep_images, "--mode", "linear",
                      "--steps", "5", "--outdir", tmp_path / "o")
        assert_one_line_error(out, 3, f"{sep_images / 'run_config.txt'}: not UTF-8 text")

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


class TestOutOfDomainOptions:
    """Option values outside their numeric domain are numeric errors (exit 4);
    a block grid larger than the images depends on the data (exit 3)."""

    @pytest.mark.parametrize("command", ["image", "classify"])
    @pytest.mark.parametrize(
        "option", [("--epsilon", "-1"), ("--epsilon", "nan"), ("--m", "0"), ("--kappa", "0")]
    )
    def test_trajectory_option(self, mix_csv, tmp_path, command, option):
        out = run_cli(command, "--data", mix_csv, "--kernel", "K4", *option,
                      "--outdir", tmp_path / "o")
        assert_one_line_error(out, 4, "numeric error: ")

    @pytest.mark.parametrize("blocks", ["0", "-1"])
    def test_block_grid_below_one(self, mix_csv, tmp_path, blocks):
        out = run_cli("classify", "--data", mix_csv, "--blocks", blocks,
                      "--outdir", tmp_path / "o")
        assert_one_line_error(out, 4, "numeric error: block grid size must be >= 1")

    def test_block_grid_larger_than_the_images(self, mix_csv, tmp_path):
        out = run_cli("classify", "--data", mix_csv, "--blocks", "31",
                      "--outdir", tmp_path / "o")  # T = 30, so N = 30
        assert_one_line_error(out, 3, "data error: ")


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

    @pytest.mark.parametrize("mc", [(), ("--mc",)])
    def test_bad_threads_is_numeric_error(self, mc):
        out = run_cli("bound", "--n", "100", "--log-covering", "10", "--threads", "0", *mc)
        assert_one_line_error(out, 4, "numeric error: threads must be >= 1, got 0")
        assert out.stdout == ""

    @pytest.mark.parametrize("flag", ["--mc-n", "--mc-p"])
    def test_negative_mc_shape_is_numeric_error(self, flag):
        out = run_cli("bound", "--n", "50", "--log-covering", "3", "--mc", flag, "-1")
        assert_one_line_error(out, 4, flag)

    @pytest.mark.parametrize("flag", ["--mc-n", "--mc-p"])
    def test_mc_shape_beyond_the_index_range_is_numeric_error(self, flag):
        # numpy rejects the shape before it allocates anything
        out = run_cli("bound", "--n", "50", "--log-covering", "3", "--mc", flag, str(2**63))
        assert_one_line_error(out, 4, "numeric error: --mc-n and --mc-p: ")

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


    @pytest.mark.parametrize(
        "flags, name",
        [
            (("--log-covering", "nan"), "log_covering"),
            (("--log-covering", "inf"), "log_covering"),
            (("--log-covering", "10", "--c-z", "inf"), "c_Z"),
            (("--log-covering", "10", "--c-a", "nan"), "c_A"),
            (("--log-covering", "10", "--c-b", "inf"), "c_B"),
            (("--log-covering", "10", "--ell", "nan"), "ell"),
            (("--log-covering", "10", "--ell", "inf"), "ell"),
            (("--log-covering", "10", "--varrho", "inf"), "varrho"),
            (("--log-covering", "10", "--varrho", "nan"), "varrho"),
        ],
    )
    def test_non_finite_input_is_numeric_error(self, flags, name):
        out = run_cli("bound", "--n", "10", *flags)
        assert_one_line_error(out, 4, f"numeric error: {name} must be finite")
        assert out.stdout == ""


# An ASCII locale with neither UTF-8 mode nor locale coercion
C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


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

    def test_config_not_utf8_is_data_error(self, mix_csv, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"\xff\xfe=1")
        out = run_cli("image", "--data", mix_csv, "--outdir", tmp_path / "o", "--kernel", "K4",
                      "--config", cfg, env=C_LOCALE)
        assert_one_line_error(out, 3, f"data error: {cfg}: not UTF-8 text")
        assert not (tmp_path / "o").exists()

    def test_config_read_as_utf8_whatever_the_locale(self, mix_csv, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# r\u00e9glages\nkernel=K4\n", encoding="utf-8")
        out = run_cli("image", "--data", mix_csv, "--outdir", tmp_path / "o", "--config", cfg,
                      env=C_LOCALE)
        assert out.returncode == 0, out.stderr

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

    def test_dataset_released_before_training(self, tmp_path, monkeypatch):
        """In linear mode the run loop reads only the features and the labels,
        so no LabeledDataset is alive while a model trains."""
        from ivtskit import classify, cli

        data = tmp_path / "sep.csv"
        _write_separable_dataset(data)
        gc.collect()
        existing = [o for o in gc.get_objects() if isinstance(o, iv.LabeledDataset)]
        alive = []
        train = classify.train

        def spy(*args, **kwargs):
            gc.collect()
            alive.append(sum(isinstance(o, iv.LabeledDataset)
                             and not any(o is e for e in existing) for o in gc.get_objects()))
            return train(*args, **kwargs)

        monkeypatch.setattr(classify, "train", spy)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["classify", "--data", str(data), "--mode", "linear", "--blocks", "2",
                             "--steps", "20", "--runs", "2", "--outdir", str(tmp_path / "lin")]) == 0
        assert alive == [0, 0]


def _set_field(at, value):
    return lambda fields: fields[:at] + [value] + fields[at + 1:]


class TestFuzz:
    """Malformed dataset CSVs, config files and option values through
    in-process `cli.main`: every case ends in a documented exit code with at
    most one stderr line, no traceback and no warning."""

    # per option: values that pass its checks, then values that are malformed
    # or out of range; "" leaves the option unset (for the image kernel, a
    # missing required option)
    IMAGE_VALUES = {
        "kernel": (["K4", "K1", "K5", "1,2,1", "0,0,0"], ["K9", "1,2", "1,x,2", "nan,0,1", ""]),
        "epsilon": (["0.5", "0", "5e-324", "1e300", "0.5,1.0", ""], ["nan", "-1", "inf", "x"]),
        "m": (["1", "2", "3", ""], ["0", "-1", "40", "x"]),
        "kappa": (["1", "2", ""], ["0", "x"]),
        "threads": (["1", "3", ""], ["0", "-2", "x"]),
        "format": (["pgm", "csv", "both", ""], ["bogus"]),
        "stem": (["img", ""], ["a/b"]),
    }
    CLASSIFY_VALUES = {
        "kernel": (["K4", "K5", "1,2,1", ""], ["K9"]),
        "epsilon": (["0.5", "1e300", "0.5,1.0", ""], ["nan"]),
        "m": (["1", "2", ""], ["0", "40"]),
        "threads": (["1", ""], ["0", "x"]),
        "mode": (["linear", "knn", ""], ["bogus"]),
        "k": (["1", "3", ""], ["0", "-1", "100"]),
        "feature_mode": (["flatten", "block_mean", ""], ["x"]),
        "blocks": (["1", "3", ""], ["0", "-1", "50"]),
        "cap": (["1.0", ""], ["0", "-1", "nan", "inf"]),
        "loss": (["hinge", "exponential", "squared_hinge", ""], ["x"]),
        "steps": (["5", "0"], ["-1", "x"]),
        "step_size": (["0.5", "1e300", ""], ["0", "nan", "inf"]),
        "c_a": (["1.0", "1e300", ""], ["0", "inf"]),
        "c_b": (["1.0", "1e300", ""], ["-1", "nan"]),
        "train_fraction": (["0.5", ""], ["0", "1.5", "nan"]),
        "runs": (["1", "2", ""], ["0"]),
        "seed": (["0", ""], ["-1", "x"]),
        "self_test": (["true", "false", ""], ["maybe"]),
    }

    @staticmethod
    def _dataset_lines(n, d, T, seed):
        rng = np.random.default_rng(seed)
        bounds = rng.standard_normal((n, d, T, 2))
        lines = ["item,dim,t,lower,upper,label"]
        for i in range(n):
            for j in range(d):
                lines += [f"{i},{j},{t},{lo!r},{up!r},{1 + i % 2}"
                          for t, (lo, up) in enumerate(bounds[i, j].tolist())]
        return lines

    # edits of one data row's fields, and faults of the whole file
    ROW_FAULTS = {
        "short": lambda f: f[:5],
        "long": lambda f: f + ["1"],
        "no-fields": lambda f: [""] * 6,
        "nan": _set_field(3, "nan"),
        "inf": _set_field(4, "-inf"),
        "huge": _set_field(4, "1e400"),
        "big": _set_field(3, "1e200"),
        "text": _set_field(4, "x"),
        "label0": _set_field(5, "0"),
        "label3": _set_field(5, "3"),
        "labelx": _set_field(5, "a"),
        "item": _set_field(0, "99"),
        "neg-item": _set_field(0, "-1"),
        "dim": _set_field(1, "7"),
        "t": _set_field(2, "1000"),
        "neg-t": _set_field(2, "-1"),
        "float-t": _set_field(2, "1.5"),
    }
    FILE_FAULTS = ("header", "empty", "header-only", "drop", "duplicate", "blank", "crlf",
                   "bytes", "bom", "nul")

    def _write_dataset(self, path, lines, fault, at):
        rows = lines[1:]
        at %= len(rows)
        if fault == "header":
            lines = ["item,dim,t,lower,upper"] + rows
        elif fault == "empty":
            lines = []
        elif fault == "header-only":
            lines = lines[:1]
        elif fault == "drop":
            lines = lines[:1] + rows[:at] + rows[at + 1:]
        elif fault == "duplicate":
            lines = lines[:1] + rows[: at + 1] + rows[at:]
        elif fault == "blank":
            lines = lines[:1] + rows[:at] + [""] + rows[at:]
        elif fault in self.ROW_FAULTS:
            fields = self.ROW_FAULTS[fault](rows[at].split(","))
            lines = lines[:1] + rows[:at] + [",".join(fields)] + rows[at + 1:]
        text = ("\r\n" if fault == "crlf" else "\n").join(lines) + "\n"
        data = text.encode("ascii")
        if fault == "bytes":
            data = data[:40] + b"\xff" + data[40:]
        elif fault == "bom":
            data = b"\xef\xbb\xbf" + data
        elif fault == "nul":
            data = data.replace(b",", b"\x00", 1)
        path.write_bytes(data)

    @staticmethod
    def _write_config(path, values, fault):
        lines = [f"{k}={v}" for k, v in values.items() if v != ""]
        if fault == "no-equals":
            lines.append("kernel")
        elif fault == "unknown":
            lines.append("bogus=1")
        elif fault == "comment":
            lines = ["# a comment", ""] + lines
        data = "\n".join(lines).encode("utf-8")
        if fault == "bytes":
            data = b"\xff\xfe=1\n" + data
        path.write_bytes(data)

    @staticmethod
    def _main(argv):
        from ivtskit import cli

        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            try:
                rc = cli.main([str(a) for a in argv])
            except SystemExit as e:  # argparse: a flag value of the wrong type
                rc = e.code
        return rc, stderr.getvalue(), [str(w.message) for w in caught]

    def _check(self, tmp_path, command, n, d, T, seed, data_fault, at, values, in_config,
               config_fault):
        hypothesis = pytest.importorskip("hypothesis")
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        data = work / "ds.csv"
        self._write_dataset(data, self._dataset_lines(n, d, T, seed), data_fault, at)
        argv = [command, "--data", data, "--outdir", work / "out"]
        config = {}
        for key, value in values.items():
            if value == "":
                continue
            if key in in_config:
                config[key] = value
            elif key == "self_test":
                argv += ["--self-test"] if value == "true" else []
            else:
                argv += [f"--{key.replace('_', '-')}={value}"]
        if config or config_fault:
            self._write_config(work / "run.cfg", config, config_fault)
            argv += ["--config", work / "run.cfg"]
        rc, err, caught = self._main(argv)
        hypothesis.note(f"argv={argv} rc={rc} err={err!r} warnings={caught}")
        hypothesis.event(f"exit {rc}")
        assert rc in (0, 2, 3, 4)
        assert "Traceback" not in err
        assert caught == []
        assert len(err.splitlines()) <= 1 + err.count("warning: run ")
        if rc == 0 and command == "image":
            assert (work / "out" / "index.csv").exists()

    @pytest.mark.parametrize("mode", ["knn", "linear"])
    @pytest.mark.parametrize("kernel", ["K4", "K2"])
    def test_overflowing_distances_warn_nothing(self, tmp_path, mode, kernel):
        # du * du overflows to inf, and under K2 inf - inf is NaN
        lines = self._dataset_lines(8, 1, 6, 0)
        self._write_dataset(tmp_path / "ds.csv", lines, "big", 3)
        for argv in (["image", "--kernel", kernel],
                     ["classify", "--kernel", kernel, "--mode", mode, "--steps", "5",
                      "--blocks", "3"]):
            rc, err, caught = self._main(argv + ["--data", tmp_path / "ds.csv",
                                                 "--outdir", tmp_path / argv[0]])
            assert (rc, caught) == (0, [])
            assert "error" not in err

    @pytest.mark.parametrize("command", ["image", "classify"])
    def test_property(self, tmp_path, command):
        """At most one fault each in the dataset, one option's value and the
        config file, with each option given as a flag or in the config."""
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        table = self.IMAGE_VALUES if command == "image" else self.CLASSIFY_VALUES
        faults = [*self.FILE_FAULTS, *self.ROW_FAULTS]
        bad_value = st.sampled_from(sorted(table)).flatmap(
            lambda key: st.tuples(st.just(key), st.sampled_from(table[key][1])))

        @hypothesis.settings(max_examples=200, deadline=None,
                             suppress_health_check=list(hypothesis.HealthCheck))
        @hypothesis.given(
            n=st.integers(1, 8),
            d=st.integers(1, 2),
            T=st.integers(1, 9),
            seed=st.integers(0, 3),
            data_fault=st.one_of(st.none(), st.sampled_from(faults)),
            at=st.integers(0, 100),
            values=st.fixed_dictionaries({k: st.sampled_from(v[0]) for k, v in table.items()}),
            value_fault=st.one_of(st.none(), bad_value),
            in_config=st.sets(st.sampled_from(sorted(table))),
            config_fault=st.sampled_from([None, None, "no-equals", "unknown", "comment",
                                          "bytes"]),
        )
        def check(n, d, T, seed, data_fault, at, values, value_fault, in_config, config_fault):
            if value_fault is not None:
                values = {**values, value_fault[0]: value_fault[1]}
            self._check(tmp_path, command, n, d, T, seed, data_fault, at, values, in_config,
                        config_fault)

        check()

    # Slice 4: the commands that read no dataset.  Sizes stay small (per class
    # <= 5, T <= 40, --mc-n <= 50, --mc-draws <= 8), so no size option is ever
    # left at its default.  Path values name files in the case's directory.
    PATHS = {"new": "out/new.csv", "under-file": "file/new.csv", "dir": ".",
             "raw": "raw.csv", "missing": "nope.csv"}
    GENERATE_VALUES = {
        "dgp": (["1", "2", "3"], ["0", "4", "x", ""]),  # one of these two is unset
        "scenario": (["c1", "c2", "mix"], ["c3", ""]),
        "per_class": (["1", "2", "5"], ["0", "-1", "x"]),
        "T": (["1", "2", "40"], ["0", "-1", "x"]),
        "rhos": (["0.5", "-0.9,0,0.7", ""], ["nan", "1", "-1.5", "inf", "0.5,", "x"]),
        "rho": (["0.7", "-0.3", ""], ["nan", "1", "-2", "inf"]),
        "truncation_L": (["1", "100", ""], ["0", "-1"]),
        "burn_in": (["0", "100", ""], ["-1", "x"]),
        "seed": (["0", "7", ""], ["-1", "x"]),
        "out": (["new"], ["under-file", "dir", ""]),
    }
    INGEST_VALUES = {
        "input": (["raw"], ["missing", "dir", ""]),
        "out": (["new"], ["under-file", "dir", ""]),
        "window": (["1", "7", "30", ""], ["0", "-1", "1000", "x"]),
        "stride": (["1", "7", ""], ["0", "-3", "x"]),
    }
    BOUND_VALUES = {
        "loss": (["hinge", "squared_hinge", "exponential", ""], ["x"]),
        "ell": (["1", "0.5", "1e300", ""], ["0", "-1", "nan", "inf"]),
        "c_a": (["1.0", "0.5", "1e300", ""], ["0", "-1", "nan", "inf"]),
        "c_b": (["1.0", "0.5", "1e300", ""], ["0", "-1", "nan", "inf"]),
        "c_z": (["1.0", "0.5", "1e300", ""], ["0", "-1", "nan", "inf"]),
        "n": (["1", "100"], ["0", "-1", "x", ""]),
        "log_covering": (["0", "10", "1e300"], ["-1", "nan", "inf", "x", ""]),
        "varrho": (["0.125", "1e-300", ""], ["0", "-1", "nan", "inf"]),
        "mc": (["true", "false", ""], ["maybe"]),
        "mc_draws": (["1", "8"], ["0", "-1", "x"]),
        "inner_steps": (["0", "20"], ["-1", "x"]),
        "mc_n": (["1", "50"], ["0", "-1", "x"]),
        "mc_p": (["0", "8", ""], ["-1", "x"]),
        "seed": (["0", "3", ""], ["-1", "x"]),
        "json": (["true", "false", ""], ["maybe"]),
        "threads": (["1", "2", ""], ["0", "x"]),
    }

    @staticmethod
    def _write_raw(path, n_series, dims, days, seed):
        rng = np.random.default_rng(seed)
        rows = ["series_id,dim,timestamp,value,label"]
        for s in range(n_series):
            for i in range(days):
                day = (date(2020, 1, 1) + timedelta(days=i)).isoformat()
                rows += [f"s{s},d{j},{day}T{h:02d}:00:00,{v!r},{'ab'[s % 2]}"
                         for j in range(dims)
                         for h, v in enumerate(rng.standard_normal(2).tolist())]
        path.write_text("\n".join(rows) + "\n")

    def _check_no_dataset(self, tmp_path, command, values, in_config, config_fault, raw):
        hypothesis = pytest.importorskip("hypothesis")
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        (work / "file").write_text("not a directory\n")
        self._write_raw(work / "raw.csv", *raw)
        argv, config = [command], {}
        for key, value in values.items():
            if key in ("input", "out") and value:
                value = str(work / self.PATHS[value])
            if value == "":
                continue
            if key in in_config:
                config[key] = value
            elif key in ("mc", "json"):
                argv += [f"--{key}"] if value == "true" else []
            else:
                argv += [f"--{key.replace('_', '-')}={value}"]
        if config or config_fault:
            self._write_config(work / "run.cfg", config, config_fault)
            argv += ["--config", work / "run.cfg"]
        rc, err, caught = self._main(argv)
        hypothesis.note(f"argv={argv} rc={rc} err={err!r} warnings={caught}")
        hypothesis.event(f"exit {rc}")
        assert rc in (0, 2, 3, 4)
        assert "Traceback" not in err
        assert caught == []
        assert len(err.splitlines()) <= 1

    @pytest.mark.parametrize("command", ["generate", "ingest", "bound"])
    def test_property_no_dataset(self, tmp_path, command):
        """At most one malformed option value and one config-file fault for the
        commands that read no dataset, each option a flag or a config line."""
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        table = {"generate": self.GENERATE_VALUES, "ingest": self.INGEST_VALUES,
                 "bound": self.BOUND_VALUES}[command]
        bad_value = st.sampled_from(sorted(table)).flatmap(
            lambda key: st.tuples(st.just(key), st.sampled_from(table[key][1])))

        @hypothesis.settings(max_examples=200, deadline=None,
                             suppress_health_check=list(hypothesis.HealthCheck))
        @hypothesis.given(
            values=st.fixed_dictionaries({k: st.sampled_from(v[0]) for k, v in table.items()}),
            value_fault=st.one_of(st.none(), bad_value),
            in_config=st.sets(st.sampled_from(sorted(table))),
            config_fault=st.sampled_from([None, None, "no-equals", "unknown", "comment",
                                          "bytes"]),
            raw=st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(1, 40),
                          st.integers(0, 3)),
            unset=st.sampled_from(["dgp", "scenario"]),
        )
        def check(values, value_fault, in_config, config_fault, raw, unset):
            if unset in values:
                values = {**values, unset: ""}
            if value_fault is not None:
                values = {**values, value_fault[0]: value_fault[1]}
            self._check_no_dataset(tmp_path, command, values, in_config, config_fault, raw)

        check()


class TestRefusedAllocation:
    """A MemoryError is one `numeric error:` line (exit 4).  The builders are
    patched to raise it: a real huge allocation can succeed on a host that
    overcommits memory and then exhaust it."""

    MESSAGE = ("Unable to allocate 745. GiB for an array with shape "
               "(100000000000, 1, 2) and data type float64")

    @pytest.mark.parametrize("message,line", [(MESSAGE, MESSAGE), ("", "out of memory")],
                             ids=["numpy", "bare"])
    def test_generate(self, monkeypatch, tmp_path, message, line):
        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(iv.dgp, "build_univariate_dataset", refuse)
        rc, err, caught = TestFuzz._main(["generate", "--dgp", "1", "--per-class", "2",
                                          "--T", "5", "--out", tmp_path / "x.csv"])
        assert (rc, err, caught) == (4, f"numeric error: {line}\n", [])

    def test_bound_mc(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise MemoryError(self.MESSAGE)

        monkeypatch.setattr(iv.theory, "empirical_offset_rademacher", refuse)
        rc, err, caught = TestFuzz._main(["bound", "--n", "10", "--log-covering", "1", "--mc",
                                          "--mc-n", "10"])
        assert (rc, err, caught) == (4, f"numeric error: {self.MESSAGE}\n", [])
