"""End-to-end tests of the command-line interface."""

import contextlib
import csv
import gc
import io
import math
import os
import shutil
import statistics
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


# Runs `python -m ivtskit *argv` in this process through runpy, then prints one
# JSON line: the exit code, the command's stdout and stderr, whether numpy,
# numpy.ma and numpy.random were imported, and the ivtskit submodules that were.
_LAUNCH_PROBE = """
import contextlib, io, json, runpy, sys
out, err = io.StringIO(), io.StringIO()
sys.argv = ["ivtskit", *sys.argv[1:]]
code = 0
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    try:
        runpy.run_module("ivtskit", run_name="__main__", alter_sys=True)
    except SystemExit as e:
        code = e.code
print(json.dumps({
    "code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
    "numpy": "numpy" in sys.modules,
    "numpy_ma": "numpy.ma" in sys.modules,
    "numpy_random": "numpy.random" in sys.modules,
    "hashlib": "hashlib" in sys.modules,
    "modules": sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("ivtskit.")),
}))
"""


def launch(*args):
    """The probe's record of one fresh `python -m ivtskit *args` launch."""
    import json

    out = subprocess.run([sys.executable, "-c", _LAUNCH_PROBE, *map(str, args)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


PARSE_MODULES = ["cli", "defaults", "errors"]


class TestStartup:
    """A launch imports only what its command runs: the parse step loads no
    numpy, and each command loads only the library modules it uses."""

    @pytest.mark.parametrize("argv", [["--help"], ["classify", "--help"], ["bound", "--help"]])
    def test_help_loads_no_numpy(self, argv):
        rec = launch(*argv)
        assert rec["code"] == 0
        assert "usage: ivtskit" in rec["stdout"]
        assert not rec["numpy"] and not rec["hashlib"]
        assert rec["modules"] == PARSE_MODULES

    @pytest.mark.parametrize("argv", [["classify", "--bogus"], ["generate", "--dgp", "4"],
                                      ["nosuchcommand"], []])
    def test_usage_error_loads_no_numpy(self, argv):
        rec = launch(*argv)
        assert rec["code"] == 2
        assert rec["stdout"] == ""
        assert len(rec["stderr"].splitlines()) == 1
        assert rec["stderr"].startswith("usage error: ")
        assert not rec["numpy"]
        assert rec["modules"] == PARSE_MODULES

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """A tiny dataset, its image directory and a raw readings file."""
        from ivtskit import cli

        root = tmp_path_factory.mktemp("startup")
        (root / "raw.csv").write_text("series_id,dim,timestamp,value,label\n" + "".join(
            f"s{j},x,2021-03-0{i + 1},{i * j},{'ab'[j]}\n" for j in range(2) for i in range(8)))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["generate", "--dgp", "1", "--per-class", "3", "--T", "12",
                             "--out", str(root / "ds.csv")]) == 0
            assert cli.main(["image", "--data", str(root / "ds.csv"), "--outdir",
                             str(root / "img"), "--kernel", "K4"]) == 0
        return root

    @pytest.mark.parametrize("argv, modules, rng", [
        (["generate", "--dgp", "2", "--per-class", "2", "--T", "10", "--out", "{d}/gen.csv"],
         ["dgp", "intervals", "split"], True),
        (["ingest", "--input", "{d}/raw.csv", "--out", "{d}/ing.csv", "--window", "4"],
         ["dgp", "ingest", "intervals", "split"], False),
        (["image", "--data", "{d}/ds.csv", "--outdir", "{d}/img2", "--kernel", "K4"],
         ["dgp", "imaging", "intervals", "split"], False),
        (["classify", "--data", "{d}/ds.csv", "--outdir", "{d}/lin", "--blocks", "2",
          "--steps", "5"], ["classify", "dgp", "imaging", "intervals", "split"], False),
        (["classify", "--images", "{d}/img", "--outdir", "{d}/imgs", "--blocks", "2",
          "--steps", "5"], ["classify", "imaging", "intervals", "split"], False),
        (["classify", "--data", "{d}/ds.csv", "--outdir", "{d}/knn", "--mode", "knn"],
         ["classify", "dgp", "intervals", "split"], False),
        (["bound", "--n", "100", "--log-covering", "10"], ["classify", "intervals", "theory"],
         False),
        (["bound", "--n", "10", "--log-covering", "1", "--mc", "--mc-draws", "2",
          "--inner-steps", "2"], ["classify", "intervals", "theory"], True),
    ], ids=["generate", "ingest", "image", "classify-data", "classify-images", "classify-knn",
            "bound", "bound-mc"])
    def test_each_command_loads_only_its_modules(self, inputs, argv, modules, rng):
        """Only the commands that draw from numpy's generators load numpy.random;
        the split draws from its own copy of the stream.  Only these load
        hashlib, through numpy.random: the dataset sidecar's digest does not."""
        rec = launch(*(a.format(d=inputs) for a in argv))
        assert rec["code"] == 0, rec["stderr"]
        assert rec["modules"] == sorted(PARSE_MODULES + modules)
        assert not rec["numpy_ma"]  # np.unique without counts or indices imports it
        assert rec["numpy_random"] == rng
        assert rec["hashlib"] == rng

    def test_error_exit_loads_only_its_modules(self, inputs):
        """A command that fails in its own checks still exits as before."""
        rec = launch("image", "--data", inputs / "missing.csv", "--outdir", inputs / "x",
                     "--kernel", "K4")
        assert rec["code"] == 3
        assert rec["stderr"].startswith("data error: ")
        assert rec["modules"] == sorted(PARSE_MODULES + ["dgp", "imaging", "intervals", "split"])
        assert not rec["numpy_ma"]


class TestStagePeak:
    """tools/stage_peak.py launches `python -m ivtskit` and prints its wall,
    wait4 peak and minor page faults, from a process that imports no numpy."""

    def test_help(self):
        tool = Path(__file__).resolve().parents[1] / "tools" / "stage_peak.py"
        probe = ("import runpy, sys\n"
                 "sys.argv = sys.argv[1:]\n"
                 "try:\n"
                 "    runpy.run_path(sys.argv[0], run_name='__main__')\n"
                 "except SystemExit as e:\n"
                 "    print('numpy' in sys.modules, e.code)\n")
        out = subprocess.run([sys.executable, "-c", probe, str(tool), "1", "--help"],
                             capture_output=True, text=True)
        assert out.returncode == 0 and out.stderr == ""
        line, tail = out.stdout.splitlines()
        assert tail == "False 0"
        code, wall, peak, faults = line.split()[1::2]
        assert line.split()[::2] == ["exit", "wall_s", "peak_mb", "minflt"]
        assert code == "0" and float(wall) > 0.0 and 1.0 < float(peak) < 1000.0
        assert faults.isdigit() and int(faults) > 0

    def test_median_of_k_launches(self):
        tool = Path(__file__).resolve().parents[1] / "tools" / "stage_peak.py"
        out = subprocess.run([sys.executable, str(tool), "3", "--help"],
                             capture_output=True, text=True)
        assert out.returncode == 0 and out.stderr == ""
        *launches, last = [line.split() for line in out.stdout.splitlines()]
        assert len(launches) == 3 and all(fields[:2] == ["exit", "0"] for fields in launches)
        walls = sorted(float(fields[3]) for fields in launches)
        peaks = sorted(float(fields[5]) for fields in launches)
        faults = sorted(int(fields[7]) for fields in launches)
        assert last == ["median", "wall_s", f"{walls[1]:.3f}", "peak_mb", f"{peaks[1]:.2f}",
                        "minflt", str(faults[1])]

    def test_paired_launches(self):
        """--against ROOT alternates this tree (A) and ROOT's src (B) in A B B A
        order, then prints each side's median, the pairs B won and the pairs
        whose stdout matched."""
        root = Path(__file__).resolve().parents[1]
        probe = ("import runpy, sys\n"
                 "sys.argv = sys.argv[1:]\n"
                 "try:\n"
                 "    runpy.run_path(sys.argv[0], run_name='__main__')\n"
                 "except SystemExit as e:\n"
                 "    print('numpy' in sys.modules, e.code)\n")
        out = subprocess.run([sys.executable, "-c", probe, str(root / "tools" / "stage_peak.py"),
                              "2", "--against", str(root), "--help"],
                             capture_output=True, text=True)
        assert out.returncode == 0 and out.stderr == ""
        *launches, median_a, median_b, pairs, same, tail = [line.split()
                                                      for line in out.stdout.splitlines()]
        assert tail == ["False", "0"]
        assert [fields[:3] for fields in launches] == [[side, "exit", "0"] for side in "ABBA"]
        walls = {side: [] for side in "AB"}
        faults = {side: [] for side in "AB"}
        for side, _, _, _, wall, _, peak, _, minflt in launches:
            walls[side].append(float(wall))
            faults[side].append(int(minflt))
            assert 1.0 < float(peak) < 1000.0
        for side, median in zip("AB", (median_a, median_b)):
            assert median[:3] == [side, "median", "wall_s"] and median[-2] == "minflt"
            assert median[-1] == f"{statistics.median(faults[side]):.0f}"
        wins = sum(b < a for a, b in zip(walls["A"], walls["B"]))
        assert pairs == ["B", "faster", "in", str(wins), "of", "2", "pairs"]
        assert same == ["stdout", "identical", "in", "2", "of", "2", "pairs"]

    def test_documented_paired_command(self):
        """The paired form as the module docstring writes it, run from the
        repository root: PYTHONPATH=src python tools/stage_peak.py 2 --against ROOT."""
        root = Path(__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, "tools/stage_peak.py", "2", "--against", str(root),
                              "--help"], capture_output=True, text=True, cwd=root,
                             env=dict(os.environ, PYTHONPATH="src"))
        assert out.returncode == 0 and out.stderr == ""
        lines = out.stdout.splitlines()
        assert [line.split()[:3] for line in lines[:4]] == [[side, "exit", "0"] for side in "ABBA"]
        assert lines[-1] == "stdout identical in 2 of 2 pairs"

    def test_paired_launches_compare_stdout(self, tmp_path):
        """A B checkout whose `ivtskit` prints other bytes matches in no pair."""
        package = tmp_path / "src" / "ivtskit"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "__main__.py").write_text("print('other')\n")
        root = Path(__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, str(root / "tools" / "stage_peak.py"), "2",
                              "--against", str(tmp_path), "--help"], capture_output=True, text=True)
        assert out.returncode == 0 and out.stderr == ""
        assert out.stdout.splitlines()[-1] == "stdout identical in 0 of 2 pairs"

    def test_launches_read_no_bytecode_of_the_trees(self, tmp_path):
        """Each side runs its package compiled from source, as a fresh
        checkout does: bytecode in a tree's __pycache__ that still matches the
        source's time stamp and size, but not its text, is never run, and no
        launch writes any."""
        import py_compile

        roots = {}
        for side in "AB":
            package = tmp_path / side / "src" / "ivtskit"
            package.mkdir(parents=True)
            (package / "__init__.py").write_text("")
            main = package / "__main__.py"
            main.write_text(f"print('stal{side}')\n")  # the bytecode's text
            py_compile.compile(str(main), invalidation_mode=py_compile.PycInvalidationMode.TIMESTAMP)
            stamp = main.stat()
            main.write_text("print('fresh')\n")  # same size, and the stamp put back
            os.utime(main, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
            roots[side] = tmp_path / side
        before = sorted(str(p) for p in tmp_path.rglob("*"))
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(roots["A"] / "src"))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        out = subprocess.run([sys.executable, str(root / "tools" / "stage_peak.py"), "2",
                              "--against", str(roots["B"]), "x"], capture_output=True,
                             text=True, env=env)
        assert out.returncode == 0 and out.stderr == ""
        assert out.stdout.splitlines()[-1] == "stdout identical in 2 of 2 pairs"
        assert sorted(str(p) for p in tmp_path.rglob("*")) == before
        for side in "AB":  # the stale bytecode would have run, and printed its own text
            probe = subprocess.run([sys.executable, "-m", "ivtskit"], capture_output=True,
                                   text=True, cwd=tmp_path,
                                   env=dict(env, PYTHONPATH=str(roots[side] / "src")))
            assert probe.stdout == f"stal{side}\n"


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestBlasThreads:
    """A launched command runs numpy's BLAS on one thread, so its bytes do not
    depend on the environment's BLAS thread count.  Each command below sums
    more than ~1e4 terms in one BLAS call: the norm of a 22,500-pixel row, the
    Gram rows at p = 22,500 and the draws of `bound --mc` at p = 20,000."""

    def test_outputs_identical_at_one_and_two_threads(self, tmp_path):
        mix, dgp2 = tmp_path / "mix.csv", tmp_path / "dgp2.csv"
        for argv in (("--scenario", "mix", "--rho", "0.7", "--per-class", "50", "--T", "150",
                      "--out", mix),
                     ("--dgp", "2", "--per-class", "8", "--T", "450", "--out", dgp2)):
            assert run_cli("generate", *argv).returncode == 0
        outputs = []
        for threads in ("1", "2"):
            env = dict.fromkeys(BLAS_VARS, threads)
            models = []
            for name, argv in (("flatten", ("--data", mix, "--feature-mode", "flatten",
                                            "--kernel", "K4", "--epsilon", "0.5")),
                               ("blocks", ("--data", dgp2, "--feature-mode", "block_mean",
                                           "--blocks", "150"))):
                outdir = tmp_path / f"{name}{threads}"
                out = run_cli("classify", *argv, "--outdir", outdir, env=env)
                assert out.returncode == 0, out.stderr
                models.append((outdir / "model_run0.txt").read_bytes())
            out = run_cli("bound", "--n", "100", "--log-covering", "10", "--mc", "--mc-p",
                          "20000", "--mc-n", "20", "--mc-draws", "4", "--inner-steps", "20",
                          env=env)
            assert out.returncode == 0, out.stderr
            outputs.append((models, out.stdout))
        assert outputs[0] == outputs[1]

    def test_in_process_main_keeps_the_environment(self, tmp_path, monkeypatch):
        for var in BLAS_VARS:
            monkeypatch.setenv(var, "2")
        assert iv.cli.main(["bound", "--n", "100", "--log-covering", "10"]) == 0
        assert [os.environ[var] for var in BLAS_VARS] == ["2"] * 3


class TestParserDefaults:
    """The parser's defaults and choices, read from ivtskit.defaults, are the
    library's values."""

    @staticmethod
    def _opts(table):
        return {o.key: o for o in table}

    def test_loss_choices_are_the_loss_table(self):
        from ivtskit import classify, cli

        for table in (cli.CLASSIFY_OPTS, cli.BOUND_OPTS):
            assert self._opts(table)["loss"].choices == tuple(classify.LOSSES)
        for command in ("classify", "bound"):
            assert "{hinge,squared_hinge,exponential}" in run_cli(command, "--help").stdout

    def test_defaults_are_the_library_values(self):
        from ivtskit import cli, dgp, imaging

        gen = self._opts(cli.GENERATE_OPTS)
        assert gen["per_class"].default == dgp.DEFAULT_PER_CLASS
        assert gen["T"].default == dgp.DEFAULT_T
        assert tuple(float(r) for r in gen["rhos"].default.split(",")) == dgp.DEFAULT_RHO_GRID
        for table in (cli.IMAGE_OPTS, cli.CLASSIFY_OPTS):
            assert self._opts(table)["epsilon"].default == repr(imaging.DEFAULT_EPSILON)
        assert imaging.DEFAULT_EPSILON == math.pi / 18
        assert imaging.TrajectoryConfig().epsilon == (imaging.DEFAULT_EPSILON,)
        assert iv.DEFAULT_EPSILON is imaging.DEFAULT_EPSILON

    def test_run_config_bytes(self, mix_csv, tmp_path):
        out = run_cli("image", "--data", mix_csv, "--outdir", tmp_path / "img", "--kernel", "K4")
        assert out.returncode == 0, out.stderr
        assert (tmp_path / "img" / "run_config.txt").read_text(encoding="utf-8") == (
            f"# image run\ndata={mix_csv}\nepsilon=0.17453292519943295\nformat=pgm\n"
            f"kappa=1\nkernel=K4\nm=1\noutdir={tmp_path / 'img'}\n"
        )


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
        first = ds.series()[0]
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
        assert ds.series()[0][1] == iv.Interval(1.0, 1.0)

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
        series = ds.series()[0]
        assert series.d == 2
        # the retained days are 1, 2, 4, 5
        assert np.array_equal(series.dimension(0).bounds[:, 0], [0.0, 1.0, 3.0, 4.0])

    def test_label_without_a_window_gets_no_class_id(self, tmp_path):
        """A label whose series are all shorter than the window is left out of
        the class ids, so the dataset's labels are 1..C and classify runs."""
        raw, out_csv = tmp_path / "raw.csv", tmp_path / "ds.csv"
        rows = ["series_id,dim,timestamp,value,label"]
        for label, n_days in (("a", 10), ("b", 2), ("c", 10)):
            rows += [f"s{label},x,{date(2021, 3, 1) + timedelta(days=i)},{i * 1.5},{label}"
                     for i in range(n_days)]
        raw.write_text("\n".join(rows) + "\n")
        out = run_cli("ingest", "--input", raw, "--out", out_csv, "--window", "4")
        assert out.returncode == 0, out.stderr
        assert "C=2 d=1 T=4 labels: 'a'->1, 'c'->2" in out.stdout
        assert out.stderr.splitlines() == [
            "warning: label 'b': no series has 4 complete days, so it gets no class id"]
        assert "dropped" not in out.stderr  # perfbench sums the days after that word
        assert iv.load_dataset_csv(out_csv).label_ids.tolist() == [1, 1, 2, 2]
        clf = run_cli("classify", "--data", out_csv, "--outdir", tmp_path / "clf",
                      "--blocks", "2", "--steps", "5")
        assert clf.returncode == 0, clf.stderr

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

    def test_timestamp_rule(self, tmp_path):
        """One rule on every supported Python: a trailing Z is UTC, and a date
        part other than YYYY-MM-DD (which Python 3.11's fromisoformat reads)
        is a bad timestamp."""
        raw, out_csv = tmp_path / "raw.csv", tmp_path / "ds.csv"
        raw.write_text("series_id,dim,timestamp,value,label\n"
                       "s,x,2020-01-01T23:00:00Z,1.0,a\ns,x,2020-01-02T12:00:00Z,2.0,a\n")
        out = run_cli("ingest", "--input", raw, "--out", out_csv, "--window", "2")
        assert out.returncode == 0, out.stderr
        assert iv.load_dataset_csv(out_csv).bounds.tolist() == [[[[1.0, 1.0], [2.0, 2.0]]]]
        raw.write_text("series_id,dim,timestamp,value,label\ns,x,20200102,1.0,a\n")
        out = run_cli("ingest", "--input", raw, "--out", out_csv, "--window", "1")
        assert_one_line_error(out, 3, f"data error: {raw}:2: bad ISO timestamp '20200102'")


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
        assert ds.series()[0][1] == iv.Interval(0.5, 0.5)

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


class TestDatasetSidecar:
    """`generate` and `ingest` write `<out>.npz` beside a dataset that is a
    regular file; `image` and `classify --data` write the same bytes whether
    it is there, deleted or stale."""

    def test_target_not_a_regular_file(self, tmp_path):
        null = tmp_path / "null.csv"
        null.symlink_to(os.devnull)
        out = run_cli("generate", "--dgp", "1", "--per-class", "2", "--T", "5", "--out", null)
        assert out.returncode == 0, out.stderr
        raw = tmp_path / "raw.csv"
        raw.write_text("series_id,dim,timestamp,value,label\n"
                       + "".join(f"s,x,2021-03-0{i + 1},{i},a\n" for i in range(4)))
        out = run_cli("ingest", "--input", raw, "--out", null, "--window", "2")
        assert out.returncode == 0, out.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["null.csv", "raw.csv"]

    def test_outputs_same_with_sidecar_present_deleted_or_stale(self, tmp_path):
        from ivtskit import cli

        data, other = tmp_path / "ds.csv", tmp_path / "other.csv"
        sidecar = tmp_path / "ds.csv.npz"
        with contextlib.redirect_stdout(io.StringIO()):
            for path, seed in ((other, "2"), (data, "1")):
                assert cli.main(["generate", "--dgp", "2", "--per-class", "4", "--T", "20",
                                 "--seed", seed, "--out", str(path)]) == 0
        commands = {
            "image": ["image", "--data", str(data), "--kernel", "K4", "--format", "both"],
            "linear": ["classify", "--data", str(data), "--blocks", "2", "--steps", "20"],
            "knn": ["classify", "--data", str(data), "--mode", "knn", "--k", "3"],
        }
        cached = sidecar.read_bytes()
        outputs = {}
        for state in ("present", "deleted", "stale"):
            if state == "deleted":
                sidecar.unlink()
            elif state == "stale":  # another dataset's arrays and digest
                shutil.copy(tmp_path / "other.csv.npz", sidecar)
            for name, argv in commands.items():
                outdir = tmp_path / name
                with contextlib.redirect_stdout(io.StringIO()) as stdout:
                    assert cli.main(argv + ["--outdir", str(outdir)]) == 0
                files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
                outputs.setdefault(name, []).append((stdout.getvalue(), files))
                shutil.rmtree(outdir)
        for name, runs in outputs.items():
            assert runs[1] == runs[0] and runs[2] == runs[0], name
        assert cached != sidecar.read_bytes()


class TestImage:
    @pytest.mark.parametrize("name", ["a,b.csv", 'a"b.csv'], ids=["comma", "quote"])
    def test_index_lists_a_stem_with_csv_syntax(self, tmp_path, name):
        """index.csv is CSV-quoted, so `classify --images` reads the file names
        of a dataset whose stem holds a comma or a quote."""
        from ivtskit import cli

        data, imgdir = tmp_path / name, tmp_path / "img"
        iv.save_dataset_csv(iv.build_dgp_mix_dataset(4, T=12, seed=1), data)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["image", "--data", str(data), "--outdir", str(imgdir),
                             "--kernel", "K4"]) == 0
            assert cli.main(["classify", "--images", str(imgdir), "--outdir",
                             str(tmp_path / "o"), "--blocks", "2", "--steps", "5"]) == 0
        with open(imgdir / "index.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[:2] == [["file", "item", "label"], [f"{data.stem}_0.pgm", "0", "1"]]

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

    def test_traced_peak_below_half_the_images(self, tmp_path):
        """`image` writes each image as it is made and keeps none of them."""
        from ivtskit import cli

        n, T = 400, 150
        bounds = np.random.default_rng(3).standard_normal((n, 1, T, 2))
        data = tmp_path / "ds.csv"
        iv.save_dataset_csv(iv.LabeledDataset(bounds, np.arange(n) % 4 + 1), data)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["image", "--data", str(data), "--outdir", str(tmp_path / "img"),
                               "--kernel", "K4"])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert len(list((tmp_path / "img").glob("*.pgm"))) == n
        assert peak < 0.5 * n * T * T

    def test_failed_item_leaves_no_index_or_config(self, tmp_path):
        """Images are written as they are made: a failure at item 1 leaves at
        most item 0's image, and neither index.csv nor run_config.txt."""
        data, outdir = tmp_path / "ds.csv", tmp_path / "o"
        steps = [[0.0, 1.0]] * 6, [[0.0, 1.0], [3.0, 3.5], [-2.0, 4.0]] * 2
        data.write_text("item,dim,t,lower,upper,label\n" + "".join(
            f"{i},0,{t},{lo!r},{up!r},{i + 1}\n"
            for i, rows in enumerate(steps) for t, (lo, up) in enumerate(rows)))
        out = run_cli("image", "--data", data, "--outdir", outdir, "--kernel", "1,2,1")
        assert_one_line_error(out, 4, "numeric error: item 1: ")
        assert out.stdout == ""
        assert {p.name for p in outdir.iterdir()} <= {"ds_0.pgm"}

    def test_label_below_one_names_its_line(self, mix_csv, tmp_path):
        """The first row in file order with a label below 1 is named, here in
        a file whose rows come in reverse order."""
        header, *rows = mix_csv.read_text().splitlines()
        rows[30:60] = [row.rsplit(",", 1)[0] + ",0" for row in rows[30:60]]  # item 1
        mix_csv.write_text("\n".join([header] + rows[::-1]) + "\n")
        lineno = 2 + len(rows) - 60  # item 1's last row, now its first
        for command in (["image", "--kernel", "K4"], ["classify"], ["classify", "--mode", "knn"]):
            out = run_cli(*command, "--data", mix_csv, "--outdir", tmp_path / "o")
            assert out.returncode == 3
            assert out.stderr == f"data error: {mix_csv}:{lineno}: label 0 is not a class id (1, 2, ...)\n"

    def test_non_ascii_dataset_name(self, mix_csv, tmp_path):
        """index.csv is UTF-8, so images named after any dataset classify."""
        data, imgdir = tmp_path / "donn\u00e9es.csv", tmp_path / "imgs"
        shutil.copy(mix_csv, data)
        out = run_cli("image", "--data", data, "--outdir", imgdir, "--kernel", "K4")
        assert out.returncode == 0, out.stderr
        assert (imgdir / "index.csv").read_text(encoding="utf-8").splitlines()[1] == \
            "donn\u00e9es_0.pgm,0,1"
        out = run_cli("classify", "--images", imgdir, "--steps", "5", "--outdir", tmp_path / "o")
        assert out.returncode == 0, out.stderr

    def test_non_ascii_names_under_an_ascii_locale(self, mix_csv, tmp_path):
        """Under an ASCII filesystem encoding Python decodes UTF-8 argv bytes to
        lone surrogates: such a value is read as its UTF-8 bytes, echoed as
        that text, and opens the same file."""
        data, imgdir = tmp_path / "donn\u00e9es.csv", tmp_path / "imgs"
        shutil.copy(mix_csv, data)
        out = run_cli("classify", "--data", data, "--steps", "5", "--outdir", tmp_path / "o",
                      env=C_LOCALE)
        assert out.returncode == 0, out.stderr
        assert f"data={data}\n" in (tmp_path / "o" / "run_config.txt").read_text("utf-8")
        assert (tmp_path / "o" / "report.csv").read_text("utf-8").splitlines()[1] == \
            "0,K4,donn\u00e9es,0,0.3333333333333333"
        out = run_cli("image", "--data", data, "--outdir", imgdir, "--kernel", "K4",
                      env=C_LOCALE)
        assert out.returncode == 0, out.stderr
        assert (imgdir / "index.csv").read_text("utf-8").splitlines()[1] == \
            "donn\u00e9es_0.pgm,0,1"
        out = run_cli("classify", "--images", imgdir, "--steps", "5", "--outdir",
                      tmp_path / "o2", env=C_LOCALE)
        assert out.returncode == 0, out.stderr

    @pytest.mark.parametrize("command,option", [("image", "--stem"), ("classify", "--tag")])
    def test_non_utf8_value_is_usage_error(self, mix_csv, tmp_path, command, option):
        """Every value is echoed into run_config.txt, so one that is not UTF-8
        text is refused before anything is written."""
        outdir = tmp_path / "o"
        out = run_cli(command, "--data", mix_csv, "--kernel", "K4", option, os.fsdecode(b"\xff"),
                      "--outdir", outdir)
        assert_one_line_error(out, 2, f"usage error: {option}: ")
        assert not outdir.exists() or not any(outdir.iterdir())

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
        flat = iv.IntervalSeries(np.array([[c, c + 0.1]] * 12))
        items.append((flat, 1))
    for i in range(6):
        c = 0.001 * i
        jumpy = iv.IntervalSeries(np.array([[c, c + 0.1]] * 6 + [[100 + c, 100.1 + c]] * 6))
        items.append((jumpy, 2))
    bounds = np.stack([series.grid for series, _ in items])
    iv.save_dataset_csv(iv.LabeledDataset(bounds, [label for _, label in items]), path)


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
            ("--step-size", "inf"), ("--c-a", "inf"), ("--c-b", "inf"), ("--cap", "inf"),
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

    def test_failed_read_leaves_no_outdir(self, tmp_path):
        """--outdir is created only once the inputs are read."""
        (tmp_path / "imgs").mkdir()
        out = run_cli("classify", "--images", tmp_path / "imgs", "--outdir", tmp_path / "o")
        assert_one_line_error(out, 3, f"cannot read {tmp_path / 'imgs' / 'index.csv'}")
        assert not (tmp_path / "o").exists()

    def test_non_ascii_index_is_data_error(self, sep_images, tmp_path):
        relabel_index(sep_images, lambda i, label: "\u00b2" if i == 0 else label)
        out = run_cli("classify", "--images", sep_images, "--mode", "linear",
                      "--steps", "5", "--outdir", tmp_path / "o")
        assert_one_line_error(out, 3, "index.csv")

    def test_nul_in_index_file_name_is_data_error(self, sep_images, tmp_path):
        """Refused before any image is opened (Python 3.10's csv.reader
        already refuses the line)."""
        index = sep_images / "index.csv"
        lines = index.read_text().splitlines()
        index.write_text("\n".join([lines[0], "a\0" + lines[1], *lines[2:]]) + "\n")
        out = run_cli("classify", "--images", sep_images, "--outdir", tmp_path / "o")
        assert_one_line_error(out, 3, f"data error: {index}")
        if sys.version_info >= (3, 11):
            assert f"{index}:2: file name 'a\\x00" in out.stderr
        assert not (tmp_path / "o").exists()

    def test_outdir_holding_images_is_usage_error(self, sep_images, mix_csv):
        """classify would replace the image directory's run_config.txt with
        its own, and later `classify --images` runs could not read it."""
        before = {p.name: p.read_bytes() for p in sep_images.iterdir()}
        for source in (("--images", sep_images), ("--data", mix_csv)):
            out = run_cli("classify", *source, "--outdir", sep_images)
            assert_one_line_error(out, 2, f"usage error: --outdir: {str(sep_images)!r} holds")
        assert {p.name: p.read_bytes() for p in sep_images.iterdir()} == before

    def test_non_utf8_run_config_is_data_error(self, sep_images, tmp_path):
        (sep_images / "run_config.txt").write_bytes(b"kernel=\xff\n")
        out = run_cli("classify", "--images", sep_images, "--mode", "linear",
                      "--steps", "5", "--outdir", tmp_path / "o")
        assert_one_line_error(out, 3, f"{sep_images / 'run_config.txt'}: not UTF-8 text")

    @pytest.mark.parametrize("line, text", [
        ("foo=1", "unknown config key 'foo'"),
        ("format=tiff", "invalid choice for format: 'tiff'"),
    ])
    def test_run_config_key_or_choice_fault_is_data_error(self, sep_images, tmp_path, line, text):
        """The file is input data, not the user's flags: exit 3, as --config's
        same faults exit 2."""
        config = sep_images / "run_config.txt"
        config.write_text(config.read_text() + line + "\n")
        out = run_cli("classify", "--images", sep_images, "--mode", "linear",
                      "--steps", "5", "--outdir", tmp_path / "o")
        assert_one_line_error(out, 3, f"data error: {config}:")
        assert text in out.stderr

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

    @pytest.mark.parametrize("fault", ["truncated", "maxval", "size-line", "missing", "csv-entry",
                                       "p6"])
    def test_bad_image_file_named_once(self, sep_images, tmp_path, fault):
        path = sep_images / "sep_1.pgm"
        raw = path.read_bytes()
        if fault == "truncated":
            path.write_bytes(raw[:raw.index(b"255\n") + 4])
        elif fault == "maxval":
            path.write_bytes(raw.replace(b"\n255\n", b"\n254\n", 1))
        elif fault == "size-line":
            path.write_bytes(raw.replace(b"\n12 ", b"\nn ", 1))
        elif fault == "missing":
            path.unlink()
        elif fault == "p6":
            path.write_bytes(raw.replace(b"P5\n", b"P6\n", 1))
        else:
            path = sep_images / "sep_1.csv"
            iv.export_csv(iv.load_pgm(sep_images / "sep_1.pgm"), path)
            path.write_text(path.read_text().replace("1", "2", 1))
            index = sep_images / "index.csv"
            index.write_text(index.read_text().replace("sep_1.pgm", "sep_1.csv"))
        out = run_cli("classify", "--images", sep_images, "--steps", "5",
                      "--outdir", tmp_path / "o")
        assert_one_line_error(out, 3, "data error: ")
        assert out.stderr.count(str(path)) == 1

    def test_bad_run_config_before_a_bad_image(self, sep_images, tmp_path):
        """run_config.txt is read before any image, so its fault is reported
        and a truncated image after it is never read."""
        config = sep_images / "run_config.txt"
        config.write_text(config.read_text() + "m=x\n")
        path = sep_images / "sep_1.pgm"
        path.write_bytes(path.read_bytes()[:-3])
        out = run_cli("classify", "--images", sep_images, "--outdir", tmp_path / "o")
        assert_one_line_error(out, 3, f"data error: {config}:")
        assert str(path) not in out.stderr

    def test_index_labels_before_a_missing_image(self, sep_images, tmp_path):
        relabel_index(sep_images, lambda i, label: "3" if label == "2" else label)
        (sep_images / "sep_1.pgm").unlink()
        out = run_cli("classify", "--images", sep_images, "--outdir", tmp_path / "o")
        assert_one_line_error(out, 3, "no item has class id 2")

    def test_bad_grid_before_a_later_imaging_error(self, tmp_path):
        """A grid finer than the images is reported at the first item, before
        the indefinite kernel fails on the last."""
        upper = np.random.default_rng(4).random((12, 1, 10, 1)) + 0.1
        bounds = np.concatenate([np.zeros_like(upper), upper], axis=-1)
        bounds[-1, ..., 0] = upper[-1, ..., 0] - 0.1
        data = tmp_path / "tail.csv"
        iv.save_dataset_csv(iv.LabeledDataset(bounds, np.arange(12) % 2 + 1), data)
        out = run_cli("classify", "--data", data, "--kernel", "1,2,1", "--outdir",
                      tmp_path / "o")
        assert_one_line_error(out, 4, "numeric error: item 11: ")
        out = run_cli("classify", "--data", data, "--kernel", "1,2,1", "--blocks", "11",
                      "--outdir", tmp_path / "o")
        assert_one_line_error(out, 3, "data error: block grid 11 exceeds image size 10")

    @pytest.mark.parametrize("lines", [["file,label"], ["file,item,label"]],
                             ids=["header", "header-only"])
    def test_bad_index_is_data_error(self, sep_images, tmp_path, lines):
        index = sep_images / "index.csv"
        index.write_text("\n".join(lines) + "\n")
        out = run_cli("classify", "--images", sep_images, "--outdir", tmp_path / "o")
        assert_one_line_error(out, 3, f"data error: {index}: ")

    def test_knn_needs_series(self, sep_images, tmp_path):
        out = run_cli("classify", "--images", sep_images, "--mode", "knn",
                      "--outdir", tmp_path / "o")
        assert_one_line_error(out, 2, "usage error: --mode knn needs --data")

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

    def test_epsilon_not_a_number(self, mix_csv, tmp_path):
        out = run_cli("image", "--data", mix_csv, "--kernel", "K4", "--epsilon", "abc",
                      "--outdir", tmp_path / "o")
        assert_one_line_error(
            out, 4, "numeric error: epsilon 'abc' is not a number or comma list")

    @pytest.mark.parametrize("blocks", ["0", "-1"])
    def test_block_grid_below_one(self, mix_csv, tmp_path, blocks):
        out = run_cli("classify", "--data", mix_csv, "--blocks", blocks,
                      "--outdir", tmp_path / "o")
        assert_one_line_error(out, 4, "numeric error: block grid size must be >= 1")

    def test_block_grid_larger_than_the_images(self, mix_csv, tmp_path):
        out = run_cli("classify", "--data", mix_csv, "--blocks", "31",
                      "--outdir", tmp_path / "o")  # T = 30, so N = 30
        assert_one_line_error(out, 3, "data error: ")

    @pytest.mark.parametrize("options,text", [
        (("--runs", "0"), "runs must be >= 1"),
        (("--mode", "knn", "--k", "0"), "k must satisfy 1 <= k <= 9, got 0"),
        (("--mode", "knn", "--k", "10"), "k must satisfy 1 <= k <= 9, got 10"),
    ], ids=["runs-0", "k-0", "k-above-train"])
    def test_classify_run_option(self, mix_csv, tmp_path, options, text):
        out = run_cli("classify", "--data", mix_csv, *options, "--outdir", tmp_path / "o")
        assert_one_line_error(out, 4, f"numeric error: {text}")

    def test_value_error_reaching_main_is_numeric_error(self, tmp_path, monkeypatch, capsys):
        """A failed value check that no reader calls a data error exits 4."""
        from ivtskit import cli, dgp

        def fail(ds, path):
            raise ValueError("no good")

        monkeypatch.setattr(dgp, "save_dataset_csv", fail)
        rc = cli.main(["generate", "--dgp", "1", "--per-class", "2", "--T", "8",
                       "--out", str(tmp_path / "g.csv")])
        assert (rc, capsys.readouterr().err) == (4, "numeric error: no good\n")

    @pytest.mark.parametrize("error,code,kind", [
        (ValueError, 4, "numeric"), (iv.NonFinite, 4, "numeric"),
        (iv.NegativeSquaredDistance, 4, "numeric"), (iv.LengthMismatch, 3, "data"),
        (iv.SeriesTooShort, 3, "data"), (iv.DimensionMismatch, 3, "data"),
        (iv.BlockGridInvalid, 3, "data"), (iv.EmptyInput, 3, "data"), (OSError, 3, "data"),
        (csv.Error, 3, "data"), (iv.DataError, 3, "data"),
    ])
    def test_exception_type_picks_exit_code(self, tmp_path, monkeypatch, capsys, error, code,
                                            kind):
        """The exception's type alone picks the exit code of an error that
        reaches main."""
        from ivtskit import cli, dgp

        def fail(ds, path):
            raise error("no good")

        monkeypatch.setattr(dgp, "save_dataset_csv", fail)
        rc = cli.main(["generate", "--dgp", "1", "--per-class", "2", "--T", "8",
                       "--out", str(tmp_path / "g.csv")])
        assert (rc, capsys.readouterr().err) == (code, f"{kind} error: no good\n")


class TestKernelOption:
    """A --kernel that is neither a preset nor a k_pp,k_pm,k_mm triple of
    numbers is a usage error; a triple with a NaN entry is NonFinite, a
    numeric error.  Either is one line, before any output is written."""

    @pytest.mark.parametrize("command,kernel,code", [
        ("image", "K9", 2), ("image", "1,2", 2), ("classify", "a,b,c", 2),
        ("image", "nan,0,1", 4), ("classify", "nan,0,1", 4),
    ])
    def test_exit_code(self, tmp_path, capsys, command, kernel, code):
        from ivtskit import cli

        data = tmp_path / "ds.csv"
        iv.save_dataset_csv(iv.build_dgp_mix_dataset(4, T=12, seed=1), data)
        rc = cli.main([command, "--data", str(data), "--outdir", str(tmp_path / "o"),
                       "--kernel", kernel])
        err = capsys.readouterr().err
        assert rc == code and len(err.splitlines()) == 1
        assert err.startswith("usage error: " if code == 2 else "numeric error: ")
        assert not (tmp_path / "o").exists()


class TestReadersRaiseDataError:
    """Each reader raises a DataError, which is an IvtsError and a ValueError,
    with the message that names its file; a command that reads the file exits
    3 with that message as its one stderr line."""

    @staticmethod
    def _case(fault, d):
        """The reader call that meets `fault` in a file written under `d`, its
        message, and the argv of a command that reads it (or None)."""
        from ivtskit import ingest, split

        if fault == "dataset-header":
            path = d / "ds.csv"
            path.write_text("item,dim,t,lower,upper\n0,0,0,1.0,2.0\n")
            return (lambda: iv.load_dataset_csv(path),
                    f"{path}: expected header 'item,dim,t,lower,upper,label'",
                    ["image", "--data", path, "--outdir", d / "o", "--kernel", "K4"])
        if fault == "dataset-bytes":  # past the first of loadtxt's chunks, after a lone CR
            path = d / "ds.csv"
            rows = "".join(f"{i},0,0,1.0,2.0,1\n" for i in range(3000))
            path.write_bytes(b"item,dim,t,lower,upper,label\r" + rows.encode()
                             + b"3000,0,0,1.0,\xe92.0,1\n" + rows.encode())
            return (lambda: iv.load_dataset_csv(path), f"{path}:3002: byte 0xe9 is not ASCII",
                    ["image", "--data", path, "--outdir", d / "o", "--kernel", "K4"])
        if fault in ("pgm-short", "csv-image-2"):
            if fault == "pgm-short":
                path = d / "a.pgm"
                path.write_bytes(b"P5\n2 2\n255\n\xff\xff\xff")
                reader, message = iv.load_pgm, f"{path}: a 2x2 image needs 4 bytes, got 3"
            else:
                path = d / "a.csv"
                path.write_text("1,0\n2,1\n")
                reader = iv.load_csv_image
                message = f"{path}: recurrence image entries must be 0 or 1"
            (d / "index.csv").write_text(f"file,item,label\n{path.name},0,1\nb,1,2\n")
            return (lambda: reader(path), message,
                    ["classify", "--images", d, "--outdir", d / "o"])
        if fault == "raw-value":
            path = d / "raw.csv"
            path.write_text("series_id,dim,timestamp,value,label\ns,x,2021-01-01,1.5x,L\n")
            return (lambda: ingest.daily_intervals(path), f"{path}:2: bad value '1.5x'",
                    ["ingest", "--input", path, "--out", d / "o.csv", "--window", "1"])
        if fault == "model-header":
            path = d / "model.txt"
            path.write_text("2 3 1.0\n")
            return lambda: iv.load_model(path), f"{path}: malformed model header '2 3 1.0'", None
        path = d / "ds.csv"  # one item of class 1
        iv.save_dataset_csv(iv.LabeledDataset(np.zeros((3, 1, 4, 2)), [1, 2, 2]), path)
        return (lambda: split.split_indices([1, 2, 2], 0.5),
                "class 1 has 1 item(s); need at least 2 to split",
                ["classify", "--data", path, "--mode", "knn", "--outdir", d / "o"])

    @pytest.mark.parametrize("fault", ["dataset-header", "dataset-bytes", "pgm-short",
                                       "csv-image-2", "raw-value", "model-header",
                                       "split-one-item"])
    def test_reader_raises_data_error(self, tmp_path, capsys, fault):
        from ivtskit import cli

        read, message, argv = self._case(fault, tmp_path)
        with pytest.raises(iv.DataError) as info:
            read()
        assert isinstance(info.value, iv.IvtsError) and isinstance(info.value, ValueError)
        assert str(info.value) == message
        if argv is not None:
            assert cli.main([str(a) for a in argv]) == 3
            assert capsys.readouterr() == ("", f"data error: {message}\n")


def run_piped(data: bytes, *args):
    """`run_cli` with `data` piped to the command's stdin, which the command
    opens as /dev/stdin: a pipe, which cannot be rewound."""
    out = subprocess.run([sys.executable, "-m", "ivtskit", *map(str, args)], input=data,
                         capture_output=True)
    return subprocess.CompletedProcess(out.args, out.returncode, out.stdout.decode(),
                                       out.stderr.decode())


def _same_files(a: Path, b: Path, skip=()) -> bool:
    """Whether directories `a` and `b` hold the same names and, but for
    `skip`, the same bytes."""
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names if n not in skip)


class TestPipedInput:
    """Every reader reads a pipe once: a clean input gives the bytes that the
    same regular file gives, and a faulty one is one data error naming its
    line or record."""

    _ROWS = b"item,dim,t,lower,upper,label\n" + b"".join(
        b"%d,0,0,1.0,2.0,1\n" % i for i in range(3000))  # past loadtxt's first chunk

    def test_clean_dataset(self, tmp_path):
        data = tmp_path / "file" / "stdin.csv"  # the stem that /dev/stdin gives
        data.parent.mkdir()
        iv.save_dataset_csv(iv.build_univariate_dataset(2, per_class_n=3, T=8, seed=3), data)
        out = run_piped(data.read_bytes(), "image", "--data", "/dev/stdin",
                        "--outdir", tmp_path / "piped", "--kernel", "K4")
        assert out.returncode == 0, out.stderr
        out = run_cli("image", "--data", data, "--outdir", tmp_path / "read", "--kernel", "K4")
        assert out.returncode == 0, out.stderr
        assert _same_files(tmp_path / "piped", tmp_path / "read", skip=["run_config.txt"])

    @pytest.mark.parametrize("row,message", [
        (b"3000,0,0,nan,2.0,1", "non-finite bound"),
        (b"3000,0,0,0.x,2.0,1", "malformed row '3000,0,0,0.x,2.0,1'"),
        (b"3000,0,0,1.0,\xe92.0,1", "byte 0xe9 is not ASCII"),
    ], ids=["non-finite", "malformed", "non-ascii"])
    def test_faulty_dataset(self, tmp_path, row, message):
        out = run_piped(self._ROWS + row + b"\n", "image", "--data", "/dev/stdin",
                        "--outdir", tmp_path / "o", "--kernel", "K4")
        assert_one_line_error(out, 3, f"data error: /dev/stdin:3002: {message}")

    def test_clean_and_faulty_raw_readings(self, tmp_path):
        raw = tmp_path / "raw.csv"
        TestIngest()._write_raw(raw, n_days=6, dims=("a", "b"))
        out = run_piped(raw.read_bytes(), "ingest", "--input", "/dev/stdin",
                        "--out", tmp_path / "piped.csv", "--window", "3")
        assert out.returncode == 0, out.stderr
        out = run_cli("ingest", "--input", raw, "--out", tmp_path / "read.csv", "--window", "3")
        assert out.returncode == 0, out.stderr
        assert (tmp_path / "piped.csv").read_bytes() == (tmp_path / "read.csv").read_bytes()
        bad = raw.read_bytes().replace(b",2.5,", b",2.5x,", 1)
        out = run_piped(bad, "ingest", "--input", "/dev/stdin", "--out", tmp_path / "bad.csv",
                        "--window", "3")
        assert_one_line_error(out, 3, "data error: /dev/stdin:3: bad value '2.5x'")

    def test_clean_and_faulty_config(self, mix_csv, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"mode=knn\nruns=2\n")
        args = ("classify", "--data", mix_csv, "--config")
        out = run_piped(config.read_bytes(), *args, "/dev/stdin", "--outdir", tmp_path / "piped")
        assert out.returncode == 0, out.stderr
        out = run_cli(*args, config, "--outdir", tmp_path / "read")
        assert out.returncode == 0, out.stderr
        assert _same_files(tmp_path / "piped", tmp_path / "read", skip=["run_config.txt"])
        out = run_piped(b"mode=knn\nruns\n", *args, "/dev/stdin", "--outdir", tmp_path / "o")
        assert_one_line_error(out, 3, "data error: /dev/stdin:2: expected key=value, got 'runs'")


def _report(lines):
    return "".join(f"{line}\n" for line in lines)


_HINGE = ["loss = hinge", "ell = 1.0", "c_A = 1.0", "c_B = 1.0", "c_Z = 1.0", "n = 100",
          "log_covering = 10.0", "varrho = 0.125", "g_bound_single = 4.0",
          "g_bound_pair = 8.0", "offset_rademacher_bound = 16.44", "excess_risk_bound = 65.76"]

# `bound --n 100 --log-covering 10` followed by each run's flags: the exit
# code and the full stdout and stderr
BOUND_GOLDEN = [
    ((), 0, _report(_HINGE), ""),
    (("--json",), 0, """\
{
  "loss": "hinge",
  "ell": 1.0,
  "c_A": 1.0,
  "c_B": 1.0,
  "c_Z": 1.0,
  "n": 100,
  "log_covering": 10.0,
  "varrho": 0.125,
  "g_bound_single": 4.0,
  "g_bound_pair": 8.0,
  "offset_rademacher_bound": 16.44,
  "excess_risk_bound": 65.76
}
""", ""),
    (("--mc",), 0, _report(_HINGE + ["mc_offset_rademacher = 0.16139386800926536",
                                     "mc_draws = 256", "mc_inner_steps = 200"]), ""),
    (("--loss", "squared_hinge", "--c-z", "2", "--varrho", "0.3"), 0, _report([
        "loss = squared_hinge", "ell = 2.0", "c_A = 1.0", "c_B = 1.0", "c_Z = 2.0", "n = 100",
        "log_covering = 10.0", "varrho = 0.3", "g_bound_single = 12.0", "g_bound_pair = 24.0",
        "offset_rademacher_bound = 196.98333333333332", "excess_risk_bound = 197.28"]), ""),
    (("--n", "0"), 4, "", "sample count n must be >= 1, got 0"),
    (("--log-covering", "-1"), 4, "", "log_covering must be finite and >= 0, got -1.0"),
    (("--varrho", "0"), 4, "", "varrho must be finite and positive, got 0.0"),
    (("--ell", "nan"), 4, "", "ell must be finite and positive, got nan"),
    (("--ell", "1e308", "--c-a", "1e308"), 4, "",
     "g = 4 ell (c_A c_Z + c_B) overflows at ell=1e+308, c_A=1e+308, c_B=1.0, c_Z=1.0"),
    (("--c-a", "0"), 4, "", "c_A must be finite and positive, got 0.0"),
    (("--ell", "-1"), 4, "", "ell must be finite and positive, got -1.0"),
    (("--varrho", "1e-320"), 4, "",
     "the bound overflows at varrho=1e-320, n=100, log_covering=10.0"),
    (("--n", "1", "--log-covering", "1e308"), 4, "",
     "the bound overflows at varrho=0.125, n=1, log_covering=1e+308"),
    # two bad caps: the first in (ell, c_A, c_B, c_Z) order is named
    (("--varrho", "0.5", "--c-b", "inf", "--c-z", "inf"), 4, "",
     "c_B must be finite and positive, got inf"),
    # the offset bound is finite, the excess-risk bound is not
    (("--n", "1", "--log-covering", "2e307"), 4, "",
     "the bound overflows at varrho=0.125, n=1, log_covering=2e+307"),
    (("--mc", "--mc-draws", "0"), 4, "", "mc_draws must be >= 1 and inner_steps >= 0"),
    (("--mc", "--inner-steps", "-1"), 4, "", "mc_draws must be >= 1 and inner_steps >= 0"),
    # an n that no float holds, with and without --varrho
    *[pytest.param(("--n", "1" + "0" * 400, *flags), 4, "",
                   f"sample count n must be at most 1.7976931348623157e+308, got 1{'0' * 400}",
                   id=f"n-1e400{'-varrho' * bool(flags)}")
      for flags in ((), ("--varrho", "0.5"))],
]


class TestBound:
    @pytest.mark.parametrize("flags, code, stdout, error", BOUND_GOLDEN)
    def test_golden_output(self, flags, code, stdout, error):
        out = run_cli("bound", "--n", "100", "--log-covering", "10", *flags)
        assert (out.returncode, out.stdout) == (code, stdout)
        assert out.stderr == (f"numeric error: {error}\n" if error else "")

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

    @pytest.mark.parametrize("flags", [
        ("--ell", "1e308", "--c-a", "1e308", "--varrho", "0.5"),
        ("--ell", "1e308", "--c-a", "1e308"),
        ("--c-a", "1e200", "--c-z", "1e200"),
    ])
    def test_overflowing_g_names_ell_and_the_caps(self, flags):
        """A g = 4 ell (c_A c_Z + c_B) that overflows is reported as such, not as
        a --varrho of 0.0 that the user never set."""
        out = run_cli("bound", "--n", "100", "--log-covering", "10", *flags)
        assert_one_line_error(out, 4, "numeric error: g = 4 ell (c_A c_Z + c_B) overflows at ell=")
        assert "varrho" not in out.stderr and out.stdout == ""

    @pytest.mark.parametrize("flags", [
        ("--ell", "1e-300", "--c-a", "1e-300", "--c-b", "1e-300", "--c-z", "1e-300"),
        ("--ell", "1e-310"),
        ("--c-a", "5e-324", "--c-z", "5e-324", "--c-b", "5e-324"),
        ("--ell", "1e-310", "--varrho", "0.5"),
    ])
    def test_underflowing_g_names_ell_and_the_caps(self, flags):
        """A g = 4 ell (c_A c_Z + c_B) of 0.0, or one whose reciprocal is not
        finite, is reported as such, not as a division by zero or as a
        --varrho of inf that the user never set."""
        out = run_cli("bound", "--n", "100", "--log-covering", "10", *flags)
        assert_one_line_error(out, 4, "numeric error: g = 4 ell (c_A c_Z + c_B) underflows at ell=")
        assert "varrho" not in out.stderr and out.stdout == ""

    @pytest.mark.parametrize("flags", [
        ("--n", "100", "--log-covering", "10", "--varrho", "1e308"),
        ("--n", "100", "--log-covering", "10", "--varrho", "1e-320"),
        ("--n", "1", "--log-covering", "1e308"),
    ])
    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_overflowing_bound_names_varrho_n_and_log_covering(self, flags, json_flag):
        """Finite inputs whose bound overflows are a numeric error, not an
        `inf` (or, under --json, an `Infinity` that is not JSON) and exit 0."""
        out = run_cli("bound", *flags, *json_flag)
        assert_one_line_error(out, 4, "numeric error: the bound overflows at varrho=")
        assert ", n=" in out.stderr and ", log_covering=" in out.stderr
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

    @pytest.mark.parametrize("command,key,args", [
        ("generate", "out", ["--dgp", "2", "--per-class", "2", "--T", "8"]),
        ("ingest", "out", ["--input", "{raw}", "--window", "3"]),
        ("image", "outdir", ["--data", "{data}", "--kernel", "K4"]),
        ("classify", "tag", ["--data", "{data}", "--steps", "5", "--outdir", "{tmp}/o"]),
        ("bound", "loss", ["--n", "100", "--log-covering", "10"]),
    ], ids=["generate", "ingest", "image", "classify", "bound"])
    def test_config_value_with_nul_is_data_error(self, mix_csv, tmp_path, command, key, args):
        """A NUL byte in a value ends in a one-line data error, never in a
        traceback or in the outputs."""
        raw = tmp_path / "raw.csv"
        raw.write_text("series_id,dim,timestamp,value,label\n"
                       + "".join(f"s1,x,2021-03-0{i + 1},{i},a\n" for i in range(3)))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"# run\n{key}=x\0y\n")
        argv = [a.format(raw=raw, data=mix_csv, tmp=tmp_path) for a in args]
        out = run_cli(command, *argv, "--config", cfg)
        assert_one_line_error(out, 3, f"data error: {cfg}:2: bad value for {key}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("tag", [" x ", "p\nq", '"x"', "x\u2028y", "x\0y"],
                             ids=["spaces", "line-break", "quotes", "line-separator", "nul"])
    def test_value_that_would_not_read_back_is_usage_error(self, tmp_path, capsys, tag):
        """run_config.txt must read back as written, so a value that `--config`
        would read otherwise is a usage error naming the option, raised
        before any output is written."""
        from ivtskit import cli

        data = tmp_path / "ds.csv"
        iv.save_dataset_csv(iv.build_dgp_mix_dataset(4, T=12, seed=1), data)
        rc = cli.main(["classify", "--data", str(data), "--outdir", str(tmp_path / "o"),
                       "--blocks", "2", "--steps", "5", "--tag", tag])
        err = capsys.readouterr().err
        assert rc == 2 and len(err.splitlines()) == 1
        assert err.startswith(f"usage error: --tag: {tag!r} would not read back")
        assert not (tmp_path / "o").exists()

    def test_echoed_value_reads_back(self, tmp_path):
        """A tag with inner spaces, quotes and '=' comes back from
        run_config.txt as written, so the second run's report is the first's."""
        from ivtskit import cli

        data = tmp_path / "ds.csv"
        iv.save_dataset_csv(iv.build_dgp_mix_dataset(4, T=12, seed=1), data)
        tag = 'a "b" = c'
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["classify", "--data", str(data), "--outdir", str(tmp_path / "1"),
                             "--blocks", "2", "--steps", "5", "--tag", tag]) == 0
            assert cli.main(["classify", "--config", str(tmp_path / "1" / "run_config.txt"),
                             "--outdir", str(tmp_path / "2")]) == 0
        reports = [(tmp_path / run / "report.csv").read_bytes() for run in "12"]
        assert reports[0] == reports[1]
        assert next(csv.reader(reports[0].decode().splitlines()[1:]))[2] == tag

    def test_config_bad_bool_is_data_error(self, mix_csv, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("self_test=maybe\n")
        out = run_cli("classify", "--data", mix_csv, "--outdir", tmp_path / "o", "--config", cfg)
        assert_one_line_error(out, 3, f"data error: {cfg}:1: bad value for self_test: ")

    def test_missing_config_is_data_error(self, mix_csv, tmp_path):
        cfg = tmp_path / "none.cfg"
        out = run_cli("classify", "--data", mix_csv, "--outdir", tmp_path / "o", "--config", cfg)
        assert_one_line_error(out, 3, f"data error: cannot read config file {cfg}: ")

    def test_unknown_config_key_is_usage_error(self, mix_csv, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus=1\n")
        out = run_cli(
            "image", "--data", mix_csv, "--outdir", tmp_path / "o", "--config", cfg
        )
        assert out.returncode == 2


class TestClassifyMemory:
    """Under flatten `classify` trains from packed bits and scores its test
    rows in blocks, so it never holds a run's training rows as float64."""

    @pytest.mark.parametrize("source", ["--data", "--images"])
    def test_traced_peak_below_a_third_of_the_training_rows(self, tmp_path, source):
        from ivtskit import cli

        data, imgdir = tmp_path / "ds.csv", tmp_path / "img"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["generate", "--dgp", "1", "--per-class", "20", "--T", "160",
                             "--out", str(data)]) == 0
            assert cli.main(["image", "--data", str(data), "--outdir", str(imgdir),
                             "--kernel", "K4", "--threads", "1"]) == 0
        n = len((imgdir / "index.csv").read_text().splitlines()) - 1
        train_bytes = n * 4 // 5 * 160 * 160 * 8  # one run's float64 training rows at 0.8
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
        # the peak holds at least the model's C x p float64 weights
        weight_bytes = int((tmp_path / "lin" / "model_run0.txt").read_text().split()[0]) \
            * 160 * 160 * 8
        assert weight_bytes < peak < train_bytes / 3

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
        "ell": (["1", "0.5", "1e300", "1e-300", "1e-310", "5e-324", ""],
                ["0", "-1", "nan", "inf"]),
        "c_a": (["1.0", "0.5", "1e300", "1e-300", "1e-310", "5e-324", ""],
                ["0", "-1", "nan", "inf"]),
        "c_b": (["1.0", "0.5", "1e300", "1e-300", "1e-310", "5e-324", ""],
                ["0", "-1", "nan", "inf"]),
        "c_z": (["1.0", "0.5", "1e300", "1e-300", "1e-310", "5e-324", ""],
                ["0", "-1", "nan", "inf"]),
        "n": (["1", "100"], ["0", "-1", "x", "", "1" + "0" * 400]),
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
