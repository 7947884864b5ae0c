"""Command-line front end: generate | ingest | image | classify | bound.

Every run is fully determined by its effective option set, which is assembled
from built-in defaults, an optional flat key=value config file, and command
line flags (highest precedence), then echoed into the output directory of any
command that produces one.  Exit codes: 0 success, 2 usage error, 3 data
error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import classify as clf_mod
from . import dgp as dgp_mod
from . import imaging as img_mod
from . import theory as theory_mod
from .errors import BlockGridInvalid, IvtsError, NegativeSquaredDistance, NonFinite
from .imaging import TrajectoryConfig
from .intervals import parse_kernel

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    """Bad flag combinations or missing required options."""


class DataError(Exception):
    """Unreadable, malformed, or structurally impossible input data."""


class NumericError(Exception):
    """Parameter values outside their numeric domain."""


@dataclass(frozen=True)
class Opt:
    flag: str
    key: str
    conv: object  # a converter callable, or bool for store_true flags
    default: object
    help: str
    choices: tuple | None = None


_DEFAULT_EPSILON_STR = repr(img_mod.DEFAULT_EPSILON)

GENERATE_OPTS = (
    Opt("--dgp", "dgp", int, None, "simulation process id (1, 2, or 3)", (1, 2, 3)),
    Opt("--scenario", "scenario", str, None,
        "dataset construction: c1 (3 classes x 5 dims), c2 (5 classes x 3 dims), "
        "mix (3 univariate classes, one per process, at a fixed --rho)",
        ("c1", "c2", "mix")),
    Opt("--per-class", "per_class", int, dgp_mod.DEFAULT_PER_CLASS, "samples per class"),
    Opt("--T", "T", int, dgp_mod.DEFAULT_T, "series length"),
    Opt("--rhos", "rhos", str, ",".join(repr(r) for r in dgp_mod.DEFAULT_RHO_GRID),
        "comma-separated correlation grid; values starting with a dash "
        "need the --rhos=-0.9,... form"),
    Opt("--rho", "rho", float, 0.7, "fixed correlation for --scenario mix"),
    Opt("--truncation-L", "truncation_L", int, 100, "series cutoff for process 1"),
    Opt("--burn-in", "burn_in", int, 100, "discarded warm-up steps for process 2"),
    Opt("--seed", "seed", int, 0, "base RNG seed"),
    Opt("--out", "out", str, None, "output dataset CSV path"),
)

INGEST_OPTS = (
    Opt("--input", "input", str, None,
        "raw CSV with series_id,dim,timestamp,value,label rows"),
    Opt("--out", "out", str, None, "output dataset CSV path"),
    Opt("--window", "window", int, 30, "days per interval series"),
    Opt("--stride", "stride", int, None, "window stride in days (default: --window)"),
)

IMAGE_OPTS = (
    Opt("--data", "data", str, None, "input dataset CSV"),
    Opt("--outdir", "outdir", str, None, "output directory"),
    Opt("--kernel", "kernel", str, None, 'kernel preset "K1".."K5" or "k_pp,k_pm,k_mm"'),
    Opt("--epsilon", "epsilon", str, _DEFAULT_EPSILON_STR,
        "recurrence threshold: a number, or comma-separated per-dimension values"),
    Opt("--m", "m", int, 1, "trajectory length"),
    Opt("--kappa", "kappa", int, 1, "time delay"),
    Opt("--format", "format", str, "pgm", "image file format", ("pgm", "csv", "both")),
    Opt("--stem", "stem", str, None, "output file stem (default: dataset stem)"),
    Opt("--threads", "threads", int, None, "checked, then ignored"),
)

CLASSIFY_OPTS = (
    Opt("--data", "data", str, None, "input dataset CSV"),
    Opt("--images", "images", str, None, "directory produced by the image command"),
    Opt("--mode", "mode", str, "linear", "classifier", ("linear", "knn")),
    Opt("--kernel", "kernel", str, "K4", "kernel for distances / in-memory imaging"),
    Opt("--k", "k", int, 1, "neighbor count for knn"),
    Opt("--train-fraction", "train_fraction", float, 0.8, "stratified train share"),
    Opt("--seed", "seed", int, 0, "base seed; run r uses seed + r"),
    Opt("--runs", "runs", int, 1, "number of split/train repetitions"),
    Opt("--self-test", "self_test", bool, False, "evaluate on the training set itself"),
    Opt("--feature-mode", "feature_mode", str, "block_mean", "image featurization",
        ("flatten", "block_mean")),
    Opt("--blocks", "blocks", int, 10, "block grid size for block_mean"),
    Opt("--cap", "cap", float, 1.0, "feature norm cap c_Z"),
    Opt("--loss", "loss", str, "hinge", "auxiliary loss", tuple(clf_mod.LOSSES)),
    Opt("--steps", "steps", int, 500, "subgradient steps"),
    Opt("--step-size", "step_size", float, 0.5, "base step size (eta_t = eta0/sqrt(t))"),
    Opt("--c-a", "c_a", float, 1.0, "weight row norm cap"),
    Opt("--c-b", "c_b", float, 1.0, "bias magnitude cap"),
    Opt("--epsilon", "epsilon", str, _DEFAULT_EPSILON_STR, "imaging threshold"),
    Opt("--m", "m", int, 1, "trajectory length for in-memory imaging"),
    Opt("--kappa", "kappa", int, 1, "time delay for in-memory imaging"),
    Opt("--tag", "tag", str, None, "dataset tag for the report (default: input stem)"),
    Opt("--outdir", "outdir", str, None, "output directory for report and models"),
    Opt("--threads", "threads", int, None, "checked, then ignored"),
)

BOUND_OPTS = (
    Opt("--loss", "loss", str, "hinge", "auxiliary loss fixing ell", tuple(clf_mod.LOSSES)),
    Opt("--ell", "ell", float, None, "explicit Lipschitz constant (overrides --loss)"),
    Opt("--c-a", "c_a", float, 1.0, "weight row norm cap"),
    Opt("--c-b", "c_b", float, 1.0, "bias magnitude cap"),
    Opt("--c-z", "c_z", float, 1.0, "feature norm cap"),
    Opt("--n", "n", int, None, "sample count"),
    Opt("--log-covering", "log_covering", float, None, "log expected covering number"),
    Opt("--varrho", "varrho", float, None,
        "offset parameter (default: 1 / (4 ell (c_A c_Z + c_B)))"),
    Opt("--mc", "mc", bool, False, "also run the Monte-Carlo estimator"),
    Opt("--mc-draws", "mc_draws", int, 256, "Monte-Carlo sign draws"),
    Opt("--inner-steps", "inner_steps", int, 200, "ascent steps per draw"),
    Opt("--mc-n", "mc_n", int, 50, "synthetic feature count for --mc"),
    Opt("--mc-p", "mc_p", int, 8, "synthetic feature dimension for --mc"),
    Opt("--seed", "seed", int, 0, "RNG seed for --mc"),
    Opt("--json", "json", bool, False, "emit the report as JSON"),
    Opt("--threads", "threads", int, None, "checked, then ignored"),
)


def _add_opts(sub: argparse.ArgumentParser, opts: tuple[Opt, ...]) -> None:
    sub.add_argument("--config", type=str, default=None,
                     help="flat key=value file supplying option defaults")
    for o in opts:
        if o.conv is bool:
            sub.add_argument(o.flag, dest=o.key, action="store_true", default=None,
                             help=o.help)
        else:
            kwargs = dict(dest=o.key, type=o.conv, default=None, help=o.help)
            if o.choices is not None:
                kwargs["choices"] = o.choices
            sub.add_argument(o.flag, **kwargs)


class _Parser(argparse.ArgumentParser):
    """argparse whose errors are one `usage error:` line, like every other error."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"usage error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ivtskit",
        description="Generate, ingest, image, classify, and bound "
                    "interval-valued time series.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (opts, _, summary) in COMMANDS.items():
        _add_opts(subs.add_parser(name, help=summary), opts)
    return parser


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _read_config(path: str, opts: tuple[Opt, ...]) -> dict:
    known = {o.key: o for o in opts}
    out: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read config file {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e.reason})") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        value = value.strip().strip('"')
        if key not in known:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        o = known[key]
        try:
            out[key] = _parse_bool(value) if o.conv is bool else o.conv(value)
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: bad value for {key}: {e}") from e
        if o.choices is not None and out[key] not in o.choices:
            raise UsageError(
                f"{path}:{lineno}: invalid choice for {key}: {value!r} "
                f"(choose from {', '.join(map(str, o.choices))})"
            )
    return out


def _effective_options(args: argparse.Namespace, opts: tuple[Opt, ...]) -> dict:
    conf = _read_config(args.config, opts) if args.config else {}
    eff = {}
    for o in opts:
        given = getattr(args, o.key)
        eff[o.key] = given if given is not None else conf.get(o.key, o.default)
    return eff


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _echo_config(outdir: Path, command: str, eff: dict) -> None:
    # unset options are omitted so the file reloads losslessly via --config
    lines = [f"# {command} run"]
    lines += [
        f"{k}={_fmt_value(v)}" for k, v in sorted(eff.items()) if v is not None
    ]
    (outdir / "run_config.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _check_threads(value) -> None:
    """Validate --threads when it is given; no command runs threads."""
    if value is not None and value < 1:
        raise NumericError(f"threads must be >= 1, got {value}")


def _require(eff: dict, *keys: str) -> None:
    missing = [k for k in keys if eff[k] is None]
    if missing:
        raise UsageError("missing required option(s): " + ", ".join(f"--{k.replace('_', '-')}" for k in missing))


def _check_seed(seed: int) -> int:
    if seed < 0:
        raise NumericError(f"seed must be >= 0, got {seed}")
    return int(seed)


def _trajectory_config(eff: dict) -> TrajectoryConfig:
    text = eff["epsilon"]
    try:
        eps = [float(p) for p in str(text).split(",")]
    except ValueError:
        raise NumericError(f"epsilon {text!r} is not a number or comma list") from None
    try:
        return TrajectoryConfig(m=eff["m"], kappa=eff["kappa"],
                                epsilon=eps[0] if len(eps) == 1 else tuple(eps))
    except ValueError as e:
        raise NumericError(str(e)) from e


def _load_dataset(path):
    try:
        return dgp_mod.load_dataset_csv(path)
    except (OSError, ValueError) as e:
        raise DataError(str(e)) from e


def _parse_kernel_opt(text: str):
    try:
        return parse_kernel(text)
    except ValueError as e:
        raise UsageError(str(e)) from e


# ---------------------------------------------------------------------------
# generate


def cmd_generate(eff: dict) -> None:
    if (eff["dgp"] is None) == (eff["scenario"] is None):
        raise UsageError("pass exactly one of --dgp or --scenario")
    _require(eff, "out")
    seed = _check_seed(eff["seed"])
    try:
        rhos = tuple(float(r) for r in str(eff["rhos"]).split(","))
    except ValueError:
        raise NumericError(f"bad --rhos list {eff['rhos']!r}") from None
    try:
        common = dict(per_class_n=eff["per_class"], T=eff["T"], seed=seed,
                      truncation_L=eff["truncation_L"], burn_in=eff["burn_in"])
        if eff["dgp"] is not None:
            ds = dgp_mod.build_univariate_dataset(eff["dgp"], rho_grid=rhos, **common)
        elif eff["scenario"] == "c1":
            ds = dgp_mod.build_multivariate_c1(rho_grid=rhos, **common)
        elif eff["scenario"] == "c2":
            ds = dgp_mod.build_multivariate_c2(rho_grid=rhos, **common)
        else:
            ds = dgp_mod.build_dgp_mix_dataset(rho=eff["rho"], **common)
    except ValueError as e:
        raise NumericError(str(e)) from e
    out = Path(eff["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    dgp_mod.save_dataset_csv(ds, out)
    print(f"wrote {out}: n={len(ds)} C={ds.n_classes} d={ds.dim()} T={ds.bounds.shape[2]}")


# ---------------------------------------------------------------------------
# ingest

def cmd_ingest(eff: dict) -> None:
    from . import ingest as ingest_mod  # only this command compiles and loads it

    _require(eff, "input", "out")
    window = eff["window"]
    stride = eff["stride"] if eff["stride"] is not None else window
    if window < 1 or stride < 1:
        raise NumericError("window and stride must be >= 1")

    try:
        series = ingest_mod.daily_intervals(eff["input"])
    except OSError as e:
        raise DataError(f"cannot read {eff['input']}: {e}") from e
    except ValueError as e:
        raise DataError(str(e)) from e

    label_map = {raw: i for i, raw in enumerate(sorted({s.label for s in series}), start=1)}
    grids, window_labels = [], []
    for s in series:
        if s.dropped:
            print(
                f"warning: series {s.name!r}: dropped {s.dropped} day(s) with missing dimensions",
                file=sys.stderr,
            )
        for start in range(0, s.daily.shape[1] - window + 1, stride):
            grids.append(s.daily[:, start : start + window])
            window_labels.append(label_map[s.label])
    dims_per_sid = {s.daily.shape[0] for s in series}
    if len(dims_per_sid) > 1:
        raise DataError(f"series disagree on dimension count: {sorted(dims_per_sid)}")
    if not grids:
        raise DataError("no complete windows; input too short for the window length")

    ds = dgp_mod.LabeledDataset.from_arrays(
        np.stack(grids), window_labels, len(label_map), multivariate=grids[0].shape[0] > 1
    )
    out = Path(eff["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    dgp_mod.save_dataset_csv(ds, out)
    mapping = ", ".join(f"{raw!r}->{i}" for raw, i in label_map.items())
    print(f"wrote {out}: n={len(ds)} C={ds.n_classes} d={ds.dim()} T={window} labels: {mapping}")


# ---------------------------------------------------------------------------
# image


def cmd_image(eff: dict) -> None:
    _require(eff, "data", "outdir", "kernel")
    kernel = _parse_kernel_opt(eff["kernel"])
    cfg = _trajectory_config(eff)
    _check_threads(eff["threads"])
    ds = _load_dataset(eff["data"])
    images = [img_mod.RecurrenceImage(px) for px in img_mod.image_grids(ds.bounds, cfg, kernel)]
    outdir = Path(eff["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    stem = eff["stem"] or Path(eff["data"]).stem
    formats = ("pgm", "csv") if eff["format"] == "both" else (eff["format"],)
    index_lines = ["file,item,label"]
    for i, (img, label) in enumerate(zip(images, ds.labels())):
        names = []
        for fmt in formats:
            name = f"{stem}_{i}.{fmt}"
            writer = img_mod.export_pgm if fmt == "pgm" else img_mod.export_csv
            writer(img, outdir / name)
            names.append(name)
        index_lines.append(f"{names[0]},{i},{label}")
    (outdir / "index.csv").write_text("\n".join(index_lines) + "\n", encoding="ascii")
    _echo_config(outdir, "image", eff)
    print(f"imaged {len(images)} items (N={images[0].n}) -> {outdir}")


# ---------------------------------------------------------------------------
# classify


class _FeatureRows:
    """The (n, p) feature matrix of n images given one at a time in item order.

    The images are kept in a uint8 block of one image size and at most
    classify.BLOCK_BYTES, which is featurized straight into its rows of the
    matrix when it is full, when the image size changes, and at the end.
    """

    def __init__(self, n: int, fc: clf_mod.FeatureConfig) -> None:
        self.n, self.fc = n, fc
        self.X = None
        self.block = None
        self.held = 0  # images in the block
        self.done = 0  # rows of X written
        self.lengths = None  # the first two feature lengths found to differ

    def add(self, pixels: np.ndarray) -> None:
        size = len(pixels)
        p = self.fc.length(size)  # a bad block grid is raised at its item
        if self.X is None:
            self.X = np.empty((self.n, p))
        if p != self.X.shape[1]:
            self.lengths = self.lengths or sorted({p, self.X.shape[1]})
        if self.lengths:
            return
        if self.block is None or self.block.shape[1] != size:
            self._flush()
            rows = max(1, clf_mod.BLOCK_BYTES // (size * size))
            self.block = np.empty((rows, size, size), dtype=np.uint8)
        elif self.held == len(self.block):
            self._flush()
        self.block[self.held] = pixels
        self.held += 1

    def _flush(self) -> None:
        if self.held:
            rows = self.X[self.done : self.done + self.held]
            clf_mod.featurize_stack(self.block[: self.held], self.fc, out=rows)
            self.done += self.held
            self.held = 0

    def matrix(self) -> np.ndarray:
        """The filled matrix; features of different lengths are a data error,
        reported only here so that errors in reading come first."""
        if self.lengths:
            raise DataError(
                f"items give features of different lengths {self.lengths}; "
                "--feature-mode flatten needs images of one size"
            )
        self._flush()
        return self.X


def _permute_rows(X: np.ndarray, src: np.ndarray) -> None:
    """Set X[j] = X[src[j]] for every row j at once, in place: each cycle of
    the permutation is followed with one row buffer."""
    src = src.tolist()
    buf = np.empty(X.shape[1])
    done = [False] * len(src)
    for j in range(len(src)):
        if done[j] or src[j] == j:
            continue
        buf[...] = X[j]
        k = j
        while src[k] != j:
            X[k] = X[src[k]]
            done[k] = True
            k = src[k]
        X[k] = buf
        done[k] = True


def _images_kernel(images_dir: Path) -> str:
    """The kernel the image command recorded in the directory's run_config.txt,
    or "" when the directory has none."""
    try:
        text = (images_dir / "run_config.txt").read_text(encoding="utf-8")
    except FileNotFoundError:
        return ""
    except UnicodeDecodeError as e:
        raise DataError(f"{images_dir / 'run_config.txt'}: not UTF-8 text ({e.reason})") from None
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep and key.strip() == "kernel":
            return value.strip()
    return ""


def _check_labels(labels: list[int], where, linear: bool) -> None:
    """The labels must be the class ids 1..C, each one used, and C >= 2 for a
    linear model; the library accepts other label sets."""
    present = set(labels)
    if min(present) < 1:
        raise DataError(f"{where}: label {min(present)} is not a class id (1, 2, ...)")
    for c in range(1, max(present)):
        if c not in present:
            raise DataError(f"{where}: no item has class id {c}; labels must be 1..{max(present)}")
    if linear and len(present) < 2:
        raise DataError(f"{where}: every item has label 1; the linear model needs two classes")


def _load_image_features(images_dir: Path, fc: clf_mod.FeatureConfig):
    index = images_dir / "index.csv"
    try:
        lines = index.read_text(encoding="ascii").splitlines()
    except (OSError, ValueError) as e:
        raise DataError(f"cannot read {index}: {e}") from e
    if not lines or lines[0] != "file,item,label":
        raise DataError(f"{index}: expected header file,item,label")
    rows, labels = _FeatureRows(len(lines) - 1, fc), []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise DataError(f"{index}:{lineno}: expected 3 fields")
        name, _, label = parts
        try:
            labels.append(int(label))
        except ValueError:
            raise DataError(f"{index}:{lineno}: bad label {label!r}") from None
        path = images_dir / name
        try:
            img = (
                img_mod.load_pgm(path)
                if path.suffix == ".pgm"
                else img_mod.load_csv_image(path)
            )
        except (OSError, ValueError) as e:
            raise DataError(f"{path}: {e}") from e
        rows.add(img.pixels)
    if not labels:
        raise DataError(f"{index}: no images listed")
    _check_labels(labels, index, linear=True)
    return rows.matrix(), np.array(labels)


def _data_features(ds, cfg: TrajectoryConfig, kernel, fc) -> np.ndarray:
    """The feature matrix of a dataset, each item imaged straight into it."""
    rows = _FeatureRows(len(ds), fc)
    grid_error = None
    for pixels in img_mod.image_grids(ds.bounds, cfg, kernel):
        try:
            if grid_error is None:
                rows.add(pixels)
        except BlockGridInvalid as e:
            grid_error = e  # raised once every item is imaged, as when imaging came first
    if grid_error is not None:
        raise grid_error
    return rows.matrix()


def cmd_classify(eff: dict) -> None:
    if (eff["data"] is None) == (eff["images"] is None):
        raise UsageError("pass exactly one of --data or --images")
    _require(eff, "outdir")
    knn = eff["mode"] == "knn"
    if knn and eff["data"] is None:
        raise UsageError("--mode knn needs --data (series-level distances)")
    seed = _check_seed(eff["seed"])
    if eff["runs"] < 1:
        raise NumericError("runs must be >= 1")
    if not 0.0 < eff["train_fraction"] < 1.0:
        raise NumericError("train-fraction must lie in (0, 1)")
    _check_threads(eff["threads"])
    kernel_text = str(eff["kernel"])
    kernel = _parse_kernel_opt(kernel_text)
    tag = eff["tag"] or Path(eff["data"] or eff["images"]).stem
    outdir = Path(eff["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)

    if not knn:
        try:
            fc = clf_mod.FeatureConfig(eff["feature_mode"], eff["blocks"], eff["cap"])
        except (ValueError, BlockGridInvalid) as e:
            raise NumericError(str(e)) from e
    if eff["images"] is not None:
        X, y = _load_image_features(Path(eff["images"]), fc)
        # the images were rendered by the image command, not with --kernel
        kernel_text = _images_kernel(Path(eff["images"]))
    else:
        ds = _load_dataset(eff["data"])
        _check_labels(ds.labels(), eff["data"], linear=not knn)
        y = ds.label_ids
        if knn:
            bounds = ds.bounds  # the k-NN scan reads the series
        else:
            X = _data_features(ds, _trajectory_config(eff), kernel, fc)
        del ds  # the run loop reads only X or bounds, and y

    report_rows = []
    order = np.arange(len(y))  # order[i] is the item in row i of X
    for r in range(eff["runs"]):
        run_seed = seed + r
        if eff["self_test"]:  # every item is trained on and scored
            train_idx = test_idx = slice(None)
        else:
            try:
                train_idx, test_idx = dgp_mod.split_indices(
                    y.tolist(), eff["train_fraction"], run_seed
                )
            except ValueError as e:
                raise DataError(str(e)) from e
        if knn:
            try:
                preds = clf_mod.knn_rows(bounds[train_idx], y[train_idx].tolist(),
                                         bounds[test_idx], eff["k"], kernel)
            except ValueError as e:
                raise NumericError(str(e)) from e
            truth, model_note = y[test_idx], ""
        else:
            if not eff["self_test"]:  # the training rows to the front of X, in split order
                want = np.array(train_idx + test_idx)
                _permute_rows(X, np.argsort(order)[want])
                order = want
                train_idx, test_idx = slice(len(train_idx)), slice(len(train_idx), None)
            try:
                model = clf_mod.train(X[train_idx], y[order[train_idx]], kind=eff["loss"],
                                      steps=eff["steps"], step_size=eff["step_size"],
                                      c_A=eff["c_a"], c_B=eff["c_b"])
            except ValueError as e:
                raise NumericError(str(e)) from e
            if not (model.weights.any() or model.biases.any()):
                print(f"warning: run {r}: no training step beat the zero model's risk, so the "
                      "model is all zeros and predicts class 1 for every item", file=sys.stderr)
            preds, truth = clf_mod.predict_rows(model, X[test_idx]), y[order[test_idx]]
            model_path = outdir / f"model_run{r}.txt"
            clf_mod.save_model(model, eff["loss"], model_path)
            model_note = f" -> {model_path}"
        acc = clf_mod.accuracy(preds, truth)
        report_rows.append((r, kernel_text, tag, run_seed, acc))
        print(f"run {r} (seed {run_seed}): {eff['mode']} accuracy {acc!r}{model_note}")

    report = outdir / "report.csv"
    with open(report, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["run", "kernel", "dgp", "seed", "accuracy"])
        writer.writerows((r, k, d, s, repr(a)) for r, k, d, s, a in report_rows)
    _echo_config(outdir, "classify", eff)
    print(f"wrote {report}")


# ---------------------------------------------------------------------------
# bound


def cmd_bound(eff: dict) -> None:
    _require(eff, "n", "log_covering")
    _check_threads(eff["threads"])
    try:
        ell = eff["ell"] if eff["ell"] is not None else theory_mod.lipschitz_constant(eff["loss"])
        varrho = (
            eff["varrho"]
            if eff["varrho"] is not None
            else theory_mod.optimal_varrho(ell, eff["c_a"], eff["c_b"], eff["c_z"])
        )
        single, pair = theory_mod.g_bounds(ell, eff["c_a"], eff["c_z"], eff["c_b"])
        inputs = theory_mod.RiskBoundInputs(
            ell=ell,
            c_A=eff["c_a"],
            c_B=eff["c_b"],
            c_Z=eff["c_z"],
            n=eff["n"],
            log_covering=eff["log_covering"],
            varrho=varrho,
        )
        offset = theory_mod.offset_rademacher_bound(inputs)
        excess = theory_mod.excess_risk_bound(
            ell, eff["c_a"], eff["c_b"], eff["c_z"], eff["n"], eff["log_covering"]
        )
    except ValueError as e:
        raise NumericError(str(e)) from e

    report = {
        "loss": eff["loss"],
        "ell": ell,
        "c_A": eff["c_a"],
        "c_B": eff["c_b"],
        "c_Z": eff["c_z"],
        "n": eff["n"],
        "log_covering": eff["log_covering"],
        "varrho": varrho,
        "g_bound_single": single,
        "g_bound_pair": pair,
        "offset_rademacher_bound": offset,
        "excess_risk_bound": excess,
    }
    if eff["mc"]:
        seed = _check_seed(eff["seed"])
        if eff["mc_n"] < 1 or eff["mc_p"] < 0:
            raise NumericError(
                f"--mc-n must be >= 1 and --mc-p >= 0, got {eff['mc_n']} and {eff['mc_p']}"
            )
        rng = np.random.default_rng([seed, 4242])
        try:
            X = rng.standard_normal((eff["mc_n"], eff["mc_p"]))
        except ValueError as e:  # a shape beyond numpy's index range
            raise NumericError(f"--mc-n and --mc-p: {e}") from e
        norms = np.linalg.norm(X, axis=1)
        over = norms > eff["c_z"]
        X[over] *= (eff["c_z"] / norms[over])[:, None]
        try:
            est = theory_mod.empirical_offset_rademacher(
                X,
                eff["c_a"],
                eff["c_b"],
                varrho,
                mc_draws=eff["mc_draws"],
                inner_steps=eff["inner_steps"],
                seed=seed,
            )
        except ValueError as e:
            raise NumericError(str(e)) from e
        report["mc_offset_rademacher"] = est.value
        report["mc_draws"] = est.mc_draws
        report["mc_inner_steps"] = est.inner_steps
    if eff["json"]:
        print(json.dumps(report, indent=2))
    else:
        for key, value in report.items():
            print(f"{key} = {_fmt_value(value)}")


COMMANDS = {
    "generate": (GENERATE_OPTS, cmd_generate, "write a simulated dataset CSV"),
    "ingest": (INGEST_OPTS, cmd_ingest, "aggregate raw readings into interval windows"),
    "image": (IMAGE_OPTS, cmd_image, "render recurrence images for a dataset"),
    "classify": (CLASSIFY_OPTS, cmd_classify, "split, train, and score a dataset"),
    "bound": (BOUND_OPTS, cmd_bound, "print risk-bound calculators"),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    opts, runner, _ = COMMANDS[args.command]
    try:
        eff = _effective_options(args, opts)
        runner(eff)
        return EXIT_OK
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericError, NegativeSquaredDistance, NonFinite) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as e:  # a size option asked for more memory than there is
        print(f"numeric error: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, IvtsError, OSError, csv.Error) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
