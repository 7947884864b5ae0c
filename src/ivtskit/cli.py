"""Command-line front end: generate | ingest | image | classify | bound.

Every run is fully determined by its effective option set, which is assembled
from built-in defaults, an optional flat key=value config file, and command
line flags (highest precedence), then echoed into the output directory of any
command that produces one.  Exit codes: 0 success, 2 usage error, 3 data
error, 4 numeric error.

At module level this file imports only the standard library, the errors and
the shared defaults: the parser, ``--help`` and usage errors never load
numpy, and each command imports the library modules it runs where it runs
them.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .defaults import DEFAULT_EPSILON, DEFAULT_PER_CLASS, DEFAULT_RHO_GRID, DEFAULT_T, LOSS_NAMES
from .errors import DataError, IvtsError, NegativeSquaredDistance, NonFinite

if TYPE_CHECKING:  # annotations only
    from .imaging import TrajectoryConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    """Bad flag combinations or missing required options."""


class Opt(NamedTuple):  # a dataclass would load dataclasses and inspect (~15 ms) at launch
    flag: str
    key: str
    conv: object  # a converter callable, or bool for store_true flags
    default: object
    help: str
    choices: tuple | None = None


_DEFAULT_EPSILON_STR = repr(DEFAULT_EPSILON)

GENERATE_OPTS = (
    Opt("--dgp", "dgp", int, None, "simulation process id (1, 2, or 3)", (1, 2, 3)),
    Opt("--scenario", "scenario", str, None,
        "dataset construction: c1 (3 classes x 5 dims), c2 (5 classes x 3 dims), "
        "mix (3 univariate classes, one per process, at a fixed --rho)",
        ("c1", "c2", "mix")),
    Opt("--per-class", "per_class", int, DEFAULT_PER_CLASS, "samples per class"),
    Opt("--T", "T", int, DEFAULT_T, "series length"),
    Opt("--rhos", "rhos", str, ",".join(repr(r) for r in DEFAULT_RHO_GRID),
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
    Opt("--loss", "loss", str, "hinge", "auxiliary loss", LOSS_NAMES),
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
    Opt("--loss", "loss", str, "hinge", "auxiliary loss fixing ell", LOSS_NAMES),
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


def _read_config(path: str | Path, opts: tuple[Opt, ...], fault: type) -> dict:
    """The options a key=value file sets; an unknown key or a value outside
    its choices raises `fault`: a usage error in a --config file, a data
    error in a file that a command wrote."""
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
            raise fault(f"{path}:{lineno}: unknown config key {key!r}")
        if "\0" in value:  # open() raises on one, and a --tag would write it into report.csv
            raise DataError(f"{path}:{lineno}: bad value for {key}: {value!r} holds a NUL byte")
        o = known[key]
        try:
            out[key] = _parse_bool(value) if o.conv is bool else o.conv(value)
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: bad value for {key}: {e}") from e
        if o.choices is not None and out[key] not in o.choices:
            raise fault(
                f"{path}:{lineno}: invalid choice for {key}: {value!r} "
                f"(choose from {', '.join(map(str, o.choices))})"
            )
    return out


def _effective_options(args: argparse.Namespace, opts: tuple[Opt, ...]) -> dict:
    conf = _read_config(args.config, opts, UsageError) if args.config else {}
    eff = {}
    for o in opts:
        given = getattr(args, o.key)
        eff[o.key] = given if given is not None else conf.get(o.key, o.default)
    return eff


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
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


def _check_text(eff: dict) -> dict:
    """`eff` with each value as run_config.txt echoes it, in UTF-8.  Argv bytes
    that the filesystem encoding cannot decode (any non-ASCII byte, under an
    ASCII one) arrive as lone surrogates, which UTF-8 cannot encode: such a
    value is its os.fsencode bytes read as UTF-8, and bytes that are not
    UTF-8 are a usage error.  So is a value that `_read_config` would not
    read back as written.  Files are opened by the values of `eff`."""
    text = dict(eff)
    for key, value in eff.items():
        if not isinstance(value, str):
            continue
        flag = f"--{key.replace('_', '-')}"
        if value.encode("utf-8", "replace").decode() != value:
            try:
                value = text[key] = os.fsencode(value).decode("utf-8")
            except UnicodeError:
                raise UsageError(f"{flag}: {value!r} is not UTF-8 text") from None
        # _read_config splits the file at line breaks, strips whitespace and
        # '"' from each value, and refuses a NUL byte
        if value.strip().strip('"') != value or len(value.splitlines()) > 1 or "\0" in value:
            raise UsageError(f"{flag}: {value!r} would not read back from run_config.txt "
                             "(a leading or trailing space or '\"', a line break, or a NUL byte)")
    return text


def _check_threads(value) -> None:
    """Validate --threads when it is given; no command runs threads."""
    if value is not None and value < 1:
        raise ValueError(f"threads must be >= 1, got {value}")


def _require(eff: dict, *keys: str) -> None:
    missing = [k for k in keys if eff[k] is None]
    if missing:
        raise UsageError("missing required option(s): " + ", ".join(f"--{k.replace('_', '-')}" for k in missing))


def _check_seed(seed: int) -> int:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return int(seed)


def _trajectory_config(eff: dict) -> TrajectoryConfig:
    from .imaging import TrajectoryConfig

    text = eff["epsilon"]
    try:
        eps = [float(p) for p in str(text).split(",")]
    except ValueError:
        raise ValueError(f"epsilon {text!r} is not a number or comma list") from None
    return TrajectoryConfig(m=eff["m"], kappa=eff["kappa"], epsilon=tuple(eps))


def _parse_kernel_opt(text: str):
    from .intervals import parse_kernel

    try:
        return parse_kernel(text)
    except ValueError as e:
        raise UsageError(str(e)) from e


# ---------------------------------------------------------------------------
# generate


def cmd_generate(eff: dict) -> None:
    from . import dgp as dgp_mod

    if (eff["dgp"] is None) == (eff["scenario"] is None):
        raise UsageError("pass exactly one of --dgp or --scenario")
    _require(eff, "out")
    seed = _check_seed(eff["seed"])
    try:
        rhos = tuple(float(r) for r in str(eff["rhos"]).split(","))
    except ValueError:
        raise ValueError(f"bad --rhos list {eff['rhos']!r}") from None
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
    out = Path(eff["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    dgp_mod.save_dataset_csv(ds, out)
    print(f"wrote {out}: n={len(ds)} C={ds.n_classes} d={ds.dim()} T={ds.bounds.shape[2]}")


# ---------------------------------------------------------------------------
# ingest

def cmd_ingest(eff: dict) -> None:
    import numpy as np

    from . import dgp as dgp_mod
    from .ingest import daily_intervals

    _require(eff, "input", "out")
    window = eff["window"]
    stride = eff["stride"] if eff["stride"] is not None else window
    if window < 1 or stride < 1:
        raise ValueError("window and stride must be >= 1")

    try:
        names, label_names, labels, dropped, dims, days, cells = daily_intervals(eff["input"])
    except OSError as e:
        raise DataError(f"cannot read {eff['input']}: {e}") from e

    for s in np.flatnonzero(dropped):
        print(f"warning: series {names[s]!r}: dropped {dropped[s]} day(s) with missing dimensions",
              file=sys.stderr)
    if dims.min() != dims.max():
        raise DataError(f"series disagree on dimension count: {sorted(set(dims.tolist()))}")
    top = int(days.max()) + 1  # a window or stride past every series acts as top
    step = min(stride, top)
    counts = np.maximum(days - min(window, top) + step, 0) // step  # windows per series
    if not counts.any():
        raise DataError("no complete windows; input too short for the window length")

    # class ids 1..C go to the labels that have a window, so none is skipped
    has = np.bincount(labels[counts > 0], minlength=len(label_names)) > 0
    ids = np.cumsum(has)
    label_map = {label_names[r]: int(ids[r]) for r in np.flatnonzero(has)}
    for r in np.flatnonzero(~has):
        print(f"warning: label {label_names[r]!r}: no series has {window} complete days, so it "
              "gets no class id", file=sys.stderr)
    # window j, the k-th of series s, starts k * stride days after s's first full day
    start = np.repeat(np.cumsum(days) - days - (np.cumsum(counts) - counts) * step, counts)
    start += step * np.arange(len(start))
    d = int(dims[0])  # one gather, straight into the (n, d, T, 2) layout
    bounds = cells.reshape(-1, d, 2)[(start[:, None] + np.arange(window))[:, None],
                                     np.arange(d)[:, None]]
    bounds.setflags(write=False)  # handed over, so the dataset keeps it without a copy
    ds = dgp_mod.LabeledDataset(bounds, np.repeat(ids[labels], counts))
    out = Path(eff["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    dgp_mod.save_dataset_csv(ds, out)
    mapping = ", ".join(f"{raw!r}->{i}" for raw, i in label_map.items())
    print(f"wrote {out}: n={len(ds)} C={len(label_map)} d={ds.dim()} T={window} labels: {mapping}")


# ---------------------------------------------------------------------------
# image


def cmd_image(eff: dict) -> None:
    from . import dgp as dgp_mod
    from . import imaging as img_mod

    _require(eff, "data", "outdir", "kernel")
    text = _check_text(eff)
    kernel = _parse_kernel_opt(eff["kernel"])
    cfg = _trajectory_config(eff)
    _check_threads(eff["threads"])
    ds = dgp_mod.load_dataset_csv(eff["data"])
    outdir = Path(eff["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    stem = eff["stem"] or Path(eff["data"]).stem
    shown = text["stem"] or Path(text["data"]).stem  # the stem as index.csv's text
    formats = ("pgm", "csv") if eff["format"] == "both" else (eff["format"],)
    index_rows = [("file", "item", "label")]
    # each image is written as it is made; a failed item leaves the earlier
    # images but no index.csv or run_config.txt
    images = img_mod.image_grids(ds.bounds, cfg, kernel)
    for i, (pixels, label) in enumerate(zip(images, ds.labels())):
        img = img_mod.RecurrenceImage(pixels)
        for fmt in formats:
            writer = img_mod.export_pgm if fmt == "pgm" else img_mod.export_csv
            writer(img, outdir / f"{stem}_{i}.{fmt}")
        index_rows.append((f"{shown}_{i}.{formats[0]}", i, label))
    with open(outdir / "index.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(index_rows)
    _echo_config(outdir, "image", text)
    print(f"imaged {len(index_rows) - 1} items (N={img.n}) -> {outdir}")


# ---------------------------------------------------------------------------
# classify


def _images_kernel(images_dir: Path) -> str:
    """The kernel the image command recorded in the directory's run_config.txt,
    read as --config reads a file but with every fault a data error, or ""
    when the directory has none."""
    path = images_dir / "run_config.txt"
    return _read_config(path, IMAGE_OPTS, DataError).get("kernel", "") if path.exists() else ""


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


def _index_images(images_dir: Path) -> tuple[list[Path], list[int]]:
    """The paths and labels of the images that the directory's index.csv
    lists, in index order; every line and the labels are checked before any
    image is opened."""
    index = images_dir / "index.csv"
    try:
        with open(index, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader]
    except (OSError, ValueError, csv.Error) as e:
        raise DataError(f"cannot read {index}: {e}") from e
    if not rows or rows[0][1] != ["file", "item", "label"]:
        raise DataError(f"{index}: expected header file,item,label")
    paths, labels = [], []
    for lineno, parts in rows[1:]:
        if len(parts) != 3:
            raise DataError(f"{index}:{lineno}: expected 3 fields")
        name, _, label = parts
        try:
            labels.append(int(label))
        except ValueError:
            raise DataError(f"{index}:{lineno}: bad label {label!r}") from None
        if "\0" in name:
            raise DataError(f"{index}:{lineno}: file name {name!r} holds a NUL byte")
        try:  # a name the filesystem encoding cannot hold is a UTF-8 file name's text
            os.fsencode(name)
        except UnicodeEncodeError:
            name = os.fsdecode(name.encode("utf-8"))
        paths.append(images_dir / name)
    if not labels:
        raise DataError(f"{index}: no images listed")
    _check_labels(labels, index, linear=True)
    return paths, labels


def _load_pixels(path: Path):
    """The pixels of a PGM image file, or of a CSV one by any other suffix."""
    from . import imaging as img_mod

    img = img_mod.load_pgm(path) if path.suffix == ".pgm" else img_mod.load_csv_image(path)
    return img.pixels


def cmd_classify(eff: dict) -> None:
    import numpy as np

    from . import classify as clf_mod
    from .split import split_indices

    if (eff["data"] is None) == (eff["images"] is None):
        raise UsageError("pass exactly one of --data or --images")
    _require(eff, "outdir")
    text = _check_text(eff)
    if (Path(eff["outdir"]) / "index.csv").exists():  # an image directory: keep its run_config.txt
        raise UsageError(f"--outdir: {text['outdir']!r} holds an image directory's index.csv")
    knn = eff["mode"] == "knn"
    if knn and eff["data"] is None:
        raise UsageError("--mode knn needs --data (series-level distances)")
    seed = _check_seed(eff["seed"])
    if eff["runs"] < 1:
        raise ValueError("runs must be >= 1")
    if not 0.0 < eff["train_fraction"] < 1.0:
        raise ValueError("train-fraction must lie in (0, 1)")
    _check_threads(eff["threads"])
    kernel_text = str(eff["kernel"])
    kernel = _parse_kernel_opt(kernel_text)
    tag = text["tag"] or Path(text["data"] or text["images"]).stem

    if not knn:
        fc = clf_mod.FeatureConfig(eff["feature_mode"], eff["blocks"], eff["cap"])
    if eff["images"] is not None:
        paths, labels = _index_images(Path(eff["images"]))
        # the images were rendered by the image command, not with --kernel
        kernel_text = _images_kernel(Path(eff["images"]))
        features = clf_mod.feature_matrix(map(_load_pixels, paths), len(paths), fc)
        y = np.array(labels)
    else:
        from . import dgp as dgp_mod

        ds = dgp_mod.load_dataset_csv(eff["data"])
        _check_labels(ds.labels(), eff["data"], linear=not knn)
        y = ds.label_ids
        if knn:
            bounds = ds.bounds  # the k-NN scan reads the series
        else:
            from . import imaging as img_mod

            images = img_mod.image_grids(ds.bounds, _trajectory_config(eff), kernel)
            features = clf_mod.feature_matrix(images, len(ds), fc)
        del ds  # the run loop reads only the features or bounds, and y

    outdir = Path(eff["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    report_rows = []
    for r in range(eff["runs"]):
        run_seed = seed + r
        if eff["self_test"]:  # every item is trained on and scored
            train_idx = test_idx = slice(None)
        else:
            train_idx, test_idx = split_indices(y.tolist(), eff["train_fraction"], run_seed)
        truth = y[test_idx]
        if knn:
            preds = clf_mod.knn_rows(bounds[train_idx], y[train_idx].tolist(),
                                     bounds[test_idx], eff["k"], kernel)
            model_note = ""
        else:
            model = clf_mod.train(features.subset(train_idx), y[train_idx], kind=eff["loss"],
                                  steps=eff["steps"], step_size=eff["step_size"],
                                  c_A=eff["c_a"], c_B=eff["c_b"])
            if not (model.weights.any() or model.biases.any()):
                print(f"warning: run {r}: no training step beat the zero model's risk, so the "
                      "model is all zeros and predicts class 1 for every item", file=sys.stderr)
            preds = clf_mod.predict_rows(model, features.subset(test_idx))
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
    _echo_config(outdir, "classify", text)
    print(f"wrote {report}")


# ---------------------------------------------------------------------------
# bound


def cmd_bound(eff: dict) -> None:
    import numpy as np

    from . import theory as theory_mod

    _require(eff, "n", "log_covering")
    _check_threads(eff["threads"])
    ell = eff["ell"] if eff["ell"] is not None else theory_mod.lipschitz_constant(eff["loss"])
    ell_caps = ell, eff["c_a"], eff["c_b"], eff["c_z"]
    sample = eff["n"], eff["log_covering"]
    single, pair = theory_mod.g_bounds(*ell_caps)
    varrho = eff["varrho"]
    if varrho is None:
        varrho = theory_mod.optimal_varrho(*ell_caps)
    offset = theory_mod.offset_rademacher_bound(*ell_caps, *sample, varrho)
    excess = theory_mod.excess_risk_bound(*ell_caps, *sample)

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
            raise ValueError(
                f"--mc-n must be >= 1 and --mc-p >= 0, got {eff['mc_n']} and {eff['mc_p']}"
            )
        rng = np.random.default_rng([seed, 4242])
        try:
            X = rng.standard_normal((eff["mc_n"], eff["mc_p"]))
        except ValueError as e:  # a shape beyond numpy's index range
            raise ValueError(f"--mc-n and --mc-p: {e}") from e
        norms = np.linalg.norm(X, axis=1)
        over = norms > eff["c_z"]
        X[over] *= (eff["c_z"] / norms[over])[:, None]
        est = theory_mod.empirical_offset_rademacher(
            X,
            eff["c_a"],
            eff["c_b"],
            varrho,
            mc_draws=eff["mc_draws"],
            inner_steps=eff["inner_steps"],
            seed=seed,
        )
        report["mc_offset_rademacher"] = est.value
        report["mc_draws"] = est.mc_draws
        report["mc_inner_steps"] = est.inner_steps
    if eff["json"]:
        import json

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
    # A launched program runs numpy's BLAS on one thread, set before numpy loads:
    # OpenBLAS splits reductions of over ~1e4 terms across threads, which changes
    # their last bits.  An in-process caller passes argv and keeps its environment.
    if argv is None:
        os.environ.update(dict.fromkeys(
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    parser = build_parser()
    args = parser.parse_args(argv)
    opts, runner, _ = COMMANDS[args.command]
    # A failed value check is a numeric error unless the code that reads input
    # data raises it as a DataError, so any other ValueError that reaches here exits 4.
    try:
        eff = _effective_options(args, opts)
        runner(eff)
        return EXIT_OK
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as e:  # a ValueError too, so it is caught first
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, NegativeSquaredDistance, NonFinite) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as e:  # a size option asked for more memory than there is
        print(f"numeric error: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_NUMERIC
    except (IvtsError, OSError, csv.Error) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
