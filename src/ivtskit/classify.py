"""Image featurization, a norm-capped linear max-loss classifier, and a
nearest-neighbor baseline on series distances.

The classifier scores class Y of a feature vector z as ``A_Y^T z + B_Y`` and
predicts the argmax.  Training minimizes the empirical max loss

    L(score[y] - max_{y' != y} score[y'])

by projected full-batch subgradient descent: after every step each weight row
is projected onto the ball of radius ``c_A`` and each bias is clipped to
``[-c_B, c_B]``, so the returned model always satisfies the norm caps.  The
auxiliary loss L is the hinge, squared hinge, or exponential function.

The weights stay in the row space of the n training features, so when there
are more features than rows (p > n, as with ``flatten`` features) and the
n-by-n Gram matrix is finite, training runs on that matrix (its dual form)
and reads the features only to build it and to return the weights.  The
model then equals the primal loop's within 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    BlockGridInvalid,
    DimMismatch,
    DimensionMismatch,
    EmptyInput,
    LengthMismatch,
)
from .dgp import LabeledDataset
from .imaging import RecurrenceImage
from .intervals import Kernel2x2, MvIntervalSeries, as_grid, pointwise_dk_squared

# Bytes in one block of temporaries (2 MiB), read at call time by the k-NN
# scan, the draws of theory.empirical_offset_rademacher and the classify
# command's image blocks; a block holds at least one item.
BLOCK_BYTES = 1 << 21


class Loss(NamedTuple):
    """An auxiliary loss, elementwise on margins: its value, a subgradient
    (0 at the hinge kink) and the Lipschitz constant ell of the bounds (the
    exponential's holds on nonnegative margins)."""

    value: Callable[[np.ndarray], np.ndarray]
    subgradient: Callable[[np.ndarray], np.ndarray]
    lipschitz: float


LOSSES = {
    "hinge": Loss(lambda a: np.maximum(0.0, 1.0 - a), lambda a: np.where(a < 1.0, -1.0, 0.0), 1.0),
    "squared_hinge": Loss(lambda a: np.maximum(0.0, 1.0 - a) ** 2,
                          lambda a: -2.0 * np.maximum(0.0, 1.0 - a), 2.0),
    "exponential": Loss(lambda a: np.exp(-a), lambda a: -np.exp(-a), 1.0),
}


def loss_entry(kind: str) -> Loss:
    """The LOSSES entry of `kind`; an unknown kind is a ValueError."""
    try:
        return LOSSES[kind]
    except KeyError:
        raise ValueError(
            f"unknown auxiliary loss {kind!r}; expected one of {tuple(LOSSES)}"
        ) from None


@dataclass(frozen=True)
class FeatureConfig:
    """How a recurrence image becomes a feature vector.

    ``flatten`` uses all N^2 pixels; ``block_mean`` averages the pixels of a
    q-by-q grid of near-equal cells.  The vector is then scaled down when its
    norm exceeds ``normalize_cap``, so features always satisfy the cap.
    """

    mode: str = "flatten"
    q: int = 1
    normalize_cap: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in ("flatten", "block_mean"):
            raise ValueError(f"mode must be 'flatten' or 'block_mean', got {self.mode!r}")
        if self.q < 1:
            raise BlockGridInvalid(f"block grid size must be >= 1, got {self.q}")
        if not self.normalize_cap > 0.0:
            raise ValueError(f"normalize_cap must be positive, got {self.normalize_cap}")

    def length(self, n: int) -> int:
        """Length of the feature vector of an N-by-N image: N^2 or q^2."""
        if self.mode == "flatten":
            return n * n
        if self.q > n:
            raise BlockGridInvalid(f"block grid {self.q} exceeds image size {n}")
        return self.q * self.q


def featurize_stack(stack, cfg: FeatureConfig, out: np.ndarray | None = None) -> np.ndarray:
    """The feature vectors of a (b, N, N) stack of images as the rows of a
    (b, p) float64 matrix, written into `out` when it is given.

    Row i equals ``featurize`` of image i: block sums are exact integers, and
    each row's norm is the same dot product that ``np.linalg.norm`` takes of
    one vector (``norm(axis=1)`` sums in another order).
    """
    stack = np.asarray(stack)
    b, n = stack.shape[:2]
    p = cfg.length(n)
    if out is None:
        out = np.empty((b, p))
    if cfg.mode == "flatten":
        out[...] = stack.reshape(b, p)
    else:
        # Cell (r, c) of the q-by-q grid of near-equal cells; its pixel sum is
        # an exact integer, so dividing it by the cell size equals .mean().
        # The rows of each cell are summed by np.add.reduce, which casts the
        # uint8 pixels to float64 in small buffers; a reduceat over the stack
        # would first cast all of it (8 bytes a pixel).
        cells = np.array_split(np.arange(n), cfg.q)
        sizes = np.array([len(cell) for cell in cells])
        row_sums = np.empty((b, cfg.q, n))
        for k, cell in enumerate(cells):
            np.add.reduce(stack[:, cell[0] : cell[-1] + 1], axis=1, dtype=np.float64,
                          out=row_sums[:, k])
        sums = np.add.reduceat(row_sums, [cell[0] for cell in cells], axis=2)
        out[...] = (sums / np.outer(sizes, sizes)).reshape(b, p)
    for z in out:
        norm = float(np.linalg.norm(z))
        if norm > cfg.normalize_cap:
            z *= cfg.normalize_cap / norm
    return out


def featurize(img: RecurrenceImage, cfg: FeatureConfig) -> np.ndarray:
    """Turn an image into a norm-capped feature vector of dim N^2 or q^2."""
    return featurize_stack(img.pixels[None], cfg)[0]


@dataclass(frozen=True)
class LinearClassifier:
    """Per-class weight rows and biases under norm caps c_A and c_B."""

    weights: np.ndarray  # (C, p); row y-1 scores class y
    biases: np.ndarray  # (C,)
    c_A: float = 1.0
    c_B: float = 1.0

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=np.float64)
        b = np.array(self.biases, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise ValueError("weights must be (C, p) and biases (C,)")
        if w.shape[0] < 1:
            raise ValueError("a classifier needs at least one class")
        if not (self.c_A > 0.0 and self.c_B > 0.0):
            raise ValueError("norm caps c_A and c_B must be positive")
        for name, values in (("weights", w), ("biases", b)):
            bad = values[~np.isfinite(values)]
            if bad.size:
                raise ValueError(f"{name} must be finite, got {bad[0]}")
        tol = 1e-9
        row_norms = np.linalg.norm(w, axis=1)
        if not row_norms.max() <= self.c_A + tol:
            raise ValueError(
                f"weight row norm {row_norms.max()} exceeds cap c_A={self.c_A}"
            )
        if not np.abs(b).max() <= self.c_B + tol:
            raise ValueError(f"bias magnitude {np.abs(b).max()} exceeds cap c_B={self.c_B}")
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)

    @classmethod
    def zeros(cls, n_classes: int, dim: int, c_A: float = 1.0, c_B: float = 1.0):
        return cls(np.zeros((n_classes, dim)), np.zeros(n_classes), c_A, c_B)

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


def score(clf: LinearClassifier, z) -> np.ndarray:
    """Length-C score vector A_Y^T z + B_Y."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (clf.dim,):
        raise DimMismatch(f"feature has shape {z.shape}, classifier expects ({clf.dim},)")
    return clf.weights @ z + clf.biases


def predict(clf: LinearClassifier, z) -> int:
    """Highest-scoring class; ties break to the lowest class index."""
    return int(np.argmax(score(clf, z))) + 1


def _rows(clf: LinearClassifier, features: np.ndarray) -> np.ndarray:
    if features.ndim != 2 or features.shape[1] != clf.dim:
        raise DimMismatch(
            f"features have shape {features.shape}, classifier expects (*, {clf.dim})"
        )
    return features


def predict_rows(clf: LinearClassifier, features: np.ndarray) -> np.ndarray:
    """:func:`predict` of every row of an (m, p) matrix, with the same scores:
    one stacked matrix-vector product runs the kernel of ``W @ z`` per row."""
    scores = np.matmul(clf.weights[None], _rows(clf, features)[..., None])[..., 0] + clf.biases
    return scores.argmax(axis=1) + 1


def _margins(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # margin_i = score[y_i] - max_{y' != y_i} score[y']; also return the
    # achieving other class (lowest index on ties).
    idx = np.arange(scores.shape[0])
    true = scores[idx, labels - 1]
    masked = scores.copy()
    masked[idx, labels - 1] = -np.inf
    best_other = masked.argmax(axis=1)
    return true - masked[idx, best_other], best_other


def empirical_phi_risk(clf: LinearClassifier, features, labels, kind: str) -> float:
    """Mean max loss over a labeled feature set."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.shape[0] == 0:
        raise EmptyInput("empirical risk of an empty set is undefined")
    if clf.n_classes < 2:
        raise ValueError("the max loss needs at least two classes")
    margins, _ = _margins(_rows(clf, X) @ clf.weights.T + clf.biases, y)
    return float(loss_entry(kind).value(margins).mean())


def train(
    features,
    labels,
    kind: str = "hinge",
    steps: int = 500,
    step_size: float = 0.5,
    c_A: float = 1.0,
    c_B: float = 1.0,
) -> LinearClassifier:
    """Projected full-batch subgradient descent on the empirical max-loss risk.

    Starts from the zero classifier, uses the step schedule
    ``step_size / sqrt(t)``, and returns the iterate with the lowest recorded
    empirical risk (so the step-0 zero model is returned when nothing
    improves on it).  The optimizer is deterministic.

    With more features than rows (p > n) and a finite Gram matrix X X^T,
    the same loop runs on the (C, n) coefficients of the weights in the rows
    of X, at O(n^2 C) a step in place of O(n p C).  Its weights and biases
    match the primal loop's within 1e-12, with the same predictions and a
    risk within 1e-12 (tests/test_oracles.py asserts this).  For p <= n, or
    a Gram matrix that overflows, the primal loop runs.  A step size that is
    not finite and positive, a cap that is not finite, and an iterate whose
    risk is not finite are ValueErrors.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("features must be (n, p) with one label per row")
    n, p = X.shape
    if n < 1:
        raise EmptyInput("cannot train on an empty feature set")
    n_classes = int(y.max())
    if n_classes < 2:
        raise ValueError("training needs at least two classes")
    if y.min() < 1:
        raise ValueError("labels must be 1-based class ids")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not (math.isfinite(step_size) and step_size > 0.0):
        raise ValueError(f"step size must be finite and positive, got {step_size}")
    if not (c_A > 0.0 and c_B > 0.0):
        raise ValueError("norm caps c_A and c_B must be positive")
    if not (math.isfinite(c_A) and math.isfinite(c_B)):
        raise ValueError(f"norm caps c_A and c_B must be finite, got {c_A} and {c_B}")

    aux = loss_entry(kind)
    # Every step adds coeff.T @ X to the weights and the cap only rescales
    # them, so w = A X: for p > n the loop runs on the (C, n) coefficients A
    # and the Gram matrix G = X X^T.  G is built in row blocks, which peaks
    # lower than one X @ X.T; an overflowing G keeps the primal form.
    dual = False
    if p > n:
        G = np.empty((n, n))
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(0, n, 8):
                np.matmul(X[i : i + 8], X.T, out=G[i : i + 8])
        dual = bool(np.isfinite(G).all())
    K = G if dual else X
    w = np.zeros((n_classes, n if dual else p))
    b = np.zeros(n_classes)
    # The margins that give an iterate's risk also give the next step's
    # subgradient, so each step computes the scores once.
    margins, best_other = _margins(K @ w.T + b, y)
    best_risk = float(aux.value(margins).mean())
    best_w = w.copy()
    best_b = b.copy()
    rows = np.arange(n)
    # An overflowing step is reported by the risk check below, not by numpy.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, steps + 1):
            g = aux.subgradient(margins)
            coeff = np.zeros((n, n_classes))
            coeff[rows, y - 1] = g
            coeff[rows, best_other] -= g
            w -= (step_size / math.sqrt(t)) * (coeff.T if dual else coeff.T @ X) / n
            b -= (step_size / math.sqrt(t)) * coeff.sum(axis=0) / n
            if dual:
                norms = np.sqrt(np.maximum(((w @ G) * w).sum(axis=1), 0.0))
            else:
                norms = np.linalg.norm(w, axis=1)
            over = norms > c_A
            if over.any():
                w[over] *= (c_A / norms[over])[:, None]
            np.clip(b, -c_B, c_B, out=b)
            margins, best_other = _margins(K @ w.T + b, y)
            r = float(aux.value(margins).mean())
            if not math.isfinite(r):
                raise ValueError(
                    f"training risk is {r} at step {t}; a smaller step size or smaller "
                    "caps keep it finite"
                )
            if r < best_risk:
                best_risk = r
                best_w = w.copy()
                best_b = b.copy()
    return LinearClassifier(best_w @ X if dual else best_w, best_b, c_A, c_B)


def _query_grid(query, X: np.ndarray, multivariate: bool) -> np.ndarray:
    # Shapes are checked here: the scan would broadcast T = 1 against any T.
    if isinstance(query, MvIntervalSeries) != multivariate:
        raise DimensionMismatch("cannot mix univariate and multivariate series")
    grid = as_grid(query)
    if grid.shape[0] != X.shape[1]:
        raise DimensionMismatch(f"series dimensions differ: {grid.shape[0]} vs {X.shape[1]}")
    if grid.shape[1] != X.shape[2]:
        raise LengthMismatch(f"series lengths differ: {grid.shape[1]} vs {X.shape[2]}")
    return grid


def _scan(Q: np.ndarray, X: np.ndarray, kernel: Kernel2x2) -> np.ndarray:
    """(m, n) summed squared distances from (m, d, T, 2) queries to (n, d, T, 2)
    items: each dimension summed over T as series_dk_squared does, then the
    dimensions added in index order starting from the first.  An overflow
    gives inf or NaN, no warning; the stable sort puts either last."""
    with np.errstate(over="ignore", invalid="ignore"):
        per_dim = pointwise_dk_squared(Q[:, None], X[None], kernel).sum(axis=-1)
        dists = per_dim[..., 0]
        for j in range(1, per_dim.shape[-1]):
            dists = dists + per_dim[..., j]
    return dists


def _vote(dists: np.ndarray, labels: list[int], k: int) -> int:
    order = np.argsort(dists, kind="stable")[:k]
    votes: dict[int, int] = {}
    totals: dict[int, float] = {}
    for idx in order:
        label = labels[idx]
        votes[label] = votes.get(label, 0) + 1
        totals[label] = totals.get(label, 0.0) + float(dists[idx])
    top = max(votes.values())
    tied = [label for label, v in votes.items() if v == top]
    return min(tied, key=lambda label: (totals[label], label))


def knn_rows(X: np.ndarray, labels: list[int], Q, k: int, kernel: Kernel2x2) -> list[int]:
    """:func:`knn_classify` of each (d, T, 2) query in `Q` (an array or a
    list) among the (n, d, T, 2) items `X` with class ids `labels`.

    The queries are scanned in blocks whose temporaries hold at most
    ``BLOCK_BYTES`` of float64 (or one query against one item, if that is
    larger).
    """
    n = len(X)
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    per_item = X.shape[1] * X.shape[2]
    rows = max(1, BLOCK_BYTES // 8 // per_item)
    width = max(1, BLOCK_BYTES // 8 // (per_item * min(rows, n)))
    preds: list[int] = []
    for start in range(0, len(Q), width):
        block = np.asarray(Q[start : start + width])
        dists = np.concatenate(
            [_scan(block, X[i : i + rows], kernel) for i in range(0, n, rows)], axis=1
        )
        preds.extend(_vote(row, labels, k) for row in dists)
    return preds


def knn_predict(train: LabeledDataset, queries, k: int, kernel: Kernel2x2) -> list[int]:
    """:func:`knn_classify` for each query series, in query order."""
    X = train.bounds
    grids = [_query_grid(q, X, train.multivariate) for q in queries]
    return knn_rows(X, train.labels(), grids, k, kernel)


def knn_classify(
    train: LabeledDataset, query, k: int, kernel: Kernel2x2
) -> int:
    """Majority vote among the k nearest training items under the summed
    squared series distance (per-dimension sums for multivariate data).

    Vote ties break to the class with the smallest total distance among its
    voting neighbors, then to the lowest class id.
    """
    return knn_predict(train, [query], k, kernel)[0]


def accuracy(predictions, labels) -> float:
    """Fraction of matching entries."""
    predictions = list(predictions)
    labels = list(labels)
    if len(predictions) != len(labels):
        raise LengthMismatch(
            f"{len(predictions)} predictions vs {len(labels)} labels"
        )
    if not predictions:
        raise EmptyInput("accuracy of an empty prediction set is undefined")
    hits = sum(1 for p, t in zip(predictions, labels) if p == t)
    return hits / len(predictions)


# save_model formats a weight row in chunks of _ROW_CHUNK values, one `%` call
# each, so the text it holds at once is bounded however long the row is;
# _ROW_FORMAT[: 3 * k - 1] is the format of k space-separated values.
_ROW_CHUNK = 4096
_ROW_FORMAT = " ".join(["%r"] * _ROW_CHUNK)


def save_model(clf: LinearClassifier, kind: str, path) -> None:
    """Plain-text model file: `C p c_A c_B kind` header, then one row per class."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{clf.n_classes} {clf.dim} {clf.c_A!r} {clf.c_B!r} {kind}\n")
        for row, bias in zip(clf.weights, clf.biases):
            for start in range(0, clf.dim, _ROW_CHUNK):
                chunk = tuple(row[start : start + _ROW_CHUNK].tolist())
                fh.write((" " if start else "") + _ROW_FORMAT[: 3 * len(chunk) - 1] % chunk)
            fh.write(f" {float(bias)!r}\n")


def load_model(path) -> tuple[LinearClassifier, str]:
    """Read a model written by :func:`save_model`; returns (classifier, kind)."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty model file")
    head = lines[0].split()
    if len(head) != 5:
        raise ValueError(f"{path}: malformed model header {lines[0]!r}")
    n_classes, p = int(head[0]), int(head[1])
    c_A, c_B, kind = float(head[2]), float(head[3]), head[4]
    if len(lines) < 1 + n_classes:
        raise ValueError(f"{path}: expected {n_classes} weight rows")
    weights = np.empty((n_classes, p))
    biases = np.empty(n_classes)
    for i, line in enumerate(lines[1 : 1 + n_classes]):
        values = [float(v) for v in line.split()]
        if len(values) != p + 1:
            raise ValueError(f"{path}: row {i} has {len(values)} values, expected {p + 1}")
        weights[i] = values[:p]
        biases[i] = values[p]
    return LinearClassifier(weights, biases, c_A, c_B), kind
