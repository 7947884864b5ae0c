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
model then equals the primal loop's within 1e-12.  ``flatten`` rows are
trained from their packed bits: the Gram is built from exact pixel counts
and the weights from column chunks of the bits, so no float64 training row
is ever built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .defaults import LOSS_NAMES
from .errors import BlockGridInvalid, DimensionMismatch, EmptyInput, LengthMismatch
from .intervals import Kernel2x2, _read_only, as_grid, grid_dk_squared

if TYPE_CHECKING:  # annotations only: theory -> classify loads neither module
    from .dgp import LabeledDataset
    from .imaging import RecurrenceImage

# Bytes in one block of temporaries (2 MiB), read at call time by the k-NN
# scan, the draws of theory.empirical_offset_rademacher and the blocks of
# test rows that `classify` scores; a block holds at least one item.
BLOCK_BYTES = 1 << 21

# Columns of packed bits that FeatureRows unpacks at once for the dual form,
# a multiple of 8 so that a chunk is whole bytes.  On 2000 random rows of
# 22,500 pixels (1.3% set), one BLAS thread on 2 vCPUs, the bit Gram took
# 1.65 s in chunks of 256 columns, 1.15 s in 1024 and 0.98 s in 4096, whose
# chunk holds 4 times the memory (X @ X.T: 1.52 s).
_BIT_CHUNK = 1024


class Loss(NamedTuple):
    """An auxiliary loss, elementwise on margins: its value, a subgradient
    (0 at the hinge kink) and the Lipschitz constant ell of the bounds (the
    exponential's holds on nonnegative margins)."""

    value: Callable[[np.ndarray], np.ndarray]
    subgradient: Callable[[np.ndarray], np.ndarray]
    lipschitz: float


LOSSES = dict(zip(LOSS_NAMES, (
    Loss(lambda a: np.maximum(0.0, 1.0 - a), lambda a: np.where(a < 1.0, -1.0, 0.0), 1.0),
    Loss(lambda a: np.maximum(0.0, 1.0 - a) ** 2, lambda a: -2.0 * np.maximum(0.0, 1.0 - a), 2.0),
    Loss(lambda a: np.exp(-a), lambda a: -np.exp(-a), 1.0),
), strict=True))  # hinge, squared_hinge, exponential


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
            raise ValueError(f"block grid size must be >= 1, got {self.q}")
        if not 0.0 < self.normalize_cap < math.inf:
            raise ValueError(f"normalize_cap must be finite and positive, got {self.normalize_cap}")

    def length(self, n: int) -> int:
        """Length of the feature vector of an N-by-N image: N^2 or q^2."""
        if self.mode == "flatten":
            return n * n
        if self.q > n:
            raise BlockGridInvalid(f"block grid {self.q} exceeds image size {n}")
        return self.q * self.q


@functools.lru_cache(maxsize=8)
def _cells(n: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The q-by-n 0/1 matrix S whose row k marks the pixels of cell k of the
    q near-equal cells of ``np.array_split``, and the q-by-q cell areas; both
    read-only, as every caller shares them."""
    sizes = [len(cell) for cell in np.array_split(np.arange(n), q)]
    S, areas = np.repeat(np.eye(q), sizes, axis=1), np.outer(sizes, sizes)
    for a in (S, areas):
        a.setflags(write=False)
    return S, areas


def _featurize_row(pixels: np.ndarray, cfg: FeatureConfig) -> tuple[np.ndarray, float]:
    # The row before the norm cap, and its cap factor.  Under flatten the row is
    # the packed bits of the pixels, and its norm is the square root of the
    # count of set pixels: exactly the float64 row's dot product with itself.
    # Under block_mean the cell sums are S @ pixels @ S.T on one float64 copy of
    # the image: exact integers (at most N^2), so every summation order and BLAS
    # thread count gives the same means.  The norm is np.linalg.norm's dot product.
    if cfg.mode == "flatten":
        bits = pixels.reshape(-1).astype(bool, copy=False)
        row, norm = np.packbits(bits), math.sqrt(np.count_nonzero(bits))
    else:
        S, areas = _cells(len(pixels), cfg.q)
        row = (S @ pixels.astype(np.float64) @ S.T / areas).reshape(-1)
        norm = math.sqrt(row.dot(row))
    return row, (cfg.normalize_cap / norm if norm > cfg.normalize_cap else 1.0)


@dataclass(frozen=True)
class FeatureRows:
    """The feature rows of n images, kept compact until a run needs them.

    ``rows`` holds each row before the norm cap: under ``flatten`` the
    image's pixels as packed bits (``np.packbits``, ceil(p / 8) bytes a row),
    under ``block_mean`` its float64 cell means.  ``factors`` holds each
    row's cap factor: cap / norm when the norm exceeds the cap, else 1.0.
    """

    rows: np.ndarray  # (n, ceil(p / 8)) uint8 or (n, p) float64
    factors: np.ndarray  # (n,) float64
    p: int

    def take(self, idx) -> np.ndarray:
        """The (m, p) float64 feature rows `idx` (a list of row indices or a
        slice), in that order.  Each entry is the product of its pixel or
        cell mean and its row's factor, the same bits as scaling the row in
        place, and x * 1.0 = x for a row within the cap."""
        factors = self.factors[idx, None]
        if self.rows.dtype != np.uint8:
            return self.rows[idx] * factors
        X = np.empty((len(factors), self.p))
        for x, i in zip(X, np.arange(len(self.rows))[idx]):
            x[:] = np.unpackbits(self.rows[i], count=self.p)
        X *= factors
        return X

    def subset(self, idx) -> FeatureRows:
        """The FeatureRows of rows `idx` (a list of row indices or a slice),
        in that order; a slice shares this one's arrays."""
        return FeatureRows(self.rows[idx], self.factors[idx], self.p)

    def _chunks(self, dtype):
        # (first column, (n, width) unpacked bits as dtype) per column chunk
        for start in range(0, self.p, _BIT_CHUNK):
            bits = np.unpackbits(self.rows[:, start // 8 : (start + _BIT_CHUNK) // 8], axis=1,
                                 count=min(_BIT_CHUNK, self.p - start))
            yield start, bits.astype(dtype)

    def gram(self) -> np.ndarray:
        """``take(slice(None)) @ take(slice(None)).T`` of packed-bit rows,
        as ``counts * outer(c, c)``: c the cap factors and counts[i, j] the
        pixels set in both image i and image j.  A count is at most p, and
        below 2**24 float32 sums of 0/1 products are exact in any order, so
        the counts are the same at any BLAS path or thread count.  Beside the
        n x n float32 counts it holds one chunk's n x 1024 float32 bits (8 MB
        at n = 2000) and their n x n product, then the result."""
        n = len(self.factors)
        counts = np.zeros((n, n), np.float32 if self.p < 1 << 24 else np.float64)
        for _, B in self._chunks(counts.dtype):
            counts += B @ B.T
        G = np.outer(self.factors, self.factors)
        G *= counts
        return G

    def weights(self, coef: np.ndarray) -> np.ndarray:
        """``coef @ take(slice(None))`` of (C, n) coefficients on packed-bit
        rows, one chunk of 1024 columns at a time; a chunk holds n x 1024
        float64 (16 MB at n = 2000).  A chunk's entries are take's own, so up
        to 1024 columns this is the array form's product, rounded alike: an
        exact cancellation of two rows' terms, which can tie two classes'
        scores, cancels in both."""
        W = np.empty((len(coef), self.p))
        for start, B in self._chunks(np.float64):
            B *= self.factors[:, None]
            W[:, start : start + B.shape[1]] = coef @ B
        return W


def feature_matrix(images, n: int, cfg: FeatureConfig) -> FeatureRows:
    """The :class:`FeatureRows` of the n (N, N) pixel arrays that the
    iterable `images` yields: row i is the i-th array's.

    Each array is featurized straight into its row before the next is taken,
    so a source may reuse one buffer.  Each fault is raised at the first
    image that has it: under ``flatten`` a pixel other than 0 or 1 is a
    ValueError naming the image, a block grid finer than an image raises
    BlockGridInvalid, and a feature length other than the first image's
    (``flatten`` of images of several sizes) raises LengthMismatch.  A count
    other than n raises LengthMismatch once `images` is exhausted.
    """
    rows = None
    factors, p, count, flat = np.empty(n), 0, 0, cfg.mode == "flatten"
    for pixels in images:
        count += 1
        length = cfg.length(len(pixels))
        if rows is None:
            p = length
            rows = np.empty((n, -(-p // 8)), np.uint8) if flat else np.empty((n, p))
        if length != p:
            raise LengthMismatch(
                f"items give features of different lengths {sorted({p, length})}; "
                "--feature-mode flatten needs images of one size"
            )
        if count <= n:
            pixels = np.asarray(pixels)
            bad = pixels[(pixels != 0) & (pixels != 1)] if flat else ()
            if len(bad):
                raise ValueError(f"image {count - 1} has pixel value {bad[0].item()!r}; "
                                 "flatten features need pixels of 0 or 1")
            rows[count - 1], factors[count - 1] = _featurize_row(pixels, cfg)
    if count != n:
        raise LengthMismatch(f"{count} images for a matrix of n = {n} rows")
    return FeatureRows(np.empty((0, 0)) if rows is None else rows, factors, p)


def featurize(img: RecurrenceImage, cfg: FeatureConfig) -> np.ndarray:
    """Turn an image into a norm-capped feature vector of dim N^2 or q^2."""
    return feature_matrix([img.pixels], 1, cfg).take([0])[0]


@dataclass(frozen=True)
class LinearClassifier:
    """Per-class weight rows and biases under norm caps c_A and c_B: read-only
    float64 arrays, kept without a copy when they are already and copied otherwise."""

    weights: np.ndarray  # (C, p); row y-1 scores class y
    biases: np.ndarray  # (C,)
    c_A: float = 1.0
    c_B: float = 1.0

    def __post_init__(self) -> None:
        w = _read_only(self.weights, np.float64)
        b = _read_only(self.biases, np.float64)
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
        row_norms = np.sqrt(np.einsum("ij,ij->i", w, w))  # no (C, p) temporary
        if not row_norms.max() <= self.c_A + tol:
            raise ValueError(
                f"weight row norm {row_norms.max()} exceeds cap c_A={self.c_A}"
            )
        if not np.abs(b).max() <= self.c_B + tol:
            raise ValueError(f"bias magnitude {np.abs(b).max()} exceeds cap c_B={self.c_B}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


def predict(clf: LinearClassifier, z) -> int:
    """Highest-scoring class of the feature vector z (scores A_Y^T z + B_Y);
    ties break to the lowest class index."""
    return int(predict_rows(clf, np.asarray(z, dtype=np.float64)[None])[0])


def _rows(clf: LinearClassifier, features: np.ndarray) -> np.ndarray:
    if features.ndim != 2 or features.shape[1] != clf.dim:
        raise DimensionMismatch(
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

    `features` is an (n, p) array or a :class:`FeatureRows` (all of its rows).
    Starts from the zero classifier, uses the step schedule
    ``step_size / sqrt(t)``, and returns the iterate with the lowest recorded
    empirical risk (so the step-0 zero model is returned when nothing
    improves on it).  The optimizer is deterministic.

    With more features than rows (p > n) and a finite Gram matrix X X^T,
    the same loop runs on the (C, n) coefficients of the weights in the rows
    of X, at O(n^2 C) a step in place of O(n p C).  Packed-bit rows build the
    Gram and the weights from their bits (:meth:`FeatureRows.gram`, always
    finite), an array builds them as ``X @ X.T`` and ``coef @ X``.  The
    weights and biases match the primal loop's within 1e-12, with the same
    predictions and a risk within 1e-12 (tests/test_oracles.py asserts
    this).  For p <= n, or a Gram matrix that overflows, the primal loop
    runs.  A step size that is not finite and positive, a cap that is not
    finite, and an iterate whose risk is not finite are ValueErrors.
    """
    bits = isinstance(features, FeatureRows)
    if bits and (features.rows.dtype != np.uint8 or features.p <= len(features.factors)):
        features, bits = features.take(slice(None)), False
    X = features if bits else np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    shape = (len(X.factors), X.p) if bits else X.shape
    if len(shape) != 2 or shape[0] != y.shape[0]:
        raise ValueError("features must be (n, p) with one label per row")
    n, p = shape
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
    # and the Gram matrix G = X X^T; an overflowing G keeps the primal form.
    dual = bits
    if bits:
        G = X.gram()
    elif p > n:
        with np.errstate(over="ignore", invalid="ignore"):
            G = X @ X.T
        dual = bool(np.isfinite(G).all())
    w = np.zeros((n_classes, n if dual else p))
    b = np.zeros(n_classes)
    # The margins that give an iterate's risk also give the next step's
    # subgradient, so each step computes the scores once.  In the dual form
    # M = G w^T gives both the scores and, as G is symmetric, the squared
    # norms w G w^T: one Gram product a step.
    M = (G if dual else X) @ w.T
    margins, best_other = _margins(M + b, y)
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
                M = G @ w.T
                norms = np.sqrt(np.maximum((w.T * M).sum(axis=0), 0.0))
            else:
                norms = np.linalg.norm(w, axis=1)
            over = norms > c_A
            if over.any():
                scale = c_A / norms[over]
                w[over] *= scale[:, None]
                if dual:
                    M[:, over] *= scale
            np.clip(b, -c_B, c_B, out=b)
            margins, best_other = _margins((M if dual else X @ w.T) + b, y)
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
    weights = X.weights(best_w) if bits else best_w @ X if dual else best_w
    for a in (weights, best_b):  # fresh arrays, handed over read-only so they are not copied
        a.setflags(write=False)
    return LinearClassifier(weights, best_b, c_A, c_B)


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
    """:func:`knn_classify` of each (d, T, 2) query of the (m, d, T, 2) array
    `Q` among the (n, d, T, 2) items `X` with class ids `labels`.  Queries of
    another d or T raise DimensionMismatch or LengthMismatch, not a broadcast.

    The queries are scanned in blocks whose temporaries hold at most
    ``BLOCK_BYTES`` of float64 (or one query against one item, if that is
    larger).
    """
    Q = np.asarray(Q)
    if Q.shape[1] != X.shape[1]:
        raise DimensionMismatch(f"series dimensions differ: {Q.shape[1]} vs {X.shape[1]}")
    if Q.shape[2] != X.shape[2]:
        raise LengthMismatch(f"series lengths differ: {Q.shape[2]} vs {X.shape[2]}")
    n = len(X)
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    per_item = X.shape[1] * X.shape[2]
    rows = max(1, BLOCK_BYTES // 8 // per_item)
    width = max(1, BLOCK_BYTES // 8 // (per_item * min(rows, n)))
    preds: list[int] = []
    # An overflow gives inf or NaN, no warning; the stable sort puts either last.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(Q), width):
            block = Q[start : start + width]
            dists = np.concatenate([grid_dk_squared(block[:, None], X[None, i : i + rows], kernel)
                                    for i in range(0, n, rows)], axis=1)
            preds.extend(_vote(row, labels, k) for row in dists)
    return preds


def knn_classify(
    train: LabeledDataset, query, k: int, kernel: Kernel2x2
) -> int:
    """Majority vote among the k nearest training items under the summed
    squared series distance (per-dimension sums for multivariate data).

    Vote ties break to the class with the smallest total distance among its
    voting neighbors, then to the lowest class id.
    """
    return knn_rows(train.bounds, train.labels(), as_grid(query)[None], k, kernel)[0]


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
    """Plain-text model file: `C p c_A c_B kind` header, then one row per class.
    An unknown kind is a ValueError before `path` is opened."""
    loss_entry(kind)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{clf.n_classes} {clf.dim} {clf.c_A!r} {clf.c_B!r} {kind}\n")
        for row, bias in zip(clf.weights, clf.biases):
            for start in range(0, clf.dim, _ROW_CHUNK):
                chunk = tuple(row[start : start + _ROW_CHUNK].tolist())
                fh.write((" " if start else "") + _ROW_FORMAT[: 3 * len(chunk) - 1] % chunk)
            fh.write(f" {float(bias)!r}\n")


def load_model(path) -> tuple[LinearClassifier, str]:
    """Read a model written by :func:`save_model`; returns (classifier, kind).
    Every ValueError names the file."""
    try:
        lines = Path(path).read_text(encoding="ascii").splitlines()
        if not lines:
            raise ValueError("empty model file")
        head = lines[0].split()
        if len(head) != 5:
            raise ValueError(f"malformed model header {lines[0]!r}")
        n_classes, p = int(head[0]), int(head[1])
        c_A, c_B, kind = float(head[2]), float(head[3]), head[4]
        if len(lines) < 1 + n_classes:
            raise ValueError(f"expected {n_classes} weight rows")
        weights = np.empty((n_classes, p))
        biases = np.empty(n_classes)
        for i, line in enumerate(lines[1 : 1 + n_classes]):
            values = [float(v) for v in line.split()]
            if len(values) != p + 1:
                raise ValueError(f"row {i} has {len(values)} values, expected {p + 1}")
            weights[i] = values[:p]
            biases[i] = values[p]
        for a in (weights, biases):  # fresh arrays, handed over read-only so they are not copied
            a.setflags(write=False)
        return LinearClassifier(weights, biases, c_A, c_B), kind
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
