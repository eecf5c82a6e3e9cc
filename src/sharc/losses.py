"""Training objectives and a toy gradient-descent trainer.

The shape objective is 0.1 * triplet(margin 0.2) + cross-entropy; the
appearance objective is triplet(margin 0.3) + cross-entropy + center loss +
5e-4 * centroid-triplet loss. Triplet mining is batch-hard (hardest positive
and hardest negative inside the batch); the centroid-triplet positive centroid
excludes the anchor itself, and anchors whose class has no other member are
skipped.

Each loss is one whole-batch array kernel, and one function composes both
objectives. Hinges are summed left to right in anchor order, and the batch-hard
gradient is scattered in that order (anchor += u, positive -= u, anchor -= v,
negative += v), so it has the bits of a loop over anchors; the centroid-triplet
gradient sums per class instead, an ulp or so away. A hinge counts unless it is
`<= 0`, so a NaN hinge counts and a diverging batch has a NaN loss.

The trainer fits an encoder stack (linear -> bias -> ReLU blocks, matching the
encoders module) plus a linear classifier head with plain full-batch gradient
descent. Gradients are analytic and checked against central differences on the
first step; centers are updated with the conventional moving-average rule
rather than by gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_vector, euclidean_distance
from .encoders import EncoderParams
from .exceptions import (
    DimMismatch,
    EmptyInput,
    GradientCheckFailed,
    InvalidInput,
    TrainingDiverged,
)
from .prng import SplitMix64

SHAPE_TRIPLET_MARGIN = 0.2
SHAPE_TRIPLET_WEIGHT = 0.1
APP_TRIPLET_MARGIN = 0.3
CTL_MARGIN = 0.3
CTL_WEIGHT = 5e-4
CENTER_UPDATE_RATE = 0.5


def _labelled_rows(x, labels, name: str) -> tuple[np.ndarray, np.ndarray]:
    """`x` as a 2-D float64 array with one row per label, and the labels as int64.

    Raises DimMismatch when the shapes disagree and EmptyInput for a batch
    without samples.
    """
    a = np.asarray(x, dtype=np.float64)
    lab = np.asarray(labels, dtype=np.int64)
    if a.ndim != 2 or lab.ndim != 1 or a.shape[0] != lab.shape[0]:
        raise DimMismatch(f"{name} {a.shape} and labels {lab.shape} are inconsistent")
    if lab.size == 0:
        raise EmptyInput(f"{name}: the batch has no samples")
    return a, lab


def _check_classes(labels: np.ndarray, num_classes: int) -> None:
    if labels.min() < 0 or labels.max() >= num_classes:
        raise IndexError(
            f"labels must lie in [0, {num_classes}), got {labels.min()}..{labels.max()}"
        )


@dataclass
class Batch:
    """Operands of the objectives for one training batch."""

    embeddings: np.ndarray  # (N, D)
    labels: np.ndarray  # (N,) class indices
    logits: np.ndarray | None = None  # (N, K), for cross-entropy
    centers: np.ndarray | None = None  # (K, D), for center loss

    def __post_init__(self):
        e, lab = _labelled_rows(self.embeddings, self.labels, "embeddings")
        if self.logits is not None:
            self.logits, _ = _labelled_rows(self.logits, lab, "logits")
            _check_classes(lab, self.logits.shape[1])
        if self.centers is not None:
            c = np.asarray(self.centers, dtype=np.float64)
            if c.ndim != 2 or c.shape[1] != e.shape[1]:
                raise DimMismatch(f"centers {c.shape} do not match embedding dim {e.shape[1]}")
            _check_classes(lab, c.shape[0])
            self.centers = c
        self.embeddings = e
        self.labels = lab


def triplet_loss(anchor, positive, negative, margin: float) -> float:
    """Hinge on the anchor-positive vs anchor-negative distance gap."""
    if margin < 0:
        raise InvalidInput(f"margin must be nonnegative, got {margin}")
    d_ap = euclidean_distance(anchor, positive)
    d_an = euclidean_distance(anchor, negative)
    return max(0.0, d_ap - d_an + margin)


def cross_entropy(logits, label: int) -> float:
    """-log softmax(logits)[label]: the one-row case of the mean cross-entropy."""
    z = as_vector(logits, "logits")
    if not 0 <= label < z.shape[0]:
        raise IndexError(f"label {label} out of range for {z.shape[0]} classes")
    return _mean_ce_grad(z[None, :], np.array([label]))[0]


def center_loss(embeddings, centers, labels) -> float:
    """Half mean squared distance of each embedding to its class center."""
    batch = Batch(embeddings=embeddings, labels=labels, centers=centers)
    resid = batch.embeddings - batch.centers[batch.labels]
    return float(0.5 * np.mean(np.sum(resid**2, axis=1)))


def _pairwise_distances(e: np.ndarray) -> np.ndarray:
    sq = np.sum(e**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (e @ e.T)
    return np.sqrt(np.maximum(d2, 0.0))


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis. Each row goes through the same dot
    product as `np.linalg.norm` of that row alone, so it has the same bits."""
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


def _running_sum(x: np.ndarray) -> float:
    """x[0] + x[1] + ... left to right (`np.sum` adds pairwise, in other bits)."""
    return float(np.cumsum(x)[-1]) if x.size else 0.0


def _class_sums(x: np.ndarray, classes: np.ndarray, k: int) -> np.ndarray:
    """(k, D) sums of the rows of `x` per class index, each in row order."""
    sums = np.zeros((k, x.shape[1]))
    np.add.at(sums, classes, x)
    return sums


def _unit_rows(diff: np.ndarray, d: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """diff / d row by row where `keep` and d > 0; zero rows elsewhere."""
    keep = keep & (d > 0.0)
    out = np.zeros_like(diff)
    out[keep] = diff[keep] / d[keep][:, None]
    return out


def batch_hard_triplet(embeddings, labels, margin: float) -> float:
    e, lab = _labelled_rows(embeddings, labels, "embeddings")
    return _batch_hard_triplet_grad(e, lab, margin)[0]


def _batch_hard_triplet_grad(
    e: np.ndarray, labels: np.ndarray, margin: float
) -> tuple[float, np.ndarray]:
    """Batch-hard triplet loss and its gradient w.r.t. the embeddings.

    Anchors without any positive (other member of their class) or without any
    negative are skipped; with no valid anchors the loss is 0.
    """
    n = e.shape[0]
    dist = _pairwise_distances(e)
    same = labels[:, None] == labels[None, :]
    pos_mask = same & ~np.eye(n, dtype=bool)
    neg_mask = ~same

    grad = np.zeros_like(e)
    valid = pos_mask.any(axis=1) & neg_mask.any(axis=1)
    if not valid.any():
        return 0.0, grad
    n_valid = int(valid.sum())

    hardest_pos = np.where(pos_mask, dist, -np.inf).argmax(axis=1)
    hardest_neg = np.where(neg_mask, dist, np.inf).argmin(axis=1)
    anchor = np.flatnonzero(valid)
    partner = np.stack([hardest_pos, hardest_neg], axis=1)[anchor]
    d = dist[anchor[:, None], partner]
    hinge = d[:, 0] - d[:, 1] + margin
    active = ~(hinge <= 0.0)

    # the negative pair's step is -v, so each pair adds +step to the anchor and
    # -step to the partner; a zero step adds nothing, as grad never holds -0.0
    step = _unit_rows(e[anchor][:, None, :] - e[partner], d, active[:, None]) * [[1.0], [-1.0]]
    rows = np.stack([np.broadcast_to(anchor[:, None], d.shape), partner], axis=2)
    np.add.at(grad, rows.reshape(-1), np.stack([step, -step], axis=2).reshape(-1, e.shape[1]))
    return _running_sum(hinge[active]) / n_valid, grad / n_valid


def centroid_triplet_loss(batch: Batch, margin: float = CTL_MARGIN) -> float:
    return _ctl_grad(batch.embeddings, batch.labels, margin)[0]


def _ctl_grad(e: np.ndarray, labels: np.ndarray, margin: float) -> tuple[float, np.ndarray]:
    """Centroid-triplet loss and gradient.

    Per anchor: the positive centroid is the mean of the anchor's class
    excluding the anchor (anchors whose class has a single member are
    skipped); the negative is the hardest other-class centroid (computed over
    all members, the first of equals in class order). Hinge with the given
    margin, averaged over valid anchors. The loss is NaN when some anchor has
    no finite distance to another class's centroid.
    """
    classes, cls, counts = np.unique(labels, return_inverse=True, return_counts=True)
    k = classes.shape[0]
    if k < 2:
        raise InvalidInput("centroid triplet loss needs at least two classes in the batch")
    sums = _class_sums(e, cls, k)
    centroids = sums / counts[:, None]

    anchor = np.flatnonzero(counts[cls] > 1)
    if anchor.size == 0:
        return 0.0, np.zeros_like(e)
    own = cls[anchor]
    m = (counts[own] - 1)[:, None]
    to_pos = e[anchor] - (sums[own] - e[anchor]) / m
    d_ap = _row_norms(to_pos)

    # neither a NaN distance nor the anchor's own class is a negative
    d_cent = _row_norms(e[anchor][:, None, :] - centroids)
    d_cent[np.isnan(d_cent)] = np.inf
    d_cent[np.arange(anchor.size), own] = np.inf
    best = d_cent.argmin(axis=1)
    d_an = d_cent[np.arange(anchor.size), best]
    if np.isinf(d_an).any():
        return float("nan"), np.zeros_like(e)
    hinge = d_ap - d_an + margin
    active = ~(hinge <= 0.0)

    # u pulls the anchor toward its positive centroid and moves each other
    # member of its class by -u / m; v pushes it from the negative centroid
    # and moves each member of that class by +v / count
    u = _unit_rows(to_pos, d_ap, active)
    v = _unit_rows(e[anchor] - centroids[best], d_an, active)
    pull = _class_sums(u / m, own, k)
    push = _class_sums(v / counts[best][:, None], best, k)
    grad = push[cls] - pull[cls]
    grad[anchor] += u + u / m - v
    return _running_sum(hinge[active]) / anchor.size, grad / anchor.size


def _mean_ce_grad(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits."""
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(total[:, 0]) - shifted[np.arange(n), labels]))
    probs = exp / total
    probs[np.arange(n), labels] -= 1.0
    return loss, probs / n


def mean_cross_entropy(logits, labels) -> float:
    z, lab = _labelled_rows(logits, labels, "logits")
    _check_classes(lab, z.shape[1])
    return _mean_ce_grad(z, lab)[0]


def _objective(
    objective: str, e: np.ndarray, labels: np.ndarray, logits: np.ndarray, centers
) -> tuple[float, np.ndarray, list[np.ndarray]]:
    """Loss, its gradient w.r.t. the logits, and the terms of its gradient
    w.r.t. the embeddings that do not pass through the logits. The caller adds
    the terms, in order, to the logit gradient times the classifier weights."""
    ce, d_logits = _mean_ce_grad(logits, labels)
    if objective == "shape":
        trip, d_trip = _batch_hard_triplet_grad(e, labels, SHAPE_TRIPLET_MARGIN)
        return SHAPE_TRIPLET_WEIGHT * trip + ce, d_logits, [SHAPE_TRIPLET_WEIGHT * d_trip]
    if objective == "appearance":
        trip, d_trip = _batch_hard_triplet_grad(e, labels, APP_TRIPLET_MARGIN)
        cen = center_loss(e, centers, labels)
        ctl, d_ctl = _ctl_grad(e, labels, CTL_MARGIN)
        terms = [d_trip, (e - centers[labels]) / e.shape[0], CTL_WEIGHT * d_ctl]
        return trip + ce + cen + CTL_WEIGHT * ctl, d_logits, terms
    raise InvalidInput(f"unknown objective {objective!r}, expected 'shape' or 'appearance'")


def shape_objective(batch: Batch) -> float:
    """0.1 * batch-hard triplet (margin 0.2) + mean cross-entropy."""
    if batch.logits is None:
        raise InvalidInput("shape objective needs logits")
    return _objective("shape", batch.embeddings, batch.labels, batch.logits, batch.centers)[0]


def appearance_objective(batch: Batch) -> float:
    """Triplet (margin 0.3) + cross-entropy + center loss + 5e-4 * centroid triplet."""
    if batch.logits is None or batch.centers is None:
        raise InvalidInput("appearance objective needs logits and centers")
    return _objective("appearance", batch.embeddings, batch.labels, batch.logits, batch.centers)[0]


def numerical_gradient(loss_fn, params: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate, one coordinate at a time."""
    if eps <= 0:
        raise InvalidInput(f"eps must be positive, got {eps}")
    p = np.asarray(params, dtype=np.float64)
    grad = np.zeros_like(p)
    for i in range(p.size):
        step = np.zeros_like(p)
        step.flat[i] = eps
        grad.flat[i] = (loss_fn(p + step) - loss_fn(p - step)) / (2.0 * eps)
    return grad


# ---------------------------------------------------------------------------
# toy trainer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToyDataset:
    """Labelled feature vectors for the toy trainer."""

    features: np.ndarray  # (N, D_in)
    labels: np.ndarray  # (N,)
    num_classes: int

    def __post_init__(self):
        x, lab = _labelled_rows(self.features, self.labels, "features")
        _check_classes(lab, self.num_classes)
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", lab)


def make_toy_dataset(
    num_ids: int, samples_per_id: int, input_dim: int, noise: float, seed: int
) -> ToyDataset:
    """Gaussian-ish class clusters around uniform class anchors in [-1, 1]^D."""
    rng = SplitMix64(seed)
    anchors = rng.uniform_array(-1.0, 1.0, (num_ids, input_dim))
    feats = np.repeat(anchors, samples_per_id, axis=0)
    feats = feats + noise * rng.normals(feats.size).reshape(feats.shape)
    labels = np.repeat(np.arange(num_ids), samples_per_id)
    return ToyDataset(features=feats, labels=labels, num_classes=num_ids)


@dataclass
class TrainResult:
    params: EncoderParams
    classifier: tuple[np.ndarray, np.ndarray]  # (Wc (K, D), bc (K,))
    centers: np.ndarray  # (K, D)
    trace: list[float]  # loss at init, then after every step


def _forward_cached(x: np.ndarray, layers) -> tuple[np.ndarray, list, list]:
    """Encoder-stack forward (ReLU after every layer) caching pre-activations."""
    hs = [x]
    zs = []
    for w, b in layers:
        z = hs[-1] @ w.T + b
        zs.append(z)
        hs.append(np.maximum(z, 0.0))
    return hs[-1], zs, hs


def _flatten_params(layers, wc, bc) -> np.ndarray:
    parts = []
    for w, b in layers:
        parts.append(w.reshape(-1))
        parts.append(b)
    parts.append(wc.reshape(-1))
    parts.append(bc)
    return np.concatenate(parts)


def _unflatten_params(flat: np.ndarray, layers, wc, bc):
    out_layers = []
    off = 0
    for w, b in layers:
        out_w = flat[off : off + w.size].reshape(w.shape)
        off += w.size
        out_b = flat[off : off + b.size]
        off += b.size
        out_layers.append((out_w, out_b))
    out_wc = flat[off : off + wc.size].reshape(wc.shape)
    off += wc.size
    out_bc = flat[off : off + bc.size]
    return out_layers, out_wc, out_bc


def _loss_and_grads(objective, x, labels, layers, wc, bc, centers):
    e, zs, hs = _forward_cached(x, layers)
    loss, d_logits, terms = _objective(objective, e, labels, e @ wc.T + bc, centers)
    grads = [None] * len(layers)
    g = sum(terms, d_logits @ wc)
    for i in reversed(range(len(layers))):
        g = g * (zs[i] > 0.0)
        grads[i] = (g.T @ hs[i], g.sum(axis=0))
        g = g @ layers[i][0]
    return loss, grads, d_logits.T @ e, d_logits.sum(axis=0)


# a diverging run overflows before its loss turns non-finite, and the
# TrainingDiverged that follows says so in one line
@np.errstate(over="ignore", invalid="ignore")
def train_toy(
    params: EncoderParams,
    dataset: ToyDataset,
    objective: str,
    steps: int,
    lr: float,
    seed: int,
    grad_check_tol: float = 1e-3,
) -> TrainResult:
    """Full-batch gradient descent on the chosen objective.

    `seed` initializes the classifier head; centers start at zero and follow
    the moving-average update (rate 0.5) each step under the appearance
    objective. The first analytic gradient is verified against central
    differences. Loss trace holds the initial loss followed by the loss after
    each of the `steps` updates.
    """
    if steps < 1:
        raise InvalidInput(f"steps must be >= 1, got {steps}")
    if dataset.features.shape[1] != params.input_dim:
        raise DimMismatch(
            f"dataset features have {dataset.features.shape[1]} dims, encoder expects {params.input_dim}"
        )
    x, labels = dataset.features, dataset.labels
    layers = [(w.copy(), b.copy()) for w, b in params.layers]
    embed_dim = params.output_dim
    k = dataset.num_classes
    rng = SplitMix64(seed)
    bound = 1.0 / np.sqrt(embed_dim)
    wc = rng.uniform_array(-bound, bound, (k, embed_dim))
    bc = rng.uniform_array(-bound, bound, (k,))
    centers = np.zeros((k, embed_dim))
    class_sizes = np.bincount(labels, minlength=k)[:, None]

    def loss_at(flat: np.ndarray) -> float:
        ls, w2, b2 = _unflatten_params(flat, layers, wc, bc)
        e, _, _ = _forward_cached(x, ls)
        return _objective(objective, e, labels, e @ w2.T + b2, centers)[0]

    trace: list[float] = []
    for step in range(steps + 1):
        loss, grads, d_wc, d_bc = _loss_and_grads(objective, x, labels, layers, wc, bc, centers)
        if not np.isfinite(loss):
            raise TrainingDiverged(f"non-finite loss at step {step}")
        trace.append(float(loss))
        if step == steps:
            break

        if step == 0:
            analytic = _flatten_params(grads, d_wc, d_bc)
            numeric = numerical_gradient(loss_at, _flatten_params(layers, wc, bc))
            denom = max(float(np.linalg.norm(numeric)), 1e-12)
            rel = float(np.linalg.norm(analytic - numeric)) / denom
            if rel > grad_check_tol:
                raise GradientCheckFailed(
                    f"analytic vs numerical gradient relative error {rel:.3e} > {grad_check_tol:.1e}"
                )

        for i, (gw, gb) in enumerate(grads):
            layers[i] = (layers[i][0] - lr * gw, layers[i][1] - lr * gb)
        wc = wc - lr * d_wc
        bc = bc - lr * d_bc
        if objective == "appearance":
            e, _, _ = _forward_cached(x, layers)
            delta = (class_sizes * centers - _class_sums(e, labels, k)) / (1.0 + class_sizes)
            centers = centers - CENTER_UPDATE_RATE * delta

    trained = EncoderParams(layers=tuple((w, b) for w, b in layers), seed=params.seed)
    return TrainResult(params=trained, classifier=(wc, bc), centers=centers, trace=trace)
