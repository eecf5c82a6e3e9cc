"""Training objectives and a toy gradient-descent trainer.

The shape objective is 0.1 * triplet(margin 0.2) + cross-entropy; the
appearance objective is triplet(margin 0.3) + cross-entropy + center loss +
5e-4 * centroid-triplet loss. Triplet mining is batch-hard (hardest positive
and hardest negative inside the batch); the centroid-triplet positive centroid
excludes the anchor itself, and anchors whose class has no other member are
skipped.

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


@dataclass
class Batch:
    """Operands of the objectives for one training batch."""

    embeddings: np.ndarray  # (N, D)
    labels: np.ndarray  # (N,) class indices
    logits: np.ndarray | None = None  # (N, K), for cross-entropy
    centers: np.ndarray | None = None  # (K, D), for center loss

    def __post_init__(self):
        e = np.asarray(self.embeddings, dtype=np.float64)
        lab = np.asarray(self.labels, dtype=np.int64)
        if e.ndim != 2 or lab.ndim != 1 or e.shape[0] != lab.shape[0]:
            raise DimMismatch(
                f"embeddings {e.shape} and labels {lab.shape} are inconsistent"
            )
        if self.logits is not None:
            z = np.asarray(self.logits, dtype=np.float64)
            if z.ndim != 2 or z.shape[0] != e.shape[0]:
                raise DimMismatch(f"logits {z.shape} do not match {e.shape[0]} embeddings")
            if lab.min() < 0 or lab.max() >= z.shape[1]:
                raise IndexError(f"labels must lie in [0, {z.shape[1]}), got {lab.min()}..{lab.max()}")
            self.logits = z
        if self.centers is not None:
            c = np.asarray(self.centers, dtype=np.float64)
            if c.ndim != 2 or c.shape[1] != e.shape[1]:
                raise DimMismatch(f"centers {c.shape} do not match embedding dim {e.shape[1]}")
            if lab.min() < 0 or lab.max() >= c.shape[0]:
                raise IndexError(f"labels must lie in [0, {c.shape[0]}), got {lab.min()}..{lab.max()}")
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
    """-log softmax(logits)[label], computed with max-subtraction."""
    z = as_vector(logits, "logits")
    if not 0 <= label < z.shape[0]:
        raise IndexError(f"label {label} out of range for {z.shape[0]} classes")
    m = z.max()
    return float(np.log(np.exp(z - m).sum()) + m - z[label])


def center_loss(embeddings, centers, labels) -> float:
    """Half mean squared distance of each embedding to its class center."""
    e = np.asarray(embeddings, dtype=np.float64)
    c = np.asarray(centers, dtype=np.float64)
    lab = np.asarray(labels, dtype=np.int64)
    if e.ndim != 2 or c.ndim != 2 or e.shape[1] != c.shape[1]:
        raise DimMismatch(f"embeddings {e.shape} and centers {c.shape} are inconsistent")
    if lab.min() < 0 or lab.max() >= c.shape[0]:
        raise IndexError(f"labels must lie in [0, {c.shape[0]})")
    resid = e - c[lab]
    return float(0.5 * np.mean(np.sum(resid**2, axis=1)))


def _pairwise_distances(e: np.ndarray) -> np.ndarray:
    sq = np.sum(e**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (e @ e.T)
    return np.sqrt(np.maximum(d2, 0.0))


def batch_hard_triplet(embeddings, labels, margin: float) -> float:
    loss, _ = _batch_hard_triplet_grad(
        np.asarray(embeddings, dtype=np.float64), np.asarray(labels, dtype=np.int64), margin
    )
    return loss


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

    pos_dist = np.where(pos_mask, dist, -np.inf)
    neg_dist = np.where(neg_mask, dist, np.inf)
    hardest_pos = pos_dist.argmax(axis=1)
    hardest_neg = neg_dist.argmin(axis=1)

    total = 0.0
    for a in np.flatnonzero(valid):
        p, ng = hardest_pos[a], hardest_neg[a]
        hinge = dist[a, p] - dist[a, ng] + margin
        if hinge <= 0.0:
            continue
        total += hinge
        if dist[a, p] > 0.0:
            u = (e[a] - e[p]) / dist[a, p]
            grad[a] += u
            grad[p] -= u
        if dist[a, ng] > 0.0:
            v = (e[a] - e[ng]) / dist[a, ng]
            grad[a] -= v
            grad[ng] += v
    return total / n_valid, grad / n_valid


def centroid_triplet_loss(batch: Batch, margin: float = CTL_MARGIN) -> float:
    loss, _ = _ctl_grad(batch.embeddings, batch.labels, margin)
    return loss


def _ctl_grad(e: np.ndarray, labels: np.ndarray, margin: float) -> tuple[float, np.ndarray]:
    """Centroid-triplet loss and gradient.

    Per anchor: the positive centroid is the mean of the anchor's class
    excluding the anchor (anchors whose class has a single member are
    skipped); the negative is the hardest other-class centroid (computed over
    all members). Hinge with the given margin, averaged over valid anchors.
    """
    classes = np.unique(labels)
    if classes.shape[0] < 2:
        raise InvalidInput("centroid triplet loss needs at least two classes in the batch")
    sums = {int(k): e[labels == k].sum(axis=0) for k in classes}
    counts = {int(k): int((labels == k).sum()) for k in classes}
    centroids = {k: sums[k] / counts[k] for k in sums}

    grad = np.zeros_like(e)
    total = 0.0
    n_valid = 0
    members = {int(k): np.flatnonzero(labels == k) for k in classes}
    for a in range(e.shape[0]):
        k = int(labels[a])
        if counts[k] < 2:
            continue
        n_valid += 1
        m = counts[k] - 1
        pc = (sums[k] - e[a]) / m
        d_ap = float(np.linalg.norm(e[a] - pc))

        best_k, d_an = None, np.inf
        for other in classes:
            other = int(other)
            if other == k:
                continue
            d = float(np.linalg.norm(e[a] - centroids[other]))
            if d < d_an:
                best_k, d_an = other, d
        if best_k is None:  # no distance to another centroid is finite
            return float("nan"), grad
        hinge = d_ap - d_an + margin
        if hinge <= 0.0:
            continue
        total += hinge
        if d_ap > 0.0:
            u = (e[a] - pc) / d_ap
            grad[a] += u
            for j in members[k]:
                if j != a:
                    grad[j] -= u / m
        if d_an > 0.0:
            v = (e[a] - centroids[best_k]) / d_an
            grad[a] -= v
            for j in members[best_k]:
                grad[j] += v / counts[best_k]
    if n_valid == 0:
        return 0.0, grad
    return total / n_valid, grad / n_valid


def _mean_ce_grad(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits."""
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(log_z - shifted[np.arange(n), labels]))
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    probs[np.arange(n), labels] -= 1.0
    return loss, probs / n


def mean_cross_entropy(logits, labels) -> float:
    z = np.asarray(logits, dtype=np.float64)
    lab = np.asarray(labels, dtype=np.int64)
    if lab.min() < 0 or lab.max() >= z.shape[1]:
        raise IndexError(f"labels must lie in [0, {z.shape[1]})")
    loss, _ = _mean_ce_grad(z, lab)
    return loss


def shape_objective(batch: Batch) -> float:
    """0.1 * batch-hard triplet (margin 0.2) + mean cross-entropy."""
    if batch.logits is None:
        raise InvalidInput("shape objective needs logits")
    trip = batch_hard_triplet(batch.embeddings, batch.labels, SHAPE_TRIPLET_MARGIN)
    ce = mean_cross_entropy(batch.logits, batch.labels)
    return SHAPE_TRIPLET_WEIGHT * trip + ce


def appearance_objective(batch: Batch) -> float:
    """Triplet (margin 0.3) + cross-entropy + center loss + 5e-4 * centroid triplet."""
    if batch.logits is None or batch.centers is None:
        raise InvalidInput("appearance objective needs logits and centers")
    trip = batch_hard_triplet(batch.embeddings, batch.labels, APP_TRIPLET_MARGIN)
    ce = mean_cross_entropy(batch.logits, batch.labels)
    cen = center_loss(batch.embeddings, batch.centers, batch.labels)
    ctl = centroid_triplet_loss(batch)
    return trip + ce + cen + CTL_WEIGHT * ctl


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
        x = np.asarray(self.features, dtype=np.float64)
        lab = np.asarray(self.labels, dtype=np.int64)
        if x.ndim != 2 or lab.shape != (x.shape[0],):
            raise DimMismatch(f"features {x.shape} and labels {lab.shape} are inconsistent")
        if lab.min() < 0 or lab.max() >= self.num_classes:
            raise IndexError(f"labels must lie in [0, {self.num_classes})")
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


def _objective_with_embedding_grad(
    objective: str, e: np.ndarray, labels: np.ndarray, wc, bc, centers
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Loss plus gradients w.r.t. embeddings, classifier weights, classifier bias."""
    logits = e @ wc.T + bc
    ce, dlogits = _mean_ce_grad(logits, labels)
    d_wc = dlogits.T @ e
    d_bc = dlogits.sum(axis=0)
    de = dlogits @ wc
    if objective == "shape":
        trip, dtrip = _batch_hard_triplet_grad(e, labels, SHAPE_TRIPLET_MARGIN)
        return SHAPE_TRIPLET_WEIGHT * trip + ce, de + SHAPE_TRIPLET_WEIGHT * dtrip, d_wc, d_bc
    if objective == "appearance":
        trip, dtrip = _batch_hard_triplet_grad(e, labels, APP_TRIPLET_MARGIN)
        cen = center_loss(e, centers, labels)
        dcen = (e - centers[labels]) / e.shape[0]
        ctl, dctl = _ctl_grad(e, labels, CTL_MARGIN)
        loss = trip + ce + cen + CTL_WEIGHT * ctl
        return loss, de + dtrip + dcen + CTL_WEIGHT * dctl, d_wc, d_bc
    raise InvalidInput(f"unknown objective {objective!r}, expected 'shape' or 'appearance'")


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
    loss, de, d_wc, d_bc = _objective_with_embedding_grad(
        objective, e, labels, wc, bc, centers
    )
    grads = [None] * len(layers)
    g = de
    for i in reversed(range(len(layers))):
        g = g * (zs[i] > 0.0)
        grads[i] = (g.T @ hs[i], g.sum(axis=0))
        g = g @ layers[i][0]
    return loss, grads, d_wc, d_bc


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
    check_gradients: bool = True,
    grad_check_tol: float = 1e-3,
) -> TrainResult:
    """Full-batch gradient descent on the chosen objective.

    `seed` initializes the classifier head; centers start at zero and follow
    the moving-average update (rate 0.5) each step under the appearance
    objective. The first analytic gradient is verified against central
    differences unless check_gradients is disabled. Loss trace holds the
    initial loss followed by the loss after each of the `steps` updates.
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

    def loss_at(flat: np.ndarray) -> float:
        ls, w2, b2 = _unflatten_params(flat, layers, wc, bc)
        e, _, _ = _forward_cached(x, ls)
        loss, _, _, _ = _objective_with_embedding_grad(objective, e, labels, w2, b2, centers)
        return loss

    trace: list[float] = []
    for step in range(steps + 1):
        loss, grads, d_wc, d_bc = _loss_and_grads(objective, x, labels, layers, wc, bc, centers)
        if not np.isfinite(loss):
            raise TrainingDiverged(f"non-finite loss at step {step}")
        trace.append(float(loss))
        if step == steps:
            break

        if step == 0 and check_gradients:
            analytic = _flatten_params([g for g in grads], d_wc, d_bc)
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
            for cls in range(k):
                mask = labels == cls
                cnt = int(mask.sum())
                if cnt == 0:
                    continue
                delta = (cnt * centers[cls] - e[mask].sum(axis=0)) / (1.0 + cnt)
                centers[cls] = centers[cls] - CENTER_UPDATE_RATE * delta

    trained = EncoderParams(layers=tuple((w, b) for w, b in layers), seed=params.seed)
    return TrainResult(params=trained, classifier=(wc, bc), centers=centers, trace=trace)
