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
`<= 0`, so a NaN hinge counts and a diverging batch has a NaN loss. The loss
side of each kernel (mining, hinges, sums) also runs over any leading axes, a
stack of batches, with the bits it has on one batch.

`_pairwise_distances` keeps the `|a|^2 + |b|^2 - 2 a.b` expansion through `@`,
although it cancels: its bits reach `loss_trace.csv` through training, and
direct differences move 39 of the 201 default shape losses and 52 of the
appearance ones, by up to 4.4e-16.

The trainer fits an encoder stack (linear -> bias -> ReLU blocks, matching the
encoders module) plus a linear classifier head with plain full-batch gradient
descent; centers are updated with the conventional moving-average rule rather
than by gradient. Gradients are analytic and checked on the first step against
central differences at eps 1e-5. The check evaluates the 2 * P perturbed
parameter vectors as stacks of GRAD_CHECK_ROWS rows, loss only, so that it
costs about 30 array passes instead of 2 * P Python calls; its central
differences have the bits of the per-coordinate `numerical_gradient` loop,
which stays as the test oracle. Each row also reports its piecewise pattern
(the ReLU masks, the hardest pairs, the hinges that count and the
centroid-triplet negatives). A coordinate whose +eps or -eps row leaves the
pattern of the unperturbed parameters straddles a kink, where a central
difference mixes two pieces, so it is differenced again on the piece of the
parameters; every coordinate is then checked at the same tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
GRAD_CHECK_EPS = 1e-5
# perturbed parameter vectors per stacked loss evaluation in train_toy's
# gradient check: it bounds the check's working set (one stack of all 2 * 944
# rows of the default [train] roughly doubles the process's peak memory)
GRAD_CHECK_ROWS = 64


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
    return float(_center_loss(batch.embeddings, batch.centers, batch.labels))


def _center_loss(e: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> np.ndarray:
    resid = e - centers[labels]
    return 0.5 * np.mean(np.sum(resid**2, axis=-1), axis=-1)


def _pairwise_distances(e: np.ndarray) -> np.ndarray:
    # the cancelling expansion stays (see the module docstring)
    sq = np.sum(e**2, axis=-1)
    d2 = sq[..., :, None] + sq[..., None, :] - 2.0 * (e @ np.swapaxes(e, -1, -2))
    return np.sqrt(np.maximum(d2, 0.0))


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis. Each row goes through the same dot
    product as `np.linalg.norm` of that row alone, so it has the same bits."""
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


def _running_sum(x: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Sum over the last axis of the entries of `x` that `keep`, left to right
    (`np.sum` adds pairwise, in other bits). The zeros that stand in for the
    others add nothing, and a kept NaN stays."""
    return np.cumsum(np.where(keep, x, 0.0), axis=-1)[..., -1]


def _class_sums(x: np.ndarray, classes: np.ndarray, k: int) -> np.ndarray:
    """(..., k, D) sums of the rows of `x` (..., N, D) per class index, each
    in row order."""
    sums = np.zeros((k,) + x.shape[:-2] + x.shape[-1:])
    np.add.at(sums, classes, np.moveaxis(x, -2, 0))
    return np.moveaxis(sums, 0, -2)


def _unit_rows(diff: np.ndarray, d: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """diff / d row by row where `keep` and d > 0; zero rows elsewhere."""
    keep = keep & (d > 0.0)
    out = np.zeros_like(diff)
    out[keep] = diff[keep] / d[keep][:, None]
    return out


class _BatchHard(NamedTuple):
    """Batch-hard mining over a batch of N embeddings, with any leading axes.

    `valid` (N,) marks the anchors that have a positive (another member of
    their class) and a negative; `partner` (..., N, 2) holds each anchor's
    hardest positive and hardest negative and `d` their distances; `active`
    (..., N) marks the hinges that count: a valid anchor's, unless `<= 0`.
    `loss` (...) is their running sum over the valid anchors' count, 0 when
    no anchor is valid.
    """

    loss: np.ndarray
    valid: np.ndarray
    partner: np.ndarray
    d: np.ndarray
    active: np.ndarray


def _batch_hard(e: np.ndarray, labels: np.ndarray, margin: float) -> _BatchHard:
    n = labels.shape[0]
    dist = _pairwise_distances(e)
    same = labels[:, None] == labels[None, :]
    pos_mask = same & ~np.eye(n, dtype=bool)
    neg_mask = ~same
    valid = pos_mask.any(axis=1) & neg_mask.any(axis=1)
    hardest_pos = np.where(pos_mask, dist, -np.inf).argmax(axis=-1)
    hardest_neg = np.where(neg_mask, dist, np.inf).argmin(axis=-1)
    partner = np.stack([hardest_pos, hardest_neg], axis=-1)
    d = np.take_along_axis(dist, partner, axis=-1)
    hinge = d[..., 0] - d[..., 1] + margin
    active = valid & ~(hinge <= 0.0)
    n_valid = int(valid.sum())
    loss = _running_sum(hinge, active) / n_valid if n_valid else np.zeros(e.shape[:-2])
    return _BatchHard(loss, valid, partner, d, active)


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
    mined = _batch_hard(e, labels, margin)
    grad = np.zeros_like(e)
    anchor = np.flatnonzero(mined.valid)
    if anchor.size == 0:
        return 0.0, grad
    partner, d = mined.partner[anchor], mined.d[anchor]

    # the negative pair's step is -v, so each pair adds +step to the anchor and
    # -step to the partner; a zero step adds nothing, as grad never holds -0.0
    keep = mined.active[anchor, None]
    step = _unit_rows(e[anchor][:, None, :] - e[partner], d, keep) * [[1.0], [-1.0]]
    rows = np.stack([np.broadcast_to(anchor[:, None], d.shape), partner], axis=2)
    np.add.at(grad, rows.reshape(-1), np.stack([step, -step], axis=2).reshape(-1, e.shape[1]))
    return float(mined.loss), grad / anchor.size


def centroid_triplet_loss(batch: Batch, margin: float = CTL_MARGIN) -> float:
    return _ctl_grad(batch.embeddings, batch.labels, margin)[0]


class _CentroidTriplet(NamedTuple):
    """Centroid-triplet mining over a batch of N embeddings, with any leading
    axes.

    `cls` (N,) is each row's class index, `counts` each class's size and
    `centroids` (..., K, D) the class means. The anchors are the rows whose
    class has another member. Per anchor (..., A): `to_pos` is the offset
    from its positive centroid and `d_ap` its length, `best` is its hardest
    negative class and `d_an` its distance, and `active` marks the hinges
    that count. `loss` (...) is their running sum over the anchor count, 0
    with no anchor and NaN when an anchor has no finite negative distance.
    """

    loss: np.ndarray
    cls: np.ndarray
    counts: np.ndarray
    centroids: np.ndarray
    anchor: np.ndarray
    to_pos: np.ndarray
    d_ap: np.ndarray
    best: np.ndarray
    d_an: np.ndarray
    active: np.ndarray


def _centroid_triplet(e: np.ndarray, labels: np.ndarray, margin: float) -> _CentroidTriplet:
    classes, cls, counts = np.unique(labels, return_inverse=True, return_counts=True)
    k = classes.shape[0]
    if k < 2:
        raise InvalidInput("centroid triplet loss needs at least two classes in the batch")
    sums = _class_sums(e, cls, k)
    centroids = sums / counts[:, None]

    anchor = np.flatnonzero(counts[cls] > 1)
    own = cls[anchor]
    ea = e[..., anchor, :]
    to_pos = ea - (sums[..., own, :] - ea) / (counts[own] - 1)[:, None]
    d_ap = _row_norms(to_pos)

    # neither a NaN distance nor the anchor's own class is a negative
    d_cent = _row_norms(ea[..., None, :] - centroids[..., None, :, :])
    d_cent[np.isnan(d_cent)] = np.inf
    d_cent[..., np.arange(anchor.size), own] = np.inf
    best = d_cent.argmin(axis=-1)
    d_an = np.take_along_axis(d_cent, best[..., None], axis=-1)[..., 0]
    hinge = d_ap - d_an + margin
    active = ~(hinge <= 0.0)
    if anchor.size == 0:
        loss = np.zeros(e.shape[:-2])
    else:
        unreachable = np.isinf(d_an).any(axis=-1)
        loss = np.where(unreachable, np.nan, _running_sum(hinge, active) / anchor.size)
    return _CentroidTriplet(loss, cls, counts, centroids, anchor, to_pos, d_ap, best, d_an, active)


def _ctl_grad(e: np.ndarray, labels: np.ndarray, margin: float) -> tuple[float, np.ndarray]:
    """Centroid-triplet loss and gradient.

    Per anchor: the positive centroid is the mean of the anchor's class
    excluding the anchor (anchors whose class has a single member are
    skipped); the negative is the hardest other-class centroid (computed over
    all members, the first of equals in class order). Hinge with the given
    margin, averaged over valid anchors. The loss is NaN when some anchor has
    no finite distance to another class's centroid.
    """
    c = _centroid_triplet(e, labels, margin)
    if c.anchor.size == 0 or np.isinf(c.d_an).any():
        return float(c.loss), np.zeros_like(e)
    k = c.counts.shape[0]
    own = c.cls[c.anchor]
    m = (c.counts[own] - 1)[:, None]

    # u pulls the anchor toward its positive centroid and moves each other
    # member of its class by -u / m; v pushes it from the negative centroid
    # and moves each member of that class by +v / count
    u = _unit_rows(c.to_pos, c.d_ap, c.active)
    v = _unit_rows(e[c.anchor] - c.centroids[c.best], c.d_an, c.active)
    pull = _class_sums(u / m, own, k)
    push = _class_sums(v / c.counts[c.best][:, None], c.best, k)
    grad = push[c.cls] - pull[c.cls]
    grad[c.anchor] += u + u / m - v
    return float(c.loss), grad / c.anchor.size


def _mean_ce(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean cross-entropy over the rows of `logits` (..., N, K), with the
    shifted exponentials and their row totals that its gradient reuses."""
    n = logits.shape[-2]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=-1, keepdims=True)
    loss = np.mean(np.log(total[..., 0]) - shifted[..., np.arange(n), labels], axis=-1)
    return loss, exp, total


def _mean_ce_grad(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits."""
    loss, exp, total = _mean_ce(logits, labels)
    n = logits.shape[0]
    probs = exp / total
    probs[np.arange(n), labels] -= 1.0
    return float(loss), probs / n


def mean_cross_entropy(logits, labels) -> float:
    z, lab = _labelled_rows(logits, labels, "logits")
    _check_classes(lab, z.shape[1])
    return _mean_ce_grad(z, lab)[0]


def _weighted_sum(objective: str, trip, ce, cen=None, ctl=None):
    """The objective's loss from its terms, added in one order for every caller."""
    if objective == "shape":
        return SHAPE_TRIPLET_WEIGHT * trip + ce
    return trip + ce + cen + CTL_WEIGHT * ctl


def _objective(
    objective: str, e: np.ndarray, labels: np.ndarray, logits: np.ndarray, centers
) -> tuple[float, np.ndarray, list[np.ndarray]]:
    """Loss, its gradient w.r.t. the logits, and the terms of its gradient
    w.r.t. the embeddings that do not pass through the logits. The caller adds
    the terms, in order, to the logit gradient times the classifier weights."""
    ce, d_logits = _mean_ce_grad(logits, labels)
    if objective == "shape":
        trip, d_trip = _batch_hard_triplet_grad(e, labels, SHAPE_TRIPLET_MARGIN)
        return _weighted_sum(objective, trip, ce), d_logits, [SHAPE_TRIPLET_WEIGHT * d_trip]
    if objective == "appearance":
        trip, d_trip = _batch_hard_triplet_grad(e, labels, APP_TRIPLET_MARGIN)
        cen = float(_center_loss(e, centers, labels))
        ctl, d_ctl = _ctl_grad(e, labels, CTL_MARGIN)
        terms = [d_trip, (e - centers[labels]) / e.shape[0], CTL_WEIGHT * d_ctl]
        return _weighted_sum(objective, trip, ce, cen, ctl), d_logits, terms
    raise InvalidInput(f"unknown objective {objective!r}, expected 'shape' or 'appearance'")


def _objective_losses(
    objective: str, e: np.ndarray, labels: np.ndarray, logits: np.ndarray, centers
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The objective's loss over any leading axes of `e` (..., N, D) and
    `logits` (..., N, K), without gradients, and the choices that make it
    piecewise: each valid anchor's hardest positive and negative, the
    batch-hard hinges that count and, under the appearance objective, each
    centroid-triplet anchor's negative class and the hinges that count."""
    ce = _mean_ce(logits, labels)[0]
    margin = SHAPE_TRIPLET_MARGIN if objective == "shape" else APP_TRIPLET_MARGIN
    trip = _batch_hard(e, labels, margin)
    pattern = [trip.partner[..., trip.valid, :], trip.active]
    if objective == "shape":
        return _weighted_sum(objective, trip.loss, ce), pattern
    cen = _center_loss(e, centers, labels)
    ctl = _centroid_triplet(e, labels, CTL_MARGIN)
    return _weighted_sum(objective, trip.loss, ce, cen, ctl.loss), pattern + [ctl.best, ctl.active]


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


def _affine(h: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """h @ w.T + b, over any leading axes of the weights (..., out, in) and
    biases (..., out)."""
    return h @ np.swapaxes(w, -1, -2) + b[..., None, :]


def _forward_cached(x: np.ndarray, layers) -> tuple[np.ndarray, list, list]:
    """Encoder-stack forward (ReLU after every layer) caching pre-activations."""
    hs = [x]
    zs = []
    for w, b in layers:
        z = _affine(hs[-1], w, b)
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
    """The inverse of `_flatten_params`, over any leading axes of `flat`."""
    lead = flat.shape[:-1]
    out_layers = []
    off = 0
    for w, b in layers:
        out_w = flat[..., off : off + w.size].reshape(lead + w.shape)
        off += w.size
        out_b = flat[..., off : off + b.size]
        off += b.size
        out_layers.append((out_w, out_b))
    out_wc = flat[..., off : off + wc.size].reshape(lead + wc.shape)
    off += wc.size
    out_bc = flat[..., off : off + bc.size]
    return out_layers, out_wc, out_bc


def _loss_and_grads(objective, x, labels, layers, wc, bc, centers):
    e, zs, hs = _forward_cached(x, layers)
    loss, d_logits, terms = _objective(objective, e, labels, _affine(e, wc, bc), centers)
    grads = [None] * len(layers)
    g = sum(terms, d_logits @ wc)
    for i in reversed(range(len(layers))):
        g = g * (zs[i] > 0.0)
        grads[i] = (g.T @ hs[i], g.sum(axis=0))
        g = g @ layers[i][0]
    return loss, grads, d_logits.T @ e, d_logits.sum(axis=0)


def _stacked_loss(objective, x, labels, layers, wc, bc, centers):
    """The objective's loss at each row of an (R, P) stack of flat parameter
    vectors, and each row's piecewise pattern: a list of (R, ...) arrays, the
    ReLU masks and then the choices `_objective_losses` reports. A row goes
    through the operations of one `_loss_and_grads` call, in the same order,
    so its loss has those bits."""

    def loss_rows(rows: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        ls, w2, b2 = _unflatten_params(rows, layers, wc, bc)
        e, zs = _forward_cached(x, ls)[:2]
        relu = [z > 0.0 for z in zs]
        del zs  # the objective sets the check's peak memory; it needs only e
        loss, pattern = _objective_losses(objective, e, labels, _affine(e, w2, b2), centers)
        return loss, relu + pattern

    return loss_rows


def _perturbed_losses(loss_rows, p: np.ndarray, coords: np.ndarray, step: float, base: list):
    """The loss at p + step * e_i and at p - step * e_i for each coordinate i
    in `coords`, GRAD_CHECK_ROWS rows per call, and whether each of those
    rows leaves the pattern `base`."""
    losses = np.empty((2, coords.size))
    off = np.zeros((2, coords.size), dtype=bool)
    for lo in range(0, coords.size, GRAD_CHECK_ROWS):
        part = slice(lo, lo + GRAD_CHECK_ROWS)
        steps = np.zeros((coords[part].size, p.size))
        steps[np.arange(steps.shape[0]), coords[part]] = step
        for side, sign in enumerate((1.0, -1.0)):
            losses[side, part], pattern = loss_rows(p + sign * steps)
            for got, want in zip(pattern, base):
                off[side, part] |= (got != want).reshape(len(steps), -1).any(axis=1)
    return losses[0], losses[1], off[0], off[1]


def _numeric_gradient(objective, x, labels, layers, wc, bc, centers):
    """Central differences of the objective at the flat parameters, as stacked
    loss evaluations, with the kinks re-differenced.

    The central differences have the bits of `numerical_gradient`. A
    coordinate whose +eps or -eps row leaves the piecewise pattern of the
    parameters themselves straddles a kink, where the central difference
    mixes two pieces. It is differenced again on one piece: one-sided, on the
    side that keeps the pattern, or, when neither does, centrally at the
    largest of eps / 10, eps / 100 and eps / 1000 whose two rows keep it (and
    left as it is when none does). Returns the gradient, the central
    differences and the mask of re-differenced coordinates.
    """
    eps = GRAD_CHECK_EPS
    p = _flatten_params(layers, wc, bc)
    loss_rows = _stacked_loss(objective, x, labels, layers, wc, bc, centers)
    base_loss, base = loss_rows(p[None])
    plus, minus, plus_off, minus_off = _perturbed_losses(loss_rows, p, np.arange(p.size), eps, base)
    central = (plus - minus) / (2.0 * eps)
    numeric = central.copy()
    redone = plus_off | minus_off
    forward = minus_off & ~plus_off
    numeric[forward] = (plus[forward] - base_loss[0]) / eps
    backward = plus_off & ~minus_off
    numeric[backward] = (base_loss[0] - minus[backward]) / eps
    both = np.flatnonzero(plus_off & minus_off)
    for step in (eps / 10, eps / 100, eps / 1000):
        if both.size == 0:
            break
        plus, minus, plus_off, minus_off = _perturbed_losses(loss_rows, p, both, step, base)
        kept = ~(plus_off | minus_off)
        numeric[both[kept]] = (plus[kept] - minus[kept]) / (2.0 * step)
        both = both[~kept]
    return numeric, central, redone


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
            numeric = _numeric_gradient(objective, x, labels, layers, wc, bc, centers)[0]
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

    trained = EncoderParams(layers=tuple(layers))
    return TrainResult(params=trained, classifier=(wc, bc), centers=centers, trace=trace)
