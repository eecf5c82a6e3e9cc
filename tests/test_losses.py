import copy
import re

import numpy as np
import pytest
from conftest import (
    CTL_LABELS,
    TRIPLET_LABELS,
    batch_hard_point_is_smooth,
    ctl_point_is_smooth,
    gradient_rel_error,
    sample_smooth_points,
)

import sharc.losses
from sharc.config import TrainConfig
from sharc.encoders import EncoderParams
from sharc.exceptions import (
    DimMismatch,
    EmptyInput,
    GradientCheckFailed,
    InvalidInput,
    TrainingDiverged,
)
from sharc.losses import (
    APP_TRIPLET_MARGIN,
    CTL_WEIGHT,
    GRAD_CHECK_EPS,
    SHAPE_TRIPLET_MARGIN,
    SHAPE_TRIPLET_WEIGHT,
    Batch,
    ToyDataset,
    _batch_hard_triplet_grad,
    _ctl_grad,
    _flatten_params,
    _loss_and_grads,
    _mean_ce_grad,
    _numeric_gradient,
    _pairwise_distances,
    _unflatten_params,
    appearance_objective,
    batch_hard_triplet,
    center_loss,
    centroid_triplet_loss,
    cross_entropy,
    make_toy_dataset,
    mean_cross_entropy,
    numerical_gradient,
    shape_objective,
    train_toy,
    triplet_loss,
)
from sharc.prng import derive_seed


class TestClosedForms:
    def test_triplet_hinge(self):
        a, p, n = np.zeros(2), np.array([0.0, 2.0]), np.array([1.0, 0.0])
        assert triplet_loss(a, p, n, margin=0.3) == 2.0 - 1.0 + 0.3
        # easy triplet clamps to zero
        assert triplet_loss(a, np.array([3.0, 4.0]), np.array([6.0, 8.0]), 0.2) == 0.0
        with pytest.raises(InvalidInput):
            triplet_loss(a, p, n, margin=-0.1)

    def test_cross_entropy_uniform(self):
        assert cross_entropy(np.zeros(2), 0) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_cross_entropy_is_shift_stable(self):
        # exp(1000) overflows a naive softmax; max-subtraction keeps this exact
        z = np.array([1000.0, 0.0])
        assert cross_entropy(z, 0) == 0.0
        assert cross_entropy(z, 1) == 1000.0

    def test_cross_entropy_label_range(self):
        with pytest.raises(IndexError):
            cross_entropy(np.zeros(3), 3)

    def test_center_loss(self):
        e = np.array([[1.0, 0.0], [0.0, 1.0]])
        c = np.zeros((2, 2))
        assert center_loss(e, c, [0, 1]) == 0.5
        assert center_loss(e, e, [0, 1]) == 0.0

    def test_batch_hard_hand_case(self):
        e = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0], [4.0, 0.0]])
        labels = np.array([0, 0, 1, 1])
        # anchors 0 and 1 have negative hinges; anchors 2 and 3 each give
        # d(pos)=5, d(neg)=3, margin 0.5 -> hinge 2.5; mean over 4 anchors
        assert batch_hard_triplet(e, labels, margin=0.5) == pytest.approx(1.25, abs=1e-15)

    def test_batch_hard_no_valid_anchor_is_zero(self):
        e = np.array([[0.0], [1.0], [2.0]])
        assert batch_hard_triplet(e, np.array([0, 1, 2]), margin=0.5) == 0.0

    def test_ctl_hand_case(self):
        # class 0 pair straddles the single class-1 point; the singleton class
        # contributes a negative centroid but is skipped as an anchor
        e = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
        batch = Batch(embeddings=e, labels=np.array([0, 0, 1]))
        assert centroid_triplet_loss(batch, margin=0.3) == pytest.approx(1.3, abs=1e-15)

    def test_ctl_needs_two_classes(self):
        batch = Batch(embeddings=np.zeros((3, 2)), labels=np.array([0, 0, 0]))
        with pytest.raises(InvalidInput):
            centroid_triplet_loss(batch)

    def test_ctl_all_singletons_is_zero(self):
        batch = Batch(embeddings=np.array([[0.0, 0.0], [5.0, 0.0]]), labels=np.array([0, 1]))
        assert centroid_triplet_loss(batch) == 0.0


class TestBatch:
    def test_dim_validation(self):
        with pytest.raises(DimMismatch):
            Batch(embeddings=np.zeros((3, 2)), labels=np.zeros(4, dtype=int))
        with pytest.raises(DimMismatch):
            Batch(embeddings=np.zeros((3, 2)), labels=np.zeros(3, dtype=int), logits=np.zeros((2, 5)))
        with pytest.raises(IndexError):
            Batch(embeddings=np.zeros((2, 2)), labels=np.array([0, 7]), logits=np.zeros((2, 3)))
        with pytest.raises(DimMismatch):
            Batch(embeddings=np.zeros((2, 2)), labels=np.array([0, 1]), centers=np.zeros((2, 5)))

    def test_empty_batches_are_refused(self):
        labels = np.zeros(0, dtype=int)
        with pytest.raises(EmptyInput):
            Batch(embeddings=np.zeros((0, 2)), labels=labels, logits=np.zeros((0, 3)))
        with pytest.raises(EmptyInput):
            center_loss(np.zeros((0, 2)), np.zeros((2, 2)), labels)
        with pytest.raises(EmptyInput):
            mean_cross_entropy(np.zeros((0, 3)), labels)
        with pytest.raises(EmptyInput):
            batch_hard_triplet(np.zeros((0, 2)), labels, margin=0.3)
        with pytest.raises(EmptyInput):
            ToyDataset(features=np.zeros((0, 3)), labels=labels, num_classes=2)

    def test_inconsistent_batches_are_refused(self):
        with pytest.raises(DimMismatch):
            mean_cross_entropy(np.zeros((4, 3)), [0, 1])
        with pytest.raises(DimMismatch):
            batch_hard_triplet(np.zeros(4), [0, 0, 1, 1], margin=0.3)
        with pytest.raises(DimMismatch):
            center_loss(np.zeros((3, 2)), np.zeros((2, 2)), [0, 1])
        with pytest.raises(DimMismatch):
            ToyDataset(features=np.zeros((3, 2)), labels=[0, 1], num_classes=2)
        # a label outside the classes stays an IndexError
        with pytest.raises(IndexError):
            mean_cross_entropy(np.zeros((2, 3)), [0, 3])
        with pytest.raises(IndexError):
            center_loss(np.zeros((2, 2)), np.zeros((2, 2)), [0, 2])


class TestObjectives:
    def _batch(self, seed=0, n_per=3, k=4, d=5):
        rng = np.random.default_rng(seed)
        labels = np.repeat(np.arange(k), n_per)
        e = rng.standard_normal((k * n_per, d))
        logits = rng.standard_normal((k * n_per, k))
        centers = rng.standard_normal((k, d))
        return Batch(embeddings=e, labels=labels, logits=logits, centers=centers)

    def test_shape_objective_composition_is_exact(self):
        for seed in range(5):
            b = self._batch(seed)
            trip = batch_hard_triplet(b.embeddings, b.labels, SHAPE_TRIPLET_MARGIN)
            ce = mean_cross_entropy(b.logits, b.labels)
            assert shape_objective(b) == SHAPE_TRIPLET_WEIGHT * trip + ce

    def test_appearance_objective_composition_is_exact(self):
        for seed in range(5):
            b = self._batch(seed)
            trip = batch_hard_triplet(b.embeddings, b.labels, APP_TRIPLET_MARGIN)
            ce = mean_cross_entropy(b.logits, b.labels)
            cen = center_loss(b.embeddings, b.centers, b.labels)
            ctl = centroid_triplet_loss(b)
            assert appearance_objective(b) == trip + ce + cen + CTL_WEIGHT * ctl

    def test_missing_operands_rejected(self):
        b = self._batch()
        bare = Batch(embeddings=b.embeddings, labels=b.labels)
        with pytest.raises(InvalidInput):
            shape_objective(bare)
        no_centers = Batch(embeddings=b.embeddings, labels=b.labels, logits=b.logits)
        with pytest.raises(InvalidInput):
            appearance_objective(no_centers)


class TestGradients:
    def test_batch_hard_gradient(self):
        rng = np.random.default_rng(21)
        labels = TRIPLET_LABELS
        points = sample_smooth_points(
            rng,
            (labels.size, 4),
            lambda e: batch_hard_point_is_smooth(e, labels, APP_TRIPLET_MARGIN),
            count=10,
        )
        for e in points:
            _, analytic = _batch_hard_triplet_grad(e, labels, APP_TRIPLET_MARGIN)
            numeric = numerical_gradient(
                lambda p: _batch_hard_triplet_grad(p, labels, APP_TRIPLET_MARGIN)[0], e
            )
            assert gradient_rel_error(analytic, numeric) < 1e-4

    def test_ctl_gradient(self):
        rng = np.random.default_rng(22)
        labels = CTL_LABELS
        points = sample_smooth_points(
            rng,
            (labels.size, 4),
            lambda e: ctl_point_is_smooth(e, labels, 0.3),
            count=10,
        )
        for e in points:
            _, analytic = _ctl_grad(e, labels, 0.3)
            numeric = numerical_gradient(lambda p: _ctl_grad(p, labels, 0.3)[0], e)
            assert gradient_rel_error(analytic, numeric) < 1e-4

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(23)
        labels = np.array([0, 2, 1, 3, 2])
        for _ in range(10):
            z = rng.standard_normal((5, 4))
            _, analytic = _mean_ce_grad(z, labels)
            numeric = numerical_gradient(lambda p: _mean_ce_grad(p, labels)[0], z)
            assert gradient_rel_error(analytic, numeric) < 1e-4

    def test_center_loss_gradient(self):
        rng = np.random.default_rng(24)
        labels = np.array([0, 1, 0, 1])
        centers = rng.standard_normal((2, 3))
        for _ in range(10):
            e = rng.standard_normal((4, 3))
            analytic = (e - centers[labels]) / e.shape[0]
            numeric = numerical_gradient(lambda p: center_loss(p, centers, labels), e)
            assert gradient_rel_error(analytic, numeric) < 1e-4

    def test_numerical_gradient_rejects_bad_eps(self):
        with pytest.raises(InvalidInput):
            numerical_gradient(lambda p: 0.0, np.zeros(2), eps=0.0)


# The per-anchor loops the whole-batch kernels replaced, kept as oracles.


def _batch_hard_loop(e, labels, margin):
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


def _ctl_loop(e, labels, margin):
    classes = np.unique(labels)
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
        if best_k is None:
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


def _seeded_batches(seed, count=300):
    """Random batches; a third on an integer grid (exact distance ties and
    duplicate points), a third with repeated rows (zero distances). Labels
    drawn from n // 2 classes leave some classes with a single member."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n, d = int(rng.integers(2, 13)), int(rng.integers(1, 5))
        labels = rng.integers(0, max(2, n // 2), n)
        if i % 3 == 0:
            e = rng.standard_normal((n, d))
        elif i % 3 == 1:
            e = rng.integers(-2, 3, (n, d)).astype(float)
        else:
            e = rng.standard_normal((n, d))
            e[rng.integers(0, n, n // 2)] = e[0]
        yield e, labels, float(rng.choice([0.0, 0.3, 2.0]))


def _non_finite_batches(seed, count=200):
    rng = np.random.default_rng(seed)
    for e, labels, margin in _seeded_batches(seed, count):
        e.flat[rng.integers(0, e.size)] = rng.choice([np.nan, np.inf, -np.inf])
        yield e, labels, margin


# two far-apart pairs: every hinge is negative
SEPARATED = (np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]]), np.array([0, 0, 1, 1]))


class TestKernelsMatchLoops:
    def _assert_batch_hard_equal(self, e, labels, margin):
        loss, grad = _batch_hard_triplet_grad(e, labels, margin)
        want_loss, want_grad = _batch_hard_loop(e, labels, margin)
        assert np.array_equal(loss, want_loss, equal_nan=True)
        assert np.array_equal(grad, want_grad, equal_nan=True)

    def _assert_ctl_close(self, e, labels, margin):
        if np.unique(labels).size < 2:
            return
        loss, grad = _ctl_grad(e, labels, margin)
        want_loss, want_grad = _ctl_loop(e, labels, margin)
        assert np.array_equal(loss, want_loss, equal_nan=True)
        # the kernel sums the gradient per class, so its last bits may move;
        # with a NaN loss the loop stops partway and its gradient means nothing
        if np.isfinite(want_loss):
            np.testing.assert_allclose(grad, want_grad, rtol=0.0, atol=1e-12)

    def test_batch_hard_equals_the_loop(self):
        for e, labels, margin in _seeded_batches(31):
            self._assert_batch_hard_equal(e, labels, margin)
        self._assert_batch_hard_equal(*SEPARATED, 0.3)
        assert _batch_hard_triplet_grad(*SEPARATED, 0.3)[0] == 0.0

    @pytest.mark.filterwarnings("ignore:invalid value", "ignore:overflow")
    def test_batch_hard_equals_the_loop_on_non_finite_embeddings(self):
        nan_losses = 0
        for e, labels, margin in _non_finite_batches(32):
            self._assert_batch_hard_equal(e, labels, margin)
            nan_losses += bool(np.isnan(_batch_hard_triplet_grad(e, labels, margin)[0]))
        assert nan_losses > 0  # a NaN hinge counts, so the loss shows the divergence

    def test_ctl_matches_the_loop(self):
        for e, labels, margin in _seeded_batches(33):
            self._assert_ctl_close(e, labels, margin)
        self._assert_ctl_close(*SEPARATED, 0.3)
        singletons = (np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 1.0]]), np.array([0, 1, 2]))
        self._assert_ctl_close(*singletons, 0.3)
        assert _ctl_grad(*singletons, 0.3)[0] == 0.0

    @pytest.mark.filterwarnings("ignore:invalid value", "ignore:overflow")
    def test_ctl_matches_the_loop_on_non_finite_embeddings(self):
        for e, labels, margin in _non_finite_batches(34):
            self._assert_ctl_close(e, labels, margin)


class TestToyDataset:
    def test_shapes_and_determinism(self):
        a = make_toy_dataset(num_ids=4, samples_per_id=3, input_dim=5, noise=0.1, seed=9)
        b = make_toy_dataset(num_ids=4, samples_per_id=3, input_dim=5, noise=0.1, seed=9)
        assert a.features.shape == (12, 5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, np.repeat(np.arange(4), 3))

    def test_zero_noise_collapses_classes(self):
        d = make_toy_dataset(num_ids=3, samples_per_id=2, input_dim=4, noise=0.0, seed=1)
        for k in range(3):
            cls = d.features[d.labels == k]
            np.testing.assert_array_equal(cls[0], cls[1])
        assert np.all(np.abs(d.features) <= 1.0)


class TestTrainer:
    def _run(self, objective, steps=25, lr=0.05):
        dataset = make_toy_dataset(num_ids=4, samples_per_id=4, input_dim=6, noise=0.1, seed=9)
        params = EncoderParams.initialize((6, 10, 8), seed=3)
        return train_toy(params, dataset, objective, steps=steps, lr=lr, seed=5)

    def test_shape_training_improves(self):
        result = self._run("shape")
        assert len(result.trace) == 26
        assert result.trace[-1] < result.trace[0]
        # shape objective never touches the centers
        np.testing.assert_array_equal(result.centers, 0.0)

    def test_appearance_training_improves_and_moves_centers(self):
        result = self._run("appearance")
        assert result.trace[-1] < result.trace[0]
        assert np.any(result.centers != 0.0)

    def test_training_is_deterministic(self):
        a = self._run("shape", steps=10)
        b = self._run("shape", steps=10)
        assert a.trace == b.trace
        for (wa, ba), (wb, bb) in zip(a.params.layers, b.params.layers):
            np.testing.assert_array_equal(wa, wb)
            np.testing.assert_array_equal(ba, bb)
        np.testing.assert_array_equal(a.classifier[0], b.classifier[0])

    def test_gradient_check_gate(self):
        dataset = make_toy_dataset(num_ids=3, samples_per_id=3, input_dim=4, noise=0.1, seed=2)
        params = EncoderParams.initialize((4, 6, 5), seed=1)
        # an impossible tolerance must trip the central-difference check
        with pytest.raises(GradientCheckFailed):
            train_toy(params, dataset, "shape", steps=1, lr=0.01, seed=5, grad_check_tol=0.0)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_is_reported(self):
        dataset = make_toy_dataset(num_ids=2, samples_per_id=3, input_dim=2, noise=0.1, seed=2)
        huge = EncoderParams(
            layers=((np.full((3, 2), 1e200), np.zeros(3)),)
        )
        with pytest.raises(TrainingDiverged):
            train_toy(huge, dataset, "shape", steps=1, lr=0.01, seed=5)

    def test_argument_validation(self):
        dataset = make_toy_dataset(num_ids=2, samples_per_id=2, input_dim=3, noise=0.1, seed=2)
        params = EncoderParams.initialize((3, 4), seed=1)
        with pytest.raises(InvalidInput):
            train_toy(params, dataset, "shape", steps=0, lr=0.1, seed=1)
        wrong = EncoderParams.initialize((5, 4), seed=1)
        with pytest.raises(DimMismatch):
            train_toy(wrong, dataset, "shape", steps=1, lr=0.1, seed=1)
        with pytest.raises(InvalidInput):
            train_toy(params, dataset, "other", steps=1, lr=0.1, seed=1)


# The step-0 gradient check of train_toy: stacked loss evaluations against the
# per-coordinate loop, which stays as the oracle.


def _default_run(objective, data_seed):
    """The dataset and encoder `sharc train-toy` builds from the default [train]."""
    t = TrainConfig()
    dataset = make_toy_dataset(t.num_ids, t.samples_per_id, t.input_dim, t.noise, data_seed)
    params = EncoderParams.initialize((t.input_dim, t.hidden_dim, t.embed_dim), derive_seed(t.seed, 1))
    return params, dataset, objective, derive_seed(t.seed, 2)


def _small_run(objective, widths, num_ids, samples_per_id, data_seed):
    dataset = make_toy_dataset(num_ids, samples_per_id, widths[0], 0.1, data_seed)
    return EncoderParams.initialize(widths, seed=1), dataset, objective, 5


def _checked_state(monkeypatch, run):
    """Run train_toy for one step and return the state its gradient check saw
    and what the check returned."""
    seen = []
    check = sharc.losses._numeric_gradient

    def recording(*state):
        # train_toy updates its list of layers in place after the check
        seen.append((copy.deepcopy(state), check(*state)))
        return seen[-1][1]

    monkeypatch.setattr(sharc.losses, "_numeric_gradient", recording)
    params, dataset, objective, seed = run
    train_toy(params, dataset, objective, steps=1, lr=0.05, seed=seed)
    assert len(seen) == 1
    return seen[0]


def _loop_oracle(objective, x, labels, layers, wc, bc, centers):
    """numerical_gradient over the loss the trainer computes at each step."""

    def loss_at(flat):
        ls, w2, b2 = _unflatten_params(flat, layers, wc, bc)
        return _loss_and_grads(objective, x, labels, ls, w2, b2, centers)[0]

    return numerical_gradient(loss_at, _flatten_params(layers, wc, bc))


RUNS = {
    # P = 944 = 14 * 64 + 48 at the default [train]
    **{
        f"{objective}-default-seed{seed}": (_default_run, (objective, seed))
        for objective in ("shape", "appearance")
        for seed in (8, 9)
    },
    # one layer, as in TestTrainer.test_argument_validation: P = 26 < 64
    **{f"{o}-1-layer": (_small_run, (o, (3, 4), 2, 2, 2)) for o in ("shape", "appearance")},
    # three layers: P = 197 = 3 * 64 + 5
    **{f"{o}-3-layers": (_small_run, (o, (6, 9, 7, 5), 4, 3, 5)) for o in ("shape", "appearance")},
}


class TestStackedGradientCheck:
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_central_differences_equal_the_loop(self, monkeypatch, name):
        make, args = RUNS[name]
        state, (numeric, central, redone) = _checked_state(monkeypatch, make(*args))
        assert np.array_equal(central, _loop_oracle(*state))
        # a coordinate whose rows keep the pattern keeps its central difference
        assert np.array_equal(numeric[~redone], central[~redone])

    def test_chunking_does_not_move_a_bit(self, monkeypatch):
        state, (numeric, central, redone) = _checked_state(monkeypatch, _default_run("shape", 8))
        for rows in (1, 59, 944, 1000):  # 59 divides P = 944
            monkeypatch.setattr(sharc.losses, "GRAD_CHECK_ROWS", rows)
            again = _numeric_gradient(*state)
            for got, want in zip(again, (numeric, central, redone)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("objective", ["shape", "appearance"])
    def test_the_kink_at_data_seed_8_is_re_differenced(self, monkeypatch, objective):
        # at +1e-5 the layer-2 bias of unit 6 switches one anchor's hardest
        # negative; that one coordinate made the whole check fail
        state, (numeric, central, redone) = _checked_state(monkeypatch, _default_run(objective, 8))
        assert np.flatnonzero(redone).tolist() == [798]
        analytic = _flatten_params(*_loss_and_grads(*state)[1:])
        assert gradient_rel_error(analytic, central) > 1e-3
        assert gradient_rel_error(analytic, numeric) < 1e-5

    def test_kinks_on_both_sides_take_a_smaller_central_step(self, monkeypatch):
        state, _ = _checked_state(monkeypatch, _default_run("shape", 9))
        objective, x, labels, layers, wc, bc, centers = state
        # unit 5 of layer 0: sample 0 sits 3e-6 above its ReLU kink and sample
        # 1 sits 3e-6 below, so +1e-5 and -1e-5 on the unit's bias each
        # switch one mask, and 1e-6 switches neither
        w, b = layers[0][0].copy(), layers[0][1].copy()
        unit, gap = 5, x[0] - x[1]
        w[unit] -= (w[unit] @ gap - 6e-6) / (gap @ gap) * gap
        b[unit] = 3e-6 - w[unit] @ x[0]
        layers = [(w, b)] + layers[1:]
        state = (objective, x, labels, layers, wc, bc, centers)
        numeric, central, redone = _numeric_gradient(*state)
        bias = w.size + unit
        assert redone[bias]

        def loss_at(flat):
            ls, w2, b2 = _unflatten_params(flat, layers, wc, bc)
            return _loss_and_grads(objective, x, labels, ls, w2, b2, centers)[0]

        p, step, h = _flatten_params(layers, wc, bc), np.zeros(numeric.size), GRAD_CHECK_EPS / 10
        step[bias] = h
        assert numeric[bias] == (loss_at(p + step) - loss_at(p - step)) / (2.0 * h)
        analytic = _flatten_params(*_loss_and_grads(*state)[1:])
        assert gradient_rel_error(analytic, central) > 1e-3
        assert gradient_rel_error(analytic, numeric) < 1e-5

    @pytest.mark.parametrize("objective", ["shape", "appearance"])
    def test_nothing_is_re_differenced_at_the_default_seed(self, monkeypatch, objective):
        _, (numeric, central, redone) = _checked_state(monkeypatch, _default_run(objective, 9))
        assert not redone.any()
        assert np.array_equal(numeric, central)

    @pytest.mark.parametrize("objective", ["shape", "appearance"])
    @pytest.mark.parametrize("data_seed", [8, 9])
    @pytest.mark.parametrize("layer, factor", [(0, -1.0), (1, 1.01)])
    def test_a_wrong_gradient_still_fails(self, monkeypatch, objective, data_seed, layer, factor):
        right = sharc.losses._loss_and_grads

        def wrong(*args):
            loss, grads, d_wc, d_bc = right(*args)
            grads = list(grads)
            grads[layer] = (factor * grads[layer][0], grads[layer][1])
            return loss, grads, d_wc, d_bc

        monkeypatch.setattr(sharc.losses, "_loss_and_grads", wrong)
        params, dataset, objective, seed = _default_run(objective, data_seed)
        message = r"analytic vs numerical gradient relative error \d\.\d{3}e[-+]\d{2} > 1\.0e-03"
        with pytest.raises(GradientCheckFailed, match=re.compile(f"^{message}$")):
            train_toy(params, dataset, objective, steps=1, lr=0.05, seed=seed)
