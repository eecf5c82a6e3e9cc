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

from sharc.encoders import EncoderParams
from sharc.exceptions import (
    DimMismatch,
    GradientCheckFailed,
    InvalidInput,
    TrainingDiverged,
)
from sharc.losses import (
    APP_TRIPLET_MARGIN,
    CTL_WEIGHT,
    SHAPE_TRIPLET_MARGIN,
    SHAPE_TRIPLET_WEIGHT,
    Batch,
    _batch_hard_triplet_grad,
    _ctl_grad,
    _mean_ce_grad,
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
            layers=((np.full((3, 2), 1e200), np.zeros(3)),), seed=0
        )
        with pytest.raises(TrainingDiverged):
            train_toy(huge, dataset, "shape", steps=1, lr=0.01, seed=5, check_gradients=False)

    def test_argument_validation(self):
        dataset = make_toy_dataset(num_ids=2, samples_per_id=2, input_dim=3, noise=0.1, seed=2)
        params = EncoderParams.initialize((3, 4), seed=1)
        with pytest.raises(InvalidInput):
            train_toy(params, dataset, "shape", steps=0, lr=0.1, seed=1)
        wrong = EncoderParams.initialize((5, 4), seed=1)
        with pytest.raises(DimMismatch):
            train_toy(wrong, dataset, "shape", steps=1, lr=0.1, seed=1)
        with pytest.raises(InvalidInput):
            train_toy(params, dataset, "other", steps=1, lr=0.1, seed=1, check_gradients=False)
