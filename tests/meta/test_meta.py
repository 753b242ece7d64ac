"""Tests for the meta-learning loop (Eq. 1-3), distillation (Eq. 5) and the trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.meta.agnostic import (
    MetaLearner,
    MetaUpdateConfig,
    outer_update_fomaml,
    outer_update_reptile,
    query_gradients,
)
from repro.meta.distillation import DistillationConfig, distill
from repro.meta.finetune import FineTuneConfig, fine_tune
from repro.models.config import ModelConfig
from repro.models.factory import build_model
from repro.nn.data import ArrayDataset, DataLoader
from repro.nn.losses import binary_cross_entropy_with_logits, distillation_loss
from repro.nn.module import clone_module
from repro.nn.optim import Adam, clip_grad_norm
from repro.training.trainer import TrainingConfig, evaluate_auc, train_supervised
from repro.utils.rng import new_rng


@pytest.fixture
def config():
    return ModelConfig(profile_dim=6, vocab_size=12, max_seq_len=8, embed_dim=8,
                       profile_hidden=(8,), head_hidden=(8,), num_encoder_layers=1,
                       learning_rate=0.01)


@pytest.fixture
def scenario_dataset(tiny_collection):
    return tiny_collection.get(1).train


class TestTrainer:
    def test_training_reduces_loss(self, config, scenario_dataset):
        model = build_model(config, seed=0)
        history = train_supervised(model, scenario_dataset,
                                   TrainingConfig(epochs=3, learning_rate=0.02, batch_size=32),
                                   rng=np.random.default_rng(0))
        assert len(history.epoch_losses) == 3
        assert history.epoch_losses[-1] < history.epoch_losses[0]

    def test_validation_auc_recorded(self, config, tiny_collection):
        scenario = tiny_collection.get(1)
        model = build_model(config, seed=0)
        history = train_supervised(model, scenario.train,
                                   TrainingConfig(epochs=2, batch_size=32),
                                   validation=scenario.test, rng=np.random.default_rng(0))
        assert len(history.validation_auc) == 2
        assert all(0.0 <= auc <= 1.0 for auc in history.validation_auc)

    def test_empty_dataset_raises(self, config):
        model = build_model(config, seed=0)
        empty = ArrayDataset(np.zeros((0, 6)), np.zeros((0, 8), dtype=np.int64))
        with pytest.raises(ValueError):
            train_supervised(model, empty, TrainingConfig(epochs=1))
        with pytest.raises(ValueError):
            evaluate_auc(model, empty)

    def test_max_batches_cap(self, config, scenario_dataset):
        model = build_model(config, seed=0)
        history = train_supervised(model, scenario_dataset,
                                   TrainingConfig(epochs=1, batch_size=8, max_batches_per_epoch=2),
                                   rng=np.random.default_rng(0))
        assert np.isfinite(history.final_loss)


class TestFineTune:
    def test_original_model_untouched(self, config, scenario_dataset):
        model = build_model(config, seed=0)
        before = {name: p.data.copy() for name, p in model.named_parameters()}
        adapted = fine_tune(model, scenario_dataset, FineTuneConfig(inner_lr=0.01, epochs=1))
        for name, param in model.named_parameters():
            np.testing.assert_allclose(param.data, before[name])
        assert adapted is not model

    def test_adapted_model_moves_parameters(self, config, scenario_dataset):
        model = build_model(config, seed=0)
        adapted = fine_tune(model, scenario_dataset, FineTuneConfig(inner_lr=0.01, epochs=1))
        moved = any(
            not np.allclose(dict(adapted.named_parameters())[name].data, param.data)
            for name, param in model.named_parameters()
        )
        assert moved

    def test_fine_tune_improves_support_loss(self, config, scenario_dataset):
        model = build_model(config, seed=0)
        batch = scenario_dataset.as_batch()
        before = binary_cross_entropy_with_logits(model(batch), batch.labels).item()
        adapted = fine_tune(model, scenario_dataset,
                            FineTuneConfig(inner_lr=0.02, epochs=3, optimizer="adam"))
        after = binary_cross_entropy_with_logits(adapted(batch), batch.labels).item()
        assert after < before

    def test_sgd_optimizer_option(self, config, scenario_dataset):
        model = build_model(config, seed=0)
        adapted = fine_tune(model, scenario_dataset,
                            FineTuneConfig(inner_lr=0.05, epochs=1, optimizer="sgd"))
        assert adapted is not model

    def test_invalid_configs(self):
        with pytest.raises(ConfigurationError):
            FineTuneConfig(optimizer="rmsprop")
        with pytest.raises(ConfigurationError):
            FineTuneConfig(inner_lr=0.0)
        with pytest.raises(ConfigurationError):
            FineTuneConfig(epochs=0)

    def test_empty_support_raises(self, config):
        model = build_model(config, seed=0)
        empty = ArrayDataset(np.zeros((0, 6)), np.zeros((0, 8), dtype=np.int64))
        with pytest.raises(ValueError):
            fine_tune(model, empty, FineTuneConfig())


class TestOuterUpdates:
    def test_query_gradients_cover_all_parameters(self, config, scenario_dataset):
        model = build_model(config, seed=0)
        gradients = query_gradients(model, scenario_dataset)
        names = {name for name, _ in model.named_parameters()}
        assert set(gradients) == names

    def test_fomaml_moves_agnostic_parameters(self, config, scenario_dataset):
        model = build_model(config, seed=0)
        adapted = clone_module(model)
        gradients = query_gradients(adapted, scenario_dataset)
        before = {name: p.data.copy() for name, p in model.named_parameters()}
        outer_update_fomaml(model, [gradients], outer_lr=0.1)
        changed = any(not np.allclose(before[name], p.data) for name, p in model.named_parameters())
        assert changed

    def test_reptile_moves_toward_adapted(self, config, scenario_dataset):
        model = build_model(config, seed=0)
        adapted = fine_tune(model, scenario_dataset, FineTuneConfig(inner_lr=0.05, epochs=1))
        name, param = next(iter(model.named_parameters()))
        target = dict(adapted.named_parameters())[name].data
        before_distance = np.abs(param.data - target).sum()
        outer_update_reptile(model, [adapted], outer_lr=0.5)
        after_distance = np.abs(param.data - target).sum()
        assert after_distance <= before_distance + 1e-12

    def test_empty_updates_are_noops(self, config):
        model = build_model(config, seed=0)
        before = {name: p.data.copy() for name, p in model.named_parameters()}
        outer_update_fomaml(model, [], outer_lr=0.1)
        outer_update_reptile(model, [], outer_lr=0.1)
        for name, param in model.named_parameters():
            np.testing.assert_allclose(param.data, before[name])

    def test_invalid_meta_config(self):
        with pytest.raises(ConfigurationError):
            MetaUpdateConfig(method="maml2")
        with pytest.raises(ConfigurationError):
            MetaUpdateConfig(outer_lr=0.0)
        with pytest.raises(ConfigurationError):
            MetaUpdateConfig(support_fraction=1.0)


class TestMetaLearner:
    def test_adapt_and_feedback_cycle(self, config, scenario_dataset):
        model = build_model(config, seed=0)
        learner = MetaLearner(model, fine_tune_config=FineTuneConfig(epochs=1),
                              meta_config=MetaUpdateConfig(outer_lr=0.05))
        adapted, query = learner.adapt(scenario_dataset)
        assert len(query) >= 1
        learner.feedback([(adapted, query)])
        assert learner.num_adaptations == 1
        assert learner.num_feedback_updates == 1

    def test_reptile_method(self, config, scenario_dataset):
        model = build_model(config, seed=0)
        learner = MetaLearner(model, fine_tune_config=FineTuneConfig(epochs=1),
                              meta_config=MetaUpdateConfig(outer_lr=0.2, method="reptile"))
        adapted, query = learner.adapt(scenario_dataset)
        learner.feedback([(adapted, query)])
        assert learner.num_feedback_updates == 1


class TestDistillation:
    def test_distilled_student_tracks_teacher(self, config, tiny_collection):
        scenario = tiny_collection.get(1)
        teacher = build_model(config, seed=0)
        train_supervised(teacher, scenario.train, TrainingConfig(epochs=3, batch_size=32),
                         rng=np.random.default_rng(0))
        student = build_model(config.with_overrides(num_encoder_layers=1), seed=1)
        distill(teacher, student, scenario.train,
                DistillationConfig(epochs=8, learning_rate=0.02, batch_size=32),
                rng=np.random.default_rng(1))
        batch = scenario.train.as_batch()
        teacher_scores = teacher.predict_proba(batch)
        student_scores = student.predict_proba(batch)
        correlation = np.corrcoef(teacher_scores, student_scores)[0, 1]
        assert correlation > 0.2

    def test_distillation_history_length(self, config, tiny_collection):
        scenario = tiny_collection.get(2)
        teacher = build_model(config, seed=0)
        student = build_model(config, seed=1)
        history = distill(teacher, student, scenario.train, DistillationConfig(epochs=2))
        assert len(history.epoch_losses) == 2

    def test_teacher_queried_once_per_row(self, config, tiny_world):
        rng = np.random.default_rng(4)
        n = 1100  # more rows than one inference chunk
        cfg = tiny_world.config
        dataset = ArrayDataset(rng.normal(size=(n, cfg.profile_dim)),
                               rng.integers(0, cfg.vocab_size, size=(n, cfg.seq_len)),
                               labels=rng.integers(0, 2, size=n).astype(float))
        teacher = RowCountingTeacher(build_model(config, seed=0))
        distill(teacher, build_model(config, seed=1), dataset,
                DistillationConfig(epochs=2, batch_size=256), rng=np.random.default_rng(1))
        assert teacher.rows == [1024, n - 1024]

    @pytest.mark.parametrize("batch_size", [16, 25])
    def test_student_bitwise_equal_to_per_batch_loop(self, config, tiny_collection, batch_size):
        teacher = RowWiseTeacher(config.profile_dim)
        for (name, param), (_, ref) in distill_both_ways(
                teacher, config, tiny_collection.get(1).train, batch_size):
            assert np.array_equal(param.data, ref.data), name

    def test_model_teacher_matches_per_batch_loop(self, config, tiny_collection):
        # A model teacher's logit for a row can move in the last bit with the
        # rows batched beside it (BLAS picks kernels by matrix shape), so
        # once-per-run soft labels match the per-batch ones to rounding only,
        # and Adam's normalised step can lift that to ~1e-12 in a parameter.
        teacher = build_model(config, seed=0)
        for (name, param), (_, ref) in distill_both_ways(
                teacher, config, tiny_collection.get(1).train, 25):
            np.testing.assert_allclose(param.data, ref.data, rtol=0, atol=1e-9, err_msg=name)


class RowCountingTeacher:
    """Wraps a teacher model and records the rows of every ``predict_logits`` call."""

    def __init__(self, model):
        self.model = model
        self.rows = []

    def predict_logits(self, batch):
        self.rows.append(len(batch))
        return self.model.predict_logits(batch)


class RowWiseTeacher:
    """A frozen teacher whose logit for a row depends on that row's values alone."""

    def __init__(self, profile_dim):
        self.weights = np.random.default_rng(9).normal(size=profile_dim)

    def predict_logits(self, batch):
        return np.tanh(batch.profiles * self.weights).sum(axis=1)


def distill_both_ways(teacher, config, dataset, batch_size):
    """Distil twin students with ``distill`` and with the per-batch reference loop.

    Returns their ``named_parameters`` pairs, in order.
    """
    distilled, reference = build_model(config, seed=1), build_model(config, seed=1)
    settings = DistillationConfig(epochs=3, learning_rate=0.02, batch_size=batch_size)
    distill(teacher, distilled, dataset, settings, rng=np.random.default_rng(2))
    per_batch_distill(teacher, reference, dataset, settings, rng=np.random.default_rng(2))
    return list(zip(distilled.named_parameters(), reference.named_parameters()))


def per_batch_distill(teacher, student, dataset, settings, rng):
    """Reference: the previous loop, which queried the teacher on every batch of every epoch."""
    config = TrainingConfig(epochs=settings.epochs, learning_rate=settings.learning_rate,
                            batch_size=settings.batch_size, distill_delta=settings.delta)
    optimizer = Adam(student.parameters(), lr=config.learning_rate)
    loader = DataLoader(dataset, batch_size=config.batch_size, shuffle=True, rng=new_rng(rng))
    student.train()
    for _ in range(config.epochs):
        for batch in loader:
            optimizer.zero_grad()
            loss = distillation_loss(student(batch), batch.labels, teacher.predict_logits(batch),
                                     delta=config.distill_delta)
            loss.backward()
            clip_grad_norm(student.parameters(), config.grad_clip)
            optimizer.step()
    student.eval()
