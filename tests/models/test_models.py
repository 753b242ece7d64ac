"""Tests for the Fig. 2 model family: encoders, ALTModel, basic model, NAS model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.models.behavior_encoders import BertBehaviorEncoder, LSTMBehaviorEncoder
from repro.models.config import ModelConfig, heavy_config, light_config
from repro.models.factory import build_basic_model, build_model, build_nas_model
from repro.models.profile_encoder import ProfileEncoder
from repro.nas.genotype import chain_genotype
from repro.nn.data import Batch
from repro.nn.module import Module
from repro.nn.tensor import Tensor


@pytest.fixture
def batch(rng):
    n, profile_dim, seq_len, vocab = 10, 6, 8, 12
    mask = np.ones((n, seq_len))
    mask[:, 5:] = 0
    return Batch(
        profiles=rng.normal(size=(n, profile_dim)),
        sequences=rng.integers(0, vocab, size=(n, seq_len)),
        mask=mask,
        labels=rng.integers(0, 2, size=n).astype(float),
    )


@pytest.fixture
def config():
    return ModelConfig(profile_dim=6, vocab_size=12, max_seq_len=8, embed_dim=8,
                       profile_hidden=(8,), head_hidden=(8,), num_encoder_layers=2)


class TestProfileEncoder:
    def test_output_dim(self, rng):
        encoder = ProfileEncoder(6, hidden_dims=(16, 4), rng=rng)
        out = encoder(Tensor(rng.normal(size=(5, 6))))
        assert out.shape == (5, 4)
        assert encoder.output_dim == 4

    def test_wrong_dim_raises(self, rng):
        encoder = ProfileEncoder(6, rng=rng)
        with pytest.raises(ValueError):
            encoder(Tensor(rng.normal(size=(5, 7))))

    def test_requires_hidden_dims(self):
        with pytest.raises(ValueError):
            ProfileEncoder(6, hidden_dims=())


class TestBehaviorEncoders:
    def test_lstm_encoder_shape(self, rng, batch):
        encoder = LSTMBehaviorEncoder(vocab_size=12, embed_dim=8, num_layers=2, rng=rng)
        assert encoder(batch.sequences, mask=batch.mask).shape == (10, 8)

    def test_bert_encoder_shape(self, rng, batch):
        encoder = BertBehaviorEncoder(vocab_size=12, embed_dim=8, num_layers=2,
                                      max_seq_len=8, rng=rng)
        assert encoder(batch.sequences, mask=batch.mask).shape == (10, 8)

    def test_flops_positive_and_depth_monotone(self, rng):
        shallow = LSTMBehaviorEncoder(12, 8, num_layers=1, rng=rng).flops(8)
        deep = LSTMBehaviorEncoder(12, 8, num_layers=4, rng=rng).flops(8)
        assert deep > shallow > 0


class TestALTModel:
    def test_forward_and_predict(self, config, batch):
        model = build_model(config, seed=0)
        logits = model(batch)
        assert logits.shape == (10,)
        probs = model.predict_proba(batch)
        assert probs.shape == (10,)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_predict_restores_training_mode(self, config, batch):
        model = build_model(config, seed=0)
        model.train()
        model.predict_proba(batch)
        assert model.training

    def test_bert_variant(self, config, batch):
        model = build_model(config.with_overrides(encoder_type="bert"), seed=0)
        assert model(batch).shape == (10,)

    def test_flops_heavy_vs_light(self):
        heavy = build_model(heavy_config(6, 12, 8, embed_dim=8), seed=0)
        light = build_model(light_config(6, 12, 8, embed_dim=8), seed=0)
        assert heavy.flops(8) > light.flops(8) > 0

    def test_build_model_rejects_nas_and_none(self, config):
        with pytest.raises(ConfigurationError):
            build_model(config.with_overrides(encoder_type="none"))
        with pytest.raises(ConfigurationError):
            build_model(config.with_overrides(encoder_type="nas"))


class TestBasicModel:
    def test_forward_shape_and_flops(self, config, batch):
        model = build_basic_model(config, seed=0)
        assert model(batch).shape == (10,)
        assert model.predict_proba(batch).shape == (10,)
        assert model.flops() > 0

    def test_basic_is_cheaper_than_sequence_model(self, config):
        basic = build_basic_model(config, seed=0)
        full = build_model(config, seed=0)
        assert basic.flops() < full.flops(8)


class TestNASModel:
    def test_build_from_genotype(self, config, batch):
        genotype = chain_genotype(["std_conv_3", "self_att"])
        model = build_nas_model(config.with_overrides(encoder_type="nas"), genotype, seed=0)
        assert model(batch).shape == (10,)
        assert model.flops(8) > 0

    def test_residual_connections_execute(self, config, batch):
        from repro.nas.genotype import Genotype, LayerGene
        genotype = Genotype(layers=(
            LayerGene(0, "std_conv_3"),
            LayerGene(1, "max_pool_3", residual_indices=(0,)),
        ))
        model = build_nas_model(config.with_overrides(encoder_type="nas"), genotype, seed=0)
        probs = model.predict_proba(batch)
        assert np.all(np.isfinite(probs))

    def test_deterministic_given_seed(self, config, batch):
        genotype = chain_genotype(["std_conv_3", "lstm"])
        a = build_nas_model(config.with_overrides(encoder_type="nas"), genotype, seed=3)
        b = build_nas_model(config.with_overrides(encoder_type="nas"), genotype, seed=3)
        np.testing.assert_allclose(a.predict_logits(batch), b.predict_logits(batch))


def _walking_logits(model, batch):
    """The predict path that walked the tree on every call: eval, forward,
    then ``train(was_training)``."""
    was_training = model.training
    model.eval()
    try:
        logits = model.forward(batch)
    finally:
        model.train(was_training)
    return logits.numpy().copy()


class TestPredictMode:
    """Serving skips the module walk for a model already in eval mode."""

    @pytest.fixture(params=["nas", "basic"])
    def model(self, request, config):
        # Dropout > 0: a predict that left a layer training would differ.
        config = config.with_overrides(dropout=0.3)
        if request.param == "basic":
            return build_basic_model(config, seed=0)
        return build_nas_model(config.with_overrides(encoder_type="nas"),
                               chain_genotype(["std_conv_3", "max_pool_3"]),
                               seed=0)

    def test_eval_model_predicts_without_walking(self, model, batch,
                                                 monkeypatch):
        model.eval()
        calls = []
        train = Module.train

        def counting(self, mode=True):
            calls.append(self)
            return train(self, mode)

        monkeypatch.setattr(Module, "train", counting)
        model.predict_proba(batch)
        assert calls == []

    def test_training_model_comes_back_training(self, model, batch):
        model.train()
        model.predict_logits(batch)
        assert all(module.training for _, module in model.named_modules())

    @pytest.mark.parametrize("training", [False, True])
    def test_logits_equal_the_walking_path(self, model, batch, training):
        model.train(training)
        expected = _walking_logits(model, batch)
        assert np.array_equal(model.predict_logits(batch), expected)
        assert np.array_equal(model.predict_proba(batch),
                              1.0 / (1.0 + np.exp(-expected)))
        assert model.training is training
