"""Tests for model serving, the agnostic/specific modules and the ALT orchestrator."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ModelNotDeployedError
from repro.meta.distillation import DistillationConfig
from repro.meta.finetune import FineTuneConfig
from repro.models.config import ModelConfig
from repro.models.factory import build_model
from repro.nas.search import NASConfig
from repro.system.agnostic_module import AgnosticInitConfig, ScenarioAgnosticModule
from repro.system.orchestrator import ALTSystem, ALTSystemConfig
from repro.system.scenario import ScenarioStatus
from repro.system.serving import ModelServer
from repro.system.specific_module import ScenarioSpecificModule, SpecificBuildConfig
from repro.training.trainer import TrainingConfig, train_supervised
from repro.utils.serialization import load_state

FAST_NAS = NASConfig(num_layers=2, epochs=1, batch_size=32, max_batches_per_epoch=2,
                     candidates=("std_conv_1", "std_conv_3", "avg_pool_3", "self_att"))
FAST_DISTILL = DistillationConfig(epochs=1, batch_size=32)
FAST_FINETUNE = FineTuneConfig(inner_lr=0.01, epochs=1, batch_size=32)


@pytest.fixture
def model_config(tiny_model_config) -> ModelConfig:
    return tiny_model_config


class TestModelServer:
    def test_deploy_predict_and_latency(self, model_config, tiny_collection):
        server = ModelServer()
        model = build_model(model_config, seed=0)
        deployment = server.deploy(1, model, flops=123.0, metadata={"note": "test"})
        assert deployment.version == 1
        assert server.is_deployed(1)
        batch = tiny_collection.get(1).test.as_batch()
        scores = server.predict(1, batch)
        assert scores.shape == (len(batch),)
        assert server.mean_latency_ms(1) > 0
        assert 1 in server.latency_report()

    def test_latency_is_reported_only_for_served_scenarios(self, model_config, tiny_collection):
        server = ModelServer()
        server.deploy(1, build_model(model_config, seed=0))
        server.deploy(2, build_model(model_config, seed=1))
        batch = tiny_collection.get(1).test.batch([0])
        for _ in range(3):
            server.predict(2, batch)
        assert server.mean_latency_ms(1) == 0.0
        assert server.mean_latency_ms(2) > 0
        assert server.latency_report() == {2: server.mean_latency_ms(2)}

    def test_concurrent_predictions_are_all_counted(self, model_config, tiny_collection):
        server = ModelServer()
        server.deploy(1, build_model(model_config, seed=0))
        batch = tiny_collection.get(1).test.batch([0])
        threads = [threading.Thread(target=lambda: [server.predict(1, batch) for _ in range(200)])
                   for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert server._latency[1][0] == 800  # a lost update would undercount

    def test_versions_increment(self, model_config):
        server = ModelServer()
        server.deploy(3, build_model(model_config, seed=0))
        second = server.deploy(3, build_model(model_config, seed=1))
        assert second.version == 2
        assert len(server.history()) == 2
        assert len(server.deployments()) == 1

    def test_undeployed_scenario_raises(self, model_config, tiny_collection):
        server = ModelServer()
        with pytest.raises(ModelNotDeployedError):
            server.predict(9, tiny_collection.get(1).test.as_batch())

    def test_persistence_to_disk(self, model_config, tmp_path):
        server = ModelServer(storage_dir=str(tmp_path))
        model = build_model(model_config, seed=0)
        server.deploy(7, model, flops=10.0)
        stored = load_state(tmp_path / "scenario_7_v1")
        assert set(stored) == set(model.state_dict())


class TestAgnosticModule:
    def test_predesigned_initialisation(self, model_config, tiny_collection):
        module = ScenarioAgnosticModule(
            model_config,
            AgnosticInitConfig(strategy="predesigned", final_epochs=1, batch_size=32),
            fine_tune_config=FAST_FINETUNE,
            rng=np.random.default_rng(0),
        )
        pooled = tiny_collection.pooled_train([1, 2])
        model = module.initialize(pooled)
        assert module.report is not None
        assert module.report.chosen == "predesigned"
        assert module.require_meta_learner().agnostic_model is model

    def test_hpo_initialisation_records_params(self, model_config, tiny_collection):
        module = ScenarioAgnosticModule(
            model_config,
            AgnosticInitConfig(strategy="hpo", hpo_trials=2, candidate_epochs=1,
                               final_epochs=1, batch_size=32),
            rng=np.random.default_rng(0),
        )
        module.initialize(tiny_collection.pooled_train([1, 2]))
        assert module.report.best_hpo_params is not None
        assert "hpo" in module.report.candidate_auc

    def test_meta_learner_requires_initialisation(self, model_config):
        module = ScenarioAgnosticModule(model_config)
        with pytest.raises(ConfigurationError):
            module.require_meta_learner()

    def test_invalid_strategy(self):
        with pytest.raises(ConfigurationError):
            AgnosticInitConfig(strategy="magic")


class TestSpecificModule:
    def test_build_produces_light_model_under_budget(self, model_config, tiny_collection):
        agnostic = build_model(model_config, seed=0)
        train_supervised(agnostic, tiny_collection.pooled_train([1, 2]),
                         TrainingConfig(epochs=1, batch_size=32), rng=np.random.default_rng(0))
        from repro.meta.agnostic import MetaLearner
        learner = MetaLearner(agnostic, fine_tune_config=FAST_FINETUNE)
        module = ScenarioSpecificModule(
            learner, model_config,
            SpecificBuildConfig(nas=FAST_NAS, distillation=FAST_DISTILL),
            rng=np.random.default_rng(0),
        )
        scenario = tiny_collection.get(3)
        artifacts = module.build(3, scenario.train, scenario.test)
        assert artifacts.light_flops < artifacts.heavy_flops
        assert artifacts.genotype.num_layers == FAST_NAS.num_layers
        assert artifacts.light_auc is not None and 0.0 <= artifacts.light_auc <= 1.0
        assert artifacts.pipeline_seconds > 0
        assert "budget_nas" in artifacts.stage_seconds

    def test_build_many_shares_one_feedback_update(self, model_config, tiny_collection):
        agnostic = build_model(model_config, seed=0)
        from repro.meta.agnostic import MetaLearner
        learner = MetaLearner(agnostic, fine_tune_config=FAST_FINETUNE)
        module = ScenarioSpecificModule(
            learner, model_config,
            SpecificBuildConfig(nas=FAST_NAS, distillation=FAST_DISTILL),
            rng=np.random.default_rng(0),
        )
        payload = [(1, tiny_collection.get(1).train, None), (2, tiny_collection.get(2).train, None)]
        results = module.build_many(payload)
        assert len(results) == 2
        assert learner.num_feedback_updates == 1
        assert learner.num_adaptations == 2


class TestALTSystem:
    def test_end_to_end_pipeline(self, model_config, tiny_collection, tmp_path):
        config = ALTSystemConfig(
            model=model_config,
            init=AgnosticInitConfig(strategy="predesigned", final_epochs=1, batch_size=32),
            fine_tune=FAST_FINETUNE,
            specific=SpecificBuildConfig(nas=FAST_NAS, distillation=FAST_DISTILL),
            storage_dir=str(tmp_path),
        )
        system = ALTSystem(config, rng=np.random.default_rng(0))
        initial = system.initialize(tiny_collection, initial_ids=[1, 2])
        assert initial == [1, 2]
        new_scenario = tiny_collection.get(4)
        artifacts = system.add_scenario(new_scenario)
        assert system.server.is_deployed(4)
        scores = system.predict(4, new_scenario.test.as_batch())
        assert scores.shape == (len(new_scenario.test),)
        summary = system.summary()
        assert summary["num_serving"] == 1
        assert summary["mean_pipeline_seconds"] > 0
        assert artifacts.light_flops <= artifacts.flops_budget + artifacts.heavy_flops

    @staticmethod
    def _initialised(model_config, collection) -> ALTSystem:
        config = ALTSystemConfig(
            model=model_config,
            init=AgnosticInitConfig(strategy="predesigned", final_epochs=1, batch_size=32),
            fine_tune=FAST_FINETUNE,
            specific=SpecificBuildConfig(nas=FAST_NAS, distillation=FAST_DISTILL),
        )
        system = ALTSystem(config, rng=np.random.default_rng(0))
        system.initialize(collection, initial_ids=[1, 2])
        return system

    def test_batch_of_arrivals_records_what_single_arrivals_record(self, model_config,
                                                                   tiny_collection):
        single = self._initialised(model_config, tiny_collection)
        for sid in (3, 4):
            single.add_scenario(tiny_collection.get(sid))
        batched = self._initialised(model_config, tiny_collection)
        learner = batched.agnostic.require_meta_learner()
        updates = learner.num_feedback_updates
        results = batched.add_scenarios([tiny_collection.get(3), tiny_collection.get(4)])
        assert learner.num_feedback_updates == updates + 1
        assert [a.scenario_id for a in results] == [3, 4]
        for sid in (3, 4):
            want, got = single.registry.get(sid), batched.registry.get(sid)
            assert got.status is want.status is ScenarioStatus.SERVING
            assert got.is_initial is want.is_initial is False
            assert sorted(got.metrics) == sorted(want.metrics) == ["heavy_auc", "light_auc",
                                                                   "light_flops"]
            assert [e.split(" in ")[0] for e in got.events] == \
                [e.split(" in ")[0] for e in want.events] == \
                ["pipeline started", "light model deployed", "pipeline finished"]
            assert batched.server.deployment(sid).metadata == {
                "genotype": batched.artifacts[sid].genotype.to_dict()}
            assert set(single.server.deployment(sid).metadata) == {"genotype"}

    def test_failed_batch_marks_every_scenario_failed(self, model_config, tiny_collection,
                                                      monkeypatch):
        system = self._initialised(model_config, tiny_collection)

        def broken(payload):
            raise RuntimeError("pipeline broke")

        monkeypatch.setattr(system.specific, "build_many", broken)
        with pytest.raises(RuntimeError, match="pipeline broke"):
            system.add_scenarios([tiny_collection.get(3), tiny_collection.get(4)])
        for sid in (3, 4):
            assert system.registry.get(sid).status is ScenarioStatus.FAILED
            assert not system.server.is_deployed(sid)

    def test_add_scenario_before_initialize_raises(self, model_config, tiny_collection):
        system = ALTSystem(ALTSystemConfig(model=model_config))
        with pytest.raises(ConfigurationError):
            system.add_scenario(tiny_collection.get(1))
