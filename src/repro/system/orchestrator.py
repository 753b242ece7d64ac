"""The ALT system orchestrator (Fig. 7).

Ties together the registry, the scenario agnostic module, the scenario
specific module and the model server: initialise once from the pooled initial
scenarios, then call :meth:`ALTSystem.add_scenario` whenever a new scenario
arrives — the whole heavy → light → deploy pipeline runs automatically, which
is exactly the "automatic system" promise of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.synthetic import ScenarioCollection, ScenarioData
from repro.exceptions import ConfigurationError
from repro.meta.agnostic import MetaUpdateConfig
from repro.meta.finetune import FineTuneConfig
from repro.models.config import ModelConfig
from repro.nn.data import ArrayDataset, Batch
from repro.system.agnostic_module import AgnosticInitConfig, ScenarioAgnosticModule
from repro.system.scenario import ScenarioRegistry, ScenarioStatus
from repro.system.serving import ModelServer
from repro.system.specific_module import ScenarioArtifacts, ScenarioSpecificModule, SpecificBuildConfig
from repro.utils.rng import child_rng, new_rng

__all__ = ["ALTSystemConfig", "ALTSystem"]


@dataclass(frozen=True)
class ALTSystemConfig:
    """Top-level configuration of one ALT deployment.

    Attributes:
        model: base model configuration (heavy architecture dimensions).
        init: agnostic model initialisation settings (Fig. 4).
        fine_tune: inner-loop settings (Eq. 1).
        meta: outer-loop settings (Eq. 2/3).
        specific: per-scenario light-model pipeline settings (Eq. 4/5).
        storage_dir: optional directory where deployed models are persisted.
    """

    model: ModelConfig
    init: AgnosticInitConfig = field(default_factory=AgnosticInitConfig)
    fine_tune: FineTuneConfig = field(default_factory=FineTuneConfig)
    meta: MetaUpdateConfig = field(default_factory=MetaUpdateConfig)
    specific: SpecificBuildConfig = field(default_factory=SpecificBuildConfig)
    storage_dir: Optional[str] = None


class ALTSystem:
    """End-to-end automatic long-tail scenario modelling system."""

    def __init__(self, config: ALTSystemConfig, rng: Optional[np.random.Generator] = None) -> None:
        self.config = config
        self._rng = new_rng(rng if rng is not None else 0)
        self.registry = ScenarioRegistry()
        self.server = ModelServer(storage_dir=config.storage_dir)
        self.agnostic = ScenarioAgnosticModule(
            base_config=config.model,
            init_config=config.init,
            fine_tune_config=config.fine_tune,
            meta_config=config.meta,
            rng=child_rng(self._rng, "agnostic"),
        )
        self.specific: Optional[ScenarioSpecificModule] = None
        self.artifacts: Dict[int, ScenarioArtifacts] = {}
        self.initial_scenario_ids: List[int] = []

    # ------------------------------------------------------------------ #
    # Initialisation
    # ------------------------------------------------------------------ #
    def initialize(self, collection: ScenarioCollection, initial_ids: Optional[Sequence[int]] = None,
                   n_initial: int = 8) -> List[int]:
        """Initialise the agnostic heavy model from the initial scenarios' pooled data."""
        if initial_ids is None:
            initial_ids = collection.select_initial(n_initial, rng=child_rng(self._rng, "init-select"))
        initial_ids = sorted(int(i) for i in initial_ids)
        for scenario in collection:
            if scenario.scenario_id in initial_ids:
                record = self.registry.register(scenario.scenario_id, scenario.name, is_initial=True)
                record.log("selected as initial scenario")
        pooled = collection.pooled_train(initial_ids)
        self.agnostic.initialize(pooled)
        self.specific = ScenarioSpecificModule(
            meta_learner=self.agnostic.require_meta_learner(),
            model_config=self.config.model,
            build_config=self.config.specific,
            rng=child_rng(self._rng, "specific"),
        )
        self.initial_scenario_ids = list(initial_ids)
        return self.initial_scenario_ids

    def _require_specific(self) -> ScenarioSpecificModule:
        if self.specific is None:
            raise ConfigurationError("ALTSystem.initialize must be called before adding scenarios")
        return self.specific

    # ------------------------------------------------------------------ #
    # Scenario arrival
    # ------------------------------------------------------------------ #
    def add_scenario(self, scenario: ScenarioData, evaluate: bool = True) -> ScenarioArtifacts:
        """Run the automatic pipeline for one (new or initial) scenario and deploy it."""
        return self.add_scenarios([scenario], evaluate=evaluate)[0]

    def add_scenarios(self, scenarios: Sequence[ScenarioData], evaluate: bool = True
                      ) -> List[ScenarioArtifacts]:
        """Run the pipeline for scenarios arriving together and deploy each.

        One scenario runs :meth:`ScenarioSpecificModule.build`; several run
        ``build_many``, which sends their feedback to the agnostic model as
        one aggregated update (Eq. 3).  Either way each scenario is deployed
        and recorded the same way; if the pipeline raises, every one of them
        is marked FAILED.
        """
        specific = self._require_specific()
        for scenario in scenarios:
            self.registry.register(scenario.scenario_id, scenario.name,
                                   is_initial=scenario.scenario_id in self.initial_scenario_ids)
            self.registry.set_status(scenario.scenario_id, ScenarioStatus.TRAINING, "pipeline started")
        payload = [(scenario.scenario_id, scenario.train, scenario.test if evaluate else None)
                   for scenario in scenarios]
        try:
            if len(payload) == 1:
                results = [specific.build(*payload[0])]
            else:
                results = specific.build_many(payload)
        except Exception:
            for scenario in scenarios:
                self.registry.set_status(scenario.scenario_id, ScenarioStatus.FAILED,
                                         "pipeline failed")
            raise
        for artifacts in results:
            self._deploy(artifacts)
        return results

    def _deploy(self, artifacts: ScenarioArtifacts) -> None:
        """Serve a scenario's light model and record what its pipeline produced."""
        scenario_id = artifacts.scenario_id
        self.artifacts[scenario_id] = artifacts
        self.server.deploy(scenario_id, artifacts.light_model, flops=artifacts.light_flops,
                           metadata={"genotype": artifacts.genotype.to_dict()})
        self.registry.set_status(scenario_id, ScenarioStatus.SERVING, "light model deployed")
        if artifacts.light_auc is not None:
            self.registry.record_metric(scenario_id, "light_auc", artifacts.light_auc)
        if artifacts.heavy_auc is not None:
            self.registry.record_metric(scenario_id, "heavy_auc", artifacts.heavy_auc)
        self.registry.record_metric(scenario_id, "light_flops", artifacts.light_flops)
        self.registry.get(scenario_id).log(
            f"pipeline finished in {artifacts.pipeline_seconds:.2f}s")

    # ------------------------------------------------------------------ #
    # Serving / reporting
    # ------------------------------------------------------------------ #
    def predict(self, scenario_id: int, batch: Batch) -> np.ndarray:
        """Online prediction through the model server."""
        return self.server.predict(scenario_id, batch)

    def summary(self) -> Dict[str, object]:
        """High-level view: scenarios, statuses, and pipeline costs."""
        serving = self.registry.with_status(ScenarioStatus.SERVING)
        pipeline_times = [a.pipeline_seconds for a in self.artifacts.values()]
        return {
            "num_scenarios": len(self.registry),
            "num_serving": len(serving),
            "initial_scenarios": list(self.initial_scenario_ids),
            "mean_pipeline_seconds": float(np.mean(pipeline_times)) if pipeline_times else 0.0,
            "agnostic_initialization": (
                self.agnostic.report.candidate_auc if self.agnostic.report else {}
            ),
        }
