"""Model Serving module (Sec. IV-E).

Scenario specific light models are deployed (optionally persisted to disk) and
served per scenario.  Latency is tracked per scenario so the Table V style
inference-time reporting can be produced from the serving layer itself.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.exceptions import ModelNotDeployedError
from repro.nn.data import Batch
from repro.nn.module import Module
from repro.utils.serialization import save_state

__all__ = ["Deployment", "ModelServer"]


@dataclass
class Deployment:
    """One deployed model version for a scenario."""

    scenario_id: int
    model: Module
    version: int
    flops: Optional[float] = None
    metadata: Dict[str, object] = field(default_factory=dict)


class ModelServer:
    """Holds the latest deployed model per scenario and serves predictions."""

    def __init__(self, storage_dir: Optional[str] = None) -> None:
        self._deployments: Dict[int, Deployment] = {}
        self._versions: Dict[int, int] = {}
        self._history: List[Deployment] = []
        # Per scenario: [requests served, their total seconds].
        self._latency: Dict[int, List[float]] = {}
        self._latency_lock = threading.Lock()
        self.storage_dir = Path(storage_dir) if storage_dir else None

    # ------------------------------------------------------------------ #
    # Deployment
    # ------------------------------------------------------------------ #
    def deploy(self, scenario_id: int, model: Module, flops: Optional[float] = None,
               metadata: Optional[Dict[str, object]] = None) -> Deployment:
        """Deploy a new model version for a scenario (replacing the previous one)."""
        version = self._versions.get(scenario_id, 0) + 1
        self._versions[scenario_id] = version
        deployment = Deployment(scenario_id=scenario_id, model=model, version=version,
                                flops=flops, metadata=dict(metadata or {}))
        self._deployments[scenario_id] = deployment
        self._history.append(deployment)
        if self.storage_dir is not None:
            path = self.storage_dir / f"scenario_{scenario_id}_v{version}"
            save_state(path, model.state_dict(), metadata={
                "scenario_id": scenario_id,
                "version": version,
                "flops": flops,
                **{k: v for k, v in (metadata or {}).items() if isinstance(v, (str, int, float, bool))},
            })
        return deployment

    def is_deployed(self, scenario_id: int) -> bool:
        return scenario_id in self._deployments

    def deployment(self, scenario_id: int) -> Deployment:
        if scenario_id not in self._deployments:
            raise ModelNotDeployedError(f"no model deployed for scenario {scenario_id}")
        return self._deployments[scenario_id]

    def deployments(self) -> List[Deployment]:
        return [self._deployments[sid] for sid in sorted(self._deployments)]

    def history(self) -> List[Deployment]:
        return list(self._history)

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def predict(self, scenario_id: int, batch: Batch) -> np.ndarray:
        """Score a batch with the scenario's deployed model, tracking latency."""
        deployment = self.deployment(scenario_id)
        start = time.perf_counter()
        try:
            return deployment.model.predict_proba(batch)
        finally:
            elapsed = time.perf_counter() - start
            with self._latency_lock:
                stats = self._latency.setdefault(scenario_id, [0, 0.0])
                stats[0] += 1
                stats[1] += elapsed

    def mean_latency_ms(self, scenario_id: int) -> float:
        with self._latency_lock:
            count, total = self._latency.get(scenario_id, (0, 0.0))
        return total / count * 1000.0 if count else 0.0

    def latency_report(self) -> Dict[int, float]:
        """Mean serving latency (ms) per scenario that has received traffic."""
        return {scenario_id: self.mean_latency_ms(scenario_id)
                for scenario_id in self._deployments if scenario_id in self._latency}
