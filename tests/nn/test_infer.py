"""The inference path: every model's ``predict_logits`` runs ``infer``.

``infer`` makes the numpy calls of an eval-mode ``forward`` on ndarrays, so
its logits are bitwise equal to the graph's; it builds no Tensor, never
switches the model's mode, and shares no state with a training step on
another thread.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Dict, List

import numpy as np
import pytest

import repro.nn.layers as layers
from repro.meta.distillation import DistillationConfig
from repro.meta.finetune import FineTuneConfig
from repro.models.base_model import _LogitModel
from repro.models.factory import build_basic_model, build_model, build_nas_model
from repro.nas.genotype import Genotype, LayerGene
from repro.nas.operations import available_operations
from repro.nas.search import NASConfig
from repro.nn.data import Batch
from repro.nn.layers import Embedding, LSTMCell
from repro.nn.losses import binary_cross_entropy_with_logits
from repro.nn.module import Module, ModuleList
from repro.nn.tensor import Tensor
from repro.system.agnostic_module import AgnosticInitConfig
from repro.system.orchestrator import ALTSystem, ALTSystemConfig
from repro.system.specific_module import SpecificBuildConfig

MODEL_KINDS = ["lstm", "bert", "basic"] + [f"nas-{op}" for op in available_operations()]


def residual_genotype(op: str) -> Genotype:
    """Three layers of ``op``: a chain, a skip from the input, and a layer
    reading the input with residual edges from both earlier layers."""
    return Genotype(layers=(LayerGene(0, op), LayerGene(1, op, (0,)), LayerGene(0, op, (1, 2))))


def build(kind: str, config) -> _LogitModel:
    # Dropout > 0: an inference path that kept a layer training would differ.
    config = config.with_overrides(dropout=0.3)
    if kind == "basic":
        return build_basic_model(config, seed=1)
    if kind.startswith("nas-"):
        return build_nas_model(config.with_overrides(encoder_type="nas"),
                               residual_genotype(kind[len("nas-"):]), seed=1)
    return build_model(config.with_overrides(encoder_type=kind), seed=1)


def make_batch(config, size: int, seed: int = 0) -> Batch:
    """Padded rows; with more than one row, one full and one all padded."""
    rng = np.random.default_rng(seed)
    steps = config.max_seq_len
    lengths = rng.integers(1, steps, size=size)
    if size > 1:
        lengths[0], lengths[-1] = steps, 0
    mask = (np.arange(steps)[None, :] < lengths[:, None]).astype(np.float64)
    sequences = rng.integers(0, config.vocab_size, size=(size, steps)) * mask.astype(np.int64)
    return Batch(profiles=rng.normal(size=(size, config.profile_dim)), sequences=sequences,
                 mask=mask, labels=(rng.random(size) < 0.5).astype(np.float64))


# --------------------------------------------------------------------- #
# Bitwise table
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("size", [1, 7, 64])
@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_predict_logits_bitwise_equal_to_eval_forward(kind, training, size, tiny_model_config):
    model = build(kind, tiny_model_config)
    batch = make_batch(tiny_model_config, size, seed=size)
    model.train(training)
    logits = model.predict_logits(batch)
    assert all(module.training is training for _, module in model.named_modules())
    model.eval()
    expected = model.forward(batch).data
    assert logits.shape == expected.shape == (size,)
    assert logits.dtype == expected.dtype
    assert logits.tobytes() == expected.tobytes()


def _layer_cases():
    """name -> (layer, inputs as ndarrays, keyword inputs): every class in
    ``repro.nn.layers`` but LSTMCell, on (B, T, C) inputs with a padded mask
    and an all-padded row.  T, C and the head size are not powers of two, so
    a sum times a reciprocal and a quotient can round apart."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 6, 6))
    mask = np.array([[1.0] * 6, [1.0, 1.0, 1.0, 0.0, 0.0, 0.0], [0.0] * 6])
    tokens = rng.integers(0, 9, size=(3, 6))
    return {
        "Linear": (layers.Linear(6, 5, rng=rng), (x,), {}),
        "ReLU": (layers.ReLU(), (x,), {}),
        "GELU": (layers.GELU(), (x,), {}),
        "Tanh": (layers.Tanh(), (x,), {}),
        "Sigmoid": (layers.Sigmoid(), (x,), {}),
        "Identity": (layers.Identity(), (x,), {}),
        "Dropout": (layers.Dropout(0.3, rng=rng), (x,), {}),
        "MLP": (layers.MLP([6, 7, 3], activation="gelu", dropout=0.3, rng=rng), (x,), {}),
        "Embedding": (layers.Embedding(9, 6, rng=rng), (tokens,), {}),
        "PositionalEmbedding": (layers.PositionalEmbedding(8, 6, rng=rng), (x,), {}),
        "LayerNorm": (layers.LayerNorm(6), (x,), {}),
        "Conv1d": (layers.Conv1d(6, 3, kernel_size=5, dilation=2, rng=rng), (x,), {}),
        "AvgPool1d": (layers.AvgPool1d(3), (x,), {}),
        "MaxPool1d": (layers.MaxPool1d(3), (x,), {}),
        "LSTM": (layers.LSTM(6, 5, num_layers=2, rng=rng), (x,), {}),
        "MaskedMeanPool": (layers.MaskedMeanPool(), (x,), {"mask": mask}),
        "LastStepPool": (layers.LastStepPool(), (x,), {"mask": mask}),
        "AttentiveTimePool": (layers.AttentiveTimePool(6, rng=rng), (x,), {"mask": mask}),
        "AttentiveLayerSum": (layers.AttentiveLayerSum(6, 2, rng=rng), ([x, x * x],),
                              {"mask": mask}),
        "MultiHeadSelfAttention": (layers.MultiHeadSelfAttention(6, num_heads=2, dropout=0.3,
                                                                 rng=rng), (x,), {"mask": mask}),
        "TransformerEncoderLayer": (layers.TransformerEncoderLayer(6, 2, 8, dropout=0.3, rng=rng),
                                    (x,), {"mask": mask}),
        "TransformerEncoder": (layers.TransformerEncoder(6, 2, 8, 2, dropout=0.3, rng=rng),
                               (x,), {"mask": mask}),
    }


def _as_tensors(value):
    if isinstance(value, list):
        return [Tensor(v) for v in value]
    return value if value.dtype.kind == "i" else Tensor(value)


def _flat(out) -> List[np.ndarray]:
    """The arrays of an output: a Tensor, an ndarray or LSTM's nested tuple."""
    if isinstance(out, (tuple, list)):
        return [a for item in out for a in _flat(item)]
    return [out.data if isinstance(out, Tensor) else out]


LAYER_NAMES = sorted(_layer_cases())
MASKED_LAYER_NAMES = [name for name, (_, _, kwargs) in sorted(_layer_cases().items()) if kwargs]


def test_layer_cases_cover_every_layer():
    assert set(LAYER_NAMES) == set(layers.__all__) - {"LSTMCell"}


@pytest.mark.parametrize("name,masked", [(name, True) for name in LAYER_NAMES]
                         + [(name, False) for name in MASKED_LAYER_NAMES])
def test_layer_infer_bitwise_equal_to_eval_forward(name, masked):
    """In train mode (dropout 0.3 where a layer has one), with and without a mask."""
    layer, args, kwargs = _layer_cases()[name]
    if not masked:
        kwargs = {}
    layer.train()
    got = _flat(layer.infer(*args, **kwargs))
    layer.eval()
    want = _flat(layer(*[_as_tensors(a) for a in args], **kwargs))
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert isinstance(a, np.ndarray), i
        assert a.shape == b.shape and a.dtype == b.dtype, i
        assert a.tobytes() == b.tobytes(), f"output {i} not bitwise equal"


# --------------------------------------------------------------------- #
# No graph, no mode switch, a fresh array
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_predict_builds_no_tensor_and_walks_no_tree(kind, training, tiny_model_config,
                                                    monkeypatch):
    model = build(kind, tiny_model_config)
    batch = make_batch(tiny_model_config, 7)
    model.train(training)
    built: List[int] = [0]
    walked: List[Module] = []
    init, train = Tensor.__init__, Module.train

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    def counting_train(self, mode=True):
        walked.append(self)
        return train(self, mode)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    monkeypatch.setattr(Module, "train", counting_train)
    logits = model.predict_logits(batch)
    probs = model.predict_proba(batch)
    assert built[0] == 0
    assert walked == []
    model.forward(batch)
    assert built[0] > 0  # the counter is installed: the graph path builds Tensors
    # The caller owns the result: it aliases no parameter and no later call.
    assert not any(np.shares_memory(logits, p.data) for p in model.parameters())
    expected = logits.copy()
    logits[:] = 0.0
    assert model.predict_logits(batch).tobytes() == expected.tobytes()
    assert probs.tobytes() == (1.0 / (1.0 + np.exp(-expected))).tobytes()


# --------------------------------------------------------------------- #
# Coverage
# --------------------------------------------------------------------- #
def _defines_infer(cls: type) -> bool:
    return cls.infer is not Module.infer


def test_every_layer_defines_infer():
    classes = [getattr(layers, name) for name in layers.__all__]
    modules = [cls for cls in classes if isinstance(cls, type) and issubclass(cls, Module)]
    assert len(modules) == len(layers.__all__)
    # LSTMCell only holds an LSTM layer's parameters; LSTM steps it itself.
    assert [cls.__name__ for cls in modules if cls is not LSTMCell and not _defines_infer(cls)] == []


def test_every_model_module_defines_infer(tiny_model_config):
    classes = set()
    for kind in MODEL_KINDS:
        classes |= {type(module) for _, module in build(kind, tiny_model_config).named_modules()}
    # Containers that are never called: a ModuleList, and the LSTM's cells.
    classes -= {ModuleList, LSTMCell}
    assert len(classes) > 20
    assert sorted(cls.__name__ for cls in classes if not _defines_infer(cls)) == []


def test_a_module_without_infer_fails_naming_its_class():
    class Doubler(Module):
        def forward(self, x: Tensor) -> Tensor:
            return x * 2.0

    with pytest.raises(NotImplementedError, match="Doubler"):
        Doubler().infer(np.ones(3))


def test_embedding_infer_checks_token_ids():
    embedding = Embedding(4, 2)
    with pytest.raises(ValueError, match="token ids"):
        embedding.infer(np.array([[0, 4]]))
    with pytest.raises(ValueError, match="token ids"):
        embedding.infer(np.array([[-1, 0]]))


# --------------------------------------------------------------------- #
# Threads: a prediction never turns off another thread's gradients
# --------------------------------------------------------------------- #
class BlockingModel(_LogitModel):
    """Scores a batch only once ``release`` is set, after setting ``started``."""

    def __init__(self) -> None:
        super().__init__()
        self.started = threading.Event()
        self.release = threading.Event()

    def _block(self, batch: Batch) -> np.ndarray:
        self.started.set()
        assert self.release.wait(timeout=60.0)
        return np.zeros(len(batch))

    def forward(self, batch: Batch) -> Tensor:
        return Tensor(self._block(batch))

    def infer(self, batch: Batch) -> np.ndarray:
        return self._block(batch)


def test_training_step_gets_gradients_while_another_thread_predicts(tiny_model_config):
    model = build_model(tiny_model_config, seed=0)
    batch = make_batch(tiny_model_config, 16)
    blocking = BlockingModel()
    scores: Dict[str, np.ndarray] = {}
    server = threading.Thread(target=lambda: scores.update(p=blocking.predict_proba(batch)))
    server.start()
    try:
        assert blocking.started.wait(timeout=60.0)
        # The prediction is now inside its model's inference call.
        model.zero_grad()
        model.train()
        loss = binary_cross_entropy_with_logits(model(batch), batch.labels)
        loss.backward()
        missing = [name for name, p in model.named_parameters() if p.grad is None]
    finally:
        blocking.release.set()
        server.join(timeout=60.0)
    assert not server.is_alive()
    assert missing == []
    assert scores["p"].shape == (16,)


FAST_NAS = NASConfig(num_layers=2, epochs=1, batch_size=32, max_batches_per_epoch=2,
                     candidates=("std_conv_1", "std_conv_3", "avg_pool_3", "max_pool_3",
                                 "lstm", "self_att"))


def _deployment(model_config, collection) -> ALTSystem:
    """ALT initialised on scenarios 1 and 2, with scenario 3 deployed."""
    config = ALTSystemConfig(
        model=model_config,
        init=AgnosticInitConfig(strategy="predesigned", final_epochs=1, batch_size=32),
        fine_tune=FineTuneConfig(inner_lr=0.01, epochs=1, batch_size=32),
        specific=SpecificBuildConfig(nas=FAST_NAS,
                                     distillation=DistillationConfig(epochs=2, batch_size=32)),
    )
    system = ALTSystem(config, rng=np.random.default_rng(0))
    system.initialize(collection, initial_ids=[1, 2])
    system.add_scenario(collection.get(3))
    return system


def _onboard(system: ALTSystem, scenario) -> Dict[str, bytes]:
    """Onboard ``scenario``; every parameter, the genotype and both AUCs."""
    artifacts = system.add_scenario(scenario)
    agnostic = system.agnostic.require_meta_learner().agnostic_model
    out = {"genotype": repr(artifacts.genotype.to_dict()).encode(),
           "aucs": np.array([artifacts.heavy_auc, artifacts.light_auc]).tobytes()}
    for prefix, model in (("heavy", artifacts.heavy_model), ("light", artifacts.light_model),
                          ("agnostic", agnostic)):
        for name, value in model.state_dict().items():
            out[f"{prefix}/{name}"] = value.tobytes()
    return out


def test_onboarding_while_serving_equals_onboarding_alone(tiny_model_config, tiny_collection):
    """The paper's online setting: a deployment serves while a scenario onboards.

    A short switch interval makes the interpreter switch threads inside
    predictions, as on a loaded server; the serving thread yields every 16
    predictions so that onboarding still gets the interpreter.
    """
    arrival = tiny_collection.get(4)
    alone = _onboard(_deployment(tiny_model_config, tiny_collection), arrival)

    system = _deployment(tiny_model_config, tiny_collection)
    batch = tiny_collection.get(3).test.batch([0])
    served, stop, first = [0], threading.Event(), threading.Event()

    def serve() -> None:
        while not stop.is_set():
            system.predict(3, batch)
            served[0] += 1
            first.set()
            if served[0] % 16 == 0:
                time.sleep(0)

    interval = sys.getswitchinterval()
    server = threading.Thread(target=serve)
    server.start()
    try:
        assert first.wait(timeout=60.0)
        sys.setswitchinterval(1e-4)
        before = served[0]
        concurrent = _onboard(system, arrival)
        during = served[0] - before
    finally:
        sys.setswitchinterval(interval)
        stop.set()
        server.join(timeout=60.0)
    assert not server.is_alive()
    assert during > 0  # the server really answered while the arrival trained
    assert concurrent.keys() == alone.keys()
    assert [key for key in alone if concurrent[key] != alone[key]] == []
