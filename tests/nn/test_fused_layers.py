"""The one-node layers against their op-graph references (``op_graph.py``).

Every forward value and every input and parameter gradient must be
bitwise equal: the fused backward repeats the op graph's arithmetic and the
order in which it added into each gradient.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np
import pytest

from repro.data.synthetic import ScenarioSpec
from repro.meta.distillation import DistillationConfig
from repro.meta.finetune import FineTuneConfig
from repro.nas.search import NASConfig
from repro.nn.layers.basic import Linear
from repro.nn.layers.conv import AvgPool1d, Conv1d, MaxPool1d
from repro.nn.layers.pooling import AttentiveLayerSum
from repro.nn.losses import binary_cross_entropy_with_logits, distillation_loss, soft_binary_cross_entropy
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.system.agnostic_module import AgnosticInitConfig
from repro.system.orchestrator import ALTSystem, ALTSystemConfig
from repro.system.specific_module import SpecificBuildConfig

import op_graph
from test_tensor import numerical_grad


def assert_bitwise(actual: np.ndarray, expected: np.ndarray, what: str = "") -> None:
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape, what
    assert actual.dtype == expected.dtype, what
    assert actual.tobytes() == expected.tobytes(), f"{what}: not bitwise equal"


def run(fn: Callable[..., Tensor], layer: Module, arrays: List[np.ndarray],
        seed: int = 11) -> List[np.ndarray]:
    """``fn`` on fresh input tensors, backprop a fixed random weighting of its
    output; return the output, each input's gradient and each parameter's."""
    layer.zero_grad()
    inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*inputs)
    weights = np.random.default_rng(seed).normal(size=out.shape)
    (out * Tensor(weights)).sum().backward()
    return [out.data] + [t.grad for t in inputs] + [p.grad for p in layer.parameters()]


def assert_matches_reference(fused: Callable[..., Tensor], reference: Callable[..., Tensor],
                             layer: Module, arrays: List[np.ndarray]) -> None:
    got = run(fused, layer, arrays)
    want = run(reference, layer, arrays)
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a is not None and b is not None, f"result {i} missing"
        assert_bitwise(a, b, f"result {i} (0 = output, then inputs, then parameters)")


def two_consumers(forward: Callable[[Tensor], Tensor]) -> Callable[[Tensor], Tensor]:
    """``forward`` on ``h = 2x`` plus a second use of ``h``, so ``h``'s
    gradient is the sum of two consumers' terms."""
    def fn(x: Tensor) -> Tensor:
        h = x * 2.0
        return forward(h) + h * 0.5
    return fn


def normal(*shape: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=shape)


# --------------------------------------------------------------------- #
# Window layers
# --------------------------------------------------------------------- #
class TestConv1d:
    @pytest.mark.parametrize("dilation", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3, 5, 7])
    def test_bitwise_equal_to_op_graph(self, kernel, dilation):
        layer = Conv1d(4, 5, kernel_size=kernel, dilation=dilation, rng=np.random.default_rng(kernel))
        layer.bias.data = normal(5, seed=1)
        assert_matches_reference(layer, lambda x: op_graph.conv1d_forward(layer, x), layer,
                                 [normal(3, 9, 4)])

    @pytest.mark.parametrize("kernel,dilation", [(1, 1), (3, 1), (5, 2)])
    def test_input_with_two_consumers(self, kernel, dilation):
        layer = Conv1d(4, 4, kernel_size=kernel, dilation=dilation, rng=np.random.default_rng(2))
        assert_matches_reference(two_consumers(layer),
                                 two_consumers(lambda h: op_graph.conv1d_forward(layer, h)),
                                 layer, [normal(2, 7, 4)])

    def test_without_bias(self):
        layer = Conv1d(3, 2, kernel_size=3, bias=False, rng=np.random.default_rng(0))
        assert_matches_reference(layer, lambda x: op_graph.conv1d_forward(layer, x), layer,
                                 [normal(2, 6, 3)])


POOLS = [AvgPool1d, MaxPool1d]
POOL_REFERENCES = {AvgPool1d: op_graph.avg_pool_forward, MaxPool1d: op_graph.max_pool_forward}
POOL_INPUTS = {
    "random": normal(3, 8, 4),
    # Integer values: many ties inside a window.
    "ties": np.random.default_rng(1).integers(-2, 3, size=(3, 8, 4)).astype(np.float64),
    # All negative: at both ends a padded zero wins the max.
    "all_negative": -np.abs(normal(2, 6, 3)) - 0.5,
    # Windows of -0.0 only: a sum over them is +0.0.
    "signed_zeros": np.where(np.arange(6)[None, :, None] < 3, 1.0, -0.0) * np.ones((2, 6, 3)),
}


class TestPools:
    @pytest.mark.parametrize("data", list(POOL_INPUTS), ids=list(POOL_INPUTS))
    @pytest.mark.parametrize("pool", POOLS, ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_bitwise_equal_to_op_graph(self, pool, kernel, data):
        layer = pool(kernel)
        reference = POOL_REFERENCES[pool]
        assert_matches_reference(layer, lambda x: reference(layer, x), layer, [POOL_INPUTS[data]])

    @pytest.mark.parametrize("pool", POOLS, ids=lambda cls: cls.__name__)
    def test_input_with_two_consumers(self, pool):
        layer = pool(3)
        reference = POOL_REFERENCES[pool]
        assert_matches_reference(two_consumers(layer), two_consumers(lambda h: reference(layer, h)),
                                 layer, [POOL_INPUTS["ties"]])


# --------------------------------------------------------------------- #
# Linear, softmax, losses, attentive layer sum
# --------------------------------------------------------------------- #
class TestLinear:
    @pytest.mark.parametrize("shape", [(5,), (4, 5), (2, 3, 5)], ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("bias", [True, False])
    def test_bitwise_equal_to_op_graph(self, shape, bias):
        layer = Linear(5, 3, bias=bias, rng=np.random.default_rng(0))
        if bias:
            layer.bias.data = normal(3, seed=4)
        assert_matches_reference(layer, lambda x: op_graph.linear_forward(layer, x), layer,
                                 [normal(*shape)])

    def test_input_with_two_consumers(self):
        layer = Linear(4, 4, rng=np.random.default_rng(0))
        assert_matches_reference(two_consumers(layer),
                                 two_consumers(lambda h: op_graph.linear_forward(layer, h)),
                                 layer, [normal(3, 4)])


class TestSoftmax:
    @pytest.mark.parametrize("axis", [0, -1])
    def test_bitwise_equal_after_masked_fill(self, axis):
        mask = np.random.default_rng(3).random((4, 6)) < 0.3
        mask[:, 0] = False
        mask[0, :] = False

        def fused(x):
            return x.masked_fill(mask, -1e9).softmax(axis=axis)

        def reference(x):
            return op_graph.softmax(x.masked_fill(mask, -1e9), axis=axis)

        assert_matches_reference(fused, reference, Module(), [normal(4, 6)])

    @pytest.mark.parametrize("shape,axis", [((7,), -1), ((1,), 0), ((3, 1, 4), 0), ((2, 3, 4), 1)])
    def test_shapes(self, shape, axis):
        assert_matches_reference(two_consumers(lambda h: h.softmax(axis=axis)),
                                 two_consumers(lambda h: op_graph.softmax(h, axis=axis)),
                                 Module(), [normal(*shape)])


def bce_logits(n: int = 12) -> np.ndarray:
    logits = normal(n, seed=5) * 3.0
    logits[::4] = 0.0  # exactly zero: relu, sign and |z| at their kinks
    return logits


class TestLosses:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_hard_bce(self, weighted):
        labels = (np.arange(12) % 3 == 0).astype(np.float64)
        weights = np.linspace(0.0, 2.0, 12) if weighted else None
        assert_matches_reference(
            lambda z: binary_cross_entropy_with_logits(z, labels, sample_weight=weights),
            lambda z: op_graph.binary_cross_entropy_with_logits(z, labels, sample_weight=weights),
            Module(), [bce_logits()])

    def test_soft_bce_with_target_gradient(self):
        # Both the logits and the soft targets need a gradient here.
        assert_matches_reference(soft_binary_cross_entropy, op_graph.soft_binary_cross_entropy,
                                 Module(), [bce_logits(), np.linspace(0.0, 1.0, 12)])

    def test_distillation_loss(self, monkeypatch):
        # The student's logits feed both terms: the soft term's three
        # gradient terms come before the hard term's.
        labels = (np.arange(12) % 2).astype(np.float64)
        teacher = normal(12, seed=8)

        def loss(z):
            return distillation_loss(z * 1.0, labels, teacher, delta=0.7) * 1.0

        got = run(loss, Module(), [bce_logits()])
        op_graph.install(monkeypatch)
        want = run(loss, Module(), [bce_logits()])
        for a, b in zip(got, want):
            assert_bitwise(a, b)

    def test_shape_mismatch_is_reshaped(self):
        labels = np.ones((12, 1))
        assert_matches_reference(
            lambda z: binary_cross_entropy_with_logits(z, labels),
            lambda z: op_graph.binary_cross_entropy_with_logits(z, labels),
            Module(), [bce_logits()])


class TestAttentiveLayerSum:
    @pytest.mark.parametrize("masked", [False, True], ids=["no_mask", "mask"])
    @pytest.mark.parametrize("n_layers", [1, 3])
    def test_bitwise_equal_to_op_graph(self, n_layers, masked):
        layer = AttentiveLayerSum(4, n_layers, rng=np.random.default_rng(1))
        layer.score.bias.data = normal(1, seed=2)
        mask = None
        if masked:
            mask = np.ones((3, 6))
            mask[0, 4:] = 0.0
            mask[2, :] = 0.0  # an all-padded row: the count is clamped to 1

        def outputs(x):
            # Layer outputs that share an input, as the searched layers do.
            h = x * 1.5
            return [h, h * h, h + x][:n_layers]

        assert_matches_reference(lambda x: layer(outputs(x), mask=mask),
                                 lambda x: op_graph.attentive_layer_sum_forward(
                                     layer, outputs(x), mask=mask),
                                 layer, [normal(3, 6, 4)])

    def test_score_is_not_called(self, monkeypatch):
        layer = AttentiveLayerSum(4, 2, rng=np.random.default_rng(1))
        monkeypatch.setattr(Linear, "__call__", lambda *a, **k: pytest.fail("score called"))
        out = layer([Tensor(normal(2, 5, 4)), Tensor(normal(2, 5, 4, seed=1))])
        assert out.shape == (2, 4)
        assert set(layer.state_dict()) == {"score.weight", "score.bias"}


# --------------------------------------------------------------------- #
# Gradient values and graph bookkeeping
# --------------------------------------------------------------------- #
def layer_cases():
    rng = np.random.default_rng(7)
    conv = Conv1d(3, 2, kernel_size=3, dilation=2, rng=rng)
    conv.bias.data = rng.normal(size=2)
    linear = Linear(3, 2, rng=rng)
    linear.bias.data = rng.normal(size=2)
    layer_sum = AttentiveLayerSum(3, 2, rng=rng)
    mask = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
    labels = np.array([1.0, 0.0, 1.0, 0.0])
    return {
        "conv": (conv, lambda x: conv(x)),
        "avg_pool": (Module(), lambda x: AvgPool1d(3)(x)),
        "max_pool": (Module(), lambda x: MaxPool1d(3)(x)),
        "linear": (linear, lambda x: linear(x)),
        "softmax": (Module(), lambda x: x.softmax(axis=1)),
        "bce": (Module(), lambda x: binary_cross_entropy_with_logits(
            x.sum(axis=(1, 2)) - 0.5, labels[: x.shape[0]])),
        "layer_sum": (layer_sum, lambda x: layer_sum([x, x * x], mask=mask[: x.shape[0]])),
    }


LAYER_CASES = list(layer_cases())


class TestGradientsAndGraph:
    @pytest.mark.parametrize("name", LAYER_CASES)
    def test_finite_difference(self, name):
        layer, fn = layer_cases()[name]
        x_data = np.random.default_rng(3).normal(size=(2, 4, 3))
        weights = np.random.default_rng(4).normal(size=fn(Tensor(x_data)).shape)

        def loss(x):
            return (fn(x) * Tensor(weights)).sum()

        x = Tensor(x_data.copy(), requires_grad=True)
        layer.zero_grad()
        loss(x).backward()
        numeric = numerical_grad(lambda arr: loss(Tensor(arr)).item(), x_data.copy())
        np.testing.assert_allclose(x.grad, numeric, atol=1e-6)
        for pname, param in layer.named_parameters():
            def param_loss(arr, param=param):
                saved, param.data = param.data, arr
                try:
                    return loss(Tensor(x_data)).item()
                finally:
                    param.data = saved

            numeric = numerical_grad(param_loss, param.data.copy())
            np.testing.assert_allclose(param.grad, numeric, atol=1e-6, err_msg=pname)

    # The id names the case: no input and no parameter requires grad.
    @pytest.mark.parametrize("mode", ["nothing_requires_grad"])
    @pytest.mark.parametrize("name", LAYER_CASES)
    def test_no_graph_without_grad(self, name, mode):
        layer, fn = layer_cases()[name]
        x_data = np.random.default_rng(3).normal(size=(2, 4, 3))
        for param in layer.parameters():
            param.requires_grad = False
        out = fn(Tensor(x_data))
        assert not out.requires_grad
        assert out._prev == ()
        assert out._backward.__closure__ is None  # the default no-op: nothing saved


# --------------------------------------------------------------------- #
# End to end: onboarding on the fused layers equals onboarding on the op graph
# --------------------------------------------------------------------- #
E2E_NAS = NASConfig(num_layers=2, epochs=1, batch_size=32, max_batches_per_epoch=3,
                    candidates=("std_conv_1", "std_conv_3", "dil_conv_3", "avg_pool_3",
                                "max_pool_3", "self_att"))


def onboard(world, collection, model_config):
    """Initialise ALT on scenario 1, onboard three arrivals; return every
    parameter, genotype and prediction it produced."""
    config = ALTSystemConfig(
        model=model_config,
        init=AgnosticInitConfig(strategy="predesigned", final_epochs=1, batch_size=32),
        fine_tune=FineTuneConfig(inner_lr=0.01, epochs=1, batch_size=32),
        specific=SpecificBuildConfig(nas=E2E_NAS,
                                     distillation=DistillationConfig(epochs=2, batch_size=32)),
    )
    system = ALTSystem(config, rng=np.random.default_rng(0))
    system.initialize(collection, initial_ids=[1])
    arrivals = [collection.get(2), collection.get(3),
                world.generate(ScenarioSpec(scenario_id=5, name="scenario-5", size=80,
                                            base_rate_logit=-0.5, shift_seed=9),
                               rng=np.random.default_rng(105))]
    results = {}
    for scenario in arrivals:
        sid = scenario.scenario_id
        artifacts = system.add_scenario(scenario)
        for name, value in artifacts.heavy_model.state_dict().items():
            results[f"{sid}/heavy/{name}"] = value
        for name, value in artifacts.light_model.state_dict().items():
            results[f"{sid}/light/{name}"] = value
        results[f"{sid}/genotype"] = repr(artifacts.genotype.to_dict())
        results[f"{sid}/aucs"] = np.array([artifacts.heavy_auc, artifacts.light_auc])
        results[f"{sid}/predictions"] = system.predict(sid, scenario.test.as_batch())
    agnostic = system.agnostic.require_meta_learner().agnostic_model
    for name, value in agnostic.state_dict().items():
        results[f"agnostic/{name}"] = value
    return results


def test_alt_onboarding_bitwise_equal_to_op_graph(tiny_world, tiny_collection, tiny_model_config,
                                                   monkeypatch):
    built = [0]
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    fused = onboard(tiny_world, tiny_collection, tiny_model_config)
    fused_tensors, built[0] = built[0], 0
    op_graph.install(monkeypatch)
    reference = onboard(tiny_world, tiny_collection, tiny_model_config)
    assert built[0] > fused_tensors  # the references really ran
    assert fused.keys() == reference.keys()
    genotypes = {fused[k] for k in fused if k.endswith("/genotype")}
    assert any(op in g for g in genotypes for op in ("conv", "pool"))
    for key in fused:
        if key.endswith("/genotype"):
            assert fused[key] == reference[key], key
        else:
            assert_bitwise(fused[key], reference[key], key)
