"""Tests for LSTM, multi-head attention, transformer encoder and pooling layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers.attention import MultiHeadSelfAttention, TransformerEncoder, TransformerEncoderLayer
from repro.nn.layers.pooling import AttentiveLayerSum, AttentiveTimePool, LastStepPool, MaskedMeanPool
from repro.nn.layers.recurrent import LSTM, LSTMCell
from repro.nn.tensor import Tensor, stack
from test_tensor import numerical_grad


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestLSTM:
    def test_cell_step_shapes(self, rng):
        cell = LSTMCell(4, 6, rng=rng)
        h = Tensor(np.zeros((3, 6)))
        c = Tensor(np.zeros((3, 6)))
        h2, c2 = cell(Tensor(rng.normal(size=(3, 4))), (h, c))
        assert h2.shape == (3, 6) and c2.shape == (3, 6)

    def test_multilayer_output_shapes(self, rng):
        lstm = LSTM(4, 5, num_layers=3, rng=rng)
        outputs, states = lstm(Tensor(rng.normal(size=(2, 7, 4))))
        assert outputs.shape == (2, 7, 5)
        assert len(states) == 3
        assert states[0][0].shape == (2, 5)

    def test_deterministic_given_seed(self):
        x = np.random.default_rng(5).normal(size=(2, 6, 4))
        out1 = LSTM(4, 5, rng=np.random.default_rng(7))(Tensor(x))[0].numpy()
        out2 = LSTM(4, 5, rng=np.random.default_rng(7))(Tensor(x))[0].numpy()
        np.testing.assert_allclose(out1, out2)

    def test_gradients_flow_to_first_step(self, rng):
        lstm = LSTM(3, 4, rng=rng)
        x = Tensor(rng.normal(size=(1, 5, 3)), requires_grad=True)
        outputs, _ = lstm(x)
        outputs[:, -1, :].sum().backward()
        assert np.abs(x.grad[0, 0]).sum() > 0

    def test_invalid_layers(self):
        with pytest.raises(ValueError):
            LSTM(3, 4, num_layers=0)

    def test_flops_scale_with_length(self, rng):
        lstm = LSTM(4, 4, num_layers=2, rng=rng)
        assert lstm.flops(32) == 2 * lstm.flops(16)


def stepped_lstm(lstm, x):
    """Reference: step each layer's ``LSTMCell`` over the sequence, one op graph per step."""
    batch, seq_len, _ = x.shape
    layer_input = [x[:, t, :] for t in range(seq_len)]
    final_states = []
    for cell in lstm.cells:
        h = Tensor(np.zeros((batch, lstm.hidden_size)))
        c = Tensor(np.zeros((batch, lstm.hidden_size)))
        outputs = []
        for t in range(seq_len):
            h, c = cell(layer_input[t], (h, c))
            outputs.append(h)
        layer_input = outputs
        final_states.append((h, c))
    return stack(layer_input, axis=1), final_states


def lstm_loss(sequence, final_states, target, rng):
    """A weighted sum of the chosen output: the sequence, or every layer's final h or c."""
    if target == "sequence":
        return (sequence * Tensor(rng.normal(size=sequence.shape))).sum()
    index = {"h": 0, "c": 1}[target]
    loss = None
    for state in final_states:
        term = (state[index] * Tensor(rng.normal(size=state[index].shape))).sum()
        loss = term if loss is None else loss + term
    return loss


def run_lstm(forward, lstm, x_data, target, seed=3):
    """Forward with ``forward``, backprop the ``target`` loss; return outputs and gradients."""
    lstm.zero_grad()
    x = Tensor(x_data.copy(), requires_grad=True)
    sequence, final_states = forward(lstm, x)
    lstm_loss(sequence, final_states, target, np.random.default_rng(seed)).backward()
    grads = {name: p.grad.copy() for name, p in lstm.named_parameters()}
    return sequence, final_states, x.grad, grads


class TestFusedLSTM:
    """The fused whole-sequence node against the per-step ``LSTMCell`` reference."""

    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_forward_bitwise_equal(self, num_layers):
        lstm = LSTM(5, 6, num_layers=num_layers, rng=np.random.default_rng(num_layers))
        x = Tensor(np.random.default_rng(4).normal(size=(4, 7, 5)), requires_grad=True)
        sequence, final_states = lstm(x)
        ref_sequence, ref_states = stepped_lstm(lstm, x)
        assert np.array_equal(sequence.numpy(), ref_sequence.numpy())
        for (h, c), (ref_h, ref_c) in zip(final_states, ref_states):
            assert np.array_equal(h.numpy(), ref_h.numpy())
            assert np.array_equal(c.numpy(), ref_c.numpy())

    @pytest.mark.parametrize("target", ["sequence", "h", "c"])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_gradients_match_stepped_cells(self, num_layers, target):
        lstm = LSTM(5, 6, num_layers=num_layers, rng=np.random.default_rng(num_layers))
        x_data = np.random.default_rng(4).normal(size=(4, 7, 5))
        _, _, x_grad, grads = run_lstm(lambda m, x: m(x), lstm, x_data, target)
        _, _, ref_x_grad, ref_grads = run_lstm(stepped_lstm, lstm, x_data, target)
        np.testing.assert_allclose(x_grad, ref_x_grad, rtol=0, atol=1e-12)
        assert grads.keys() == ref_grads.keys()
        assert any(name.endswith("weight_ih") for name in grads)
        for name, grad in grads.items():
            np.testing.assert_allclose(grad, ref_grads[name], rtol=0, atol=1e-12, err_msg=name)

    def test_finite_difference(self):
        lstm = LSTM(3, 2, num_layers=2, rng=np.random.default_rng(1))
        x_data = np.random.default_rng(2).normal(size=(2, 3, 3))

        def loss(x):
            sequence, final_states = lstm(x)
            return sum(lstm_loss(sequence, final_states, target, np.random.default_rng(3))
                       for target in ("sequence", "h", "c"))

        x = Tensor(x_data.copy(), requires_grad=True)
        loss(x).backward()
        numeric = numerical_grad(lambda arr: loss(Tensor(arr)).item(), x_data.copy())
        np.testing.assert_allclose(x.grad, numeric, atol=1e-6)
        for name, param in lstm.named_parameters():
            def param_loss(arr, param=param):
                saved, param.data = param.data, arr
                try:
                    return loss(Tensor(x_data)).item()
                finally:
                    param.data = saved

            numeric = numerical_grad(param_loss, param.data.copy())
            np.testing.assert_allclose(param.grad, numeric, atol=1e-6, err_msg=name)

    # The id names the case: no input and no parameter requires grad.
    @pytest.mark.parametrize("mode", ["nothing_requires_grad"])
    def test_no_graph_without_grad(self, mode):
        lstm = LSTM(3, 4, num_layers=2, rng=np.random.default_rng(0))
        x_data = np.random.default_rng(1).normal(size=(2, 5, 3))
        for param in lstm.parameters():
            param.requires_grad = False
        sequence, final_states = lstm(Tensor(x_data))
        for out in [sequence] + [t for state in final_states for t in state]:
            assert not out.requires_grad
            assert out._prev == ()
            assert out._backward.__closure__ is None  # the default no-op: nothing saved

    def test_parameter_gradients_without_input_grad(self):
        lstm = LSTM(3, 4, num_layers=2, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(2, 5, 3)))
        sequence, _ = lstm(x)
        sequence.sum().backward()
        assert x.grad is None
        for name, param in lstm.named_parameters():
            assert param.grad is not None and np.abs(param.grad).sum() > 0, name


class TestAttention:
    def test_output_shape(self, rng):
        attn = MultiHeadSelfAttention(8, num_heads=2, rng=rng)
        assert attn(Tensor(rng.normal(size=(3, 5, 8)))).shape == (3, 5, 8)

    def test_invalid_head_count(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(7, num_heads=2)

    def test_mask_blocks_padded_positions(self, rng):
        attn = MultiHeadSelfAttention(4, num_heads=1, rng=rng)
        x = rng.normal(size=(1, 6, 4))
        mask = np.ones((1, 6))
        mask[0, 3:] = 0
        masked_out = attn(Tensor(x), mask=mask).numpy()
        # Change the padded part of the input; the valid positions' output must not move.
        x_altered = x.copy()
        x_altered[0, 4] += 10.0
        altered_out = attn(Tensor(x_altered), mask=mask).numpy()
        np.testing.assert_allclose(masked_out[0, :3], altered_out[0, :3], atol=1e-8)

    def test_flops_positive(self, rng):
        assert MultiHeadSelfAttention(8, 2, rng=rng).flops(16) > 0


class TestTransformer:
    def test_layer_and_stack_shapes(self, rng):
        layer = TransformerEncoderLayer(8, 2, 16, rng=rng)
        assert layer(Tensor(rng.normal(size=(2, 5, 8)))).shape == (2, 5, 8)
        encoder = TransformerEncoder(8, 2, 16, num_layers=3, rng=rng)
        assert encoder(Tensor(rng.normal(size=(2, 5, 8)))).shape == (2, 5, 8)

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            TransformerEncoder(8, 2, 16, num_layers=0)

    def test_flops_scale_with_depth(self, rng):
        shallow = TransformerEncoder(8, 2, 16, num_layers=1, rng=rng).flops(16)
        deep = TransformerEncoder(8, 2, 16, num_layers=4, rng=rng).flops(16)
        assert deep == 4 * shallow

    def test_gradients_reach_parameters(self, rng):
        encoder = TransformerEncoder(8, 2, 16, num_layers=1, rng=rng)
        encoder(Tensor(rng.normal(size=(2, 4, 8)))).sum().backward()
        grads = [p.grad for p in encoder.parameters() if p.grad is not None]
        assert len(grads) > 0


class TestPooling:
    def test_masked_mean_ignores_padding(self, rng):
        pool = MaskedMeanPool()
        x = np.zeros((1, 4, 2))
        x[0, :2] = 1.0
        mask = np.array([[1, 1, 0, 0]])
        np.testing.assert_allclose(pool(Tensor(x), mask=mask).numpy(), [[1.0, 1.0]])

    def test_masked_mean_without_mask(self, rng):
        pool = MaskedMeanPool()
        x = rng.normal(size=(3, 4, 2))
        np.testing.assert_allclose(pool(Tensor(x)).numpy(), x.mean(axis=1))

    def test_last_step_pool_uses_mask(self, rng):
        pool = LastStepPool()
        x = np.arange(8, dtype=float).reshape(1, 4, 2)
        mask = np.array([[1, 1, 1, 0]])
        np.testing.assert_allclose(pool(Tensor(x), mask=mask).numpy(), [[4.0, 5.0]])

    def test_attentive_time_pool_shape(self, rng):
        pool = AttentiveTimePool(6, rng=rng)
        out = pool(Tensor(rng.normal(size=(3, 5, 6))), mask=np.ones((3, 5)))
        assert out.shape == (3, 6)

    def test_attentive_layer_sum(self, rng):
        pool = AttentiveLayerSum(4, num_layers=3, rng=rng)
        layers = [Tensor(rng.normal(size=(2, 5, 4))) for _ in range(3)]
        assert pool(layers).shape == (2, 4)
        assert pool(layers, mask=np.ones((2, 5))).shape == (2, 4)

    def test_attentive_layer_sum_requires_layers(self, rng):
        pool = AttentiveLayerSum(4, num_layers=1, rng=rng)
        with pytest.raises(ValueError):
            pool([])
