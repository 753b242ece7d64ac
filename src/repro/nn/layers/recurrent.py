"""LSTM layers for the behaviour encoding module (Fig. 2, Sec. V-A3)."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn import init as initializers
from repro.nn.module import Module, ModuleList, Parameter
from repro.nn.tensor import Tensor

__all__ = ["LSTMCell", "LSTM"]


class LSTMCell(Module):
    """A single LSTM cell computing one time step."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        # Gates are packed as [input, forget, cell, output] along the output dim.
        self.weight_ih = Parameter(initializers.xavier_uniform((input_size, 4 * hidden_size), rng))
        self.weight_hh = Parameter(initializers.xavier_uniform((hidden_size, 4 * hidden_size), rng))
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size: 2 * hidden_size] = 1.0  # forget-gate bias trick
        self.bias = Parameter(bias)

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        h_prev, c_prev = state
        gates = x @ self.weight_ih + h_prev @ self.weight_hh + self.bias
        hidden = self.hidden_size
        i_gate = gates[:, 0 * hidden:1 * hidden].sigmoid()
        f_gate = gates[:, 1 * hidden:2 * hidden].sigmoid()
        g_gate = gates[:, 2 * hidden:3 * hidden].tanh()
        o_gate = gates[:, 3 * hidden:4 * hidden].sigmoid()
        c_new = f_gate * c_prev + i_gate * g_gate
        h_new = o_gate * c_new.tanh()
        return h_new, c_new

    def flops(self) -> int:
        """FLOPs for one time step and one sequence."""
        matmuls = 2 * (self.input_size + self.hidden_size) * 4 * self.hidden_size
        elementwise = 10 * self.hidden_size
        return matmuls + elementwise


class LSTM(Module):
    """Multi-layer unidirectional LSTM over (B, T, C) inputs.

    Returns the full output sequence (B, T, H) from the top layer together
    with the final (h, c) of each layer.  Each layer runs as one fused
    autograd node over the whole sequence (see :func:`_lstm_layer`); the
    per-step arithmetic is that of :meth:`LSTMCell.forward`.
    """

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        cells: List[LSTMCell] = []
        for layer in range(num_layers):
            in_size = input_size if layer == 0 else hidden_size
            cells.append(LSTMCell(in_size, hidden_size, rng=rng))
        self.cells = ModuleList(cells)

    def forward(self, x: Tensor) -> Tuple[Tensor, List[Tuple[Tensor, Tensor]]]:
        sequence = x
        steps = [x.data[:, t, :] for t in range(x.shape[1])]
        final_states: List[Tuple[Tensor, Tensor]] = []
        for cell in self.cells:
            sequence, steps, state = _lstm_layer(cell, sequence, steps)
            final_states.append(state)
        return sequence, final_states

    def infer(self, x: np.ndarray) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]:
        steps = [x[:, t, :] for t in range(x.shape[1])]
        final_states: List[Tuple[np.ndarray, np.ndarray]] = []
        for cell in self.cells:
            steps, h, c = _lstm_steps(cell, steps)
            final_states.append((h, c))
        return np.stack(steps, axis=1), final_states

    def flops(self, seq_len: int) -> int:
        """FLOPs for one sequence of length ``seq_len``."""
        return sum(cell.flops() for cell in self.cells) * seq_len


def _lstm_steps(cell: LSTMCell, steps: List[np.ndarray],
                saved: Optional[List[Tuple[np.ndarray, ...]]] = None
                ) -> Tuple[List[np.ndarray], np.ndarray, np.ndarray]:
    """Step ``cell`` over the (B, C) inputs ``steps`` from a zero state.

    Returns each step's (B, H) output and the final ``h`` and ``c``; with
    ``saved``, each step's gate activations and previous ``c`` are appended
    to it for the backward.  These are the numpy calls of
    :meth:`LSTMCell.forward` in the same order, except that one sigmoid runs
    over all four packed gates (it is elementwise, so the i, f and o columns
    are bitwise those of a sigmoid over each slice) and g's tanh then
    overwrites its columns: a step keeps one (B, 4H) array of activations,
    no more than the four gates.
    """
    w_ih, w_hh, bias = cell.weight_ih.data, cell.weight_hh.data, cell.bias.data
    hidden = cell.hidden_size
    batch = len(steps[0])
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    outputs: List[np.ndarray] = []
    for x_t in steps:
        gates = x_t @ w_ih + h @ w_hh + bias
        acts = 1.0 / (1.0 + np.exp(-gates))
        i_gate, f_gate = acts[:, 0 * hidden:1 * hidden], acts[:, 1 * hidden:2 * hidden]
        g_gate, o_gate = acts[:, 2 * hidden:3 * hidden], acts[:, 3 * hidden:4 * hidden]
        g_gate[...] = np.tanh(gates[:, 2 * hidden:3 * hidden])
        c_new = f_gate * c + i_gate * g_gate
        tanh_c = np.tanh(c_new)
        if saved is not None:
            saved.append((i_gate, f_gate, g_gate, o_gate, c, tanh_c))
        h, c = o_gate * tanh_c, c_new
        outputs.append(h)
    return outputs, h, c


def _lstm_layer(cell: LSTMCell, inputs: Tensor, steps: List[np.ndarray]
                ) -> Tuple[Tensor, List[np.ndarray], Tuple[Tensor, Tensor]]:
    """Run ``cell`` over a whole sequence as one autograd node.

    ``steps`` holds the (B, C) input of each time step: views into
    ``inputs`` (B, T, C) for the first layer, the previous layer's per-step
    outputs after that, so each matmul sees the operand stepping the cell
    would.  Returns the output sequence (B, T, H), its per-step (B, H)
    arrays (the next layer's ``steps``) and the final ``(h, c)``.

    The forward is :func:`_lstm_steps`, so its outputs are bitwise equal to
    stepping the cell.  A graph is built when an input or the cell's
    parameters require grad: the forward then keeps each step's gate
    activations for a hand-written backprop through time that accumulates
    each parameter's gradient once.  The final ``h`` and ``c`` are nodes
    whose child is the sequence node, so their gradients are complete when
    the sequence node's backward reads them.
    """
    w_ih, w_hh, bias = cell.weight_ih, cell.weight_hh, cell.bias
    hidden = cell.hidden_size
    requires = any(t.requires_grad for t in (inputs, w_ih, w_hh, bias))
    batch = len(steps[0])
    saved: List[Tuple[np.ndarray, ...]] = []
    outputs, h, c = _lstm_steps(cell, steps, saved if requires else None)
    sequence = Tensor(np.stack(outputs, axis=1), requires_grad=requires,
                      _children=(inputs, w_ih, w_hh, bias) if requires else (), _op="lstm")
    final_children = (sequence,) if requires else ()
    h_last = Tensor(h, requires_grad=requires, _children=final_children, _op="lstm_h")
    c_last = Tensor(c, requires_grad=requires, _children=final_children, _op="lstm_c")
    if not requires:
        return sequence, outputs, (h_last, c_last)

    def _backward() -> None:
        # Any of these is None when that output does not reach the loss.
        d_sequence, dh_next, dc_next = sequence.grad, h_last.grad, c_last.grad
        zeros = np.zeros_like(h)
        dh_next = zeros if dh_next is None else dh_next
        dc_next = zeros if dc_next is None else dc_next
        n_steps = len(saved)
        dgates = np.empty((n_steps, batch, 4 * hidden))
        w_hh_t = w_hh.data.T
        for t in reversed(range(n_steps)):
            i_gate, f_gate, g_gate, o_gate, c_prev, tanh_c = saved[t]
            dh = dh_next if d_sequence is None else d_sequence[:, t, :] + dh_next
            dc = dc_next + dh * o_gate * (1.0 - tanh_c ** 2)
            dz = dgates[t]
            dz[:, 0 * hidden:1 * hidden] = dc * g_gate * i_gate * (1.0 - i_gate)
            dz[:, 1 * hidden:2 * hidden] = dc * c_prev * f_gate * (1.0 - f_gate)
            dz[:, 2 * hidden:3 * hidden] = dc * i_gate * (1.0 - g_gate ** 2)
            dz[:, 3 * hidden:4 * hidden] = dh * tanh_c * o_gate * (1.0 - o_gate)
            dh_next = dz @ w_hh_t
            dc_next = dc * f_gate
        flat = dgates.reshape(n_steps * batch, 4 * hidden)
        if inputs.requires_grad:
            d_in = (flat @ w_ih.data.T).reshape(n_steps, batch, -1)
            inputs._accumulate(d_in.transpose(1, 0, 2))
        if w_ih.requires_grad:
            w_ih._accumulate(np.concatenate(steps).T @ flat)
        if w_hh.requires_grad:
            h_prev = np.concatenate([zeros] + outputs[:-1])  # h_{t-1}, from h_{-1} = 0
            w_hh._accumulate(h_prev.T @ flat)
        if bias.requires_grad:
            bias._accumulate(flat.sum(axis=0))

    sequence._backward = _backward
    return sequence, outputs, (h_last, c_last)
