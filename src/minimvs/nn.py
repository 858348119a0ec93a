"""Layers, parameter containers, and the Adam optimizer.

Modules register parameters and children automatically through attribute
assignment; `named_parameters` / `named_buffers` walk the tree in insertion
order so checkpoints and optimizer state are deterministic.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ParameterError
from .tensor import ConvParams, Parameter


class Module:
    def __init__(self):
        self.__dict__["_params"] = {}
        self.__dict__["_modules"] = {}
        self.__dict__["_buffers"] = {}
        self.__dict__["training"] = True

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name, array):
        array = np.asarray(array, dtype=np.float64)
        self._buffers[name] = array
        object.__setattr__(self, name, array)
        return array

    def named_parameters(self, prefix=""):
        for name, p in self._params.items():
            yield prefix + name, p
        for name, m in self._modules.items():
            yield from m.named_parameters(prefix + name + ".")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix=""):
        for name, b in self._buffers.items():
            yield prefix + name, b
        for name, m in self._modules.items():
            yield from m.named_buffers(prefix + name + ".")

    def modules(self):
        yield self
        for m in self._modules.values():
            yield from m.modules()

    def train(self, mode=True):
        for m in self.modules():
            object.__setattr__(m, "training", bool(mode))
        return self

    def eval(self):
        return self.train(False)

    def state_dict(self):
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for name, b in self.named_buffers():
            state[name] = b.copy()
        return state

    def load_state_dict(self, state):
        expected = dict(self.named_parameters())
        buffers = dict(self.named_buffers())
        missing = (set(expected) | set(buffers)) - set(state)
        unexpected = set(state) - set(expected) - set(buffers)
        if missing or unexpected:
            raise ParameterError(
                f"state mismatch: missing {sorted(missing)}, unexpected {sorted(unexpected)}"
            )
        for name, p in expected.items():
            if p.data.shape != state[name].shape:
                raise ParameterError(
                    f"shape mismatch for '{name}': {p.data.shape} vs {state[name].shape}"
                )
            p.data[...] = state[name]
        for name, b in buffers.items():
            if b.shape != state[name].shape:
                raise ParameterError(
                    f"shape mismatch for buffer '{name}': {b.shape} vs {state[name].shape}"
                )
            b[...] = state[name]


class ModuleList(Module):
    def __init__(self, items=()):
        super().__init__()
        self._items = []
        for item in items:
            self.append(item)

    def append(self, module):
        setattr(self, str(len(self._items)), module)
        self._items.append(module)

    def __getitem__(self, i):
        return self._items[i]

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        return iter(self._items)


def _uniform_init(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Conv2d(Module):
    def __init__(self, in_ch, out_ch, kernel, stride=1, padding=0, bias=True, rng=None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        k = (kernel, kernel) if isinstance(kernel, int) else tuple(kernel)
        fan_in = in_ch * int(np.prod(k))
        self.weight = Parameter(_uniform_init(rng, (out_ch, in_ch, *k), fan_in))
        self.bias = Parameter(_uniform_init(rng, (out_ch,), fan_in)) if bias else None
        self.stride = stride
        self.padding = padding

    def forward(self, x):
        return T.conv2d(x, ConvParams(self.weight, self.bias, self.stride, self.padding))


class Conv3d(Module):
    def __init__(self, in_ch, out_ch, kernel, stride=1, padding=0, bias=True, rng=None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        k = (kernel,) * 3 if isinstance(kernel, int) else tuple(kernel)
        fan_in = in_ch * int(np.prod(k))
        self.weight = Parameter(_uniform_init(rng, (out_ch, in_ch, *k), fan_in))
        self.bias = Parameter(_uniform_init(rng, (out_ch,), fan_in)) if bias else None
        self.stride = stride
        self.padding = padding

    def forward(self, x):
        return T.conv3d(x, ConvParams(self.weight, self.bias, self.stride, self.padding))


class ConvTranspose3d(Module):
    def __init__(self, in_ch, out_ch, kernel, stride=1, padding=0, output_padding=0,
                 bias=True, rng=None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        k = (kernel,) * 3 if isinstance(kernel, int) else tuple(kernel)
        fan_in = in_ch * int(np.prod(k))
        self.weight = Parameter(_uniform_init(rng, (in_ch, out_ch, *k), fan_in))
        self.bias = Parameter(_uniform_init(rng, (out_ch,), fan_in)) if bias else None
        self.stride = stride
        self.padding = padding
        self.output_padding = output_padding

    def forward(self, x):
        return T.conv_transpose3d(
            x,
            ConvParams(self.weight, self.bias, self.stride, self.padding, self.output_padding),
        )


class BatchNorm(Module):
    """Per-channel normalization; spatial rank is inferred from the input.

    `eval_stats` picks the statistics used outside training: "instance"
    normalizes each sample by its own spatial statistics (no side effects;
    matches the single-sample training distribution), "running" uses the
    tracked averages.
    """

    def __init__(self, num_features, momentum=0.9, eps=1e-5, eval_stats="instance"):
        super().__init__()
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))
        self.momentum = momentum
        self.eps = eps
        self.eval_stats = eval_stats

    def forward(self, x):
        batch_stats = self.training or self.eval_stats == "instance"
        return T.batch_norm(
            x, self.gamma, self.beta, self.running_mean, self.running_var,
            training=batch_stats, momentum=self.momentum, eps=self.eps,
            update_running=self.training,
        )


class ConvBnReLU2d(Module):
    def __init__(self, in_ch, out_ch, kernel=3, stride=1, padding=1, rng=None):
        super().__init__()
        self.conv = Conv2d(in_ch, out_ch, kernel, stride, padding, bias=False, rng=rng)
        self.bn = BatchNorm(out_ch)

    def forward(self, x):
        return T.relu(self.bn.forward(self.conv.forward(x)))


class ConvBnReLU3d(Module):
    """3D conv block; a depth-3 kernel uses edge replication along depth.

    Depth replication (rather than zero padding) keeps a volume that is
    constant along the hypothesis axis constant through the block, which the
    regularizer relies on.
    """

    def __init__(self, in_ch, out_ch, kernel=(3, 3, 3), stride=(1, 1, 1), rng=None):
        super().__init__()
        k = (kernel,) * 3 if isinstance(kernel, int) else tuple(kernel)
        self.depth_pad = (k[0] - 1) // 2
        pad = (0, (k[1] - 1) // 2, (k[2] - 1) // 2)
        self.conv = Conv3d(in_ch, out_ch, k, stride, pad, bias=False, rng=rng)
        self.bn = BatchNorm(out_ch)

    def forward(self, x):
        if self.depth_pad:
            x = T.replicate_pad_axis(x, 1, self.depth_pad, self.depth_pad)
        return T.relu(self.bn.forward(self.conv.forward(x)))


class Adam(object):
    """Adam with bias correction (beta1=0.9, beta2=0.999, eps=1e-8)."""

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        if lr < 0:
            raise ParameterError(f"learning rate must be >= 0, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * (p.grad * p.grad)
            p.data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.grad = None
