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

    def _state_arrays(self):
        """Name -> live array: parameters, then buffers, in checkpoint order."""
        state = {name: p.data for name, p in self.named_parameters()}
        state.update(self.named_buffers())
        return state

    def state_dict(self):
        return {name: array.copy() for name, array in self._state_arrays().items()}

    def load_state_dict(self, state):
        arrays = self._state_arrays()
        missing = set(arrays) - set(state)
        unexpected = set(state) - set(arrays)
        if missing or unexpected:
            raise ParameterError(
                f"state mismatch: missing {sorted(missing)}, unexpected {sorted(unexpected)}"
            )
        for name, array in arrays.items():
            if array.shape != state[name].shape:
                raise ParameterError(
                    f"shape mismatch for '{name}': {array.shape} vs {state[name].shape}"
                )
            array[...] = state[name]


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


_CONV_OPS = {(2, False): "conv2d", (3, False): "conv3d", (3, True): "conv_transpose3d"}


class Conv(Module):
    """2D or 3D convolution, direct or transposed; the rank comes from `kernel`.

    The weight is (out_ch, in_ch, *kernel), or (in_ch, out_ch, *kernel) when
    transposed; weight and bias are drawn from `rng` in +-1/sqrt(in_ch * prod(kernel)).

    Each axis is padded by (k - 1) // 2, so an odd kernel at stride s maps an
    extent n to ceil(n / s), or to n * s when transposed (output_padding
    s - 1). A direct 3D conv replicates its depth edges instead of zeros, so
    a volume constant along depth stays constant through it.
    """

    def __init__(self, in_ch, out_ch, kernel, stride=1, transposed=False, bias=True, *, rng):
        super().__init__()
        k = tuple(kernel)
        stride = (stride,) * len(k) if np.ndim(stride) == 0 else tuple(stride)
        pad = [(n - 1) // 2 for n in k]
        edge = pad[0] if len(k) == 3 and not transposed else 0
        pad[0] -= edge
        outpad = tuple(s - 1 for s in stride) if transposed else 0
        self.op = _CONV_OPS[len(k), transposed]
        fan_in = in_ch * int(np.prod(k))
        channels = (in_ch, out_ch) if transposed else (out_ch, in_ch)
        self.weight = Parameter(_uniform_init(rng, (*channels, *k), fan_in))
        self.bias = Parameter(_uniform_init(rng, (out_ch,), fan_in)) if bias else None
        self.params = ConvParams(self.weight, self.bias, stride, tuple(pad), outpad, edge)

    def forward(self, x):
        # resolved per call, so a wrapper installed on the tensor module sees it
        return getattr(T, self.op)(x, self.params)


BN_MOMENTUM = 0.9  # weight of the old running statistics per update


class BatchNorm(Module):
    """Per-channel normalization ending in the ReLU (`tensor.batch_norm`);
    spatial rank is inferred from the input.

    The one place that picks the statistics. Training normalizes with the
    sample's own and moves the running buffers by `BN_MOMENTUM`; outside it,
    `eval_stats` "instance" also uses the sample's own (the single-sample
    training distribution), and "running" uses the buffers unchanged.
    """

    def __init__(self, num_features):
        super().__init__()
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))
        self.eval_stats = "instance"

    def forward(self, x):
        own = self.training or self.eval_stats == "instance"
        stats = () if own else (self.running_mean, self.running_var)
        y, mean, var = T.batch_norm(x, self.gamma, self.beta, *stats)
        if self.training:
            self.running_mean *= BN_MOMENTUM
            self.running_mean += (1.0 - BN_MOMENTUM) * mean
            self.running_var *= BN_MOMENTUM
            self.running_var += (1.0 - BN_MOMENTUM) * var
        return y


class ConvBnReLU(Module):
    """Bias-free `Conv`, then batch norm, which ends in the ReLU; the conv
    sets the geometry. Two tape nodes, whose only arrays are the conv's
    input (or its rebuild) and batch norm's `xhat`."""

    def __init__(self, in_ch, out_ch, kernel, stride=1, transposed=False, *, rng):
        super().__init__()
        self.conv = Conv(in_ch, out_ch, kernel, stride, transposed, bias=False, rng=rng)
        self.bn = BatchNorm(out_ch)

    def forward(self, x):
        return self.bn.forward(self.conv.forward(x))


class Adam:
    """Adam with bias correction."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params, lr):
        if lr < 0:
            raise ParameterError(f"learning rate must be >= 0, got {lr}")
        self.params = list(params)
        self.lr = lr
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
