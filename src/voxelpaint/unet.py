"""3D U-Net for masked volume inpainting.

Three encoder levels, a bridge, three decoder levels. Every conv is
3x3x3 with padding 1 followed by instance norm; encoder/decoder blocks
activate with PReLU, the bridge with ReLU. Each PReLU block runs its norm
and activation as one op (``autodiff.norm_prelu``), so the graph keeps no
norm output there; the bridge's norm output, at the coarsest grid, is
kept for its ReLU. Downsampling is 2x2x2 max
pooling; each decoder level doubles its input by nearest-neighbor
replication and concatenates the skip, inside its first conv
(``autodiff.upconv3d``), so neither joined array is kept.
Dropout sits at the end of the bridge and of each decoder block. The
head is a single linear 1x1x1 conv, the only conv with a bias: the norm
after each other conv subtracts every channel's mean, cancelling a bias.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError

ENCODER_LEVELS = 3


@dataclass(frozen=True)
class UNetConfig:
    """The architecture a checkpoint stores; an out-of-range field raises ConfigError."""

    base_channels: int = 32
    dropout_rate: float = 0.2

    def __post_init__(self):
        if self.base_channels < 1:
            raise ConfigError(f"base_channels must be >= 1, got {self.base_channels}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")


class UNet:
    """Parameter container plus the forward pass."""

    def __init__(self, config: UNetConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    def parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.params.items())

    def param_tensors(self) -> list[Tensor]:
        return list(self.params.values())

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    # -- forward --------------------------------------------------------

    def forward(self, voided: Tensor, mask: Tensor, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        """Predict a full volume from the voided image and combined mask.

        Both inputs are [N,1,D,H,W] with D,H,W divisible by 2**3 so the
        three pooling stages produce whole extents.
        """
        for name, t in (("voided", voided), ("mask", mask)):
            if t.data.ndim != 5 or t.data.shape[1] != 1:
                raise ShapeError(f"{name} input must be [N,1,D,H,W], got {t.shape}")
        if voided.data.shape != mask.data.shape:
            raise ShapeError(f"voided {voided.shape} and mask {mask.shape} disagree")
        divisor = 2 ** ENCODER_LEVELS
        if any(e % divisor for e in voided.data.shape[2:]):
            raise ShapeError(
                f"spatial extents {voided.data.shape[2:]} must be divisible by {divisor}")
        if training and self.config.dropout_rate > 0 and rng is None:
            raise ValueError("training forward pass needs an rng for dropout")

        p = self.params
        rate = self.config.dropout_rate

        def conv_block(x, prefix, act, skip=None):
            # with a skip, the first conv is the decoder's upsample + concat + conv in one op
            for j in (1, 2):
                weight = p[f"{prefix}.conv{j}.weight"]
                if skip is not None and j == 1:
                    x = ad.upconv3d(x, skip, weight)
                else:
                    x = ad.conv3d(x, weight, padding=1)
                norm = p[f"{prefix}.norm{j}.gamma"], p[f"{prefix}.norm{j}.beta"]
                if act == "prelu":
                    x = ad.norm_prelu(x, *norm, p[f"{prefix}.act{j}.alpha"])
                else:
                    x = ad.relu(ad.instance_norm(x, *norm))
            return x

        x = ad.concat_channels(voided, mask)
        skips = []
        for i in range(ENCODER_LEVELS):
            x = conv_block(x, f"enc{i}", "prelu")
            skips.append(x)
            x = ad.maxpool3d(x)

        x = conv_block(x, "bridge", "relu")
        x = ad.dropout(x, rate, training, rng)

        for i in reversed(range(ENCODER_LEVELS)):
            x = conv_block(x, f"dec{i}", "prelu", skips[i])
            x = ad.dropout(x, rate, training, rng)

        return ad.conv3d(x, p["final.weight"], p["final.bias"], padding=0)


def param_shapes(config: UNetConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in model order, without allocating any."""
    shapes: dict[str, tuple[int, ...]] = {}

    def add_block(prefix, cin, cout, act):
        for j, ci in ((1, cin), (2, cout)):
            shapes[f"{prefix}.conv{j}.weight"] = (cout, ci, 3, 3, 3)
            shapes[f"{prefix}.norm{j}.gamma"] = shapes[f"{prefix}.norm{j}.beta"] = (cout,)
            if act == "prelu":
                shapes[f"{prefix}.act{j}.alpha"] = (1,)

    enc = [config.base_channels * 2 ** i for i in range(ENCODER_LEVELS)]
    prev = 2  # the voided scan and the mask
    for i, c in enumerate(enc):
        add_block(f"enc{i}", prev, c, "prelu")
        prev = c
    add_block("bridge", prev, 2 * prev, "relu")
    prev *= 2
    for i in reversed(range(ENCODER_LEVELS)):
        add_block(f"dec{i}", prev + enc[i], enc[i], "prelu")
        prev = enc[i]
    shapes["final.weight"] = (1, prev, 1, 1, 1)
    shapes["final.bias"] = (1,)
    return shapes


def build_unet(config: UNetConfig, rng: np.random.Generator,
               dtype=np.float32) -> UNet:
    """Create a U-Net with fan-in-scaled normal conv weights.

    Conv weights draw from N(0, sqrt(2 / fan_in)) with fan_in the number
    of inputs feeding one output voxel, in model order; the head's bias and
    norm shifts start at zero, norm scales at one, PReLU alphas at 0.25.
    """
    starts = {"gamma": 1.0, "beta": 0.0, "alpha": 0.25, "bias": 0.0}
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(config).items():
        kind = name.rsplit(".", 1)[1]
        if kind == "weight":
            arr = rng.normal(0.0, np.sqrt(2.0 / np.prod(shape[1:])), size=shape)
        else:
            arr = np.full(shape, starts[kind])
        params[name] = Tensor(np.asarray(arr, dtype=dtype), requires_grad=True)
    return UNet(config, params)
