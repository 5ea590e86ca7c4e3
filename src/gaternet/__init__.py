"""Input-conditioned filter gating for small CNNs.

A compact backbone CNN whose convolutional filters are switched on and off
per input by a separate gater CNN. The gater emits real scores that are
discretized to binary gates with noise plus a saturating sigmoid and a
straight-through gradient, so the whole thing trains end to end with plain
SGD. Includes a three-phase training pipeline, an L1 sparsity regularizer
that only steers the gater, and analytics over logged gate activity.
"""

from gaternet.tensor import Tensor
from gaternet.model import GaterNet, LayerSpec, ModelSpec

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "GaterNet",
    "LayerSpec",
    "ModelSpec",
    "__version__",
]
