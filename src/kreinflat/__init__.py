"""kreinflat: networks as flat indefinite kernel machines.

Modules
-------
activations   Taylor-series activation engine and associated functions
netcore       feed-forward networks: evaluation, training, serialization
pushforward   monomial feature maps and the exact flattening tower
kreinkernel   indefinite network kernels and positive companions
ksvm          kernel machines over (possibly indefinite) Gram matrices
analysis      penalty chains, capacity bounds, sparsity profiles
cli           the command-line front end
"""

from . import activations, analysis, kreinkernel, ksvm, netcore, pushforward
from .errors import DivergenceError, DomainError, InputError, NearSingularError, SizeLimitError

__all__ = [
    "activations",
    "analysis",
    "kreinkernel",
    "ksvm",
    "netcore",
    "pushforward",
    "DivergenceError",
    "DomainError",
    "InputError",
    "NearSingularError",
    "SizeLimitError",
]

__version__ = "0.1.0"
