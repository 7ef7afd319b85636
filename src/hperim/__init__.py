"""Horizontal-perimeter variational toolkit on the first Heisenberg group.

Exact first and second derivatives travel through a small forward-mode jet
algebra, surface quantities come from defining functions, integrals from an
adaptive Gauss-Kronrod scheme with deterministic compensated accumulation,
and the instability of the ruled minimal graphs x = y (alpha t + beta) is
certified by explicit cutoff deformations with negative second variation.
"""

from . import core, graphs, identities, instability, intrinsic, quadrature, surfaces, variation
from .core import *  # noqa: F401,F403
from .graphs import *  # noqa: F401,F403
from .identities import *  # noqa: F401,F403
from .instability import *  # noqa: F401,F403
from .intrinsic import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
from .surfaces import *  # noqa: F401,F403
from .variation import *  # noqa: F401,F403

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = [
    *core.__all__,
    *graphs.__all__,
    *identities.__all__,
    *instability.__all__,
    *intrinsic.__all__,
    *quadrature.__all__,
    *surfaces.__all__,
    *variation.__all__,
    "__version__",
]
