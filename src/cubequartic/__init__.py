"""Quartic-moment maximisation over Fourier support sets on the cube.

Each layer module names its public API in its ``__all__``; the package
root re-exports exactly the union of those lists.
"""

from . import additive, asymptotics, core, errors, quartic, reports, spheres
from .additive import *  # noqa: F401,F403
from .asymptotics import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .quartic import *  # noqa: F401,F403
from .reports import *  # noqa: F401,F403
from .spheres import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    {
        name
        for module in (additive, asymptotics, core, errors, quartic, reports, spheres)
        for name in module.__all__
    }
    | {"__version__"}
)
