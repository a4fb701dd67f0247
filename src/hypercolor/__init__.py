"""Hyperspectral datacube reconstruction from a guide image and sparse spectra.

The pipeline simulates realistic photon-limited acquisition of a grayscale
guide plus a handful of spectral samples, then propagates those samples to
every pixel through guide-driven affinities, optionally inside a learned
low-rank spectral subspace. Experiment helpers sweep acquisition budgets,
sampling patterns, and reconstruction dimensions, and score results with
spatial and spectral metrics.

Each module declares its public names once, in its own ``__all__``; the
package re-exports exactly those lists.
"""

from . import (
    colorizer, core, errors, formats, harness, metrics, noisesim, sampling, subspace,
)
from .colorizer import *
from .core import *
from .errors import *
from .formats import *
from .harness import *
from .metrics import *
from .noisesim import *
from .sampling import *
from .subspace import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *colorizer.__all__,
    *core.__all__,
    *errors.__all__,
    *formats.__all__,
    *harness.__all__,
    *metrics.__all__,
    *noisesim.__all__,
    *sampling.__all__,
    *subspace.__all__,
]
