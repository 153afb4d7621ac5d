"""meridian4: static potential meridional vector fields in R^4 built from
radially holomorphic quaternionic functions, with closed-form spectra,
Bessel-type separable solutions, transform-generated fields, PDE verifiers,
and gradient-flow dynamics."""

from . import errors
from .quaternion import *
from .holomorphic import *
from .specfun import *
from .transforms import *
from .fields import *
from .spectral import *
from .dynsys import *

__version__ = "0.1.0"
