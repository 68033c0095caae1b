"""LAPACK's tridiagonal eigensolvers, ``dstevd``, ``dstebz`` and ``dstein``,
from scipy's compiled wrapper module ``scipy.linalg._flapack``.

Importing them through ``scipy.linalg.lapack`` runs the whole
``scipy.linalg`` package init, about half of the modules, memory and time
of ``import cdlmg.cli``; the wrapper module alone loads in milliseconds.  It
is found in scipy's ``linalg`` directory without running any package init,
loaded under its canonical name and registered in ``sys.modules``, so a
later ``import scipy.linalg`` (``scipy.optimize`` imports it) reuses the
same module and the same function objects.  That later import does not set
the package attribute ``scipy.linalg._flapack``; scipy reaches the module
by ``from scipy.linalg import _flapack``, which falls back to
``sys.modules``.
"""

import importlib.machinery
import importlib.util
import sys

_NAME = "scipy.linalg._flapack"

_flapack = sys.modules.get(_NAME)
if _flapack is None:
    _scipy = importlib.util.find_spec("scipy")
    _spec = _scipy and importlib.machinery.PathFinder.find_spec(
        _NAME, [f"{p}/linalg" for p in _scipy.submodule_search_locations or ()])
    if _spec is None:
        raise ImportError(f"cdlmg needs scipy: {_NAME} not found", name=_NAME)
    _flapack = importlib.util.module_from_spec(_spec)
    sys.modules[_NAME] = _flapack
    _spec.loader.exec_module(_flapack)

dstevd, dstebz, dstein = _flapack.dstevd, _flapack.dstebz, _flapack.dstein
