"""Pluggable kernel backends for the Algorithm 4 scan loops.

The registry maps a backend *name* to a stateless singleton implementing
the :class:`~repro.query.backends.base.KernelBackend` protocol:

``python``
    The scalar reference loops — the exactness oracle the tests and the
    kernel benchmark compare every other backend against.
``numpy``
    Blocked vectorisation of bound maintenance and the proximity
    reduction (gathered ``csr_matvec`` per chunk), bit-identical to the
    reference and the default.

Selection order for a scan: explicit ``backend=`` argument on the call,
else the ``PreparedIndex``'s construction-time choice, which itself
defaults to the ``REPRO_KERNEL_BACKEND`` environment variable and
finally to :data:`DEFAULT_BACKEND`.  Worker processes (the replica pool,
the shard pool) inherit the environment variable, so one ``export``
switches every serving tier at once.

All backends satisfy the bit-exactness contract documented in
:mod:`repro.query.backends.base`; the differential battery in
``tests/property/test_prop_backends.py`` enforces it.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple, Union

from ...exceptions import InvalidParameterError
from .base import KernelBackend, ScanResult
from .numpy_blocked import NumpyBlockedBackend
from .python_ref import PythonReferenceBackend

__all__ = [
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "KernelBackend",
    "ScanResult",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
]

#: Environment variable consulted when no explicit backend is given.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Name used when neither an argument nor the environment selects one:
#: the fastest registered backend.  The bit-identity contract makes the
#: choice invisible in every answer and counter, so only speed decides;
#: ``python`` stays registered as the oracle the tests compare against.
DEFAULT_BACKEND = "numpy"

_REGISTRY: Dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> None:
    """Add ``backend`` to the registry under ``backend.name``.

    Re-registering a name replaces the previous entry (useful for
    tests); names are case-sensitive and must be lowercase.
    """
    name = backend.name
    if not isinstance(name, str) or not name or name != name.lower():
        raise InvalidParameterError(
            f"kernel backend name must be a lowercase string, got {name!r}"
        )
    _REGISTRY[name] = backend


def available_backends() -> Tuple[str, ...]:
    """Sorted names of every registered backend."""
    return tuple(sorted(_REGISTRY))


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Resolve ``name`` (or the environment, or the default) to a
    registered backend name, raising ``InvalidParameterError`` on an
    unknown one."""
    if name is None:
        name = os.environ.get(ENV_VAR, "").strip() or DEFAULT_BACKEND
    name = str(name).strip().lower()
    if name not in _REGISTRY:
        raise InvalidParameterError(
            f"unknown kernel backend {name!r}; "
            f"available backends: {', '.join(available_backends())}"
        )
    return name


def get_backend(
    backend: Union[str, KernelBackend, None] = None
) -> KernelBackend:
    """Return a backend singleton.

    Accepts ``None`` (environment / default), a registered name, or an
    already-resolved backend object (returned as-is).
    """
    if backend is not None and not isinstance(backend, str):
        return backend
    return _REGISTRY[resolve_backend_name(backend)]


register_backend(PythonReferenceBackend())
register_backend(NumpyBlockedBackend())
