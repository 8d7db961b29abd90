"""The precision of a top-k request: always ``exact``.

Every top-k request runs Algorithm 4's pruned scan, so every answer is
exact.  :class:`PrecisionPolicy` is the one check of a request's
``precision`` value: the scheduler's ``submit`` and the front door
accept ``None`` or ``"exact"`` and refuse anything else.
"""

from __future__ import annotations

from ..exceptions import InvalidParameterError


class PrecisionPolicy:
    """The exact tier, the only one served.

    Examples
    --------
    >>> PrecisionPolicy.resolve(None).spec
    'exact'
    >>> PrecisionPolicy.resolve("bounded")
    Traceback (most recent call last):
        ...
    repro.exceptions.InvalidParameterError: unknown precision 'bounded'; only 'exact' is served
    """

    spec = "exact"

    @classmethod
    def resolve(cls, value) -> "PrecisionPolicy":
        """The policy for ``None`` or ``"exact"``; anything else raises
        :class:`~repro.exceptions.InvalidParameterError`."""
        if value is not None and value != cls.spec:
            raise InvalidParameterError(
                f"unknown precision {value!r}; only 'exact' is served"
            )
        return cls()
