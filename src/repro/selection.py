"""Process-wide implementation selection for the Algorithm 1 engine.

The reconfiguration engine (:mod:`repro.core.reconfigure`) is chosen by a
tuple of implementation names with an ``"auto"`` alias, a process-wide
override, an environment-variable default, and a resolver that maps the
requested name to a concrete implementation.  This module owns that
machinery.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.flags import read_flag


class ImplementationSelector:
    """Selection state for one family of interchangeable implementations.

    Args:
        kind: Noun used in error messages (e.g. ``"solver"``, ``"engine"``).
        names: Accepted names, including the ``"auto"`` alias.
        env_var: Environment variable consulted when no override is set;
            must be declared in :data:`repro.flags.FLAGS`.
        resolver: Maps a validated requested name to the concrete
            implementation name (resolves ``"auto"`` and any aliases).
    """

    def __init__(
        self,
        kind: str,
        names: Sequence[str],
        env_var: str,
        resolver: Callable[[str], str],
    ) -> None:
        self.kind = kind
        self.names = tuple(names)
        self.env_var = env_var
        self._resolver = resolver
        self._override: Optional[str] = None

    def default(self) -> str:
        """The name used when none is given (override, then env, then auto)."""
        if self._override is not None:
            return self._override
        env = read_flag(self.env_var).strip().lower()
        if not env:
            return "auto"
        if env not in self.names:
            raise ValueError(
                f"{self.env_var} must be one of {self.names}, got {env!r}"
            )
        return env

    def set_default(self, name: Optional[str]) -> None:
        """Override the process-wide default (``None`` resets to the env)."""
        if name is not None and name not in self.names:
            raise ValueError(
                f"{self.kind} must be one of {self.names}, got {name!r}"
            )
        self._override = name

    def resolve(self, name: Optional[str]) -> str:
        """Resolve a requested name to a concrete implementation."""
        if name is None:
            name = self.default()
        if name not in self.names:
            raise ValueError(
                f"{self.kind} must be one of {self.names}, got {name!r}"
            )
        return self._resolver(name)
