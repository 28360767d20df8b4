"""The declared environment-flag table (DESIGN.md §9).

Every ``REPRO_*`` environment variable the package consults is declared here
— name, default, one-line contract and a docs reference — and read through
:func:`read_flag` / :func:`flag_enabled`.  This module is the *only* place in
``src/`` allowed to touch ``os.environ`` (rule ``ENV01`` of
``python -m repro.lint``), and any ``REPRO_*`` literal elsewhere must match a
declared flag (rule ``ENV02``).  The point is operational determinism: a
sweep result must be reproducible from (config, code revision, flag table) —
an undeclared environment read is a hidden input no cache key accounts for.

Two flags remain, and neither may change a simulation result:
``REPRO_RECONFIG_ENGINE`` picks one of two Algorithm 1 engines that produce
identical allocations (differential-tested), and ``REPRO_NATIVE_CFLAGS``
adds build flags (e.g. sanitizers) to the fluid kernel without changing its
source.  The fluid model itself has no switch: one compiled kernel, with the
pure-Python scalar oracle as the fallback when the kernel cannot be built
(DESIGN.md §2).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class EnvFlag:
    """One declared environment flag.

    Attributes:
        name: The environment variable, ``REPRO_*``.
        default: Value used when the variable is unset (always a string;
            consumers parse).
        doc: One-line contract of the flag.
        reference: Where the flag's behaviour is documented in depth.
    """

    name: str
    default: str
    doc: str
    reference: str


#: The flag table, keyed by flag name.  Populated below via
#: :func:`declare_flag`; ``python -m repro.lint`` parses these declarations
#: statically, so entries must be literal calls in this module.
FLAGS: Dict[str, EnvFlag] = {}


def declare_flag(name: str, default: str, doc: str, reference: str) -> EnvFlag:
    """Register one flag in the table (module-definition time only)."""
    if not name.startswith("REPRO_"):
        raise ValueError(f"flag names must start with REPRO_, got {name!r}")
    if name in FLAGS:
        raise ValueError(f"flag {name} declared twice")
    flag = EnvFlag(name=name, default=default, doc=doc, reference=reference)
    FLAGS[name] = flag
    return flag


declare_flag(
    "REPRO_RECONFIG_ENGINE",
    "",
    "Default Algorithm 1 reconfiguration engine: auto, vectorized or "
    "scalar (empty = auto). Both engines produce identical allocations.",
    "DESIGN.md §5",
)
declare_flag(
    "REPRO_NATIVE_CFLAGS",
    "",
    "Extra compile/link flags for the cffi waterfill kernel (e.g. "
    "'-fsanitize=address,undefined -fno-sanitize-recover=all' on the CI "
    "sanitizer leg). The build cache is keyed by these flags, so sanitized "
    "and plain builds never collide.",
    "DESIGN.md §9",
)


def read_flag(name: str) -> str:
    """Read a declared flag from the environment (default when unset).

    Raises:
        KeyError: If ``name`` is not in the declared table — an undeclared
            read is a lint violation at analysis time and a hard error at
            runtime, so the table cannot silently rot.
    """
    try:
        flag = FLAGS[name]
    except KeyError:
        raise KeyError(
            f"environment flag {name!r} is not declared in repro.flags.FLAGS; "
            f"declare it there (name, default, contract, docs reference) "
            f"before reading it"
        ) from None
    return os.environ.get(flag.name, flag.default)


def flag_enabled(name: str) -> bool:
    """Boolean reading of a declared flag (``"0"`` and ``""`` are false)."""
    return read_flag(name) not in ("", "0")
