"""Repo-level pytest configuration.

Registers the ``--quick`` smoke-mode flag here (the rootdir conftest) so it
is available both for full-tree runs and for targeted benchmark invocations
like ``pytest benchmarks/test_reconfig_throughput.py --quick``; benchmarks
that support it shrink their problem sizes and skip speedup assertions.
Fixtures defined here are shared by ``tests/`` and ``benchmarks/``.
"""

import contextlib

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="run benchmarks in smoke mode (small sizes, no speedup assertions)",
    )


@pytest.fixture
def without_kernel():
    """The test seam for the scalar oracle: ``without_kernel()`` is a
    context manager inside which ``repro.sim._native.native_lib`` returns
    ``None``, exactly as on a host without a C compiler, so every solve and
    advance runs on the pure-Python oracle.  Differential tests run their
    kernel leg outside it and their oracle leg inside it;
    ``without_kernel(False)`` leaves the kernel in place, for legs chosen
    by a parameter."""
    from repro.sim import _native

    @contextlib.contextmanager
    def unavailable(active=True):
        with pytest.MonkeyPatch.context() as patch:
            if active:
                patch.setattr(_native, "native_lib", lambda: None)
            yield

    return unavailable
