"""Fixtures shared by several test modules."""

import warnings

import pytest

from repro.kernels import dispatch


@pytest.fixture(params=dispatch.BACKENDS)
def kernel_tier(request, monkeypatch):
    """Run the test with ``REPRO_KERNELS=<tier>`` (skipped when the tier
    does not load on this host)."""
    monkeypatch.setenv(dispatch.ENV_KERNELS, request.param)
    dispatch._reset_for_tests()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        resolved = dispatch.active_backend()
    if resolved != request.param:
        dispatch._reset_for_tests()
        pytest.skip(f"kernel tier {request.param} unavailable")
    yield request.param
    dispatch._reset_for_tests()
