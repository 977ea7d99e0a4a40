"""Shared test setup: make the local oracle helpers importable, and pick
the hypothesis profile named by HYPOTHESIS_PROFILE (default "suite";
"ci" draws five times as many examples), and count the sparse kernels
the learners call."""

import os
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest
from hypothesis import settings

import privote.learners

settings.register_profile("suite", deadline=None, max_examples=60)
settings.register_profile("ci", deadline=None, max_examples=300)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suite"))


@pytest.fixture
def kernel_calls(monkeypatch):
    """The calls of scipy's sparse product kernels that the learners make
    while the test runs, counted by name; each fit binds the module's
    names when it starts, so a spy there sees every call."""
    calls = Counter()
    for name in ("csr_matvec", "csc_matvec", "csr_matvecs", "csc_matvecs"):
        kernel = getattr(privote.learners, name)

        def counted(*args, kernel=kernel, name=name):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(privote.learners, name, counted)
    return calls
