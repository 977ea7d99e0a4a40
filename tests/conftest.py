"""Shared test setup: make the local oracle helpers importable, and pick
the hypothesis profile named by HYPOTHESIS_PROFILE (default "suite";
"ci" draws five times as many examples)."""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=60)
settings.register_profile("ci", deadline=None, max_examples=300)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suite"))
