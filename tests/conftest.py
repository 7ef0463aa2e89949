"""Session set-up: Hypothesis keeps its storage (the example database and
its per-module constants cache, which it writes even with ``database=None``)
in a temporary directory, so a test run leaves nothing in the working tree,
and every property test runs under one profile that draws the same examples
on every run and writes no example database."""

import os
import tempfile

from hypothesis import settings

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _storage.name)

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
