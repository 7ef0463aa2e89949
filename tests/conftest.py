"""Session set-up: Hypothesis keeps its storage (the example database and
its per-module constants cache, which it writes even with ``database=None``)
in a temporary directory, so a test run leaves nothing in the working tree."""

import os
import tempfile

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _storage.name)
