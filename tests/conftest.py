import os
from collections import Counter
from pathlib import Path

import pytest

from adafuse.tensor import active_tape

# every way a store save changes the filesystem
_MUTATIONS = ((Path, "write_bytes"), (Path, "write_text"), (Path, "unlink"), (os, "replace"))


@pytest.fixture(autouse=True)
def clear_tape():
    """Each test starts and ends with an empty op tape."""
    active_tape().clear()
    yield
    active_tape().clear()


@pytest.fixture
def fail_writes_after(monkeypatch):
    """``fail_writes_after(n)``: every ``Path.write_bytes`` after the
    first ``n`` raises, as a full disk would partway through a save.
    With ``every_mutation=True`` the count and the failure cover every
    filesystem change a save makes: ``Path.write_bytes``,
    ``Path.write_text``, ``Path.unlink`` and ``os.replace``."""
    def arm(n, every_mutation=False):
        calls = []
        for owner, name in _MUTATIONS if every_mutation else _MUTATIONS[:1]:
            def failing(*args, original=getattr(owner, name), **kwargs):
                calls.append(args)
                if len(calls) > n:
                    raise OSError(28, "No space left on device")
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, failing)
    return arm


@pytest.fixture
def blob_reads(monkeypatch):
    """A ``Counter`` of ``Path.read_bytes`` calls by file name, from the
    start of the test on."""
    reads = Counter()

    def counting(path, original=Path.read_bytes):
        reads[path.name] += 1
        return original(path)

    monkeypatch.setattr(Path, "read_bytes", counting)
    return reads
