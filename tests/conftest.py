from pathlib import Path

import pytest

from adafuse.tensor import active_tape


@pytest.fixture(autouse=True)
def clear_tape():
    """Each test starts and ends with an empty op tape."""
    active_tape().clear()
    yield
    active_tape().clear()


@pytest.fixture
def fail_writes_after(monkeypatch):
    """``fail_writes_after(n)``: every ``Path.write_bytes`` after the
    first ``n`` raises, as a full disk would partway through a save."""
    def arm(n):
        original = Path.write_bytes
        calls = []

        def write_bytes(self, data):
            calls.append(self)
            if len(calls) > n:
                raise OSError(28, "No space left on device")
            return original(self, data)

        monkeypatch.setattr(Path, "write_bytes", write_bytes)
    return arm
