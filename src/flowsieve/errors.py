"""Exception types shared across the toolkit, and the UTF-8 text reader
that turns an undecodable byte into one of them."""

from contextlib import contextmanager
from pathlib import Path


class DataError(Exception):
    """Malformed or contract-violating input data (CLI exit code 3)."""


class Conflict(ValueError):
    """Settings that may each be valid but disagree; `fields` names them all."""

    def __init__(self, message: str, fields: tuple[str, ...]):
        super().__init__(message)
        self.fields = fields


class TrainingDiverged(Exception):
    """Optimization produced a non-finite loss or parameters (CLI exit code 4)."""

    def __init__(self, message: str, epoch: int):
        super().__init__(message)
        self.epoch = epoch


@contextmanager
def open_text(path, newline=None):
    """open(path) for reading UTF-8 text. A byte that is not UTF-8 raises
    DataError naming the file and its line; only then is the file read
    again, as bytes, to find that line."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as handle:
            yield handle
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
            end = len(data)  # the file changed after the reader failed on it
        except UnicodeDecodeError as exc:
            end = exc.start
        line = data.count(b"\n", 0, end) + 1
        raise DataError(f"{path}: line {line}: not UTF-8 text") from None
