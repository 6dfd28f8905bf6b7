"""Text codec for the header shared by the MLP and SVM model files.

The header is the format line, the `features` and `classes` lines and, when
the model carries a scaler, the three `scaler_*` lines. The model's module
writes and parses the body that follows. Reading turns every malformed or
truncated file, and a `classes` line other than CLASS_NAMES, into a
DataError that names the file and the line.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .dataset import CLASS_NAMES, Scaler
from .errors import DataError, open_text


def format_row(values) -> str:
    """Values at 17 significant digits, so they read back exactly."""
    return " ".join(f"{v:.17g}" for v in np.asarray(values).ravel())


def write(path, model_format: str, feature_names: tuple[str, ...],
          scaler: Scaler | None, body: Iterable[str]) -> None:
    """Write the format line and the header, then each line of `body`."""
    header = [model_format, "features " + ",".join(feature_names),
              "classes " + ",".join(CLASS_NAMES)]
    if scaler is not None:
        header += ["scaler_mean " + format_row(scaler.mean),
                   "scaler_std " + format_row(scaler.std),
                   "scaler_passthrough "
                   + " ".join(str(int(v)) for v in scaler.passthrough)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(line + "\n" for line in [*header, *body])


class ModelFile:
    """A model file read once: its format line, its header as `meta`
    (features, scaler) and a cursor over the body lines."""

    def __init__(self, path, formats: tuple[str, ...]):
        with open_text(path) as handle:
            self._lines = [line.rstrip("\n") for line in handle]
        self.path = path
        self._pos = 1  # lines read so far
        self.format = self._lines[0] if self._lines else ""
        if self.format not in formats:
            raise DataError(f"{path}:1: not a {' or '.join(formats)} file")
        features = tuple(self.keyed("features").split(","))
        if len(set(features)) != len(features):
            raise self.error("duplicate feature names")
        if self.keyed("classes") != ",".join(CLASS_NAMES):
            raise self.error(f"classes must read {','.join(CLASS_NAMES)}")
        self.meta: dict = {"features": features, "scaler": None}
        if self.peek_key() == "scaler_mean":
            width = len(features)
            self.meta["scaler"] = Scaler(
                mean=self.values("scaler_mean", width),
                std=self.values("scaler_std", width),
                passthrough=self.values("scaler_passthrough", width,
                                        int).astype(bool))

    def error(self, message: str) -> DataError:
        """A DataError located at the line read last."""
        return DataError(f"{self.path}:{self._pos}: {message}")

    def peek_key(self) -> str | None:
        """First word of the next line, or None at the end of the file."""
        at_end = self._pos >= len(self._lines)
        return None if at_end else self._lines[self._pos].partition(" ")[0]

    def _next_line(self, what: str) -> str:
        if self._pos >= len(self._lines):
            raise DataError(f"{self.path}:{self._pos + 1}: file ends before {what}")
        self._pos += 1
        return self._lines[self._pos - 1]

    def end(self, after: str) -> None:
        """The body must end here: a further line is an error that names
        that line."""
        if self._pos < len(self._lines):
            self._pos += 1
            raise self.error(f"unexpected line after {after}")

    def keyed(self, key: str) -> str:
        """The text after `key` on the next line, which must start with `key`."""
        line = self._next_line(f"the {key!r} line")
        first, _, rest = line.partition(" ")
        if first != key:
            raise self.error(f"expected a {key!r} line, got {line[:40]!r}")
        return rest

    def values(self, key: str | None, count: int, kind=float) -> np.ndarray:
        """The next line: `key`, or no key when it is None, then exactly
        `count` finite values of type `kind`."""
        text = (self._next_line("a row of values") if key is None
                else self.keyed(key))
        try:
            values = np.array([kind(v) for v in text.split()], dtype=kind)
        except (ValueError, OverflowError):
            raise self.error(f"non-numeric value in {text[:40]!r}") from None
        if len(values) != count:
            raise self.error(f"expected {count} values, got {len(values)}")
        if not np.all(np.isfinite(values)):
            raise self.error(f"non-finite value in {text[:40]!r}")
        return values
