"""Write-ahead logging for the distributed hash map.

Backs the paper's fault-tolerance claim for the HCL map ("fault
tolerance in case of power-downs", §III-A.2): every mutation is
serialised to an append-only in-memory (optionally file-backed) log
before being applied, and :meth:`WriteAheadLog.recover` replays the log
into a fresh dictionary.  Checkpointing truncates the log.

Values are serialised with ``repr``-free JSON-compatible encoding via
``pickle`` — the log is an internal durability structure, not an
interchange format.
"""

from __future__ import annotations

import io
import pickle
from pathlib import Path
from typing import Any, BinaryIO, Hashable, Optional

__all__ = ["WriteAheadLog"]

_PUT = b"P"
_DEL = b"D"
_CHECKPOINT = b"C"


class WriteAheadLog:
    """Append-only mutation log with replay recovery.

    Parameters
    ----------
    path:
        Optional file path; when None the log lives in memory (the
        default for simulations — durability semantics are what the
        tests exercise, not the disk).
    """

    def __init__(self, path: "str | Path | None" = None):
        self.path = Path(path) if path is not None else None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._buf: BinaryIO = open(self.path, "ab+")
        else:
            self._buf = io.BytesIO()

    # -- writing ---------------------------------------------------------
    def _append(self, tag: bytes, payload: Any) -> None:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self._buf.write(tag)
        self._buf.write(len(blob).to_bytes(8, "little"))
        self._buf.write(blob)

    def log_put(self, key: Hashable, value: Any) -> None:
        """Record a put/update of ``key``."""
        self._append(_PUT, (key, value))

    def log_delete(self, key: Hashable) -> None:
        """Record a deletion of ``key``."""
        self._append(_DEL, key)

    def checkpoint(self, snapshot: dict) -> None:
        """Write a full snapshot and logically truncate older records."""
        self._append(_CHECKPOINT, dict(snapshot))

    def flush(self) -> None:
        """Flush file-backed logs to the OS."""
        self._buf.flush()

    # -- recovery --------------------------------------------------------
    def _iter_records(self):
        self._buf.flush()
        if self.path is not None:
            stream: BinaryIO = open(self.path, "rb")
        else:
            stream = io.BytesIO(self._buf.getvalue())  # type: ignore[union-attr]
        try:
            while True:
                tag = stream.read(1)
                if not tag:
                    return
                size_raw = stream.read(8)
                if len(size_raw) < 8:
                    return  # torn write at crash: ignore the partial tail
                size = int.from_bytes(size_raw, "little")
                blob = stream.read(size)
                if len(blob) < size:
                    return  # torn write
                yield tag, pickle.loads(blob)
        finally:
            if stream is not self._buf:
                stream.close()

    def recover(self) -> dict:
        """Replay the log into a fresh state dictionary."""
        state: dict = {}
        for tag, payload in self._iter_records():
            if tag == _CHECKPOINT:
                state = dict(payload)
            elif tag == _PUT:
                key, value = payload
                state[key] = value
            elif tag == _DEL:
                state.pop(payload, None)
        return state

    def close(self) -> None:
        """Close the underlying stream."""
        self._buf.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
