"""JSONL run transcripts: canonical serialization, hashing, file round-trip.

A transcript is one header line followed by one line per recorded event.
Lines are canonical JSON (sorted keys, no whitespace, ASCII) so equal runs
produce byte-equal files. The transcript hash covers every byte after the
header line; an empty body hashes to SHA-256 of nothing.
"""

from __future__ import annotations

import hashlib
import json

SCHEMA_VERSION = 1


# One encoder for every line: json.dumps with these arguments builds a new one
# per call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj) -> str:
    return _CANONICAL.encode(obj)


class Transcript:
    def __init__(self, header: dict):
        self.header = dict(header)
        self.lines: list[str] = []

    def add(self, obj: dict) -> None:
        self.lines.append(canonical_json(obj))

    def body_hash(self) -> bytes:
        return hash_body_lines(self.lines)

    def text(self) -> str:
        return "".join(line + "\n" for line in [canonical_json(self.header), *self.lines])

    def write(self, path: str) -> None:
        # Line by line: the joined text of a large run would set its peak memory.
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(self.header) + "\n")
            for line in self.lines:
                fh.write(line)
                fh.write("\n")

    def iter_events(self):
        for line in self.lines:
            yield json.loads(line)


def load_lines(path: str):
    """Yield the header dict, then each raw body line exactly as stored, one read
    at a time; closing the generator closes the file. Raises ValueError when the
    file is empty, its header is not a JSON object, or a line is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise ValueError("empty transcript file")
        header = json.loads(first.removesuffix("\n"))
        if not isinstance(header, dict):
            raise ValueError("header line is not a JSON object")
        yield header
        for line in fh:
            yield line.removesuffix("\n")


def hash_body_lines(body_lines: list[str]) -> bytes:
    # Fed line by line: a joined copy of a large body would set the run's peak memory.
    h = hashlib.sha256()
    for line in body_lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.digest()
