"""SPIMI-style on-disk inverted index for keyword ``contains`` probes.

Build side (:class:`SpimiBuilder`) is Single-Pass In-Memory Indexing:
postings accumulate in a dictionary until an entry budget is hit, then
the block is sorted and spilled to a temporary file; :meth:`finalize`
k-way-merges the sorted blocks (``heapq.merge``) into one postings file
plus a JSON term dictionary mapping each token to its byte extent.  The
peak memory of a build is therefore the block budget, not the corpus.

Read side (:class:`SpimiIndex`) keeps only the term dictionary in
memory and fetches posting payloads on demand.  Its query surface
mirrors the candidate-generation half of
:meth:`repro.relational.index.InvertedIndex.positions_for_contains`:
for a phrase's first token it unions the postings of every vocabulary
token containing it as a substring.  The result is a *superset* of the
matching rows (no substring verification here — the compiled plan
re-verifies every candidate row against the actual predicate closure),
and it is complete for substring semantics because a phrase occurring in
a value always places its first token inside a single token of that
value.

Rows appended after the build do not rewrite the base files: their
postings live in one *delta segment*, a second pair of files in the same
format, which :meth:`SpimiIndex.append` rewrites as "what it held plus
the new entries" and every probe consults beside the base.  Appended
rows sit at positions past every base row, so a token's delta positions
simply follow its base positions.  The next full build folds the delta
into the base.

Postings file format, per token (byte extent recorded in the dict)::

    [n_slots: u32]
    n_slots * ( [len: u16][relation utf-8]
                [len: u16][attribute utf-8]
                [n: u32][position u32 ...] )
"""

from __future__ import annotations

import json
import os
import struct
from collections import OrderedDict
from heapq import merge
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import StorageError

__all__ = ["DEFAULT_BLOCK_BUDGET", "SpimiBuilder", "SpimiIndex"]

DEFAULT_BLOCK_BUDGET = 50_000
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
#: tokens are ``[a-z0-9]+`` and relation/attribute names are identifiers,
#: so a tab-separated text line per posting entry is unambiguous
_SEP = "\t"
_CACHE_SIZE = 256

Slot = Tuple[str, str]


class SpimiBuilder:
    """Accumulates postings, spilling sorted blocks when over budget."""

    def __init__(self, block_dir: str, block_budget: int = DEFAULT_BLOCK_BUDGET) -> None:
        if block_budget < 1:
            raise StorageError("SPIMI block budget must be >= 1")
        self.block_dir = str(block_dir)
        self.block_budget = block_budget
        self.block_paths: List[str] = []
        self._entries: List[Tuple[str, str, str, int]] = []
        self._finalized = False

    @property
    def blocks_spilled(self) -> int:
        return len(self.block_paths)

    def add(self, token: str, relation: str, attribute: str, position: int) -> None:
        """Record one (token, slot, position) occurrence."""
        self._entries.append((token, relation, attribute, position))
        if len(self._entries) >= self.block_budget:
            self._spill()

    def _spill(self) -> None:
        if not self._entries:
            return
        self._entries.sort()
        path = os.path.join(
            self.block_dir, f"spimi_block_{len(self.block_paths):05d}.tmp"
        )
        with open(path, "w", encoding="utf-8") as handle:
            for token, relation, attribute, position in self._entries:
                handle.write(
                    f"{token}{_SEP}{relation}{_SEP}{attribute}{_SEP}{position}\n"
                )
        self.block_paths.append(path)
        self._entries = []

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------
    def finalize(self, postings_path: str, dict_path: str) -> Dict[str, int]:
        """K-way merge every spilled block into the final index files.

        Returns build statistics (tokens, postings, blocks merged)."""
        if self._finalized:
            raise StorageError("SpimiBuilder.finalize called twice")
        self._finalized = True
        self._spill()
        streams = [self._read_block(path) for path in self.block_paths]
        vocabulary: Dict[str, Tuple[int, int]] = {}
        stats = {"tokens": 0, "postings": 0, "blocks": len(self.block_paths)}
        with open(postings_path, "wb") as out:
            offset = 0
            for token, slots in self._grouped(merge(*streams)):
                payload = self._encode_postings(slots)
                out.write(payload)
                vocabulary[token] = (offset, len(payload))
                offset += len(payload)
                stats["tokens"] += 1
                stats["postings"] += sum(len(v) for v in slots.values())
        tmp = dict_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(
                {token: list(extent) for token, extent in vocabulary.items()},
                handle,
                sort_keys=True,
            )
        os.replace(tmp, dict_path)
        for path in self.block_paths:
            os.unlink(path)
        self.block_paths = []
        return stats

    @staticmethod
    def _read_block(path: str) -> Iterator[Tuple[str, str, str, int]]:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                token, relation, attribute, position = line.rstrip("\n").split(_SEP)
                yield token, relation, attribute, int(position)

    @staticmethod
    def _grouped(
        entries: Iterator[Tuple[str, str, str, int]],
    ) -> Iterator[Tuple[str, Dict[Slot, List[int]]]]:
        """Group the merged sorted stream by token, deduplicating
        positions (the same token can occur twice in one value)."""
        current: Optional[str] = None
        slots: Dict[Slot, List[int]] = {}
        for token, relation, attribute, position in entries:
            if token != current:
                if current is not None:
                    yield current, slots
                current, slots = token, {}
            bucket = slots.setdefault((relation, attribute), [])
            if not bucket or bucket[-1] != position:
                bucket.append(position)
        if current is not None:
            yield current, slots

    @staticmethod
    def _encode_postings(slots: Dict[Slot, List[int]]) -> bytes:
        parts = bytearray(_U32.pack(len(slots)))
        for (relation, attribute), positions in sorted(slots.items()):
            for name in (relation, attribute):
                raw = name.encode("utf-8")
                parts += _U16.pack(len(raw))
                parts += raw
            parts += _U32.pack(len(positions))
            for position in positions:
                parts += _U32.pack(position)
        return bytes(parts)


class SpimiIndex:
    """View over a finalized SPIMI index, plus its delta segment."""

    def __init__(self, postings_path: str, dict_path: str) -> None:
        self.postings_path = str(postings_path)
        #: the postings of rows appended since this index was built
        self.delta: Optional[SpimiIndex] = None
        try:
            with open(dict_path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
            self._vocabulary: Dict[str, Tuple[int, int]] = {
                token: (int(extent[0]), int(extent[1]))
                for token, extent in raw.items()
            }
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            raise StorageError(f"cannot load SPIMI dictionary {dict_path}: {exc}") from exc
        try:
            self._handle = open(self.postings_path, "rb")
        except OSError as exc:
            raise StorageError(f"cannot open postings {postings_path}: {exc}") from exc
        self._cache: "OrderedDict[str, Dict[Slot, List[int]]]" = OrderedDict()

    def close(self) -> None:
        self._handle.close()
        if self.delta is not None:
            self.delta.close()

    def __len__(self) -> int:
        return sum(1 for _ in self.vocabulary())

    def vocabulary(self) -> Iterator[str]:
        """Every token, base first, then those only the delta has."""
        yield from self._vocabulary
        if self.delta is not None:
            for token in self.delta.vocabulary():
                if token not in self._vocabulary:
                    yield token

    def append(
        self,
        entries: Iterable[Tuple[str, str, str, int]],
        postings_path: str,
        dict_path: str,
        block_budget: int = DEFAULT_BLOCK_BUDGET,
    ) -> Dict[str, int]:
        """Rewrite the delta segment at the two paths as what it holds
        now plus *entries* — ``(token, relation, attribute, position)``
        of appended rows — and consult it from here on.  Returns the
        segment's build statistics."""
        builder = SpimiBuilder(os.path.dirname(postings_path), block_budget)
        if self.delta is not None:
            for token in self.delta.vocabulary():
                for (relation, attribute), positions in self.delta.postings(
                    token
                ).items():
                    for position in positions:
                        builder.add(token, relation, attribute, position)
            self.delta.close()
            self.delta = None
        for token, relation, attribute, position in entries:
            builder.add(token, relation, attribute, position)
        stats = builder.finalize(postings_path, dict_path)
        self.delta = SpimiIndex(postings_path, dict_path)
        return stats

    def postings(self, token: str) -> Dict[Slot, List[int]]:
        """The slot -> positions map for one exact token ({} if absent),
        base and delta together."""
        base = self._base_postings(token)
        if self.delta is None:
            return base
        added = self.delta.postings(token)
        if not added:
            return base
        merged = dict(base)
        for slot, positions in added.items():
            merged[slot] = merged.get(slot, []) + positions
        return merged

    def _base_postings(self, token: str) -> Dict[Slot, List[int]]:
        extent = self._vocabulary.get(token)
        if extent is None:
            return {}
        cached = self._cache.get(token)
        if cached is not None:
            self._cache.move_to_end(token)
            return cached
        offset, length = extent
        self._handle.seek(offset)
        payload = self._handle.read(length)
        if len(payload) != length:
            raise StorageError(
                f"{self.postings_path}: short read for token {token!r}"
            )
        decoded = self._decode_postings(token, payload)
        self._cache[token] = decoded
        if len(self._cache) > _CACHE_SIZE:
            self._cache.popitem(last=False)
        return decoded

    def _decode_postings(self, token: str, payload: bytes) -> Dict[Slot, List[int]]:
        try:
            (n_slots,) = _U32.unpack_from(payload, 0)
            offset = _U32.size
            slots: Dict[Slot, List[int]] = {}
            for _ in range(n_slots):
                names = []
                for _ in range(2):
                    (length,) = _U16.unpack_from(payload, offset)
                    offset += _U16.size
                    names.append(payload[offset:offset + length].decode("utf-8"))
                    offset += length
                (count,) = _U32.unpack_from(payload, offset)
                offset += _U32.size
                positions = [
                    _U32.unpack_from(payload, offset + i * _U32.size)[0]
                    for i in range(count)
                ]
                offset += count * _U32.size
                slots[(names[0], names[1])] = positions
        except (struct.error, IndexError, UnicodeDecodeError) as exc:
            raise StorageError(
                f"{self.postings_path}: corrupt postings for {token!r} ({exc})"
            ) from exc
        if offset != len(payload):
            raise StorageError(
                f"{self.postings_path}: trailing bytes in postings for {token!r}"
            )
        return slots

    def candidate_positions(self, first_token: str, relation: str, attribute: str) -> Set[int]:
        """Union of postings of every vocabulary token containing
        *first_token* as a substring, restricted to one slot.

        This is the sound-and-complete candidate set for substring
        (``contains``) matching; callers verify candidates against the
        actual values."""
        slot = (relation, attribute)
        found: Set[int] = set()
        for token in self.vocabulary():
            if first_token in token:
                hit = self.postings(token).get(slot)
                if hit:
                    found.update(hit)
        return found

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpimiIndex({self.postings_path!r}, tokens={len(self)})"
