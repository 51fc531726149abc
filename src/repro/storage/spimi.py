"""SPIMI-style on-disk inverted index for keyword ``contains`` probes.

Build side (:class:`SpimiBuilder`) is Single-Pass In-Memory Indexing:
postings accumulate in a dictionary keyed by token and slot until the
block holds the budget's worth of occurrences, then the block is sorted
and spilled to a temporary file, one line per token and slot with its
positions; :meth:`finalize` k-way-merges the sorted blocks
(``heapq.merge``) into one postings file plus a JSON term dictionary
mapping each token to its byte extent.  The peak memory of a build is
therefore the block budget, not the corpus.  The materializer hands over
each distinct value's positions at once (:meth:`SpimiBuilder.add_run`):
a value is tokenized once however many rows hold it.

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

The index is written once, by a materialization, over the table's first
``indexed`` rows; rows appended afterwards are not added to it, and
:meth:`repro.storage.engine.StorageEngine.candidates` adds the rows past
them to every answer.

Postings file format, per token (byte extent recorded in the dict): one
posting per slot the token occurs in, back to back::

    [slot id: u16][n: u32][width: u8][n positions of that width]

``[width][positions]`` is :func:`~repro.storage.page.pack_uints`, the
positions ascending.  A slot id indexes the dictionary's slot table, so
a ``(relation, attribute)`` name is written once per file, not once per
token.  The dictionary JSON is ``{"slots": [[relation, attribute],
...], "tokens": {token: [offset, length]}}``.
"""

from __future__ import annotations

import json
import os
import struct
from heapq import merge
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import StorageError
from repro.relational.lru import StampedLRU
from repro.storage.page import pack_uints, unpack_uints

__all__ = ["DEFAULT_BLOCK_BUDGET", "SpimiBuilder", "SpimiIndex"]

DEFAULT_BLOCK_BUDGET = 50_000
_POSTING = struct.Struct("<HI")  # slot id, position count
#: tokens are ``[a-z0-9]+`` and relation/attribute names are identifiers,
#: so a tab-separated text line per token and slot is unambiguous
_SEP = "\t"

Slot = Tuple[str, str]


class SpimiBuilder:
    """Accumulates postings grouped by token and slot, spilling a sorted
    block each time the block holds the budget's worth of occurrences."""

    def __init__(self, block_dir: str, block_budget: int = DEFAULT_BLOCK_BUDGET) -> None:
        if block_budget < 1:
            raise StorageError("SPIMI block budget must be >= 1")
        self.block_dir = str(block_dir)
        self.block_budget = block_budget
        self.block_paths: List[str] = []
        #: (token, relation, attribute) -> this block's positions of it
        self._block: Dict[Tuple[str, str, str], List[int]] = {}
        #: occurrences in this block, duplicates included
        self._held = 0
        self._finalized = False

    def add_run(
        self, token: str, relation: str, attribute: str, positions: Sequence[int]
    ) -> None:
        """Record *token* in one slot at each of *positions* — one
        occurrence each, counted against the budget one by one, so a run
        that fills a block is split there."""
        start = 0
        while start < len(positions):
            take = min(len(positions) - start, self.block_budget - self._held)
            held = self._block.get((token, relation, attribute))
            if held is None:
                self._block[(token, relation, attribute)] = list(positions[start:start + take])
            else:
                held += positions[start:start + take]
            self._held += take
            start += take
            if self._held >= self.block_budget:
                self._spill()

    def _spill(self) -> None:
        """Write the block, one line per token and slot in sorted order
        with its positions ascending, and start a new one."""
        if not self._block:
            return
        path = os.path.join(
            self.block_dir, f"spimi_block_{len(self.block_paths):05d}.tmp"
        )
        with open(path, "w", encoding="utf-8") as handle:
            for (token, relation, attribute), positions in sorted(self._block.items()):
                spelled = ",".join(map(str, sorted(set(positions))))
                handle.write(f"{token}{_SEP}{relation}{_SEP}{attribute}{_SEP}{spelled}\n")
        self.block_paths.append(path)
        self._block = {}
        self._held = 0

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
        slot_ids: Dict[Slot, int] = {}  # numbered as first met
        stats = {"tokens": 0, "postings": 0, "blocks": len(self.block_paths)}
        with open(postings_path, "wb") as out:
            offset = 0
            for token, slots in self._grouped(merge(*streams, key=itemgetter(0, 1, 2))):
                payload = self._encode_postings(slots, slot_ids)
                out.write(payload)
                vocabulary[token] = (offset, len(payload))
                offset += len(payload)
                stats["tokens"] += 1
                stats["postings"] += sum(len(v) for v in slots.values())
        tmp = dict_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "slots": [list(slot) for slot in slot_ids],
                    "tokens": {token: list(extent) for token, extent in vocabulary.items()},
                },
                handle,
                sort_keys=True,
            )
        os.replace(tmp, dict_path)
        for path in self.block_paths:
            os.unlink(path)
        self.block_paths = []
        return stats

    @staticmethod
    def _read_block(path: str) -> Iterator[Tuple[str, str, str, List[int]]]:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                token, relation, attribute, spelled = line.rstrip("\n").split(_SEP)
                yield token, relation, attribute, list(map(int, spelled.split(",")))

    @staticmethod
    def _grouped(
        entries: Iterator[Tuple[str, str, str, List[int]]],
    ) -> Iterator[Tuple[str, Dict[Slot, List[int]]]]:
        """Group the merged sorted stream by token; a slot spilled in
        more than one block has its pieces' positions merged, each
        position once."""
        current: Optional[str] = None
        slots: Dict[Slot, List[int]] = {}
        for token, relation, attribute, positions in entries:
            if token != current:
                if current is not None:
                    yield current, slots
                current, slots = token, {}
            held = slots.get((relation, attribute))
            if held is None:
                slots[(relation, attribute)] = positions
            else:
                slots[(relation, attribute)] = sorted(set(held).union(positions))
        if current is not None:
            yield current, slots

    @staticmethod
    def _encode_postings(slots: Dict[Slot, List[int]], slot_ids: Dict[Slot, int]) -> bytes:
        parts = []
        for slot, positions in sorted(slots.items()):
            slot_id = slot_ids.setdefault(slot, len(slot_ids))
            parts.append(_POSTING.pack(slot_id, len(positions)))
            parts.append(pack_uints(positions))
        return b"".join(parts)


class SpimiIndex:
    """View over a finalized SPIMI index."""

    def __init__(self, postings_path: str, dict_path: str) -> None:
        self.postings_path = str(postings_path)
        try:
            with open(dict_path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
            self._slots: List[Slot] = [
                (str(relation), str(attribute)) for relation, attribute in raw["slots"]
            ]
            self._vocabulary: Dict[str, Tuple[int, int]] = {
                token: (int(extent[0]), int(extent[1]))
                for token, extent in raw["tokens"].items()
            }
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            raise StorageError(f"cannot load SPIMI dictionary {dict_path}: {exc}") from exc
        try:
            self._handle = open(self.postings_path, "rb")
        except OSError as exc:
            raise StorageError(f"cannot open postings {postings_path}: {exc}") from exc
        # token -> decoded postings; the file never changes, so no stamp
        self._cache = StampedLRU(256)

    def close(self) -> None:
        self._handle.close()

    def __len__(self) -> int:
        return len(self._vocabulary)

    def vocabulary(self) -> Iterator[str]:
        """Every token."""
        return iter(self._vocabulary)

    def postings(self, token: str) -> Dict[Slot, List[int]]:
        """The slot -> positions map for one exact token ({} if absent)."""
        extent = self._vocabulary.get(token)
        if extent is None:
            return {}
        cached = self._cache.get(token)
        if cached is not None:
            return cached
        offset, length = extent
        self._handle.seek(offset)
        payload = self._handle.read(length)
        if len(payload) != length:
            raise StorageError(
                f"{self.postings_path}: short read for token {token!r}"
            )
        decoded = self._decode_postings(token, payload)
        self._cache.put(token, decoded)
        return decoded

    def _decode_postings(self, token: str, payload: bytes) -> Dict[Slot, List[int]]:
        slots: Dict[Slot, List[int]] = {}
        offset = 0
        try:
            while offset < len(payload):
                slot_id, count = _POSTING.unpack_from(payload, offset)
                positions, offset = unpack_uints(payload, offset + _POSTING.size, count)
                slots[self._slots[slot_id]] = list(positions)
        except (struct.error, IndexError, StorageError) as exc:
            raise StorageError(
                f"{self.postings_path}: corrupt postings for {token!r} ({exc})"
            ) from exc
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
