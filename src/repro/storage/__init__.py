"""Disk-based storage engine (see ``docs/STORAGE.md``).

The paper's evaluation datasets fit in RAM; the ROADMAP's north star does
not.  This package is the storage tier that closes the gap: tables live
in **heap files** of column-wise pages decoded a page at a time
(:mod:`repro.storage.page`), every page access goes through a
fixed-capacity **LRU buffer pool** (pin/unpin, dirty write-back,
hit/miss/eviction counters), and three secondary index families answer
the access paths :class:`~repro.relational.plan.CompiledPlan` pushes
down, each one kind of
:meth:`~repro.storage.engine.StorageEngine.candidates`:

* :class:`~repro.storage.bptree.BPlusTree` — numeric point and range
  probes (``numeric-eq``; ``NumericIndex`` in memory);
* :class:`~repro.storage.hashindex.HashFile` — text equality
  (``hash-eq``; a ``KeyIndex`` in memory);
* :class:`~repro.storage.spimi.SpimiIndex` — keyword ``contains``
  matching via block-sorted postings spilled and k-way merged, SPIMI
  style (``contains``; ``InvertedIndex`` in memory).

:func:`~repro.storage.materialize.materialize` lays a whole
:class:`~repro.relational.database.Database` out as a directory of these
files (manifest written last, atomically, so half-written directories
are detected and rebuilt), and :class:`~repro.storage.engine.StorageEngine`
opens one for execution — it is the database the executor reads, its
heap files the tables — and appends to its heap files in place when the
source tables gain rows.  Each table's index files cover a recorded
prefix of its rows; every probe adds the rows past it, the tail, for the
plan to verify.  The registered ``disk`` backend
(:class:`~repro.backends.disk.DiskBackend`) is the public face.

This package is the only place in the repo allowed to touch file-I/O
primitives — binary ``open``, ``mmap``, the ``os.pwrite`` family (lint
rule LR008).
"""

from repro.storage.bptree import BPlusTree
from repro.storage.engine import StorageEngine
from repro.storage.hashindex import HashFile
from repro.storage.heap import HeapFile
from repro.storage.materialize import (
    MANIFEST_FILE,
    load_manifest,
    materialize,
    materialization_is_fresh,
)
from repro.storage.pager import DEFAULT_PAGE_SIZE, BufferPool, Pager
from repro.storage.spimi import SpimiBuilder, SpimiIndex

__all__ = [
    "BPlusTree",
    "BufferPool",
    "DEFAULT_PAGE_SIZE",
    "HashFile",
    "HeapFile",
    "MANIFEST_FILE",
    "Pager",
    "SpimiBuilder",
    "SpimiIndex",
    "StorageEngine",
    "load_manifest",
    "materialization_is_fresh",
    "materialize",
]
