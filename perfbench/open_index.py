"""Open an empty durable SWARE index in a fresh interpreter and exit.

``python3 perfbench/open_index.py DIR`` — the ``ingest`` workload times
this whole process as its set-up: interpreter start, importing the
program, creating the WAL and checkpoint store, building the index.
"""

import os
import sys

from repro.btree.btree import BPlusTree
from repro.core.sware import SortednessAwareIndex
from repro.storage.pagefile import CheckpointStore
from repro.storage.wal import WriteAheadLog

if __name__ == "__main__":
    path = sys.argv[1]
    os.makedirs(path)
    with WriteAheadLog(os.path.join(path, "wal.log"), fsync_policy="batch") as wal:
        SortednessAwareIndex(BPlusTree(), wal=wal)
        CheckpointStore(os.path.join(path, "checkpoint.db"))
