"""R8 must pass: a worker pipe carries sequence numbers, bundles, paths
and scalars; the worker process gets its connection, a path and a spec."""

import multiprocessing
from multiprocessing.connection import Connection
from pathlib import Path

from repro.parallel import ScannerSpec
from repro.parallel.worker import WorkerBundle


def _serve(conn: Connection, path: str, spec: ScannerSpec) -> None:
    del conn, path, spec


class _Worker:
    def __init__(self, path: Path, spec: ScannerSpec) -> None:
        parent_end, child_end = multiprocessing.Pipe()
        self.conn: Connection = parent_end
        self.process = multiprocessing.Process(
            target=_serve, args=(child_end, str(path), spec), daemon=True
        )
        self.process.start()


def send(worker: _Worker, queries: object, rows: object) -> None:
    bundles = [
        WorkerBundle(
            queries=queries,
            partition_ids=(3,),
            query_rows=rows,
            job_sizes=(1,),
            topk=10,
            tombstones=((),),
        )
    ]
    worker.conn.send((1, bundles[0], False))
