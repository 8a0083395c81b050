"""R8 must pass: only sanctioned picklables cross the process boundary."""

from concurrent.futures import ProcessPoolExecutor
from pathlib import Path


from repro.parallel.worker import WorkerBundle


def _scan(path: str, rows: tuple) -> int:
    return len(rows)


def _run(bundle: WorkerBundle, sanitize: bool) -> int:
    return len(bundle.partition_ids)


def fan_out(path: Path, rows: list) -> int:
    with ProcessPoolExecutor() as pool:
        future = pool.submit(_scan, str(path), tuple(rows))
        return future.result(timeout=30.0)


def fan_out_bundle(queries: object, rows: object) -> int:
    with ProcessPoolExecutor() as pool:
        future = pool.submit(
            _run,
            WorkerBundle(
                queries=queries,
                partition_ids=(3,),
                query_rows=rows,
                job_sizes=(1,),
                topk=10,
                tombstones=((),),
            ),
            False,
        )
        return future.result(timeout=30.0)
