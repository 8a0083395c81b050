"""R8 must flag: a memmap-backed array sent down a worker pipe."""

import multiprocessing

import numpy as np


def _serve(conn: object) -> None:
    del conn


def fan_out(path: str) -> None:
    parent_end, child_end = multiprocessing.Pipe()
    worker = multiprocessing.Process(target=_serve, args=(child_end,))
    worker.start()
    codes = np.memmap(path, dtype=np.uint8)
    parent_end.send((1, codes, False))
    worker.join(timeout=30.0)
