"""R9 must flag: waits on worker pipes that can hang on a dead worker."""

from multiprocessing.connection import Connection, wait


def gather(conns: list[Connection]) -> list[object]:
    ready = wait(conns)
    return [conn.recv() for conn in ready]


def handshake(conn: Connection) -> object:
    if conn.poll(None):
        return conn.recv()
    return None
