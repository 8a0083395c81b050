"""R9 must pass: every wait on a worker pipe is bounded."""

from multiprocessing import connection
from multiprocessing.connection import Connection, wait


def gather(conns: list[Connection], deadline_s: float) -> list[object]:
    ready = wait(conns, deadline_s)
    ready += connection.wait(conns, timeout=deadline_s)
    return [conn.recv() for conn in ready]


def handshake(conn: Connection) -> object:
    if conn.poll(30.0):
        return conn.recv()
    return None
