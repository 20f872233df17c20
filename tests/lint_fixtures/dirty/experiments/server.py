"""R4 positive fixture (a blocked loop) and R10's unhygienic fork target."""

import asyncio
import time
from multiprocessing import Process


async def handle_client(reader, writer):
    # BUG SHAPE: stalls every connection on the loop.
    time.sleep(1.0)
    await writer.drain()


def _worker_entry(job):
    # BUG SHAPE: inherits the server's wakeup fd and signal handlers.
    return job


def spawn(job):
    proc = Process(target=_worker_entry, args=(job,))
    proc.start()
    return proc
