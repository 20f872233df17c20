"""R4 negative fixture (async-native waits) and R10's hygienic fork target."""

import asyncio
import signal
from multiprocessing import Process


async def handle_client(reader, writer):
    await asyncio.sleep(1.0)
    await writer.drain()


def _worker_entry(job):
    # Fork hygiene: detach the parent's wakeup fd, restore dispositions.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    return job


def spawn(job):
    proc = Process(target=_worker_entry, args=(job,))
    proc.start()
    return proc
