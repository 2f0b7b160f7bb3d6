"""Forked children that fit the later runs of a grid search or a sweep.

``fork_runs`` cuts a list of independent items (a grid's w's, a sweep's
trials) into runs under the guards of ``split`` and starts a ``_Child`` for
each run after the first, which the caller keeps.  A child sends each
report as soon as it is made, and the caller serves it from that child's
stream in the serial order; every report equals a fresh fit's bit for bit.
"""

import queue
import threading

from . import linalg


def _chunks(items):
    """``items`` cut, in order, into min(``linalg._CPUS``, len(items))
    contiguous runs whose counts differ by at most one, the longer runs
    first."""
    k = min(linalg._CPUS, len(items))
    size, extra = divmod(len(items), k)
    edges = [i * size + min(i, extra) for i in range(k + 1)]
    return [items[a:b] for a, b in zip(edges, edges[1:])]


def split(items, large):
    """The runs of ``items`` that each process takes, the caller's first:
    ``_chunks(items)`` when there are two or more items, ``large`` (the
    caller's size rule) holds and this process may fork, else one run.

    A process may fork when ``linalg._CPUS``, the CPUs ``design_product``
    may use, is at least two (BLAS is pinned); the "fork" start method
    exists; no thread is alive but the caller and ``linalg``'s product
    workers (a forked child would hold copies of the others' locks); no
    child of its own is alive, so the processes never outnumber the CPUs;
    and it was not started by ``multiprocessing``, so a child never splits
    again.  The product workers are safe to fork beside: between calls they
    hold no lock and no array, only the calling thread runs
    ``design_product``, and ``linalg._forget_workers`` gives a forked child
    fresh workers of its own.
    """
    if len(items) < 2 or not large or linalg._CPUS < 2:
        return [items]
    import multiprocessing      # here: at the top it adds 7-13 ms to importing the package

    if ("fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1 + len(linalg._workers)
            or multiprocessing.parent_process() is not None
            or multiprocessing.active_children()):
        return [items]
    return _chunks(items)


def fork_runs(items, large, reports, count):
    """Start a child for each later run of ``split(items, large)``: the
    child sends ``reports(run)``, a generator of ``count(run)`` reports.
    Returns ({item: its child} over the children's items, [children]); the
    caller serves the first run's items itself and stops the children."""
    remote, children = {}, []
    try:
        for run in split(items, large)[1:]:
            children.append(_Child(reports(run), count(run)))
            remote.update(dict.fromkeys(run, children[-1]))
    except BaseException:
        stop(children)
        raise
    return remote, children


class _Child:
    """A forked process that makes the ``count`` reports of ``reports``, an
    iterable the caller has not started, and sends each, in order, through
    a pipe of which it holds the only write end: once it stops, the caller
    reads the end of the stream instead of waiting.  ``left`` counts the
    reports not yet received."""

    __slots__ = ("process", "reader", "left")

    def __init__(self, reports, count):
        import multiprocessing

        context = multiprocessing.get_context("fork")
        self.reader, writer = context.Pipe(duplex=False)
        self.process = context.Process(target=_serve, args=(reports, writer),
                                       name="mtgreedy-child", daemon=True)
        self.process.start()
        writer.close()
        self.left = count

    def receive(self):
        """The child's next report.  An exception the child sent is raised
        here, and a child that stopped first raises RuntimeError."""
        try:
            item = self.reader.recv()
        except (EOFError, OSError):
            code = self.stop()
            raise RuntimeError(f"a child process stopped (exit code {code}) "
                               f"with {self.left} reports unsent") from None
        self.left -= 1
        if isinstance(item, BaseException):
            self.stop()
            raise item
        if not self.left:
            self.stop(wait=True)
        return item

    def stop(self, wait=False):
        """Terminate the child, unless ``wait``, join it and return its exit
        code; a stopped child is left as it is."""
        if not self.reader.closed:
            if not wait:
                self.process.terminate()
            self.process.join()
            self.reader.close()
        return self.process.exitcode


def stop(children):
    for child in children:
        child.stop()


def _serve(reports, writer):
    """A child's body: hand each report of ``reports`` to a sender thread,
    or the exception that stopped them.  A report can outgrow the pipe's
    buffer, so the child goes on while the sender waits for the caller to
    read."""
    outbox = queue.SimpleQueue()
    sender = threading.Thread(target=_send, args=(outbox, writer), name="mtgreedy-sender")
    sender.start()
    try:
        for report in reports:
            outbox.put(report)
    except Exception as exc:        # the caller's fit raises it
        outbox.put(exc)
    finally:
        outbox.put(None)
        sender.join()


def _send(outbox, writer):
    while (item := outbox.get()) is not None:
        writer.send(item)
    writer.close()
