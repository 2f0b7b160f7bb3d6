"""The one owner of the process's other CPUs: ``CPUS`` and the forked
children.  A fit runs on one core; only the children here use the others.

``CPUS``, read once, counts the CPUs the process may run on when BLAS is
pinned (at least one of OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS is set, and every one set reads 1), else 1: a threaded BLAS
already spreads each product over every core, so a child beside it would
only compete with it for the same cores.

``forked`` cuts independent items (a grid's w's, a sweep's trials) into
runs and forks a ``_Child`` for each later run, which fits its whole run and
then sends it.  The caller serves the reports in the serial order, each
equal to a fresh fit's bit for bit; its first from a child waits for that
child to finish.  ``forked`` owns each child's lifetime: every child is
stopped when the ``with`` block that forked it ends, however it ends.  Only
``experiments.sweep_grid`` and ``experiments.cross_validate`` fork, each in
one ``with`` in a plain function, so no child outlives its operation.  A
fork copies only the forking thread, so a process forks only when no other
thread is alive.  A child never forks, and a process forks only while no
child of its own is alive, so the processes never outnumber the CPUs.
"""

import os
import threading
from contextlib import contextmanager

_BLAS_THREADS = {os.environ.get(var) for var in
                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")} - {None}
CPUS = ((len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
        if _BLAS_THREADS == {"1"} else 1)


def _chunks(items):
    """``items`` cut, in order, into min(CPUS, len(items)) contiguous runs
    whose counts differ by at most one, the longer runs first."""
    k = min(CPUS, len(items))
    size, extra = divmod(len(items), k)
    edges = [i * size + min(i, extra) for i in range(k + 1)]
    return [items[a:b] for a, b in zip(edges, edges[1:])]


def split(items, large):
    """The runs of ``items`` that each process takes, the caller's first:
    ``_chunks(items)`` when there are two or more items, ``large`` (the
    caller's size rule) holds, CPUS is at least two, the "fork" start
    method exists, and the module docstring's guards hold: no other thread,
    no child of its own and no parent from ``multiprocessing``; else one run.
    """
    if len(items) < 2 or not large or CPUS < 2:
        return [items]
    import multiprocessing      # here: at the top it adds 7-13 ms to importing the package

    if ("fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1
            or multiprocessing.parent_process() is not None
            or multiprocessing.active_children()):
        return [items]
    return _chunks(items)


@contextmanager
def forked(items, large, reports):
    """Start a child for each later run of ``split(items, large)``: the
    child sends the reports of ``reports(run)``, a generator.  Yields
    {item: its child} over the children's items, and stops every child
    when the block ends; the caller serves the first run's items itself."""
    remote, children = {}, []
    try:
        for run in split(items, large)[1:]:
            children.append(_Child(reports(run)))
            remote.update(dict.fromkeys(run, children[-1]))
        yield remote
    finally:
        for child in children:
            child.stop()


class _Child:
    """A forked process that makes every report of ``reports``, an iterable
    the caller has not started, and then sends each, in order, through a
    pipe of which it holds the only write end: once it stops, the caller
    reads the end of the stream instead of waiting."""

    __slots__ = ("process", "reader")

    def __init__(self, reports):
        import multiprocessing

        context = multiprocessing.get_context("fork")
        self.reader, writer = context.Pipe(duplex=False)
        self.process = context.Process(target=_serve, args=(reports, writer),
                                       name="mtgreedy-child", daemon=True)
        self.process.start()
        writer.close()

    def receive(self):
        """The child's next report.  An exception the child sent is raised
        here, and a stream that ends first raises RuntimeError."""
        try:
            item = self.reader.recv()
        except (EOFError, OSError):
            code = self.stop()
            raise RuntimeError(f"a child process stopped (exit code {code}) "
                               "before sending every report") from None
        if isinstance(item, BaseException):
            self.stop()
            raise item
        return item

    def stop(self):
        """Terminate the child, join it and return its exit code; a stopped
        child is left as it is."""
        if not self.reader.closed:
            self.process.terminate()
            self.process.join()
            self.reader.close()
        return self.process.exitcode


def _serve(reports, writer):
    """A child's body: make every report of ``reports``, then send each, in
    order, with the exception that stopped them, if any, last."""
    items = []
    try:
        for report in reports:
            items.append(report)
    except Exception as exc:        # the caller's fit raises it
        items.append(exc)
    for item in items:
        writer.send(item)
    writer.close()
