"""The one owner of the process's other CPUs: ``CPUS``, the product workers
and the forked children.

``CPUS``, read once, counts the CPUs the process may run on when BLAS is
pinned (at least one of OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS is set, and every one set reads 1), else 1: blocks on top
of a threaded BLAS lost (the p = 2000, n = 800, r = 4 fit took 0.53-0.62 s
split against 0.48-0.51 s unsplit on a 2-core VM).  ``share`` runs a list
of calls on the caller and up to CPUS - 1 daemon workers, started at the
first share, which take the calls from one list, so a call whose worker
wakes late is made by the caller (on a 2-core VM one wake in ten took over
0.4 ms).
``linalg.design_product`` shares a large product's column blocks: pinned on
a 2-core Xeon VM, ``fit_p2000_r4`` took a median wall 1.16 s per operation
with them shared against 1.29 s unsplit (1.03 against 1.52 calibrated s),
winning 7 of 8 alternating pairs of benchmark runs on wall time, seeds 0-7.

``fork_runs`` cuts independent items (a grid's w's, a sweep's trials) into
runs and forks a ``_Child`` for each run after the caller's first; the
caller serves each child's reports from its stream in the serial order,
each equal to a fresh fit's bit for bit.  A fork copies only the forking
thread, so a process forks only when no thread but the caller and the
workers is alive: between shares the workers hold no lock and no array,
and a forked child forgets them and starts its own.  A child never forks,
and a process forks only while no child of its own is alive, so the
processes never outnumber the CPUs.
"""

import os
import queue
import threading

_BLAS_THREADS = {os.environ.get(var) for var in
                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")} - {None}
CPUS = ((len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
        if _BLAS_THREADS == {"1"} else 1)


def share(func, calls):
    """Call ``func(*args)`` for each ``args`` of ``calls``, on the caller and
    min(CPUS, len(calls)) - 1 workers, and return once every call returned.
    The first exception a call raised is raised here."""
    pending = [(func, args) for args in calls]
    done = queue.SimpleQueue()
    for worker in _started(min(CPUS, len(pending)) - 1):
        worker.put((pending, done))
    _take(pending, done)
    errors = [done.get() for _ in calls]
    for error in errors:
        if error is not None:
            raise error


def _take(pending, done):
    """Run the calls taken from ``pending`` until none is left, putting each
    call's exception, or None, on the share's own queue ``done``."""
    while True:
        try:
            func, args = pending.pop()
        except IndexError:
            return
        error = None
        try:
            func(*args)
        except BaseException as exc:
            # The caller raises it; a worker that died instead would leave
            # the caller waiting forever.
            error = exc
        # Hold no array while waiting, or an idle worker keeps the last
        # one it saw alive.
        del func, args
        done.put(error)


_workers = []                    # the call queue of each started worker
_workers_lock = threading.Lock()


def _started(count):
    """The call queues of ``count`` workers, starting any still missing."""
    if len(_workers) < count:
        with _workers_lock:
            while len(_workers) < count:
                calls = queue.SimpleQueue()
                threading.Thread(target=_work, args=(calls,), daemon=True,
                                 name=f"mtgreedy-product-{len(_workers) + 1}").start()
                _workers.append(calls)
    return _workers[:count]


def _work(calls):
    """A worker's loop: help each share handed over with its calls."""
    while True:
        pending, done = calls.get()
        _take(pending, done)
        del pending, done


def _forget_workers():
    """A forked child has none of its parent's threads; it starts its own."""
    global _workers, _workers_lock
    _workers = []
    _workers_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


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
            or threading.active_count() > 1 + len(_workers)
            or multiprocessing.parent_process() is not None
            or multiprocessing.active_children()):
        return [items]
    return _chunks(items)


def fork_runs(items, large, reports):
    """Start a child for each later run of ``split(items, large)``: the
    child sends the reports of ``reports(run)``, a generator.  Returns
    ({item: its child} over the children's items, [children]); the caller
    serves the first run's items itself and stops the children."""
    remote, children = {}, []
    try:
        for run in split(items, large)[1:]:
            children.append(_Child(reports(run)))
            remote.update(dict.fromkeys(run, children[-1]))
    except BaseException:
        stop(children)
        raise
    return remote, children


class _Child:
    """A forked process that makes the reports of ``reports``, an iterable
    the caller has not started, and sends each, in order, through a pipe of
    which it holds the only write end: once it stops, the caller reads the
    end of the stream instead of waiting."""

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
