"""A map over worker processes forked from the caller, with no process pool and no thread."""

import os
import pickle
import select
import signal


def forked_map(fn, tasks: list, workers: int) -> list:
    """[fn(*task) for task in tasks] in `workers` processes forked from this one, which keep its modules and
    settings (BLAS threads too). Each takes the next task whenever it is free. Once one sends fn's error or dies
    (BrokenProcessPool), the others are killed at once, and the error is raised when every worker is reaped."""
    counter = os.pipe()  # holds the index of the next task, or is empty while a worker takes it
    os.write(counter[1], bytes(8))
    poller, pipes, pids, out = select.poll(), {}, [], {}
    try:
        for w in range(workers):
            r, wr = os.pipe()
            pipes[r] = w
            poller.register(r, select.POLLIN)
            try:
                pids.append(os.fork())
                if not pids[-1]:
                    _work(fn, tasks, counter, wr)  # exits the worker
            finally:
                os.close(wr)
        while pipes:
            for r, _ in poller.poll():
                poller.unregister(r)
                w = pipes.pop(r)
                with open(r, "rb") as pipe:  # a worker writes its payload at once, when it is done
                    try:
                        part = pickle.load(pipe)
                    except Exception:  # the worker died before it sent a whole payload
                        from concurrent.futures.process import BrokenProcessPool
                        raise BrokenProcessPool(f"worker {w} of {workers} died before sending its results") from None
                if isinstance(part, BaseException):
                    raise part
                out.update(part)
    finally:  # the error propagates once the other workers are killed and every worker is reaped
        for pid in pids if pipes else ():
            os.kill(pid, signal.SIGKILL)
        for fd in (*pipes, *counter):
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
    return [out[i] for i in range(len(tasks))]


def _work(fn, tasks: list, counter: tuple, fd: int):
    """A forked worker: pickle (index, result) of each task it takes from the counter, or fn's error, into fd; exit."""
    try:
        with open(fd, "wb") as pipe:
            result = []
            try:
                while (i := int.from_bytes(os.read(counter[0], 8), "little")) < len(tasks):
                    os.write(counter[1], (i + 1).to_bytes(8, "little"))  # the next free worker takes task i + 1
                    result.append((i, fn(*tasks[i])))
                os.write(counter[1], i.to_bytes(8, "little"))  # leave the end for the other workers
            except BaseException as exc:
                result = exc
            pickle.dump(result, pipe)
        os._exit(0)
    finally:
        os._exit(1)
