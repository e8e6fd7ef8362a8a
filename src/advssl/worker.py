"""One forked worker process that sends one result to its parent.

`forked(body, name)` forks. The child runs body() and ends by os._exit, so
it never runs the parent's atexit handlers or flushes the parent's stdio
buffers. The child pickles body's result into a pipe; the parent reads it
through the function the with-block yields, once, and keeps it. Each side
closes the pipe end it does not use, so a child that has ended reads as
EOF, never as a hang. The child writes only after body returns or raises,
so a pipe with anything to read means body is done.

Failures reach the parent as its own exceptions:

- an exception in body is raised again by the yielded function, with the
  same type and message, from a WorkerTraceback that holds the child's
  frames;
- a child that ends without a result raises ChildProcessError with the
  child's exit code;
- an exception in the parent's with-block kills the child (SIGKILL).

The child is reaped on every path.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import select


class WorkerTraceback(Exception):
    """A worker's formatted traceback, chained as the cause of the worker's
    exception when that is raised again in the parent."""


class _Failure:
    """The message a child sends in place of its body's result when it raises."""

    def __init__(self, exc: BaseException, frames: str):
        self.exc, self.frames = exc, frames


@contextlib.contextmanager
def forked(body, name: str):
    """Run body() in a forked child for the with-block; yield a function
    result(wait=True) that waits for the child and returns body's result;
    with wait=False it returns None while body still runs. name ("ablation
    worker") starts the ChildProcessError of a child that ends without one."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                data = pickle.dumps(body(), pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:
                import traceback  # like signal below: importing the package loads neither

                data = pickle.dumps(_Failure(exc, traceback.format_exc()), pickle.HIGHEST_PROTOCOL)
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    reader = open(read_fd, "rb")
    reaped = False
    kept = []

    def result(wait: bool = True):
        nonlocal reaped
        if kept:
            return kept[0]
        if not wait and not select.select([reader], [], [], 0)[0]:
            return None
        data = reader.read()  # to EOF: the child has written all or ended
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
        if code != 0:  # the child exits 0 only after writing its whole result
            raise ChildProcessError(f"{name} ended without a result (exit code {code})")
        message = pickle.loads(data)
        if isinstance(message, _Failure):
            raise message.exc from WorkerTraceback(message.frames)
        kept.append(message)
        return message

    try:
        yield result
    except BaseException:
        if not reaped:
            import signal

            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        reader.close()
        if not reaped:
            os.waitpid(pid, 0)
