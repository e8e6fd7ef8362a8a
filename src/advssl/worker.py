"""One forked worker process that takes one message from its parent and
sends one result back.

`forked(body, name)` forks. The child runs body(receive) and ends by
os._exit, so it never runs the parent's atexit handlers or flushes the
parent's stdio buffers. The parent's send(message) pickles one message into
a pipe and closes it; the child's receive() reads it to EOF, so the child
can work before it needs the message. The child pickles body's result into
a second pipe; the parent reads it through result(), once, and keeps it.
The child writes only after body returns or raises, so a pipe with anything
to read means body is done. Each side closes the pipe ends it does not use,
so a child that has ended reads as EOF, never as a hang. The child closes
its message end before it writes, and result() closes the parent's before
it reads, so neither side waits on a pipe the other has stopped serving.

Failures reach the parent as its own exceptions:

- an exception in body is raised again by result(), with the same type and
  message, from a WorkerTraceback that holds the child's frames;
- a child that ends without a result raises ChildProcessError with the
  child's exit code;
- send to a child that has ended raises what result() raises, never
  BrokenPipeError;
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
    """Run body(receive) in a forked child for the with-block; yield
    (send, result). receive() returns the one message of send(message).
    result(wait=True) waits for the child and returns body's result; with
    wait=False it returns None while body still runs. name ("ablation
    worker") starts the ChildProcessError of a child that ends without one."""
    read_fd, write_fd = os.pipe()  # child -> parent: body's result
    inbox_fd, outbox_fd = os.pipe()  # parent -> child: the message
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            os.close(outbox_fd)
            inbox = open(inbox_fd, "rb")

            def receive():
                return pickle.loads(inbox.read())  # to EOF: the parent closes after sending

            try:
                data = pickle.dumps(body(receive), pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:
                import traceback  # like signal below: importing the package loads neither

                data = pickle.dumps(_Failure(exc, traceback.format_exc()), pickle.HIGHEST_PROTOCOL)
            inbox.close()
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    os.close(inbox_fd)
    reader = open(read_fd, "rb")
    outbox = open(outbox_fd, "wb", buffering=0)
    reaped = False
    kept = []

    def send(message):
        data = memoryview(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
        try:
            with outbox:
                while data:
                    data = data[outbox.write(data) :]
            return
        except BrokenPipeError:
            pass  # the child has ended: its result says how, outside this handler
        result()

    def result(wait: bool = True):
        nonlocal reaped
        if kept:
            return kept[0]
        if not wait and not select.select([reader], [], [], 0)[0]:
            return None
        outbox.close()
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
        yield send, result
    except BaseException:
        if not reaped:
            import signal

            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        reader.close()
        outbox.close()
        if not reaped:
            os.waitpid(pid, 0)
