"""One forked worker process and the duplex channel between it and its parent.

`forked(body, name)` forks. The child runs body(channel) and ends by
os._exit, so it never runs the parent's atexit handlers or flushes the
parent's stdio buffers. The parent holds the other end of the channel for
the length of a with-block. A channel is two pipes carrying
length-prefixed pickle messages; each side closes the pipe ends it does
not use, so a peer that has ended reads as EOF, never as a hang.

Failures reach the parent as its own exceptions:

- an exception in body is sent to the parent and raised again by its next
  recv, with the same type and message, from a WorkerTraceback that holds
  the child's frames;
- a child that ends while the parent still talks to it raises
  ChildProcessError with the child's exit code;
- an exception in the parent's with-block kills the child (SIGKILL).

The child is reaped on every path. The parent closing its end is the
child's EOF (EOFError from recv): a body that serves until then ends.
"""

from __future__ import annotations

import contextlib
import os
import pickle

_HEADER = 8  # bytes of the little-endian payload length before each message


class WorkerTraceback(Exception):
    """A worker's formatted traceback, chained as the cause of the worker's
    exception when that is raised again in the parent."""


class _PeerGone(EOFError):
    """The other side of the channel has closed its ends."""


class _Failure:
    """The message a child sends in place of its body's result when it raises."""

    def __init__(self, exc: BaseException, frames: str):
        self.exc, self.frames = exc, frames


class Channel:
    """One side of a duplex pipe channel: send(message) and recv() -> message."""

    def __init__(self, read_fd: int, write_fd: int):
        self._reader = open(read_fd, "rb")
        self._write_fd = write_fd

    def send(self, message):
        data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        view = memoryview(len(data).to_bytes(_HEADER, "little") + data)
        try:
            while view:
                view = view[os.write(self._write_fd, view) :]
        except BrokenPipeError:
            raise _PeerGone from None

    def _read(self, size: int) -> bytes:
        data = self._reader.read(size)
        if len(data) < size:
            raise _PeerGone
        return data

    def recv(self):
        message = pickle.loads(self._read(int.from_bytes(self._read(_HEADER), "little")))
        if isinstance(message, _Failure):
            raise message.exc from WorkerTraceback(message.frames)
        return message

    def close(self):
        self._reader.close()
        os.close(self._write_fd)


@contextlib.contextmanager
def forked(body, name: str):
    """Run body(channel) in a forked child for the with-block; yield the
    parent's end of the channel. name ("split worker") starts the
    ChildProcessError of a child that ends too early."""
    to_child, to_parent = os.pipe(), os.pipe()  # (read end, write end) each
    pid = os.fork()
    if pid == 0:
        try:
            os.close(to_child[1])
            os.close(to_parent[0])
            channel = Channel(to_child[0], to_parent[1])
            try:
                body(channel)
            except BaseException as exc:
                import traceback  # like signal below: importing the package loads neither

                channel.send(_Failure(exc, traceback.format_exc()))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(to_child[0])
    os.close(to_parent[1])
    channel = Channel(to_parent[0], to_child[1])
    status = None
    try:
        yield channel
    except _PeerGone:
        status = os.waitpid(pid, 0)[1]
        code = os.waitstatus_to_exitcode(status)
        raise ChildProcessError(f"{name} ended without a result (exit code {code})") from None
    except BaseException:
        import signal

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        channel.close()  # the child's EOF: a serving child ends
        if status is None:
            os.waitpid(pid, 0)
