"""The program's one fork path: work cut into shares, run on every usable CPU.

The coefficient dump of ``catalog`` (``dump.py``) and the test-set walk of
``semicomplete`` (``semicomplete.semicompleteness_defect``) both call
``run_shares``, with at most ``usable_cpus()`` shares.  A forked worker
inherits the process as it was at the fork, store and test set included, so
nothing is sent to it; it sends back its share's bytes through a pipe.

The dump's workers only slice the read-only store and format text; the
walk's workers enter BLAS.  Under the CLI's policy (``cli.py``) OpenBLAS runs
on one thread and starts no pool, so no other thread runs at a fork, the
hazard that Python >= 3.12 warns of (a ``DeprecationWarning``), and the
processes do not contend for the CPUs with idle BLAS threads.  A thread count
the user sets is safe too: numpy's bundled OpenBLAS stops its pool at a fork
(a ``pthread_atfork`` handler) and each process restarts it at its next
threaded call.
"""
from __future__ import annotations

import os
import sys
from collections.abc import Callable, Sequence

from .spec import ConfigError


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity set); 1 where the platform
    cannot report them or cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def run_shares(
    shares: Sequence, work: Callable[[object], bytes], failure: Callable[[object], str]
) -> list[bytes]:
    """``[work(share) for share in shares]``, each share after the first run by
    its own forked worker while this process runs the first.

    Errors come as in that sequential loop: the first failing share, in
    share order, decides.  An exception of this process's own share 0
    propagates; a worker's ``ConfigError`` is raised again here with its
    text (CLI exit 2); any other exception in a worker prints its traceback
    there and is raised here as ``RuntimeError(failure(share))``, an
    internal failure (CLI exit 1).  Every pipe is read to its end before its
    worker is reaped, and every worker is reaped, also when share 0 fails,
    so a worker blocked writing a large result never deadlocks the two.
    """
    workers = []     # (pid, read end of its pipe, share)
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            sys.stdout.flush()   # a failing worker flushes stderr: it must inherit no buffered text
            sys.stderr.flush()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _worker(work, share, write)
            os.close(write)
            workers.append((pid, read, share))
        results = [work(shares[0])]
    finally:
        replies = []
        for pid, read, share in workers:
            with os.fdopen(read, "rb") as pipe:
                reply = pipe.read()
            replies.append((os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), reply, share))
    for code, reply, share in replies:
        if code == 2:
            raise ConfigError(reply.decode(errors="surrogatepass"))
        if code != 0:
            raise RuntimeError(failure(share))
        results.append(reply)
    return results


def _worker(work: Callable[[object], bytes], share, write: int) -> None:
    """The body of a forked worker; it ends the process and never returns.

    It exits as the CLI would: 0 having sent its share's bytes, 2 having sent
    the text of the share's ``ConfigError``, and 1 on any other exception,
    whose traceback it prints."""
    try:
        try:
            reply, code = work(share), 0
        except ConfigError as exc:
            reply, code = str(exc).encode(errors="surrogatepass"), 2
        with os.fdopen(write, "wb") as pipe:
            pipe.write(reply)
    except BaseException:  # a forked worker must not unwind into its parent's stack
        code = 1
        import traceback  # only a failing worker loads it

        traceback.print_exc()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
