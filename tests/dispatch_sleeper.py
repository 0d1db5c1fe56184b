"""Import-light work functions for executor tests run in child processes.

Lives apart from the test modules so a worker resolving these does not
pay for importing pytest/hypothesis — the ping-deadline tests need
function resolution to be fast relative to the liveness timeout, and
the dead-worker test runs its pool in a bare child interpreter.
"""

import os
import signal
import time


def sleepy_square(value: int) -> int:
    time.sleep(2.0)
    return value * value


def square_or_die(value: int) -> int:
    """Square ``value``, but SIGKILL the calling process on a negative one."""
    if value < 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value


def nap_square(value: int) -> int:
    """Square ``value`` after a 50 ms nap, so a run stays in flight."""
    time.sleep(0.05)
    return value * value
