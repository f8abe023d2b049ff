"""Every test runs under the per-test time limit that ``conftest.py``
arms: past ``TEST_SECONDS`` a SIGALRM interrupts the run and names the
test and the line it was on."""

import signal
import sys

import pytest

from conftest import TEST_SECONDS


def test_timer_is_armed():
    remaining, interval = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= TEST_SECONDS
    assert interval == 0


def test_alarm_interrupts_and_names_the_test(request):
    handler = signal.getsignal(signal.SIGALRM)
    with pytest.raises(KeyboardInterrupt) as info:
        line = sys._getframe().f_lineno + 1
        handler(signal.SIGALRM, sys._getframe())
    assert str(info.value) == (f"{request.node.nodeid} ran past {TEST_SECONDS} s; "
                               f"interrupted at {__file__}:{line}")
