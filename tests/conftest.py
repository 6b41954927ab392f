"""Fixtures and the hypothesis profile shared by the test modules."""

import signal
import warnings

import pytest
from hypothesis import settings

from dpmflow import blowup1d, solver

# hypothesis imports this module to report a failing property, and it
# imports libcst, which warns of a deprecation; under filterwarnings =
# error that warning would end the session inside pytest's report hook,
# so it is imported once here with the warning ignored
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

# every property test draws the same examples on every run, with no
# example database and no per-example deadline (the first example pays
# for numpy's and the domain's caches)
settings.register_profile("dpmflow", deadline=None, max_examples=12, derandomize=True,
                          database=None)
settings.load_profile("dpmflow")


@pytest.fixture
def deadline():
    """Fail a test that runs for more than 30 s instead of letting it hang."""
    def expire(signum, frame):
        raise TimeoutError("the test ran for more than 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def no_step(monkeypatch):
    """Make a step of either runner fail the test, so that an input refused
    with exit 4 is shown to be refused before the first step."""
    def step(self, *args, **kwargs):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(solver._Integrator, "advance", step)
    monkeypatch.setattr(blowup1d._StreamOps, "advance", step)


@pytest.fixture
def stream_steps(monkeypatch):
    """A list that gains an entry per 1D stream-slope step."""
    calls = []
    advance = blowup1d._StreamOps.advance
    monkeypatch.setattr(blowup1d._StreamOps, "advance",
                        lambda self, *a, **kw: calls.append(1) or advance(self, *a, **kw))
    return calls
