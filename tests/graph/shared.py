"""Lowered networks shared across test modules.

A lowering's first run compiles, profiles and records every launch;
later runs replay its traces for a fraction of that cost.  A test that
only needs *some* run of an untuned Ampere lowering of a (name, mode)
takes the session's shared one from here, so the first-run cost is
paid once per session.  Tests that compare against a fresh lowering's
first run, or count the work a first run does, lower their own.
"""

import functools

from repro.graph import network
from repro.tuner import resolve_arch


@functools.lru_cache(maxsize=None)
def _shared(name, mode):
    net = network(name)
    return net, net.lower("ampere", mode=mode)


def lowered_network(name, mode="auto"):
    """The session's shared network lowered untuned on Ampere."""
    return _shared(name, mode)[0]


class SharedNetwork:
    """A ``repro.graph.network`` stand-in whose ``lower`` hands out the
    shared lowering instead of compiling a fresh one.

    Only untuned Ampere lowerings are shared; anything else fails.
    """

    def __init__(self, name):
        self.name = name
        self._net = None

    def lower(self, arch="ampere", *, mode="auto", tune=False, seed=0,
              cache=False):
        assert resolve_arch(arch).key == "ampere" and not tune
        self._net, lowering = _shared(self.name, mode)
        return lowering

    def run(self, *args, **kwargs):
        return self._net.run(*args, **kwargs)
