"""Shared helpers for service tests."""


class FakeClock:
    """A hand-advanced clock for the governor's injectable ``clock``."""

    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds
