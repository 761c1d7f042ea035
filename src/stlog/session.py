"""One request's shared state: its S-pair budget and its D^p results.

`request()` installs a fresh `Session` for the duration of a `with`
block.  Every Groebner engine built inside it charges the one budget,
and `derivation_module` computes each D^p once and then hands out the
same result, at no cost in S-pairs.  Outside a request, `current()`
returns a throwaway session: each engine gets the default budget of its
own, and nothing is reused.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from .exceptions import ResourceBudgetError

DEFAULT_MAX_PAIRS = 500_000


class Session:
    def __init__(self, max_pairs: int = DEFAULT_MAX_PAIRS):
        self.max_pairs = max_pairs
        self.pairs = 0
        self.modules: dict = {}     # (arr, mult, p) -> LogModule of D^p

    def charge_pair(self):
        self.pairs += 1
        if self.pairs > self.max_pairs:
            raise ResourceBudgetError(f"S-pair budget exceeded ({self.max_pairs})")


_ACTIVE: ContextVar = ContextVar("stlog_session", default=None)


@contextmanager
def request(max_pairs: int = DEFAULT_MAX_PAIRS):
    token = _ACTIVE.set(Session(max_pairs))
    try:
        yield _ACTIVE.get()
    finally:
        _ACTIVE.reset(token)


def current() -> Session:
    return _ACTIVE.get() or Session()
