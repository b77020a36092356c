"""Spans recorded from outside the program, by wrapping its public
functions.

:meth:`Wrappers.wrap` replaces one function or method with a wrapper
that opens a span on a benchmark-owned
:class:`~repro.obs.tracer.Tracer`.  That tracer is never activated, so
the program's own ``repro.obs`` spans stay off; nothing is written
until :func:`dump` at the end of the run.  The rest of this module
sums the recorded trees: self time is a span's duration minus its
children's.
"""

from __future__ import annotations

import functools
import json
import os

from repro.obs.tracer import Span, Tracer


class Wrappers:
    """The benchmark's tracer plus the wrappers feeding it."""

    def __init__(self):
        self.tracer = Tracer()
        self._patches: list[tuple[object, str, object]] = []

    @property
    def roots(self) -> list[Span]:
        return self.tracer.roots

    def wrap(self, owner, attr: str, span_name: str) -> None:
        """Record a ``span_name`` span around every call of
        ``owner.attr`` (a module function or a class's method)."""
        original = (
            owner.__dict__[attr]
            if isinstance(owner, type)
            else getattr(owner, attr)
        )
        span = self.tracer.span

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with span(span_name):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def walk(roots):
    """Every span of ``roots`` and their descendants, preorder."""
    for root in roots:
        yield from root.walk()


def self_time(span: Span) -> float:
    """Seconds in ``span`` outside its children."""
    return span.duration - sum(child.duration for child in span.children)


def busy(roots) -> dict[str, float]:
    """Summed self time (s) per span name over ``roots``' trees."""
    out: dict[str, float] = {}
    for span in walk(roots):
        out[span.name] = out.get(span.name, 0.0) + self_time(span)
    return out


def named(roots, name: str) -> list[Span]:
    """The spans called ``name`` in ``roots``' trees, preorder."""
    return [span for span in walk(roots) if span.name == name]


def durations(roots, name: str) -> list[float]:
    """Durations (s) of the spans called ``name``."""
    return [span.duration for span in named(roots, name)]


def dump(roots, path: str) -> None:
    """Write one root span tree per JSON line (``Span.to_dict``)."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.writelines(
            json.dumps(root.to_dict()) + "\n" for root in roots
        )
    os.replace(tmp, path)


def load(path: str) -> list[Span]:
    """Read back a :func:`dump`."""
    with open(path, encoding="utf-8") as handle:
        return [Span.from_dict(json.loads(line)) for line in handle]
