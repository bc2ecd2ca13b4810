"""UI event model.

Apps expose event handlers as methods named ``on_<kind>`` (any class may
declare them -- think one activity per class).  A fuzzer or a simulated
user produces a stream of :class:`Event` records; the runtime dispatches
each to the matching handler of the chosen class.

The event vocabulary covers what Monkey/Dynodroid inject: touches, key
presses, text entry, menu selections, scrolls, long presses, back
presses, timer ticks and sensor changes.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import List, Tuple


class EventKind(enum.Enum):
    """Every injectable event, with its handler-argument shape."""

    TOUCH = "touch"            # (x, y)
    LONG_PRESS = "long_press"  # (x, y)
    KEY = "key"                # (code,)
    TEXT = "text"              # (string,)
    MENU = "menu"              # (item_id,)
    SCROLL = "scroll"          # (dy,)
    BACK = "back"              # ()
    TICK = "tick"              # (millis,)
    SENSOR = "sensor"          # (value,)


#: Handler parameter counts by kind.
ARITY = {
    EventKind.TOUCH: 2,
    EventKind.LONG_PRESS: 2,
    EventKind.KEY: 1,
    EventKind.TEXT: 1,
    EventKind.MENU: 1,
    EventKind.SCROLL: 1,
    EventKind.BACK: 0,
    EventKind.TICK: 1,
    EventKind.SENSOR: 1,
}


def handler_name_for(kind: EventKind) -> str:
    """Handler method name for an event kind (``on_touch`` etc.)."""
    return f"on_{kind.value}"


@dataclass(frozen=True)
class Event:
    """One injected event, targeted at a class that declares the handler."""

    kind: EventKind
    target_class: str
    args: Tuple = ()

    def __post_init__(self) -> None:
        expected = ARITY[self.kind]
        if len(self.args) != expected:
            raise ValueError(
                f"{self.kind.value} event takes {expected} args, got {len(self.args)}"
            )

    @property
    def handler(self) -> str:
        return f"{self.target_class}.{handler_name_for(self.kind)}"

    #: Simulated latency of injecting + handling one event, in seconds.
    #: (Dynodroid reports roughly 10-20 events/second on a device.)
    DURATION = 0.1


_WORDS = (
    "hello", "test", "fish", "route", "note", "abc", "map", "42", "journal",
    "calendar", "beat", "hash", "log", "pause", "play", "save", "load",
    "north", "x", "",
)


def random_args(kind: EventKind, rng: random.Random, width: int = 1080, height: int = 1920) -> Tuple:
    """Plausible random arguments for an event of ``kind``."""
    if kind in (EventKind.TOUCH, EventKind.LONG_PRESS):
        return (rng.randrange(width), rng.randrange(height))
    if kind is EventKind.KEY:
        return (rng.randrange(0, 285),)  # Android keycode range
    if kind is EventKind.TEXT:
        return (rng.choice(_WORDS),)
    if kind is EventKind.MENU:
        return (rng.randrange(0, 12),)
    if kind is EventKind.SCROLL:
        return (rng.randrange(-400, 401),)
    if kind is EventKind.BACK:
        return ()
    if kind is EventKind.TICK:
        return (rng.choice((16, 100, 250, 1000)),)
    if kind is EventKind.SENSOR:
        return (rng.randrange(0, 10001),)
    raise ValueError(f"unhandled event kind {kind!r}")


def declared_events(dex) -> List[Tuple[EventKind, str]]:
    """(kind, class) pairs an app actually handles, in stable order.

    ``dex`` is a :class:`repro.dex.DexFile`; fuzzers build their event
    alphabet from this -- Monkey fires blindly, the smarter tools fire
    only events some handler listens to.
    """
    pairs = []
    by_name = {kind: handler_name_for(kind) for kind in EventKind}
    for class_name in sorted(dex.classes):
        cls = dex.classes[class_name]
        for kind, name in by_name.items():
            if name in cls.methods:
                pairs.append((kind, class_name))
    return pairs
