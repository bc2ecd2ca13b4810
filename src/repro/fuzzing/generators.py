"""The four fuzzer models.

Strategies (calibrated to reproduce the Table 4 ordering, where
Dynodroid > PUMA ≈ AndroidHooker > Monkey):

``Monkey``         fires uniformly random events at random coordinates
                   without consulting the UI model; many events land on
                   handlers that don't exist and are wasted.
``PUMA``           programmable UI automation: only fires events some
                   handler listens to, cycling through screens.
``AndroidHooker``  hook-assisted random exerciser: knows the declared
                   handlers and the menu/key alphabets, weights toward
                   interactive kinds.
``Dynodroid``      "observe-select-execute": tracks which (kind, class)
                   pairs produced new coverage recently and biases
                   selection toward under-exercised handlers; also
                   harvests string constants it has seen the app compare
                   against (a light taint feedback), making it the best
                   of the four.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.dex.model import DexFile
from repro.dex.opcodes import Op
from repro.vm.events import Event, EventKind, declared_events, random_args


class EventGenerator:
    """Base class: an infinite stream of events for one app."""

    name = "base"

    def __init__(self, dex: DexFile, seed: int = 0) -> None:
        self.dex = dex
        self.rng = random.Random(seed)
        self.declared: List[Tuple[EventKind, str]] = declared_events(dex)
        self.classes: List[str] = sorted(dex.classes)

    def events(self) -> Iterator[Event]:
        raise NotImplementedError

    def stream(self, count: int) -> List[Event]:
        """Materialize ``count`` events."""
        iterator = self.events()
        return [next(iterator) for _ in range(count)]

    def notify_coverage(self, event: Event, new_coverage: int) -> None:
        """Feedback hook; only Dynodroid uses it."""

    def notify_observed_strings(self, strings: Sequence[str]) -> None:
        """Feedback hook for harvested comparison constants."""


class MonkeyGenerator(EventGenerator):
    """UI/Application Exerciser Monkey: blind uniform random.

    Two modeled weaknesses: it does not know which class is on screen
    (blind taps land on handlers that do not exist and are wasted), and
    it does not understand input *structure* -- its text is keystroke
    gibberish rather than meaningful tokens, and its "menu selections"
    are raw coordinates that rarely map to a real item.
    """

    name = "monkey"

    _GIBBERISH = "abcdefghijklmnopqrstuvwxyz0123456789 "

    #: Pseudo-targets for taps that land on decorations, the status bar,
    #: dead whitespace...  Most of a screen is not a reactive widget.
    _DEAD_SURFACE = ("__decor__", "__statusbar__", "__background__")

    def events(self) -> Iterator[Event]:
        kinds = list(EventKind)
        while True:
            kind = self.rng.choice(kinds)
            target = self.rng.choice(self.classes + list(self._DEAD_SURFACE))
            yield Event(kind, target, self._blind_args(kind))

    def _blind_args(self, kind: EventKind):
        if kind is EventKind.TEXT:
            length = self.rng.randrange(1, 9)
            return ("".join(self.rng.choice(self._GIBBERISH) for _ in range(length)),)
        if kind is EventKind.MENU:
            # A random screen position seldom lands on a menu item.
            return (self.rng.randrange(0, 64),)
        return random_args(kind, self.rng)


class PumaGenerator(EventGenerator):
    """PUMA: drives only declared handlers, breadth-first over screens."""

    name = "puma"

    def events(self) -> Iterator[Event]:
        if not self.declared:
            raise ValueError("app declares no event handlers")
        while True:
            order = list(self.declared)
            self.rng.shuffle(order)
            for kind, target in order:
                yield Event(kind, target, random_args(kind, self.rng))


class AndroidHookerGenerator(EventGenerator):
    """AndroidHooker: declared handlers, weighted toward interaction."""

    name = "androidhooker"

    _WEIGHTS = {
        EventKind.TOUCH: 5,
        EventKind.TEXT: 3,
        EventKind.MENU: 3,
        EventKind.KEY: 3,
        EventKind.LONG_PRESS: 1,
        EventKind.SCROLL: 2,
        EventKind.BACK: 1,
        EventKind.TICK: 2,
        EventKind.SENSOR: 1,
    }

    def events(self) -> Iterator[Event]:
        if not self.declared:
            raise ValueError("app declares no event handlers")
        weights = [self._WEIGHTS[kind] for kind, _ in self.declared]
        while True:
            kind, target = self.rng.choices(self.declared, weights=weights, k=1)[0]
            yield Event(kind, target, random_args(kind, self.rng))


class DynodroidGenerator(EventGenerator):
    """Dynodroid: frequency-biased selection plus harvested strings."""

    name = "dynodroid"

    def __init__(self, dex: DexFile, seed: int = 0) -> None:
        super().__init__(dex, seed)
        self._fired: Dict[Tuple[EventKind, str], int] = {
            pair: 0 for pair in self.declared
        }
        self._rewarded: Dict[Tuple[EventKind, str], int] = {
            pair: 1 for pair in self.declared
        }
        #: Explore weights, one slot per declared pair (the pairs are
        #: unique); only the slot whose counters change is recomputed.
        self._slot: Dict[Tuple[EventKind, str], int] = {
            pair: index for index, pair in enumerate(self.declared)
        }
        self._weights: List[float] = [
            self._weight(pair) for pair in self.declared
        ]
        self._harvested: List[str] = self._harvest_string_constants(dex)
        self._last: Optional[Tuple[EventKind, str]] = None
        self._last_event: Optional[Event] = None
        #: Events that produced new coverage; Dynodroid's
        #: observe-select-execute loop replays mutations of them.
        self._productive: List[Event] = []

    @staticmethod
    def _harvest_string_constants(dex: DexFile) -> List[str]:
        """String constants visible in code -- Dynodroid seeds text
        inputs from observed app data."""
        seen = []
        for method in dex.iter_methods():
            for instr in method.instructions:
                if instr.op is Op.CONST and isinstance(instr.value, str):
                    if 0 < len(instr.value) <= 24:
                        seen.append(instr.value)
        return sorted(set(seen))

    def events(self) -> Iterator[Event]:
        if not self.declared:
            raise ValueError("app declares no event handlers")
        slots = range(len(self.declared))
        while True:
            # Exploit: replay a mutation of an input that reached new
            # code -- this is what drives deep conditions.
            if self._productive and self.rng.random() < 0.25:
                event = self._mutate(self.rng.choice(self._productive))
                self._last = (event.kind, event.target_class)
                self._last_event = event
                self._fired[self._last] = self._fired.get(self._last, 0) + 1
                self._refresh(self._last)
                yield event
                continue
            # Explore: weight = reward / (1 + times fired), favoring
            # under-exercised and productive handlers.  Drawing an index
            # consumes the same random numbers as drawing the pair.
            index = self.rng.choices(slots, self._weights, k=1)[0]
            pair = self.declared[index]
            self._fired[pair] += 1
            self._weights[index] = self._weight(pair)
            self._last = pair
            kind, target = pair
            event = Event(kind, target, self._args_for(kind))
            self._last_event = event
            yield event

    def _weight(self, pair: Tuple[EventKind, str]) -> float:
        return self._rewarded[pair] / (1.0 + self._fired[pair])

    def _refresh(self, pair: Tuple[EventKind, str]) -> None:
        index = self._slot.get(pair)
        if index is not None:
            self._weights[index] = self._weight(pair)

    def _mutate(self, event: Event) -> Event:
        """Replay with small integer perturbations (or verbatim)."""
        args = tuple(
            arg + self.rng.randrange(-2, 3) if isinstance(arg, int) and not isinstance(arg, bool)
            else arg
            for arg in event.args
        )
        try:
            return Event(event.kind, event.target_class, args)
        except ValueError:  # pragma: no cover - arity never changes
            return event

    def _args_for(self, kind: EventKind) -> Tuple:
        if kind is EventKind.TEXT and self._harvested and self.rng.random() < 0.5:
            return (self.rng.choice(self._harvested),)
        return random_args(kind, self.rng)

    def notify_coverage(self, event: Event, new_coverage: int) -> None:
        if self._last is not None and new_coverage > 0:
            self._rewarded[self._last] = (
                self._rewarded.get(self._last, 1) + new_coverage
            )
            self._refresh(self._last)
            if self._last_event is not None:
                self._productive.append(self._last_event)
                if len(self._productive) > 64:
                    self._productive.pop(0)

    def notify_observed_strings(self, strings: Sequence[str]) -> None:
        merged = set(self._harvested) | {s for s in strings if 0 < len(s) <= 64}
        self._harvested = sorted(merged)


#: Registry used by the Table 4 harness.
GENERATORS = {
    cls.name: cls
    for cls in (MonkeyGenerator, PumaGenerator, AndroidHookerGenerator, DynodroidGenerator)
}
