"""Dynodroid's event loop with the weight list rebuilt per event: the
reference the incremental generator is diffed against.

``DynodroidGenerator`` keeps its explore weights across events and
recomputes only the slot whose counters changed.  This oracle keeps the
plain form: every explore step rebuilds ``reward / (1 + fired)`` for
every declared pair and draws the pair itself.  Test-only.
"""

from typing import Iterator

from repro.fuzzing.generators import DynodroidGenerator
from repro.vm.events import Event


class ReferenceDynodroid(DynodroidGenerator):
    """Same state and feedback hooks; only ``events`` differs."""

    def events(self) -> Iterator[Event]:
        if not self.declared:
            raise ValueError("app declares no event handlers")
        while True:
            # Exploit: replay a mutation of an input that reached new
            # code -- this is what drives deep conditions.
            if self._productive and self.rng.random() < 0.25:
                event = self._mutate(self.rng.choice(self._productive))
                self._last = (event.kind, event.target_class)
                self._last_event = event
                self._fired[self._last] = self._fired.get(self._last, 0) + 1
                yield event
                continue
            # Explore: weight = reward / (1 + times fired), favoring
            # under-exercised and productive handlers.
            weights = [
                self._rewarded[pair] / (1.0 + self._fired[pair])
                for pair in self.declared
            ]
            pair = self.rng.choices(self.declared, weights=weights, k=1)[0]
            self._fired[pair] += 1
            self._last = pair
            kind, target = pair
            event = Event(kind, target, self._args_for(kind))
            self._last_event = event
            yield event
