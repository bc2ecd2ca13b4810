"""Class-file model: fields, methods, classes and the dex container.

A :class:`DexFile` is the unit that gets serialized into a binary blob
-- the app's ``classes.dex``, or a bomb payload.  Methods own a flat
instruction list with label pseudo-instructions; :meth:`DexMethod.label_map`
resolves labels to indices (cached, invalidated on mutation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.dex.instructions import Instr
from repro.dex.opcodes import Op
from repro.errors import DexError

#: Method-name prefix that marks UI event handlers (drivers invoke these).
EVENT_HANDLER_PREFIX = "on_"

#: Conventional entry point run once when the app starts.
ENTRY_METHOD = "main"


@dataclass
class DexField:
    """A static or instance field with an initial value."""

    name: str
    static: bool = False
    initial: object = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise DexError("field name must be a non-empty string")


@dataclass
class DexMethod:
    """A method: ``registers`` total registers, the first ``params`` of
    which receive the arguments.

    ``instructions`` is mutable on purpose -- the instrumenter rewrites it
    in place.  Call :meth:`invalidate` after structural edits.
    """

    name: str
    class_name: str
    params: int
    registers: int
    instructions: List[Instr] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.params < 0 or self.registers < self.params:
            raise DexError(
                f"{self.qualified_name}: registers={self.registers} < params={self.params}"
            )
        self._labels: Optional[Dict[str, int]] = None
        self._successors = None  # successor relation (repro.analysis.cfg)
        self._compiled = None  # dispatch-table body (repro.vm.dispatch)

    @property
    def qualified_name(self) -> str:
        return f"{self.class_name}.{self.name}"

    @property
    def is_event_handler(self) -> bool:
        return self.name.startswith(EVENT_HANDLER_PREFIX)

    def label_map(self) -> Dict[str, int]:
        """Map of label name -> instruction index (of the LABEL marker)."""
        if self._labels is None:
            labels: Dict[str, int] = {}
            for index, instr in enumerate(self.instructions):
                if instr.op is Op.LABEL:
                    if instr.value in labels:
                        raise DexError(
                            f"{self.qualified_name}: duplicate label {instr.value!r}"
                        )
                    labels[instr.value] = index
            self._labels = labels
        return self._labels

    def invalidate(self) -> None:
        """Drop caches (label map, successor relation, compiled dispatch
        table) after mutating ``instructions``."""
        self._labels = None
        self._successors = None
        self._compiled = None

    def label_cache(self) -> Optional[Dict[str, int]]:
        """The cached label map as-is, or None when invalidated.

        Unlike :meth:`label_map` this never recomputes -- the verifier
        uses it to detect a cache that survived a structural edit.
        """
        return self._labels

    def resolve(self, label: str) -> int:
        """Index of the instruction labelled ``label``."""
        try:
            return self.label_map()[label]
        except KeyError:
            raise DexError(f"{self.qualified_name}: undefined label {label!r}") from None

    def validate(self) -> None:
        """Check structural invariants: targets exist, registers in range."""
        labels = self.label_map()
        for index, instr in enumerate(self.instructions):
            for reg in (instr.dst, instr.a, instr.b, *instr.args):
                if reg is not None and reg >= self.registers:
                    raise DexError(
                        f"{self.qualified_name}@{index}: register r{reg} out of "
                        f"range (method has {self.registers})"
                    )
            if instr.target is not None and instr.target not in labels:
                raise DexError(
                    f"{self.qualified_name}@{index}: undefined target {instr.target!r}"
                )
            if instr.op is Op.SWITCH:
                for target in instr.value.values():
                    if target not in labels:
                        raise DexError(
                            f"{self.qualified_name}@{index}: undefined switch "
                            f"target {target!r}"
                        )

    def fresh_label(self, hint: str = "L") -> str:
        """A label name not yet used in this method."""
        labels = self.label_map()
        counter = len(labels)
        while f"{hint}{counter}" in labels:
            counter += 1
        return f"{hint}{counter}"

    def grow_registers(self, extra: int) -> int:
        """Reserve ``extra`` fresh registers; returns index of the first."""
        if extra < 0:
            raise DexError("cannot shrink the register file")
        first = self.registers
        self.registers += extra
        return first

    def real_instruction_count(self) -> int:
        """Instruction count excluding label markers (code-size metric)."""
        return sum(1 for instr in self.instructions if instr.op is not Op.LABEL)


@dataclass
class DexClass:
    """A class: named fields plus named methods."""

    name: str
    fields: Dict[str, DexField] = field(default_factory=dict)
    methods: Dict[str, DexMethod] = field(default_factory=dict)

    def add_field(self, f: DexField) -> DexField:
        if f.name in self.fields:
            raise DexError(f"{self.name}: duplicate field {f.name!r}")
        self.fields[f.name] = f
        return f

    def add_method(self, m: DexMethod) -> DexMethod:
        if m.class_name != self.name:
            raise DexError(f"method {m.qualified_name} does not belong to {self.name}")
        if m.name in self.methods:
            raise DexError(f"{self.name}: duplicate method {m.name!r}")
        self.methods[m.name] = m
        return m

    def static_fields(self) -> Iterator[DexField]:
        return (f for f in self.fields.values() if f.static)


@dataclass
class DexFile:
    """The container serialized into ``classes.dex``."""

    classes: Dict[str, DexClass] = field(default_factory=dict)

    def add_class(self, cls: DexClass) -> DexClass:
        if cls.name in self.classes:
            raise DexError(f"duplicate class {cls.name!r}")
        self.classes[cls.name] = cls
        return cls

    def get_method(self, qualified_name: str) -> DexMethod:
        class_name, _, method_name = qualified_name.rpartition(".")
        try:
            return self.classes[class_name].methods[method_name]
        except KeyError:
            raise DexError(f"no such method {qualified_name!r}") from None

    def iter_methods(self) -> Iterator[DexMethod]:
        for cls in self.classes.values():
            yield from cls.methods.values()

    def event_handlers(self) -> List[DexMethod]:
        """All UI event handlers, in stable (class, name) order."""
        handlers = [m for m in self.iter_methods() if m.is_event_handler]
        handlers.sort(key=lambda m: m.qualified_name)
        return handlers

    def instruction_count(self) -> int:
        """Total real instructions -- the paper's code-size metric."""
        return sum(m.real_instruction_count() for m in self.iter_methods())

    def validate(self) -> None:
        for method in self.iter_methods():
            method.validate()
