"""The slot text every spec grammar shares: ``name[:key=value,...]``.

Fault plans (``--faults``), cohort fleets (``--cohorts``), chaos
schedules and campaign workload values are lists of *slots*::

    slot := name (":" key "=" value (SEP key "=" value)*)?

``SEP`` is ``,``, or ``+`` inside a campaign workload value, whose outer
grammar owns ``,``.  Each grammar brings its slot separator, its error
class and, per slot name, a key table mapping each key to the caster
that reads its value and refuses one out of its range (:func:`finite`).
docs/robustness.md §1 states the rules once for every grammar.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

#: Reads one value's text; raises ``ValueError`` when it cannot.
Caster = Callable[[str], Any]
#: One slot name's keys, each with the caster that reads its value.
KeyTable = Mapping[str, Caster]
#: A slot's ``(key, value)`` pairs, in the order written.
Params = tuple[tuple[str, Any], ...]


def number(text: str) -> float:
    """A float value, read as ``float`` reads it."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"non-numeric value {text!r}") from None


def finite(lo: float = -math.inf, hi: float = math.inf) -> Caster:
    """A caster reading a finite number in ``[lo, hi]``; NaN and infinities fail."""
    expected = "a finite number"
    if math.isfinite(hi):
        expected += f" in [{lo:g}, {hi:g}]"
    elif math.isfinite(lo):
        expected += f" >= {lo:g}"

    def read(text: str) -> float:
        value = number(text)
        if not (math.isfinite(value) and lo <= value <= hi):
            raise ValueError(f"value {text!r} is not {expected}")
        return value

    return read


def integer(text: str) -> int:
    """An int value, read as ``int`` reads it (no fraction, no exponent)."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"non-integer value {text!r}") from None


def format_number(value: float) -> str:
    """*value* as slot text that reads back to the same number.

    An int prints with ``str``.  A float keeps its short ``:g`` form when
    that reads back exactly and has no exponent ``+``, which a campaign
    workload value would read as a separator; otherwise it prints its
    shortest round-trip form with any ``+`` dropped (``float("1e16")``
    reads it).
    """
    if isinstance(value, int):
        return str(value)
    text = f"{value:g}"
    if "+" not in text and float(text) == value:
        return text
    return repr(value).replace("+", "")


def split_slots(text: str, sep: str) -> list[str]:
    """The non-blank slots of *text* between separators, stripped."""
    return [slot.strip() for slot in text.split(sep) if slot.strip()]


@dataclass(frozen=True)
class SlotGrammar:
    """One grammar's slot rules: its noun, error class, key tables and pair separator.

    *kinds* maps each slot name the grammar knows to its key table.  A
    grammar whose slot names are free (cohorts) leaves it empty and hands
    its one table to :meth:`read`.
    """

    noun: str
    error: type[ValueError]
    kinds: Mapping[str, KeyTable] = field(default_factory=dict)
    sep: str = ","

    def keys(self, name: str) -> KeyTable:
        """*name*'s key table; raises the grammar's error for an unknown name."""
        table = self.kinds.get(name)
        if table is None:
            raise self.error(
                f"unknown {self.noun} kind {name!r} (known: {', '.join(sorted(self.kinds))})"
            )
        return table

    def check(self, name: str, params: Params, keys: KeyTable | None = None) -> Params:
        """*params* with each value read by its key's caster.

        Rejects an unknown name, an unknown or repeated key, and a value
        its caster refuses.  A value that is not text is read from the
        slot text :meth:`format` prints for it, so a slot built in code
        obeys the rules a parsed one does.
        """
        table = self.keys(name) if keys is None else keys
        seen: set[str] = set()
        for key, _ in params:
            if key not in table:
                raise self.error(
                    f"{self.noun} {name!r} has no parameter {key!r} "
                    f"(known: {', '.join(sorted(table))})"
                )
            if key in seen:
                raise self.error(f"{self.noun} {name!r} repeats parameter {key!r}")
            seen.add(key)
        read: list[tuple[str, Any]] = []
        for key, value in params:
            text = value if isinstance(value, str) else format_number(value)
            try:
                read.append((key, table[key](text)))
            except (ValueError, OverflowError) as exc:
                raise self.error(f"{name}.{key}: {exc}") from exc
        return tuple(read)

    def read(self, slot: str, keys: KeyTable | None = None) -> tuple[str, Params]:
        """One slot's name and its pairs, each value read by its key's caster."""
        name, _, body = slot.partition(":")
        name = name.strip()
        table = self.keys(name) if keys is None else keys
        pairs: list[tuple[str, str]] = []
        if body.strip():
            for pair in body.split(self.sep):
                key, eq, text = pair.partition("=")
                key, text = key.strip(), text.strip()
                if not (eq and key and text):
                    raise self.error(
                        f"malformed parameter {pair!r} in {self.noun} {name!r} "
                        "(expected key=value)"
                    )
                pairs.append((key, text))
        return name, self.check(name, tuple(pairs), table)

    def format(self, name: str, params: Params) -> str:
        """The slot text of *name* and its pairs, numbers via :func:`format_number`."""
        if not params:
            return name
        body = self.sep.join(
            f"{key}={value if isinstance(value, str) else format_number(value)}"
            for key, value in params
        )
        return f"{name}:{body}"
