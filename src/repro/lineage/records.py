"""Record schemas for the NN data commons.

The paper's commons (§2.3, §4.5) stores, per neural architecture:
epoch times, training accuracies, validation accuracies, FLOPS,
predictions, prediction-engine parameters, genomes, and architecture
information — plus per-epoch model checkpoints.  These dataclasses are
that schema; they serialize to plain JSON-able dicts.
"""

from __future__ import annotations

import copy
from array import array
from dataclasses import dataclass, field
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator

from repro.utils.io import JsonEncoder
from repro.utils.validation import ValidationError

__all__ = ["EpochRecord", "EpochTrail", "ModelRecord", "RunRecord"]

_SCALARS = frozenset((str, int, float, bool, type(None)))


def _plain(value):
    """Independent copy of a JSON-shaped value (anything else: ``deepcopy``)."""
    if isinstance(value, dict):
        return {k: v if type(v) in _SCALARS else _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(v if type(v) in _SCALARS else _plain(v) for v in value)
    return copy.deepcopy(value)


def _record_dict(record) -> dict:
    """``dataclasses.asdict(record)`` for records whose fields hold JSON.

    Same keys, same order, equally independent, without ``asdict``'s
    per-leaf ``deepcopy`` (publishing spent more time there than writing).
    """
    return {name: _plain(getattr(record, name)) for name in record.__dataclass_fields__}


@dataclass(frozen=True, slots=True)
class EpochRecord:
    """One training epoch of one model.

    A value: an :class:`EpochTrail` builds one for each entry it hands
    out, so an entry read from a trail cannot be edited in place.
    """

    epoch: int
    validation_accuracy: float
    train_accuracy: float | None = None
    train_loss: float | None = None
    epoch_seconds: float | None = None
    prediction: float | None = None
    checkpoint: dict | None = None

    def to_dict(self) -> dict:
        return _record_dict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "EpochRecord":
        return cls(**payload)


_EPOCH_FIELDS = tuple(EpochRecord.__dataclass_fields__)
_entry_values = attrgetter(*_EPOCH_FIELDS)
_payload_values = itemgetter(*_EPOCH_FIELDS)

# -- the published text -------------------------------------------------------------
#
# A model file is ``json.dumps(record.to_dict(), indent=2, sort_keys=True,
# cls=JsonEncoder)``.  The stdlib's C encoder cannot indent (Python 3.11),
# so ``dumps`` runs its pure-Python encoder over every value.  These
# helpers write the same text: plain scalars by their ``repr``, lists and
# str-keyed dicts at their depth, each epoch column once and each epoch
# entry through one template.  Any other value (a tuple, a numpy scalar,
# a dict with other keys, a subclass) goes through the encoder itself,
# re-indented to its depth: exact, since JSON text holds no raw newline
# inside a string.

_encode = JsonEncoder(indent=2, sort_keys=True).encode  # json.dumps(..., cls=JsonEncoder)
# the ``repr`` of a float, int, bool or None is its JSON text but for these
_PLAIN = frozenset((float, int, bool, type(None)))
_PLAIN_TEXT = {
    "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity",
    "None": "null", "True": "true", "False": "false",
}
_SORTED_EPOCH = sorted(range(len(_EPOCH_FIELDS)), key=_EPOCH_FIELDS.__getitem__)
_ENTRY = (
    "{"
    + ",".join(f'\n      "{_EPOCH_FIELDS[i]}": %s' for i in _SORTED_EPOCH)
    + "\n    }"
)


def _text(value, newline: str) -> str:
    """``value``'s JSON text where the line holding it starts ``newline``."""
    kind = type(value)
    if kind in _PLAIN:
        text = repr(value)
        return _PLAIN_TEXT.get(text, text)
    if kind is str:
        return encode_basestring_ascii(value)
    inner = newline + "  "
    if kind is list:
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join(_texts(value, inner)) + newline + "]"
    if kind is dict and set(map(type, value)) == {str}:
        keys = sorted(value)
        texts = _texts([value[key] for key in keys], inner)
        items = [encode_basestring_ascii(key) + ": " + text for key, text in zip(keys, texts)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return _encode(value).replace("\n", newline)


def _texts(values, newline: str) -> list[str]:
    """:func:`_text` of each value, a column of plain scalars at once."""
    if set(map(type, values)) <= _PLAIN:
        texts = list(map(repr, values))
        return list(map(_PLAIN_TEXT.get, texts, texts))
    return [_text(value, newline) for value in values]


def _row(entry) -> tuple:
    """An entry's values in field order; an entry is an EpochRecord or its dict."""
    if isinstance(entry, EpochRecord):
        return _entry_values(entry)
    if len(entry) == len(_EPOCH_FIELDS):
        try:
            return _payload_values(entry)
        except KeyError:
            pass
    # a key missing (defaulted) or one the schema lacks (TypeError)
    return _entry_values(EpochRecord(**entry))


def _compact(column: list, size: int):
    """``column`` as a trail built at once keeps it.

    Nothing when no entry filled it, ``range`` for the epoch numbers of a
    single attempt, raw doubles when every value is a float (no float
    object each); otherwise the list.  Each form reads back the same
    values of the same types.
    """
    if column.count(None) == size:
        return None
    types = set(map(type, column))
    if types == {float}:
        return array("d", column)
    if types == {int} and column == list(range(1, size + 1)):
        return range(1, size + 1)
    return column


class EpochTrail:
    """The epoch trail of one model: a sequence of :class:`EpochRecord`.

    Held by column.  A run holds one entry per trained epoch of every
    record, and an entry object costs 88 B where a column costs one list
    slot; a column no entry has filled costs nothing (sampled curves
    train nothing, so their ``train_*`` and ``checkpoint`` columns, and
    ``prediction`` without an engine).  A trail built at once (a loaded
    record's) stores its columns compactly, which also frees the decoded
    floats; one that grows by :meth:`append` (a live record's) keeps
    lists.  Indexing and iteration build :class:`EpochRecord` values; the
    trail changes by :meth:`append` and :meth:`fill` only.  It equals
    another trail, or a list of the entries it hands out, entry for
    entry.
    """

    __slots__ = ("_size", "_columns")

    def __init__(self, entries: Iterable = ()) -> None:
        rows = [_row(entry) for entry in entries]
        size = len(rows)
        self._size = size
        self._columns = [_compact(column, size) for column in map(list, zip(*rows))] or [
            None
        ] * len(_EPOCH_FIELDS)

    def append(self, entry: EpochRecord) -> None:
        """Add one entry at the end of the trail."""
        size = self._size
        columns = self._columns
        for i, value in enumerate(_entry_values(entry)):
            column = columns[i]
            if column is None:
                if value is None:
                    continue
                column = columns[i] = [None] * size
            elif type(column) is not list:
                column = columns[i] = list(column)
            column.append(value)
        self._size = size + 1

    def fill(self, name: str, values: Iterable) -> None:
        """Set field ``name`` of the leading entries where it is None, in order."""
        i = _EPOCH_FIELDS.index(name)
        column = self._columns[i]
        if column is None:
            column = [None] * self._size
        elif type(column) is not list:  # compact: holds no None
            return
        for position, value in zip(range(self._size), values):
            if column[position] is None:
                column[position] = value
        self._columns[i] = None if column.count(None) == self._size else column

    def column(self, name: str) -> list:
        """Field ``name`` of every entry, in order (a new list)."""
        column = self._columns[_EPOCH_FIELDS.index(name)]
        return [None] * self._size if column is None else list(column)

    def to_dicts(self) -> list[dict]:
        """Each entry's ``to_dict()``, one dict literal per entry in field order.

        The scalars need no copy, and a helper call per entry doubled the
        cost of publishing a record.
        """
        return [
            {
                "epoch": epoch,
                "validation_accuracy": validation_accuracy,
                "train_accuracy": train_accuracy,
                "train_loss": train_loss,
                "epoch_seconds": epoch_seconds,
                "prediction": prediction,
                "checkpoint": None if checkpoint is None else _plain(checkpoint),
            }
            for (
                epoch, validation_accuracy, train_accuracy, train_loss,
                epoch_seconds, prediction, checkpoint,
            ) in self._rows()
        ]

    def _json(self) -> str:
        """The ``epochs`` value of a model file, at its depth there."""
        if not self._size:
            return "[]"
        columns = [
            repeat("null", self._size) if column is None else _texts(column, "\n      ")
            for column in map(self._columns.__getitem__, _SORTED_EPOCH)
        ]
        entries = ",\n    ".join([_ENTRY] * self._size) % tuple(chain.from_iterable(zip(*columns)))
        return "[\n    " + entries + "\n  ]"

    def _padded(self) -> Iterator:
        return (repeat(None, self._size) if c is None else c for c in self._columns)

    def _rows(self) -> Iterator[tuple]:
        return zip(*self._padded())

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[EpochRecord]:
        return (EpochRecord(*row) for row in self._rows())

    def __getitem__(self, index: int) -> EpochRecord:
        if index < 0:
            index += self._size
        if not 0 <= index < self._size:
            raise IndexError("epoch trail index out of range")
        return EpochRecord(*(None if c is None else c[index] for c in self._columns))

    def __eq__(self, other) -> bool:
        if isinstance(other, EpochTrail):
            return self._size == other._size and all(
                list(a) == list(b) for a, b in zip(self._padded(), other._padded())
            )
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"EpochTrail({list(self)!r})"


@dataclass(slots=True)
class ModelRecord:
    """The full record trail of one neural architecture.

    Attributes mirror the paper's commons fields; ``engine_parameters``
    is the Table-1 snapshot active during training.  ``architecture`` is
    kept empty for the published schema: the genome determines the
    decoded network, so nothing writes a layer table there.
    """

    model_id: int
    generation: int
    genome: dict
    flops: int | None = None
    fitness: float | None = None
    measured_fitness: float | None = None
    terminated_early: bool = False
    epochs_trained: int = 0
    max_epochs: int = 0
    fitness_history: list = field(default_factory=list)
    prediction_history: list = field(default_factory=list)
    # given as a list of EpochRecords or of their dicts, held as a trail
    epochs: EpochTrail = field(default_factory=EpochTrail)
    architecture: list = field(default_factory=list)
    engine_parameters: dict | None = None
    engine_overhead_seconds: float = 0.0
    training_parameters: dict = field(default_factory=dict)
    # structured NumericalFault snapshot of the last numerical fault
    # event: the sanitizer aborted an attempt's training, or injection
    # raised a NaN (its snapshot's detail says "injected": true); None
    # when no attempt diverged or no fault policy routed the fault
    fault: dict | None = None
    # every fault/retry/quarantine decision the fault policy took for
    # this model (FaultEvent dicts, in order); empty for clean runs
    fault_events: list = field(default_factory=list)
    # whether the fault policy quarantined this model (fitness/flops are
    # then the policy's penalized objectives, not measurements)
    quarantined: bool = False
    # whether this model's outcome was reused from the evaluation cache
    # (same canonical genome already evaluated); cache_source is the
    # model id whose evaluation was copied
    cache_hit: bool = False
    cache_source: int | None = None
    # steady-state logical-clock position: the commit index at which
    # this model's result entered the population (equal to model_id by
    # construction); None for barrier-mode and historical records
    logical_tick: int | None = None
    # the network arena's peak scratch footprint for the evaluation:
    # owned bytes, one block per buffer kind, borrowed views free;
    # arena_enabled is kept for the published schema and is always
    # arena_peak_bytes > 0 (False for surrogate-mode models)
    arena_enabled: bool = False
    arena_peak_bytes: int = 0
    # surrogate pre-ranking audit trail: the cross-architecture
    # prediction made when this model was bred, its rank against the
    # breeding population, the (possibly reduced) epoch budget the
    # allocator assigned, and why; all None/absent when the surrogate is
    # off or had not yet reached its cold-start floor
    predicted_fitness: float | None = None
    predicted_rank: int | None = None
    budget_assigned: int | None = None
    skip_reason: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.epochs, EpochTrail):
            self.epochs = EpochTrail(self.epochs)

    def to_dict(self) -> dict:
        """:func:`dataclasses.asdict`'s document, each epoch entry a dict."""
        epochs = self.epochs.to_dicts()
        return {
            name: epochs if name == "epochs" else _plain(getattr(self, name))
            for name in self.__dataclass_fields__
        }

    def to_json(self) -> str:
        """The text of this record's model file.

        Byte for byte ``json.dumps(self.to_dict(), indent=2,
        sort_keys=True, cls=JsonEncoder)``, the commons' published format,
        written without building the document.
        """
        fields = [
            key + (self.epochs._json() if name == "epochs" else _text(getattr(self, name), "\n  "))
            for name, key in _MODEL_KEYS
        ]
        return "{\n  " + ",\n  ".join(fields) + "\n}"

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelRecord":
        """Rebuild a record from its ``to_dict()`` document.

        The epoch entries become a compact :class:`EpochTrail`, so an
        entry with a key the schema does not have fails here
        (``TypeError``), not at some later reader.
        """
        return cls(**payload)

    @property
    def epochs_saved(self) -> int:
        """Epochs the *engine* saved by terminating inside the budget.

        ``max_epochs`` stores the effective budget the training loop ran
        under (the surrogate-reduced budget when one was assigned), so
        this never includes surrogate-skipped epochs — those are
        :attr:`epochs_skipped`.
        """
        return self.max_epochs - self.epochs_trained

    @property
    def epochs_skipped(self) -> int:
        """Epochs the *surrogate* skipped by reducing this model's budget.

        The gap between the run's full training budget (from
        ``training_parameters``) and the assigned budget; 0 for
        full-budget and quarantined models.
        """
        if self.budget_assigned is None or self.quarantined:
            return 0
        full = int(self.training_parameters.get("max_epochs", self.max_epochs))
        return max(full - min(int(self.budget_assigned), full), 0)


_MODEL_KEYS = tuple((name, f'"{name}": ') for name in sorted(ModelRecord.__dataclass_fields__))


@dataclass(slots=True)
class RunRecord:
    """One search run (the commons' top-level entry): its id and its config.

    ``workflow_config`` stores the complete
    :class:`~repro.workflow.interfaces.WorkflowConfig` document, making
    the run *replayable*: :func:`repro.lineage.replay.replay_run`
    re-executes it from the seed and verifies the record trails match.
    Everything else about a run (its models, their epochs, whether it
    finished) is read from its model files and the manifest, so
    ``run.json`` is written once, when the run begins.
    """

    run_id: str
    workflow_config: dict

    def to_dict(self) -> dict:
        return _record_dict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        """Rebuild a run from its ``run.json``; a missing or unknown key is refused."""
        missing = [key for key in cls.__dataclass_fields__ if key not in payload]
        unknown = sorted(set(payload) - set(cls.__dataclass_fields__))
        if missing or unknown:
            raise ValidationError(
                "a run document holds exactly run_id and workflow_config "
                f"(missing {missing}, unknown {unknown})"
            )
        return cls(**payload)
