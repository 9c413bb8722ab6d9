"""Per-record authoring of hand-written test jobs.

The runtime's task contract is batch-at-a-time (``mapper(context, source,
batch) -> BatchEmit``). Tests that exercise the *runtime* -- scheduling,
counters, faults, spill -- read better as per-record functions, so these
two decorators adapt ``fn(records, source, rows)`` /
``fn(records, key, values)`` bodies that call ``records.emit(key, row)``.
The two mappers every runtime test file needs live here too.
"""

from repro.cluster.job import BatchEmit
from repro.data.schema import estimate_dict_sizes


class _Records:
    def __init__(self):
        self.keys = []
        self.rows = []

    def emit(self, key, row) -> None:
        self.keys.append(key)
        self.rows.append(row)

    def batch_emit(self) -> BatchEmit:
        return BatchEmit(rows=self.rows, sizes=estimate_dict_sizes(self.rows),
                         keys=self.keys)


def record_mapper(fn):
    def mapper(context, source, batch) -> BatchEmit:
        records = _Records()
        fn(records, source, batch.rows)
        return records.batch_emit()
    return mapper


def record_reducer(fn):
    def reducer(context, groups) -> BatchEmit:
        records = _Records()
        for key, values, _sizes in groups:
            fn(records, key, values)
        return records.batch_emit()
    return reducer


@record_mapper
def identity_mapper(context, source: str, rows) -> None:
    for row in rows:
        context.emit(None, row)


@record_mapper
def keyed_mapper(context, source: str, rows) -> None:
    for row in rows:
        context.emit(row["key"], row)
