"""Output files: the writer of each format a run writes, and files that
appear whole or not at all."""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from .mobility import GroundTruth, TraceFrame

if TYPE_CHECKING:
    from .harness import MetricsRow

TRACE_HEADER = "time,agent_id,x,y,shoulder_angle"
TRUTH_HEADER = "time,situation_id,member_ids"
METRICS_HEADER = (
    "time",
    "rand",
    "ari",
    "jaccard",
    "n_situations_truth",
    "n_situations_protocol",
    "false_positive_pairs",
)


class atomic_write:
    """Write to ``<path>.tmp`` and rename it into place on success; on an
    error, including one while closing, the temp file is removed and
    ``path`` is left as it was."""

    def __init__(self, path: Path, mode: str = "w"):
        self.path = Path(path)
        self.tmp = self.path.with_name(self.path.name + ".tmp")
        self.mode = mode

    def __enter__(self):
        self.fh = open(self.tmp, self.mode, encoding=None if "b" in self.mode else "utf-8")
        return self.fh

    def __exit__(self, exc_type, exc, tb):
        try:
            self.fh.close()
            if exc_type is None:
                self.tmp.replace(self.path)
        finally:
            # after the rename there is nothing left to remove
            self.tmp.unlink(missing_ok=True)
        return False


@contextlib.contextmanager
def new_dir(path: Path) -> Iterator[Path]:
    """``path`` as a directory, made with its missing parents; if the body
    raises, the directories made here are removed again (they are empty
    once every ``atomic_write`` in them has exited)."""
    path = Path(path)
    made = [d for d in (path, *path.parents) if not d.exists()]
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    except BaseException:
        for d in made:
            with contextlib.suppress(OSError):
                d.rmdir()
        raise


class Outputs:
    """Where a run's outputs go as the run produces them. Without an output
    directory they go nowhere. With one, each file is opened through
    ``atomic_write`` on ``stack``: the stack renames every file into place
    when the run ends, or removes them all, and the directory if the run
    made it, when it raises. A synthetic run also writes its trace and
    ground truth."""

    def __init__(
        self, stack: contextlib.ExitStack, out_dir: Optional[Path], fmt: str, synthetic: bool
    ) -> None:
        self.out_dir = out_dir
        self._stack = stack
        self._trace = self._truth = self._partitions = self._metrics = None
        if out_dir is None:
            return
        stack.enter_context(new_dir(out_dir))
        self._partitions = situations_writer(self.open("partitions.csv"))
        self._metrics = metrics_writer(self.open(f"metrics.{fmt}"), fmt)
        if synthetic:
            self._trace = trace_writer(self.open("trace.csv"))
            self._truth = situations_writer(self.open("ground_truth.csv"))

    def open(self, name: str) -> IO[str]:
        return self._stack.enter_context(atomic_write(self.out_dir / name))

    def frame(self, frame: TraceFrame, truth: tuple[frozenset[int], ...]) -> None:
        """One step of a synthetic trace and its ground truth."""
        if self._trace is not None:
            self._trace(frame)
            self._truth(frame.time, truth)

    def sample(self, now: float, blocks: Sequence[frozenset[int]], row: MetricsRow) -> None:
        """One sample's protocol partition blocks and metrics row."""
        if self._partitions is not None:
            self._partitions(now, blocks)
            self._metrics(row)


def write_trace(path: Path, frames: Iterable[TraceFrame]) -> None:
    with atomic_write(path) as fh:
        write = trace_writer(fh)
        for frame in frames:
            write(frame)


def write_ground_truth(path: Path, frames: Iterable[TraceFrame], truth: GroundTruth) -> None:
    with atomic_write(path) as fh:
        write = situations_writer(fh)
        for frame, blocks in zip(frames, truth):
            write(frame.time, blocks)


def write_metrics(path: Path, rows: Iterable[MetricsRow], fmt: str = "csv") -> None:
    """Write metrics rows as a CSV table or as JSON lines."""
    with atomic_write(path) as fh:
        write = metrics_writer(fh, fmt)
        for row in rows:
            write(row)


def trace_writer(fh: IO[str]) -> Callable[[TraceFrame], None]:
    """Write the trace header to ``fh`` and return the writer of one frame's rows."""
    fh.write(TRACE_HEADER + "\n")

    def write(frame: TraceFrame) -> None:
        t = repr(frame.time)
        fh.writelines(
            f"{t},{aid},{x!r},{y!r},{angle!r}\n"
            for aid, (x, y), angle in zip(frame.ids, frame.pos.tolist(), frame.angle.tolist())
        )

    return write


def situations_writer(fh: IO[str]) -> Callable[[float, Sequence[frozenset[int]]], None]:
    """Write the header of the situations format (ground truth or protocol
    partitions) to ``fh`` and return the writer of one (time, situations)
    sample."""
    fh.write(TRUTH_HEADER + "\n")
    texts: dict[frozenset[int], str] = {}  # each distinct block is formatted once
    # the last sample's blocks and their lines after the time; a sample that
    # passes that very object again, as a run does while its truth or
    # partition stays equal, writes them again unformatted
    last: list = [None, []]

    def write(t: float, blocks: Sequence[frozenset[int]]) -> None:
        if blocks is not last[0]:
            tails = []
            for sid, block in enumerate(blocks):
                members = texts.get(block)
                if members is None:
                    members = texts[block] = ";".join(str(m) for m in sorted(block))
                tails.append(f",{sid},{members}\n")
            last[:] = blocks, tails
        if last[1]:
            stamp = repr(t)
            fh.write(stamp + stamp.join(last[1]))

    return write


def metrics_writer(fh: IO[str], fmt: str) -> Callable[[MetricsRow], None]:
    write = table_writer(fh, METRICS_HEADER, fmt)
    return lambda r: write((r.time, r.rand, r.ari, r.jaccard, r.n_truth, r.n_protocol, r.fp_pairs))


def table_writer(fh: IO[str], header: Sequence[str], fmt: str) -> Callable[[Sequence], None]:
    """Start a table in ``fh``, CSV with a header line or JSON lines, and
    return the writer of one row."""
    if fmt != "jsonl":
        fh.write(",".join(header) + "\n")

    def write(row: Sequence) -> None:
        if fmt == "jsonl":
            fh.write(json.dumps(dict(zip(header, row)), sort_keys=True))
            fh.write("\n")
        else:
            fh.write(",".join(_format_value(v) for v in row) + "\n")

    return write


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)
