"""The file formats: the writer and the reader of each, and files that
appear whole or not at all."""

from __future__ import annotations

import contextlib
import functools
import json
import logging
import math
import warnings
from itertools import chain, filterfalse
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .mobility import GroundTruth, TraceFrame
from .schema import AGENT_ID, SchemaError

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
TRACE_COLUMNS = np.dtype([("time", "f8"), ("agent_id", "i8"), ("x", "f8"), ("y", "f8"), ("angle", "f8")])
# the situation id is read as text and not used
TRUTH_COLUMNS = np.dtype([("time", "f8"), ("situation_id", "O"), ("member_ids", "O")])
CHUNK_ROWS = 4096  # rows numpy parses at a time: the text of one chunk is held

log = logging.getLogger(__name__)


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


# ----------------------------------------------------------------------
# readers


class TraceFrames(Sequence[TraceFrame]):
    """A read trace: a read-only sequence of frames on a uniform grid. Frame
    k is built when it is read, its ``pos`` and ``angle`` read-only views of
    columns in time, then agent id, order; ``times[k]`` and ``ids[k]`` are
    its time and ids unbuilt, one ids tuple per distinct cast. ``step`` is
    the median step as written, 0 for a single frame."""

    def __init__(self, times, ids, source, bounds, pos, angle, step) -> None:
        self.times, self.ids, self.step = times, ids, step
        # frame k is rows bounds[i]:bounds[i + 1], those of written frame i = source[k]
        self._source, self._bounds, self._pos, self._angle = source, bounds, pos, angle

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        rows = slice(self._bounds[self._source[k]], self._bounds[self._source[k] + 1])
        return TraceFrame(self.times[k], self.ids[k], self._pos[rows], self._angle[rows])


def ingest_trace(
    path: Path, ground_truth: Optional[Path] = None, scored: Optional[Iterable[int]] = None
) -> tuple[TraceFrames, Optional[GroundTruth]]:
    """Read a trace CSV (and optional ground-truth CSV) into frames.

    Irregular timesteps are resampled onto a uniform grid by nearest
    frame; shoulder angles outside [0, 2*pi) are normalized with a
    warning; non-finite times, coordinates and angles are rejected. Each
    frame takes the situations of the nearest truth time, and each frame
    that ``scored`` indexes (by default every frame) must lie within half
    a step of one, the larger of the trace's and the truth file's. The
    rows are parsed as columns, then ordered by time and agent id in one
    sort."""
    with _columns(path, TRACE_HEADER, TRACE_COLUMNS, _check_trace_row) as chunks:
        rows = np.concatenate([np.empty(0, TRACE_COLUMNS), *chunks])
        finite = (np.isfinite(rows[name]).all() for name in ("time", "x", "y", "angle"))
        if (rows["agent_id"] < 0).any() or not all(finite):
            raise ValueError("a negative agent id or a non-finite value")
    if not len(rows):
        raise SchemaError("trace file contains no frames", path=path)
    angle = rows["angle"]
    outside = (angle < 0.0) | (angle >= 2 * math.pi)
    if outside.any():
        angle[outside] %= 2 * math.pi
        log.warning("normalized %d shoulder angles into [0, 2*pi)", np.count_nonzero(outside))
    times, bounds, order = _split_by_time(rows["time"], rows["agent_id"], path)
    pos = np.column_stack((rows["x"][order], rows["y"][order]))
    angle, ids = angle[order], rows["agent_id"][order]
    pos.flags.writeable = angle.flags.writeable = False
    # one ids tuple per distinct cast
    cast = functools.cache(lambda key: tuple(np.frombuffer(key, np.int64).tolist()))
    frame_ids = [cast(ids[start:end].tobytes()) for start, end in zip(bounds, bounds[1:])]
    source: Sequence[int] = range(len(times))
    step = _median_step(times)
    if np.any(np.abs(np.diff(times) - step) > 1e-6):
        log.warning("irregular trace timestep; resampling by nearest frame")
        grid = np.arange(times[0], times[-1] + step / 2, step)
        source = _nearest(times, grid).tolist()
        times, frame_ids = grid.tolist(), [frame_ids[i] for i in source]
    frames = TraceFrames(times, frame_ids, source, bounds, pos, angle, step)
    if ground_truth is None:
        return frames, None
    scored = range(len(frames)) if scored is None else scored
    return frames, _align_truth(read_situations(ground_truth), frames, step, scored, ground_truth)


def _align_truth(
    situations: dict[float, list[frozenset[int]]],
    frames: Sequence[TraceFrame],
    step: float,
    scored: Iterable[int],
    path: Path,
) -> GroundTruth:
    """Each frame's situations at the nearest truth time, with the frame's
    agents that no situation lists added as singletons. Frames share their
    blocks: one singleton per agent, and the previous frame's tuple when
    nothing changed. A frame that ``scored`` indexes must lie within half the
    larger of ``step``, the trace step, and the truth file's median step of
    its truth time; indices past the last frame are left to the caller. A
    truth that lists an agent of no frame is an error."""
    # a read trace gives each frame's time and ids without building the frame
    if isinstance(frames, TraceFrames):
        frame_times, frame_ids = frames.times, frames.ids
    else:
        frame_times, frame_ids = [f.time for f in frames], [f.ids for f in frames]
    listed = set().union(*set(chain.from_iterable(situations.values())))
    unknown = listed.difference(*set(frame_ids))
    if unknown:
        raise SchemaError(f"agent {min(unknown)} is in no frame of the trace", path=path)
    times = sorted(situations)
    nearest = _nearest(times, frame_times).tolist()
    reach = max(step, _median_step(times)) / 2
    for k in scored:
        if k < len(frame_times) and abs(frame_times[k] - times[nearest[k]]) > reach + 1e-9:
            raise SchemaError(
                f"no ground truth within {reach!r} s of the scored frame at t={frame_times[k]!r}",
                path=path,
            )
    singletons: dict[int, frozenset[int]] = {}
    truth: GroundTruth = []
    made = None  # the situations and ids the latest truth was made of
    for k, ids in enumerate(frame_ids):
        blocks = situations[times[nearest[k]]]
        if (blocks, ids) != made:
            made, covered = (blocks, ids), set().union(*blocks)
            alone = (singletons.setdefault(a, frozenset((a,))) for a in ids if a not in covered)
            fresh = (*blocks, *alone)
            frame_truth = truth[-1] if truth and truth[-1] == fresh else fresh
        truth.append(frame_truth)
    return truth


def _split_by_time(
    times: np.ndarray, ids: np.ndarray, path: Path
) -> tuple[list[float], list[int], np.ndarray]:
    """Order trace rows by time, then agent id, in one stable sort. Returns
    each frame's time (as first written in the file), the bounds of its rows
    in that order (frame k is rows ``bounds[k]:bounds[k + 1]``) and the order.
    An agent listed twice in one frame is an error, named at its earliest frame."""
    order = np.lexsort((ids, times))
    times_sorted, ids_sorted = times[order], ids[order]
    same_time = times_sorted[1:] == times_sorted[:-1]
    starts = np.concatenate(([0], np.flatnonzero(~same_time) + 1))
    frame_times = times[np.minimum.reduceat(order, starts)].tolist()
    repeated = np.flatnonzero(same_time & (ids_sorted[1:] == ids_sorted[:-1]))
    if repeated.size:
        frame = int(np.searchsorted(starts, repeated[0], side="right")) - 1
        raise SchemaError(f"duplicate agent ids in frame at t={frame_times[frame]}", path=path)
    return frame_times, starts.tolist() + [len(order)], order


def _nearest(times: Sequence[float], queries: Sequence[float]) -> np.ndarray:
    """Index of the nearest of the ascending ``times`` to each query; a tie
    goes to the earlier time."""
    times, queries = np.asarray(times, dtype=float), np.asarray(queries, dtype=float)
    above = np.searchsorted(times, queries)
    lo, hi = np.maximum(above - 1, 0), np.minimum(above, len(times) - 1)
    return np.where(np.abs(times[hi] - queries) < np.abs(times[lo] - queries), hi, lo)


def _median_step(times: Sequence[float]) -> float:
    """The median gap between the ascending ``times``, equal to ``np.median``
    of them, which would import ``numpy.ma`` (2 MB); 0 for a single time."""
    gaps = np.sort(np.diff(times))
    half = len(gaps) // 2
    if len(gaps) % 2:
        return float(gaps[half])
    return float(gaps[half - 1] + gaps[half]) / 2 if half else 0.0


def read_situations(path: Path) -> dict[float, list[frozenset[int]]]:
    """Read a ``time,situation_id,member_ids`` file (ground truth or
    protocol partitions) into the member sets listed at each time, one
    object per distinct set. An empty member list or member id, a member id
    that is not an agent id, an agent listed twice at one time, and a file
    with no situation rows, are errors. Times are parsed as a column and
    each distinct member text once; only the agents of one time are held as
    a set at once."""
    situations: dict[float, list[frozenset[int]]] = {}
    distinct: dict[frozenset[int], frozenset[int]] = {}

    @functools.cache
    def block(text: str) -> frozenset[int]:
        members = _members(text.rstrip())  # numpy keeps the blanks that end a line
        return distinct.setdefault(members, members)

    with _columns(path, TRUTH_HEADER, TRUTH_COLUMNS, _situations_check()) as chunks:
        for rows in chunks:
            times, blocks = rows["time"], list(map(block, rows["member_ids"]))
            if not (np.isfinite(times).all() and all(blocks)):
                raise ValueError("a non-finite time or an empty member list")
            # each run of rows at one time meets the blocks listed at that time before
            bounds = [*np.flatnonzero(np.diff(times, prepend=np.nan)).tolist(), len(blocks)]
            for t, start, end in zip(times[bounds[:-1]].tolist(), bounds, bounds[1:]):
                sample = situations.setdefault(t, [])
                sample += blocks[start:end]
                if len(set().union(*sample)) != sum(map(len, sample)):
                    raise ValueError("an agent in two situations")
    if not situations:
        raise SchemaError("no situation rows after the header", path=path)
    return situations


def _members(text: str) -> frozenset[int]:
    """The member ids of one ``member_ids`` field."""
    ids = text.split(";") if text else []
    if "" in ids:
        raise ValueError(f"empty member id in {text!r}")
    members = frozenset(map(int, ids))
    test, rule = AGENT_ID
    if not all(map(test, members)):
        raise ValueError(f"member ids {text!r} must each {rule}")
    return members


@contextlib.contextmanager
def _columns(path: Path, header: str, dtype: np.dtype, check: Callable) -> Iterator[Iterator]:
    """The rows after ``header``, the first line of ``path``, as arrays of
    ``dtype`` that numpy parses ``CHUNK_ROWS`` rows at a time, blank lines
    skipped. When numpy or the body rejects the file with a ``ValueError``,
    the error of the first line that ``check`` rejects is raised: only a
    rejected file is read row by row."""
    with _opened(path, header) as fh:
        try:
            yield _chunks(filterfalse(str.isspace, fh), dtype)
        except (ValueError, DeprecationWarning) as exc:
            for lineno, parts in _csv_rows(path, header):
                try:
                    check(parts)
                except ValueError as bad:
                    raise SchemaError(str(bad), line=lineno, path=path) from bad
            raise SchemaError(str(exc), path=path) from exc


def _chunks(lines: Iterator[str], dtype: np.dtype) -> Iterator[np.ndarray]:
    """The rows of ``lines`` as arrays of ``dtype``, ``CHUNK_ROWS`` at a time."""
    while True:
        with warnings.catch_warnings():
            # numpy 1.x reads an integer written as "1.0" with a deprecation
            # warning; no rows left warns too
            warnings.simplefilter("error", DeprecationWarning)
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(lines, dtype, delimiter=",", comments=None, ndmin=1, max_rows=CHUNK_ROWS)
        if not len(rows):
            return
        yield rows


def _check_trace_row(parts: list[str]) -> None:
    t, aid, x, y, angle = float(parts[0]), int(parts[1]), *map(float, parts[2:])
    if not all(map(math.isfinite, (t, x, y, angle))):
        raise ValueError("non-finite time, coordinate or angle")
    if aid < 0:
        raise ValueError(f"agent id {aid} is negative")
    if aid >= 1 << 63:
        raise ValueError(f"agent id {aid} exceeds 64 bits")
    _plain(parts)


def _situations_check() -> Callable[[list[str]], None]:
    """The row check of a situations file; it keeps the agents listed at each time."""
    listed: dict[float, set[int]] = {}

    def check(parts: list[str]) -> None:
        t, members = float(parts[0]), _members(parts[2])
        if not math.isfinite(t):
            raise ValueError(f"non-finite time {parts[0]!r}")
        if not members:
            raise ValueError("empty situation member list")
        seen = listed.setdefault(t, set())
        if not seen.isdisjoint(members):
            raise ValueError(f"agents {sorted(seen & members)} are in two situations at t={t!r}")
        seen |= members
        _plain(parts[:1])

    return check


def _plain(texts: Sequence[str]) -> None:
    """numpy reads no number written with digit-group underscores or non-ASCII digits."""
    for text in texts:
        if "_" in text or not text.strip().isascii():
            raise ValueError(f"{text!r} is not a number in plain ASCII digits")


@contextlib.contextmanager
def _opened(path: Path, header: str) -> Iterator[IO[str]]:
    """``path`` open for reading after its first line, which must be ``header``."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except IsADirectoryError:
        raise SchemaError("is a directory, not a file", path=path) from None
    with fh:
        found = fh.readline().strip()
        if found != header:
            raise SchemaError(f"expected header {header!r}, got {found!r}", line=1, path=path)
        yield fh


def _csv_rows(path: Path, header: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each non-blank line after ``header``."""
    n_fields = header.count(",") + 1
    with _opened(path, header) as fh:
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != n_fields:
                raise SchemaError(
                    f"expected {n_fields} fields, got {len(parts)}", line=lineno, path=path
                )
            yield lineno, parts
