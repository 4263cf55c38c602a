"""Workload description vocabulary.

A :class:`WorkloadSpec` is a static, fully materialised description of a
(possibly multi-application) workflow: the files involved, one
:class:`ProcessSpec` per simulated rank, and the dependency edges
between applications (producer→consumer pipelines).  Because the spec is
static it can be handed to clairvoyant baselines (KnowAc, the in-memory
optimal prefetcher) as their "profiled" knowledge, while online
solutions simply ignore it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.storage.files import FileSystemModel

__all__ = ["ReadOp", "StepSpec", "ProcessSpec", "AppSpec", "WorkloadSpec", "FileDecl"]


@dataclass(frozen=True)
class ReadOp:
    """One read request: ``size`` bytes of ``file_id`` at ``offset``."""

    file_id: str
    offset: int
    size: int

    def __post_init__(self) -> None:
        if self.offset < 0 or self.size <= 0:
            raise ValueError(f"bad read op: offset={self.offset} size={self.size}")


@dataclass(frozen=True)
class StepSpec:
    """One timestep: a compute phase followed by an I/O burst.

    ``writes`` (produced output / updates) execute before ``reads`` in
    the step's I/O phase; a write to a watched file triggers HFetch's
    consistency invalidation (paper §III-B).
    """

    compute_time: float
    reads: tuple[ReadOp, ...]
    writes: tuple[ReadOp, ...] = ()

    def __post_init__(self) -> None:
        if self.compute_time < 0:
            raise ValueError("compute_time must be non-negative")

    @property
    def bytes_read(self) -> int:
        """Total bytes this step requests."""
        return sum(op.size for op in self.reads)

    @property
    def bytes_written(self) -> int:
        """Total bytes this step writes."""
        return sum(op.size for op in self.writes)


@dataclass(frozen=True)
class ProcessSpec:
    """The full life of one simulated rank."""

    pid: int
    app: str
    steps: tuple[StepSpec, ...]
    start_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.pid < 0:
            raise ValueError("pid must be non-negative")
        if self.start_delay < 0:
            raise ValueError("start_delay must be non-negative")

    @property
    def files_used(self) -> tuple[str, ...]:
        """Distinct files this process reads, in first-use order."""
        seen: dict[str, None] = {}
        for step in self.steps:
            for op in step.reads:
                seen.setdefault(op.file_id, None)
        return tuple(seen)

    @property
    def files_written(self) -> tuple[str, ...]:
        """Distinct files this process writes, in first-use order."""
        seen: dict[str, None] = {}
        for step in self.steps:
            for op in step.writes:
                seen.setdefault(op.file_id, None)
        return tuple(seen)

    @property
    def bytes_read(self) -> int:
        """Total bytes across all steps."""
        return sum(s.bytes_read for s in self.steps)

    @property
    def bytes_written(self) -> int:
        """Total written bytes across all steps."""
        return sum(s.bytes_written for s in self.steps)

    def segment_trace(self, fs: FileSystemModel) -> list[int]:
        """The exact segment-id access sequence (clairvoyant knowledge)."""
        trace: list[int] = []
        for step in self.steps:
            for op in step.reads:
                f = fs.get(op.file_id)
                trace.extend(f.read_segments(op.offset, op.size))
        return trace


@dataclass(frozen=True)
class FileDecl:
    """A file the workload needs created before it runs."""

    file_id: str
    size: int
    segment_size: Optional[int] = None
    origin: str = "PFS"


@dataclass(frozen=True)
class AppSpec:
    """One application of the workflow (a group of ranks)."""

    name: str
    depends_on: tuple[str, ...] = ()


@dataclass
class WorkloadSpec:
    """A complete, static workflow description."""

    name: str
    files: list[FileDecl]
    processes: list[ProcessSpec]
    apps: list[AppSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        declared = {a.name for a in self.apps}
        used = {p.app for p in self.processes}
        if self.apps:
            missing = used - declared
            if missing:
                raise ValueError(f"processes reference undeclared apps: {sorted(missing)}")
            for app in self.apps:
                for dep in app.depends_on:
                    if dep not in declared:
                        raise ValueError(f"app {app.name!r} depends on unknown {dep!r}")
        else:
            # implicit, dependency-free apps
            self.apps = [AppSpec(name=a) for a in sorted(used)]
        pids = [p.pid for p in self.processes]
        if len(pids) != len(set(pids)):
            raise ValueError("process pids must be unique")

    # -- materialisation ----------------------------------------------------
    def materialize(self, fs: FileSystemModel) -> None:
        """Create every declared file in the namespace."""
        for decl in self.files:
            if not fs.exists(decl.file_id):
                fs.create(
                    decl.file_id,
                    decl.size,
                    segment_size=decl.segment_size,
                    origin=decl.origin,
                )

    # -- introspection ---------------------------------------------------------
    @property
    def num_processes(self) -> int:
        """Rank count."""
        return len(self.processes)

    @property
    def total_bytes(self) -> int:
        """Total bytes requested across all ranks and steps."""
        return sum(p.bytes_read for p in self.processes)

    @property
    def dataset_bytes(self) -> int:
        """Total size of the declared dataset."""
        return sum(f.size for f in self.files)

    def app(self, name: str) -> AppSpec:
        """Look an application up by name."""
        for a in self.apps:
            if a.name == name:
                return a
        raise KeyError(f"no app named {name!r}")

    def iter_all_reads(self) -> Iterator[tuple[int, ReadOp]]:
        """Every (pid, read op) of the workload, in per-process order."""
        for proc in self.processes:
            for step in proc.steps:
                for op in step.reads:
                    yield proc.pid, op

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<WorkloadSpec {self.name!r} procs={self.num_processes} "
            f"apps={len(self.apps)} bytes={self.total_bytes}>"
        )
