#!/usr/bin/env python
"""Exploring file heatmaps: the score picture behind HFetch's decisions.

Drives an HFetch server directly (no workload runner) with a hand-made
access pattern against one file, then prints the resulting file heatmap
as an ASCII intensity strip, shows where each segment ended up in the
hierarchy, and demonstrates heatmap persistence across epochs — the
"history metafile" behaviour of §III-C.

Run:  python examples/heatmap_explorer.py
"""

from repro import Environment, HFetchConfig, HFetchServer
from repro.storage.devices import BURST_BUFFER, DRAM, NVME, PFS_DISK
from repro.storage.files import FileSystemModel
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.tier import StorageTier

MB = 1 << 20
SHADES = " .:-=+*#%@"


def strip(scores, width=64) -> str:
    """Render a score vector as an ASCII intensity strip."""
    top = max(scores) or 1.0
    cells = scores[:width]
    return "".join(SHADES[min(len(SHADES) - 1, int(9 * s / top))] for s in cells)


def main() -> None:
    env = Environment()
    fs = FileSystemModel(default_segment_size=MB)
    f = fs.create("/pfs/sim-output", 64 * MB)

    ram = StorageTier(env, DRAM, 8 * MB)
    nvme = StorageTier(env, NVME, 16 * MB)
    bb = StorageTier(env, BURST_BUFFER, 32 * MB)
    pfs = StorageTier(env, PFS_DISK, 1e15, name="PFS")
    hierarchy = StorageHierarchy([ram, nvme, bb], pfs)

    server = HFetchServer(
        env, HFetchConfig(engine_interval=0.05, engine_update_threshold=16), fs, hierarchy
    )
    server.start()
    agent = server.connect(pid=0)

    # --- epoch 1: a hot region around segment 8, a warm one around 40 ----
    agent.open(f.file_id)
    def accesses():
        for round_ in range(6):
            for idx in (8, 9, 10):
                agent.read(f.file_id, idx * MB, MB)
                yield env.timeout(0.02)
        for idx in (40, 41):
            agent.read(f.file_id, idx * MB, MB)
            yield env.timeout(0.02)
    proc = env.process(accesses())
    env.run(until=proc)
    env.run(until=env.now + 1.0)

    heatmap = server.auditor.build_heatmap(f.file_id, now=env.now)
    print("file heatmap after epoch 1 (one char per segment):")
    print(f"  |{strip(heatmap.scores.tolist())}|")
    print(f"  hottest segments: {heatmap.hottest(5)}\n")

    print("placements in the hierarchy:")
    for idx in (8, 9, 10, 11, 12, 40, 41, 50):
        where = hierarchy.resident_tier_name(f.segment_id(idx))
        print(f"  segment {idx:>2}: {where}")

    agent.close(f.file_id)

    # --- epoch 2: the stored heatmap warms the engine immediately ---------
    print("\nre-opening the file (epoch 2): the stored heatmap seeds "
          "placement before any new access...")
    agent.open(f.file_id)
    env.run(until=env.now + 1.0)
    warm = sum(
        1 for idx in (8, 9, 10)
        if hierarchy.locate(f.segment_id(idx)) is not None
    )
    print(f"  {warm}/3 of last epoch's hot segments already cached")
    agent.close(f.file_id)
    server.stop()


if __name__ == "__main__":
    main()
