"""The copy-once RDMA write path: slice copies in CellRegion agree with a
per-cell reference, an SST push copies its span once and re-copies only
after the row changed, and every post still enters through
QueuePair.post_write."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SpindleConfig
from repro.rdma import CellRegion, RdmaFabric, WriteSnapshot
from repro.rdma.nic import QueuePair
from repro.sim import Simulator
from repro.sst import SST, SSTLayout, wire_ssts
from repro.workloads import Cluster, continuous_sender

KINDS = ("counter", "flag", "blob")
WORD_MAX = 2 ** 63 - 1

#: Values that do not fit a machine word: they demote a typed cell.
unfit = st.sampled_from([2 ** 63, -2 ** 63 - 1, "x", None, 1.5, (1, 2)])
words = st.integers(-2 ** 63, WORD_MAX)
values = {
    "counter": st.one_of(words, words, words, unfit),
    "flag": st.one_of(st.booleans(), st.booleans(), unfit),
    "blob": st.one_of(st.binary(max_size=4), st.integers(), st.none(),
                      st.tuples(st.integers())),
}


def typed(cells):
    """Cell values with their types: 1 and True must not compare equal."""
    return [(type(v), v) for v in cells]


def reference_snapshot(region, offset, length):
    """The per-cell copy the slice paths must reproduce."""
    data = tuple(region.read(i) for i in range(offset, offset + length))
    return WriteSnapshot(offset, data, region.size_of(offset, length))


def reference_apply(region, snap):
    """The per-cell store the slice paths must reproduce."""
    for i, value in enumerate(snap.data):
        region.write_local(snap.offset + i, value)


@st.composite
def layouts_and_writes(draw):
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=8))
    n = len(kinds)
    sizes = draw(st.lists(st.integers(1, 64), min_size=n, max_size=n))
    homogeneous = draw(st.booleans())
    if homogeneous:
        kinds = [kinds[0]] * n
    writes = []
    for _ in range(draw(st.integers(1, 6))):
        lo = draw(st.integers(0, n - 1))
        hi = draw(st.integers(lo + 1, n))
        data = tuple(draw(values[kinds[i]]) for i in range(lo, hi))
        writes.append((lo, data))
    return kinds, sizes, writes


class TestCellRegionSlicePaths:
    @settings(max_examples=200, deadline=None)
    @given(layouts_and_writes())
    def test_matches_per_cell_reference(self, case):
        kinds, sizes, writes = case
        fast = CellRegion(sizes, kinds=kinds)
        ref = CellRegion(sizes, kinds=kinds)
        n = len(sizes)
        for lo, data in writes:
            snap = WriteSnapshot(lo, data, fast.size_of(lo, len(data)))
            version = fast.version
            fast.apply_write(snap)
            reference_apply(ref, snap)
            assert fast.version == version + 1
            assert typed(fast.cells) == typed(ref.cells)
            assert fast._code == ref._code  # same demotions
            for off in range(n):
                for length in range(n - off + 1):
                    version = fast.version
                    got = fast.snapshot(off, length)
                    want = reference_snapshot(ref, off, length)
                    assert got == want
                    assert typed(got.data) == typed(want.data)
                    assert fast.version == version

    def test_demoted_counter_joins_a_mixed_span(self):
        region = CellRegion([8] * 3, kinds=["counter"] * 3)
        region.write_local(1, "demoted")
        assert region.snapshot(0, 3).data == (0, "demoted", 0)
        region.apply_write(WriteSnapshot(0, (4, 5, 6), 24))
        assert region.cells == [4, 5, 6]
        assert type(region.read(1)) is int  # a word fits the object slot

    @pytest.mark.parametrize("bad", [2 ** 63, "seven", None, 1.5])
    def test_unfit_value_in_all_counter_span_demotes_one_cell(self, bad):
        region = CellRegion([8] * 4, kinds=["counter"] * 4)
        version = region.version
        region.apply_write(WriteSnapshot(0, (1, 2, bad, 3), 32))
        assert region.version == version + 1
        assert region.cells == [1, 2, bad, 3]
        assert list(region._code) == [1, 1, 0, 1]
        # The demoted cell now breaks the span into the per-cell path.
        assert region.snapshot(0, 4).data == (1, 2, bad, 3)
        assert region.snapshot(3, 1).data == (3,)

    def test_flag_span_reads_back_bools(self):
        region = CellRegion([1] * 3, kinds=["flag"] * 3)
        region.apply_write(WriteSnapshot(0, (True, False, True), 3))
        assert typed(region.snapshot(0, 3).data) == typed((True, False, True))

    def test_bounds_checked(self):
        region = CellRegion([8] * 3, kinds=["counter"] * 3)
        for off, length in ((-1, 1), (2, 2), (0, -1), (4, 0)):
            with pytest.raises(IndexError):
                region.snapshot(off, length)
        with pytest.raises(IndexError):
            region.apply_write(WriteSnapshot(2, (1, 2), 16))
        assert region.snapshot(3, 0) == WriteSnapshot(3, (), 0)


def build_ssts(n):
    sim = Simulator()
    fabric = RdmaFabric(sim)
    nodes = [fabric.add_node() for _ in range(n)]
    ssts = {}
    for node in nodes:
        layout = SSTLayout()
        layout.counter("a")
        layout.counter("b")
        layout.blob("c", 16)
        ssts[node.node_id] = SST(layout, fabric, node,
                                 [x.node_id for x in nodes])
    wire_ssts(ssts)
    return sim, fabric, ssts


class TestPushCopiesOnce:
    def test_set_during_push_reaches_only_later_peers(self):
        sim, fabric, ssts = build_ssts(4)
        sst = ssts[0]
        cost = fabric.latency.post_overhead
        posted = []
        fabric.nodes[0].on_post.append(lambda qp, snap: posted.append(snap))

        def pusher():
            yield from sst.push(0, 3, [1, 2, 3])

        def setter():
            yield 1.5 * cost  # between the first and the second post
            sst.set(0, 7)

        sst.set(0, 5)
        sim.spawn(pusher())
        sim.spawn(setter())
        sim.run()
        assert [ssts[p].read(0, 0) for p in (1, 2, 3)] == [5, 7, 7]
        # One copy before the set, one after it, shared by later peers.
        assert posted[0] is not posted[1]
        assert posted[1] is posted[2]

    def test_unchanged_row_is_copied_once(self):
        sim, fabric, ssts = build_ssts(5)
        posted = []
        fabric.nodes[0].on_post.append(lambda qp, snap: posted.append(snap))

        def pusher():
            yield from ssts[0].push(0, 3)

        ssts[0].set(1, 9)
        sim.spawn(pusher())
        sim.run()
        assert len(posted) == 4
        assert all(snap is posted[0] for snap in posted)
        assert all(ssts[p].read(0, 1) == 9 for p in (1, 2, 3, 4))

    def test_prebuilt_snapshot_must_cover_the_posted_span(self):
        sim, fabric, ssts = build_ssts(2)
        row = ssts[0].rows[0]
        qp = fabric.queue_pair(0, 1)
        with pytest.raises(ValueError):
            qp.post_write(row, 0, ssts[0]._remote_row_keys[1], 0, 2,
                          snapshot=row.snapshot(0, 1))
        assert fabric.total_writes_posted() == 0


def run_multicast(config, on_post=None):
    cluster = Cluster(4, config=config, seed=5)
    cluster.add_subgroup(window=8, message_size=256)
    cluster.build()
    if on_post is not None:
        for node in cluster.fabric.nodes.values():
            node.on_post.append(on_post(cluster))
    for nid in cluster.members_of(0):
        cluster.spawn_sender(continuous_sender(
            cluster.mc(nid, 0), count=30, size=256), name=f"s{nid}")
    cluster.run_to_quiescence()
    return cluster


CONFIGS = [SpindleConfig.baseline(), SpindleConfig.optimized()]


class TestPostedSnapshots:
    @pytest.mark.parametrize("config", CONFIGS, ids=["baseline", "optimized"])
    def test_posted_snapshot_equals_row_at_post_instant(self, config):
        checked = []

        def on_post(cluster):
            def hook(qp, snap):
                row = cluster.group(qp.src.node_id).sst.rows[qp.src.node_id]
                assert snap == row.snapshot(snap.offset, len(snap.data))
                checked.append(snap)
            return hook

        cluster = run_multicast(config, on_post)
        pushes = sum(cluster.group(n).sst.pushes_posted
                     for n in cluster.fabric.nodes)
        assert checked and len(checked) == pushes

    @pytest.mark.parametrize("config", CONFIGS, ids=["baseline", "optimized"])
    def test_post_write_calls_equal_writes_posted(self, config, monkeypatch):
        calls = []
        original = QueuePair.post_write

        def counted(self, *args, **kwargs):
            calls.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(QueuePair, "post_write", counted)
        cluster = run_multicast(config)
        assert calls
        assert len(calls) == cluster.fabric.total_writes_posted()
