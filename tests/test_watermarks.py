"""Column watermarks (repro.sst.watermark) and the slot doorbell they
drive: the watermark equals the column scan at every instant, its HB
behaviour matches the scan, foreign regions never feed it, and senders
are woken only when slots were freed."""

import hashlib

from hypothesis import given, settings, strategies as st

from repro.core.config import SpindleConfig
from repro.core.group import GroupNode
from repro.core.membership import SubgroupSpec, View
from repro.rdma import RdmaFabric
from repro.rdma.memory import CellRegion
from repro.sim import Simulator
from repro.sim.sync import Doorbell
from repro.sst import SST, wire_ssts
from repro.workloads import Cluster, continuous_sender

#: Subgroup 0 spans nodes 0-3; node 4 is a top-level member with an SST
#: row everywhere but outside the subgroup.
SUBGROUP = (0, 1, 2, 3)
NODES = 5


def build_groups():
    """Five wired GroupNodes whose protocol threads are not started, so
    only the test writes SST state."""
    sim = Simulator()
    fabric = RdmaFabric(sim)
    nodes = [fabric.add_node() for _ in range(NODES)]
    view = View(0, tuple(range(NODES)), (
        SubgroupSpec.of(0, SUBGROUP, window=4, message_size=64),
    ))
    groups = {n.node_id: GroupNode(sim, fabric, n, view,
                                   SpindleConfig.optimized())
              for n in nodes}
    wire_ssts({nid: g.sst for nid, g in groups.items()})
    return sim, fabric, groups


def push(sim, sst, lo, hi, targets=None):
    def proc():
        yield from sst.push(lo, hi, targets)

    sim.spawn(proc())
    sim.run()


def scan(sst, col):
    return min(sst.read(m, col) for m in SUBGROUP)


def watermarks(group):
    mc = group.multicasts[0]
    return {mc.cols.received: mc.received_watermark,
            mc.cols.delivered: mc.slot_watermark}


# One step: (kind, node, column choice, increment).
_steps = st.lists(
    st.tuples(st.sampled_from(["set", "push_cover", "push_miss", "foreign"]),
              st.integers(0, NODES - 1), st.booleans(), st.integers(0, 3)),
    min_size=1, max_size=25)


class TestWatermarkProperty:
    @settings(max_examples=40, deadline=None)
    @given(_steps)
    def test_watermark_equals_scan_under_random_interleavings(self, steps):
        sim, fabric, groups = build_groups()
        cols = groups[0].multicasts[0].cols
        foreign = {}
        for nid in SUBGROUP:
            region = CellRegion([8] * 8, name=f"foreign@{nid}")
            fabric.nodes[nid].register(region)
            foreign[nid] = region
        for kind, nid, pick_delivered, inc in steps:
            sst = groups[nid].sst
            col = cols.delivered if pick_delivered else cols.received
            if kind == "set":
                # Local writes, also on the non-member node 4's row.
                sst.set(col, sst.read_own(col) + inc)
            elif kind == "push_cover":
                # The whole control span, or just the one column.
                sst.set(col, sst.read_own(col) + inc)
                span = (col, col + 1) if inc % 2 else cols.control_span
                push(sim, sst, *span)
            elif kind == "push_miss":
                # Remote spans that miss the watched columns: the nulls
                # cell alone, and a slot cell.
                sst.set(cols.nulls, sst.read_own(cols.nulls) + inc)
                push(sim, sst, cols.nulls, cols.nulls + 1)
                push(sim, sst, cols.first_slot, cols.first_slot + 1)
            else:
                # A one-cell write into a foreign region at the watched
                # column's offset, carrying a value below every cell.
                src = CellRegion([8], name="src")
                src.write_local(0, -7)  # spindle-lint: allow[sst-monotonic-write]
                fabric.nodes[nid].register(src)
                dst = SUBGROUP[(nid + 1) % len(SUBGROUP)]
                fabric.queue_pair(nid, dst).post_write(
                    src, 0, foreign[dst].key, col, 1)
                sim.run()
            for member in SUBGROUP:
                msst = groups[member].sst
                for wcol, wm in watermarks(groups[member]).items():
                    assert wm.value == scan(msst, wcol)

    def test_hb_armed_read_fires_once_per_peer_row(self, monkeypatch):
        _sim, _fabric, groups = build_groups()
        sst = groups[1].sst
        seen = []
        monkeypatch.setattr(SST, "hb_read_hook",
                            lambda s, owner: seen.append((s, owner)))
        for wm in watermarks(groups[1]).values():
            seen.clear()
            value = wm.read()
            from_watermark = list(seen)
            seen.clear()
            assert value == scan(sst, wm.col)
            assert from_watermark == seen
            assert [o for _s, o in from_watermark] == [0, 2, 3]


class TestForeignRegionWrites:
    def test_foreign_region_write_neither_rings_nor_feeds(self):
        """A small write into a non-SST region at sg0's delivered-column
        offset must not ring the slot doorbell nor touch the
        watermarks (it used to ring: the hook ignored the region)."""
        cluster = Cluster(3, config=SpindleConfig.optimized())
        cluster.add_subgroup(message_size=128, window=4)
        cluster.build()
        cluster.run_to_quiescence()
        mc = cluster.mc(0, 0)
        fabric = cluster.fabric
        mailbox = CellRegion([8] * 4, name="mailbox@0")
        fabric.nodes[0].register(mailbox)
        src = CellRegion([8], name="src@1")
        src.write_local(0, -7)  # spindle-lint: allow[sst-monotonic-write]
        fabric.nodes[1].register(src)
        rings = mc.slot_doorbell.rings
        before = (mc.slot_watermark.value, mc.received_watermark.value)
        fabric.queue_pair(1, 0).post_write(
            src, 0, mailbox.key, mc.cols.delivered, 1)
        cluster.run_to_quiescence()
        assert mailbox.read(mc.cols.delivered) == -7
        assert mc.slot_doorbell.rings == rings
        assert (mc.slot_watermark.value,
                mc.received_watermark.value) == before


class TestSlotDoorbell:
    def test_rings_only_when_delivered_watermark_advances(self):
        sim, _fabric, groups = build_groups()
        mc = groups[0].multicasts[0]
        cols = mc.cols
        bell = mc.slot_doorbell
        # An ack that moves received but not delivered: no ring.
        groups[1].sst.set(cols.received, 0)
        push(sim, groups[1].sst, *cols.control_span)
        assert bell.rings == 0
        # The own row advances locally (the delivery trigger rings for
        # that itself); then members 1 and 2 ack delivery while member 3
        # still sits at the minimum: no ring.
        groups[0].sst.set(cols.delivered, 0)
        for nid in (1, 2):
            groups[nid].sst.set(cols.delivered, 0)
            push(sim, groups[nid].sst, *cols.control_span)
        assert bell.rings == 0 and mc.slot_watermark.value == -1
        # The last member at the minimum acks: the watermark advances.
        groups[3].sst.set(cols.delivered, 0)
        push(sim, groups[3].sst, *cols.control_span)
        assert mc.slot_watermark.value == 0
        assert bell.rings == 1

    def test_blocked_sender_wakeups_drop_with_identical_log(self,
                                                            monkeypatch):
        """16 senders over a 32-slot ring. Before slot doorbells rang
        only on a watermark advance, this run took 7,956 slot-doorbell
        waits; the delivery log (with delivery instants) is unchanged."""
        waits = [0]
        wait = Doorbell.wait

        def counting_wait(bell):
            if ".slots@" in bell.name:
                waits[0] += 1
            return wait(bell)

        monkeypatch.setattr(Doorbell, "wait", counting_wait)
        cluster = Cluster(16, config=SpindleConfig.optimized(), seed=3)
        cluster.add_subgroup(window=32, message_size=10240)
        cluster.build()
        log = []
        cluster.group(0).on_delivery(
            0, lambda d: log.append((d.sender, d.seq, cluster.sim.now)))
        for nid in cluster.members_of(0):
            cluster.spawn_sender(continuous_sender(
                cluster.mc(nid, 0), count=100, size=10240), name=f"s{nid}")
        cluster.run_to_quiescence()
        assert len(log) == 1600
        digest = hashlib.sha256(repr(log).encode()).hexdigest()[:16]
        assert digest == "bff4f14712192235"
        assert waits[0] * 5 <= 7956
