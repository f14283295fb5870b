"""Tests for the simulated MPI runtime (SimWorld/SimComm)."""

import numpy as np
import pytest

from repro.parallel import Request, SimWorld


def test_send_recv_roundtrip():
    def program(comm):
        if comm.rank == 0:
            comm.send(np.arange(5.0), dest=1, tag=3)
            return None
        return comm.recv(source=0, tag=3)

    results = SimWorld(2).run(program)
    assert np.array_equal(results[1], np.arange(5.0))


def test_send_has_value_semantics():
    """Mutating the buffer after send must not corrupt the message."""

    def program(comm):
        if comm.rank == 0:
            buf = np.zeros(4)
            comm.send(buf, dest=1)
            buf[:] = 99.0
            return None
        return comm.recv(source=0)

    results = SimWorld(2).run(program)
    assert np.array_equal(results[1], np.zeros(4))


def test_isend_irecv():
    def program(comm):
        if comm.rank == 0:
            req = comm.isend({"x": 1}, dest=1)
            req.wait()
            return None
        req = comm.irecv(source=0)
        assert isinstance(req, Request)
        return req.wait()

    results = SimWorld(2).run(program)
    assert results[1] == {"x": 1}


def test_tag_matching_out_of_order():
    def program(comm):
        if comm.rank == 0:
            comm.send("first", dest=1, tag=1)
            comm.send("second", dest=1, tag=2)
            return None
        second = comm.recv(source=0, tag=2)
        first = comm.recv(source=0, tag=1)
        return (first, second)

    results = SimWorld(2).run(program)
    assert results[1] == ("first", "second")


def test_sendrecv_ring():
    def program(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        return comm.sendrecv(comm.rank, dest=right, source=left)

    results = SimWorld(4).run(program)
    assert results == [3, 0, 1, 2]


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_allreduce_sum_matches_numpy(n):
    def program(comm):
        x = np.full(3, float(comm.rank + 1))
        return comm.allreduce(x, op="sum")

    results = SimWorld(n).run(program)
    expected = np.full(3, sum(range(1, n + 1)), dtype=float)
    for r in results:
        assert np.array_equal(r, expected)


def test_allreduce_max_min():
    def program(comm):
        x = np.array([float(comm.rank)])
        return (comm.allreduce(x, op="max")[0], comm.allreduce(x, op="min")[0])

    results = SimWorld(5).run(program)
    for mx, mn in results:
        assert mx == 4.0 and mn == 0.0


def test_allreduce_deterministic_order():
    """Tree reduction must be arrival-order independent (bit-for-bit)."""

    def program(comm):
        # Values chosen so that FP addition order matters.
        x = np.array([1e16, 1.0, -1e16, 2.0][comm.rank % 4])
        return comm.allreduce(x, op="sum")

    a = SimWorld(4).run(program)
    b = SimWorld(4).run(program)
    assert a == b
    assert all(v == a[0] for v in a)


def test_bcast():
    def program(comm):
        data = {"cfg": [1, 2, 3]} if comm.rank == 0 else None
        return comm.bcast(data, root=0)

    results = SimWorld(4).run(program)
    assert all(r == {"cfg": [1, 2, 3]} for r in results)


def test_scatter_gather():
    def program(comm):
        chunks = [i * 10 for i in range(comm.size)] if comm.rank == 0 else None
        mine = comm.scatter(chunks, root=0)
        gathered = comm.gather(mine + 1, root=0)
        return gathered

    results = SimWorld(4).run(program)
    assert results[0] == [1, 11, 21, 31]
    assert results[1] is None


def test_allgather():
    def program(comm):
        return comm.allgather(comm.rank**2)

    results = SimWorld(4).run(program)
    assert all(r == [0, 1, 4, 9] for r in results)


def test_alltoall_is_transpose():
    def program(comm):
        objs = [f"{comm.rank}->{dst}" for dst in range(comm.size)]
        return comm.alltoall(objs)

    results = SimWorld(3).run(program)
    for dst, received in enumerate(results):
        assert received == [f"{src}->{dst}" for src in range(3)]


def test_reduce_to_root():
    def program(comm):
        return comm.reduce(np.array([1.0]), op="sum", root=2)

    results = SimWorld(4).run(program)
    assert results[2][0] == 4.0
    assert results[0] is None


def test_barrier_completes():
    def program(comm):
        for _ in range(3):
            comm.barrier()
        return True

    assert all(SimWorld(6).run(program))


def test_unknown_reduce_op_raises():
    def program(comm):
        comm.allreduce(1.0, op="xor")

    with pytest.raises(RuntimeError, match="rank 0 failed"):
        SimWorld(2).run(program)

    # A sub-communicator rejects it the same way: ValueError on every
    # rank (non-root reduce included) before anything is exchanged.
    def sub_program(comm):
        sub = comm.split(0)
        for call in (sub.allreduce, sub.reduce):
            with pytest.raises(ValueError, match="unknown reduce op 'xor'"):
                call(1.0, op="xor")
        return True

    assert all(SimWorld(2, timeout=5.0).run(sub_program))


def test_exception_propagates_with_rank():
    def program(comm):
        if comm.rank == 1:
            raise ValueError("boom")
        comm.barrier()

    with pytest.raises(RuntimeError, match="rank 1 failed"):
        SimWorld(2, timeout=5.0).run(program)


def test_split_collectives_within_group():
    def program(comm):
        color = comm.rank % 2
        sub = comm.split(color)
        total = sub.allreduce(comm.rank, op="sum")
        return (color, sub.rank, sub.size, total)

    results = SimWorld(6).run(program)
    for world_rank, (color, sub_rank, sub_size, total) in enumerate(results):
        assert color == world_rank % 2
        assert sub_size == 3
        expected = sum(r for r in range(6) if r % 2 == color)
        assert total == expected


def test_split_p2p_within_group():
    def program(comm):
        sub = comm.split(comm.rank // 2)  # pairs: (0,1), (2,3)
        if sub.rank == 0:
            sub.send(f"hello from world {comm.rank}", dest=1)
            return None
        return sub.recv(source=0)

    results = SimWorld(4).run(program)
    assert results[1] == "hello from world 0"
    assert results[3] == "hello from world 2"


def test_split_bcast_nonzero_root():
    def program(comm):
        sub = comm.split(0)
        payload = "root-data" if sub.rank == 1 else None
        return sub.bcast(payload, root=1)

    results = SimWorld(3).run(program)
    assert all(r == "root-data" for r in results)


def test_split_p2p_goes_through_fault_injector():
    """Sub-communicator traffic is world traffic: the injector sees it
    (world ranks), like any other send/recv."""

    class Recorder:
        def __init__(self):
            self.sends, self.recvs = [], []

        def on_send(self, src, dst, tag, payload):
            self.sends.append((src, dst))
            return payload

        def on_recv(self, rank, source, tag):
            self.recvs.append((rank, source))

    inj = Recorder()

    def program(comm):
        sub = comm.split(0)
        if sub.rank == 0:
            sub.send("x", dest=1, tag=3)
            return None
        return sub.recv(source=0, tag=3)

    assert SimWorld(2, faults=inj).run(program) == [None, "x"]
    assert inj.sends == [(0, 1)]
    assert inj.recvs == [(1, 0)]


def test_split_scatter_one_colour_only():
    """A sub-communicator collective involves its group only: colour 1
    never calls scatter and colour 0 must not wait for it."""

    def program(comm):
        sub = comm.split(comm.rank // 2)
        if comm.rank >= 2:
            return None
        return sub.scatter([10, 20] if sub.rank == 1 else None, root=1)

    assert SimWorld(4, timeout=5.0).run(program) == [10, 20, None, None]


def test_split_recv_interrupted_by_revocation():
    import time

    from repro.parallel.comm import CommRevokedError, RankFailure

    def program(comm):
        sub = comm.split(0 if comm.rank < 2 else 1)
        if comm.rank == 2:
            comm.recv(source=0), comm.recv(source=1)
            time.sleep(0.1)  # let both peers block in their recv
            raise RankFailure(2, "test")
        comm.send("blocking next", dest=2)
        try:
            sub.recv(source=1 - sub.rank, timeout=5.0)  # never sent
        except CommRevokedError as exc:
            return exc.dead

    outcome = SimWorld(3).run_elastic(program)
    assert outcome.dead == (2,)
    assert outcome.results == [(2,), (2,), None]


def test_split_probe_translates_rank_and_tag():
    """``probe`` on a sub-communicator looks in the caller's own (world)
    mailbox for sub-comm traffic only: group rank != world rank here, and
    a world-comm message with the same raw tag must not match."""

    def program(comm):
        sub = comm.split(comm.rank // 2)  # groups (0,1), (2,3)
        if comm.rank == 2:
            sub.send("sub", dest=1, tag=5)
        if comm.rank == 0:
            comm.send("world", dest=3, tag=5)
        comm.barrier()  # both messages are posted
        if comm.rank != 3:
            return None
        seen = [sub.probe(source=0, tag=5), sub.probe(tag=5)]
        assert sub.recv(source=0, tag=5) == "sub"
        # Only the world message with raw tag 5 is left in the mailbox.
        seen += [sub.probe(source=0, tag=5), sub.probe(tag=5), comm.probe(source=0, tag=5)]
        return seen

    results = SimWorld(4, timeout=5.0).run(program)
    assert results[3] == [True, True, False, False, True]


def test_splits_sharing_a_colour_have_distinct_tag_spaces():
    """Two splits that both give rank 0 and 1 colour 0 are two
    communicators: a receive on one must not match traffic on the other."""

    def program(comm):
        a = comm.split(0)
        b = comm.split(comm.rank // 2)
        if comm.rank == 0:
            a.send("on a", dest=1, tag=5)
            b.send("on b", dest=1, tag=5)
        if comm.rank == 1:
            return b.recv(source=0, tag=5), a.recv(source=0, tag=5)
        return None

    assert SimWorld(4, timeout=5.0).run(program)[1] == ("on b", "on a")


def test_nested_split_collectives_and_p2p():
    def program(comm):
        sub = comm.split(comm.rank % 2)  # evens (0,2,4,6), odds (1,3,5,7)
        inner = sub.split(sub.rank // 2)  # e.g. evens -> (0,2), (4,6)
        total = inner.allreduce(comm.rank, op="sum")
        if inner.rank == 0:
            inner.send(comm.rank, dest=1, tag=2)
            peer = None
        else:
            peer = inner.recv(source=0, tag=2)
        return total, inner.size, peer

    results = SimWorld(8, timeout=5.0).run(program)
    assert [t for t, _, _ in results] == [2, 4, 2, 4, 10, 12, 10, 12]
    assert all(size == 2 for _, size, _ in results)
    assert [p for _, _, p in results] == [None, None, 0, 1, None, None, 4, 5]


def test_run_kill_frees_blocked_peers_by_revocation():
    """Under ``run`` a killed rank revokes the world: peers blocked on it
    are freed at once and the death is the reported root cause."""
    import time

    from repro.parallel.comm import RankFailure

    def program(comm):
        if comm.rank == 2:
            time.sleep(0.1)  # let both peers block in their recv
            raise RankFailure(2, "test")
        comm.recv(source=2)

    start = time.monotonic()
    with pytest.raises(RuntimeError, match="rank 2 failed") as err:
        SimWorld(3, timeout=30).run(program)
    assert isinstance(err.value.__cause__, RankFailure)
    assert time.monotonic() - start < 10.0


def test_ledger_counts_p2p_bytes():
    world = SimWorld(2)

    def program(comm):
        if comm.rank == 0:
            comm.send(np.zeros(100, dtype=np.float64), dest=1)
        else:
            comm.recv(source=0)

    world.run(program)
    assert world.ledger.p2p_messages == 1
    assert world.ledger.p2p_bytes == 800
    assert world.ledger.traffic_matrix(2)[0, 1] == 800


def test_ledger_records_collectives():
    world = SimWorld(4)

    def program(comm):
        comm.allreduce(np.zeros(10), op="sum")

    world.run(program)
    ops = [c.op for c in world.ledger.collectives]
    assert "allreduce-sum" in ops


def test_recv_timeout_raises():
    def program(comm):
        if comm.rank == 0:
            comm.recv(source=1, tag=9)

    with pytest.raises(RuntimeError, match="rank 0 failed"):
        SimWorld(2, timeout=0.2).run(program)


def test_single_rank_world():
    def program(comm):
        assert comm.size == 1
        return comm.allreduce(5.0, op="sum")

    assert SimWorld(1).run(program) == [5.0]
