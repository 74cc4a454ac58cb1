"""Unit tests for generator-based simulation processes."""

import pytest

from repro.sim import Interrupt, SimEvent, Simulator, Timeout, spawn


def test_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc():
        yield Timeout(2.0)
        log.append(sim.now)
        yield Timeout(3.0)
        log.append(sim.now)

    spawn(sim, proc())
    sim.run()
    assert log == [2.0, 5.0]


def test_negative_timeout_rejected():
    with pytest.raises(ValueError):
        Timeout(-0.1)


def test_process_return_value():
    sim = Simulator()

    def proc():
        yield Timeout(1.0)
        return "done"

    p = spawn(sim, proc())
    sim.run()
    assert not p.alive
    assert p.result == "done"


def test_waiting_on_another_process_gets_result():
    sim = Simulator()

    def child():
        yield Timeout(2.0)
        return 42

    def parent():
        value = yield spawn(sim, child())
        return value + 1

    p = spawn(sim, parent())
    sim.run()
    assert p.result == 43


def test_waiting_on_finished_process_resumes_immediately():
    sim = Simulator()

    def child():
        yield Timeout(1.0)
        return "early"

    results = []

    def parent(c):
        yield Timeout(5.0)
        value = yield c
        results.append((sim.now, value))

    c = spawn(sim, child())
    spawn(sim, parent(c))
    sim.run()
    assert results == [(5.0, "early")]


def test_child_exception_propagates_to_waiter():
    sim = Simulator()

    def child():
        yield Timeout(1.0)
        raise RuntimeError("boom")

    caught = []

    def parent():
        try:
            yield spawn(sim, child())
        except RuntimeError as exc:
            caught.append(str(exc))

    spawn(sim, parent())
    sim.run()
    assert caught == ["boom"]


def test_unwaited_exception_surfaces():
    sim = Simulator()

    def proc():
        yield Timeout(1.0)
        raise ValueError("unheard")

    spawn(sim, proc())
    with pytest.raises(ValueError, match="unheard"):
        sim.run()


class TestSimEvent:
    def test_succeed_delivers_value(self):
        sim = Simulator()
        event = SimEvent(sim)
        got = []

        def waiter():
            value = yield event
            got.append((sim.now, value))

        spawn(sim, waiter())
        sim.schedule(3.0, lambda: event.succeed("payload"))
        sim.run()
        assert got == [(3.0, "payload")]

    def test_fail_throws_into_waiter(self):
        sim = Simulator()
        event = SimEvent(sim)
        caught = []

        def waiter():
            try:
                yield event
            except KeyError as exc:
                caught.append(exc)

        spawn(sim, waiter())
        sim.schedule(1.0, lambda: event.fail(KeyError("bad")))
        sim.run()
        assert len(caught) == 1

    def test_wait_on_already_triggered_event(self):
        sim = Simulator()
        event = SimEvent(sim).succeed("x")
        got = []

        def waiter():
            got.append((yield event))

        spawn(sim, waiter())
        sim.run()
        assert got == ["x"]

    def test_double_trigger_rejected(self):
        sim = Simulator()
        event = SimEvent(sim).succeed()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            SimEvent(sim).fail("not an exception")

    def test_multiple_waiters_all_wake(self):
        sim = Simulator()
        event = SimEvent(sim)
        woken = []

        def waiter(tag):
            value = yield event
            woken.append((tag, value))

        spawn(sim, waiter("a"))
        spawn(sim, waiter("b"))
        sim.schedule(1.0, lambda: event.succeed(7))
        sim.run()
        assert sorted(woken) == [("a", 7), ("b", 7)]


class TestInterrupt:
    def test_interrupt_wakes_sleeping_process(self):
        sim = Simulator()
        log = []

        def proc():
            try:
                yield Timeout(100.0)
            except Interrupt as intr:
                log.append((sim.now, intr.cause))

        p = spawn(sim, proc())
        sim.schedule(5.0, lambda: p.interrupt("recovery"))
        sim.run()
        assert log == [(5.0, "recovery")]

    def test_interrupt_cancels_pending_timeout(self):
        sim = Simulator()

        def proc():
            try:
                yield Timeout(100.0)
            except Interrupt:
                return "stopped"

        p = spawn(sim, proc())
        sim.schedule(1.0, lambda: p.interrupt())
        sim.run()
        assert sim.now == 1.0  # the 100 s timeout never fires
        assert p.result == "stopped"

    def test_interrupt_on_finished_process_is_noop(self):
        sim = Simulator()

        def proc():
            yield Timeout(1.0)

        p = spawn(sim, proc())
        sim.run()
        p.interrupt()  # must not raise
        sim.run()

    def test_yielding_garbage_fails_the_process(self):
        sim = Simulator()

        def proc():
            yield "nonsense"

        spawn(sim, proc())
        with pytest.raises(TypeError):
            sim.run()


class TestSleepUntil:
    """Absolute-deadline sleeps (the wait-chaining primitive)."""

    def test_wakes_at_absolute_time(self):
        from repro.sim import SleepUntil

        sim = Simulator(start_time=5.0)
        log = []

        def proc():
            yield SleepUntil(9.0)
            log.append(sim.now)

        spawn(sim, proc())
        sim.run()
        assert log == [9.0]

    def test_chained_deadline_matches_stepwise_timeouts(self):
        from repro.sim import SleepUntil

        delays = (0.123456, 1.0 / 3.0, 2.718281828, 0.001)

        def stepwise(sim, log):
            for d in delays:
                yield Timeout(d)
            log.append(sim.now)

        def chained(sim, log):
            deadline = sim.now
            for d in delays:
                deadline += d
            yield SleepUntil(deadline)
            log.append(sim.now)

        results = []
        for body in (stepwise, chained):
            sim = Simulator()
            log = []
            spawn(sim, body(sim, log))
            sim.run()
            results.append(log[0])
        # Accumulating the same float additions yields a bit-identical
        # wake instant — the contract the campaign wait-chains rely on.
        assert results[0] == results[1]

    def test_sleep_event_recycles_through_free_list(self):
        from repro.sim import SleepUntil

        sim = Simulator()

        def proc():
            yield SleepUntil(1.0)
            yield SleepUntil(2.0)

        spawn(sim, proc())
        sim.run()
        assert sim.free_list_size >= 1


class TestClose:
    """Simulator.close() leaves nothing for the cyclic collector."""

    def test_close_frees_processes_events_and_timers_by_refcount(self):
        import gc
        import weakref

        class Owner:
            pass

        class Ticker:
            def __init__(self, sim):
                self.sim = sim
                self.ticks = 0

            def tick(self):
                self.ticks += 1

        gc.collect()
        gc.disable()
        try:
            sim = Simulator()
            owner = Owner()
            owner.sim = sim
            gate = SimEvent(sim)
            owner.gate = gate

            def sleeper(owner):
                while True:
                    yield Timeout(1.0)

            def waiter(owner):
                yield owner.gate

            owner.procs = [spawn(sim, sleeper(owner)), spawn(sim, waiter(owner))]
            owner.timer = sim.schedule_periodic(2.0, Ticker(sim).tick)
            sim.run_until(5.0)
            assert all(proc.alive for proc in owner.procs)
            alive = weakref.ref(owner)
            sim.close()
            assert not any(proc.alive for proc in owner.procs)
            assert sim.pending_events() == 0 and sim.free_list_size == 0
            del owner, sim, gate
            assert alive() is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_finished_process_drops_its_resume_method(self):
        sim = Simulator()

        def body():
            yield Timeout(1.0)

        proc = spawn(sim, body())
        sim.run()
        assert not proc.alive
        assert proc._on_timeout is None
        assert not sim._processes
