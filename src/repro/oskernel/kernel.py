"""The OS kernel facade: cores, scheduler, IRQ plumbing, housekeeping.

A :class:`Kernel` owns everything OS-side of the simulation.  Device models
(IOMMU, GPU) interact with it through the interrupt controller and work
queues; workloads interact through threads.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from ..config import SystemConfig
from ..sim import Environment, RngRegistry, Timeout
from ..telemetry import NULL_TRACER
from . import accounting as acct
from .accounting import CounterSet, SsrAccounting, TimeAccounting
from .cpu import Core
from .idle import IdleThread
from .irq import (
    DeliveryPolicy,
    InterruptController,
    Irq,
    RoundRobinAllDeliveryPolicy,
    SingleCoreDeliveryPolicy,
    SpreadDeliveryPolicy,
)
from .scheduler import Scheduler
from .thread import KIND_DAEMON, PRIO_NORMAL, Thread
from .workqueue import WorkQueues


class HousekeepingDaemon(Thread):
    """Background kernel activity (RCU, writeback, ...): keeps the no-SSR
    sleep baseline below 100%, as on a real idle Linux box."""

    def __init__(self, kernel: "Kernel"):
        super().__init__(kernel, name="kdaemon", kind=KIND_DAEMON, priority=PRIO_NORMAL)

    def body(self) -> Generator:
        housekeeping = self.kernel.config.housekeeping
        while True:
            yield from self.run_for(housekeeping.daemon_burst_ns)
            if self.core is not None:
                self._release_cpu(requeue=False)
            yield from self.sleep(housekeeping.daemon_period_ns)


class Kernel:
    """The simulated OS instance."""

    def __init__(
        self,
        env: Environment,
        config: SystemConfig,
        rng: RngRegistry,
        tracer=None,
        ledger=None,
    ):
        self.env = env
        self.config = config
        self.rng = rng
        #: Telemetry sink shared by every layer (no-op unless tracing is on).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        env.tracer = self.tracer
        #: Interference attribution sink (no-op unless profiling is on).
        if ledger is None:
            from ..profiling import NULL_LEDGER

            ledger = NULL_LEDGER
        self.ledger = ledger

        self.accounting = TimeAccounting(config.cpu.num_cores)
        self.ssr_accounting = SsrAccounting()
        self.counters = CounterSet()
        #: user-thread owner name -> Thread, for pollution attribution.
        self.thread_registry: Dict[str, Thread] = {}
        #: Set by the System when QoS is enabled (see repro.qos.governor).
        self.qos_governor = None

        self.cores: List[Core] = [Core(self, i) for i in range(config.cpu.num_cores)]
        self.scheduler = Scheduler(self)
        self.irq_controller = InterruptController(self, self._make_delivery_policy())
        self.workqueues = WorkQueues(self)
        self._idle_threads = [IdleThread(self, core.id) for core in self.cores]
        self._daemon = HousekeepingDaemon(self)
        self._booted = False

    def _make_delivery_policy(self) -> DeliveryPolicy:
        mitigation = self.config.mitigation
        if mitigation.steer_to_single_core:
            return SingleCoreDeliveryPolicy(mitigation.steering_target)
        arbitration = self.config.iommu.msi_arbitration
        if arbitration == "round_robin_all":
            return RoundRobinAllDeliveryPolicy()
        if arbitration == "lowest_priority":
            return SpreadDeliveryPolicy()
        raise ValueError(f"unknown msi_arbitration {arbitration!r}")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def boot(self) -> None:
        """Start idle threads, kworkers, timer ticks, and housekeeping."""
        if self._booted:
            raise RuntimeError("kernel already booted")
        self._booted = True
        for idle_thread in self._idle_threads:
            idle_thread.start()
        self.workqueues.start()
        self._daemon.start()
        for core in self.cores:
            self.env.process(self._timer_tick_loop(core))

    def spawn(self, thread: Thread) -> Thread:
        """Register (for pollution attribution) and start a thread."""
        self.thread_registry[thread.name] = thread
        return thread.start()

    def finalize(self) -> None:
        """Close in-flight accounting segments at the end of a measured run."""
        for core in self.cores:
            core.finalize()

    # ------------------------------------------------------------------
    # SSR cost attribution
    # ------------------------------------------------------------------
    def charge_ssr(
        self,
        ns: float,
        channel: str,
        ssr: str,
        core_id: int,
        victim: Optional[str] = None,
    ) -> None:
        """The single funnel for SSR-servicing CPU time.

        Every site that used to call ``ssr_accounting.add`` directly goes
        through here instead, so the interference ledger's service-channel
        totals reconcile with the accumulator *by construction* — the same
        nanoseconds, added once each, to both.  With profiling off the
        ledger branch costs one attribute load.
        """
        self.ssr_accounting.add(ns)
        ledger = self.ledger
        if ledger.enabled:
            ledger.charge(ssr, channel, victim, core_id, ns)

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------
    def _timer_tick_loop(self, core: Core) -> Generator:
        """Periodic scheduler tick; suppressed while the core sleeps (NOHZ)."""
        housekeeping = self.config.housekeeping
        name = f"tick/{core.id}"
        while True:
            yield Timeout(self.env, housekeeping.timer_tick_ns)
            if core.is_sleeping:
                continue
            core.deliver_irq(Irq(name=name, handler_ns=housekeeping.timer_tick_cost_ns))

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def cc6_residency(self, horizon_ns: int) -> float:
        """Fraction of core-time in CC6 over ``horizon_ns`` (Fig. 4 metric)."""
        return self.accounting.residency(acct.CC6, horizon_ns)

    def interrupts_per_core(self) -> List[int]:
        return self.counters.per_core(acct.CTR_IRQ, self.config.cpu.num_cores)

    def ipis_total(self) -> int:
        return sum(self.counters.per_core(acct.CTR_IPI, self.config.cpu.num_cores))
