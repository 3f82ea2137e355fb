//! The runtime: localities, scheduler, global operations.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime};

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use dashmm_obs::codec::{decode_f64s, encode_f64s};
use dashmm_obs::{
    ClassCounters, ObsLevel, SpanRing, TraceEvent, TraceSet, CLASS_LCO_TRIGGER, NO_TAG,
};
use parking_lot::{Mutex, RwLock};

use crate::addr::GlobalAddress;
use crate::lco::{LcoCell, LcoSpec, LcoState};
use crate::ledger::PeerFailure;
use crate::parcel::{ActionId, Parcel};
use crate::transport::{SharedMem, Transport, TransportHooks};

/// Runtime configuration.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of localities (the paper's MPI-rank-like units).
    pub localities: usize,
    /// Scheduler threads per locality (the paper ran one per core).
    pub workers_per_locality: usize,
    /// How much the run records (paper §V-B): nothing, per-class counters,
    /// or full span rings for timeline export.
    pub obs: ObsLevel,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            localities: 1,
            workers_per_locality: 2,
            obs: ObsLevel::Off,
        }
    }
}

/// Either an active-message parcel or a locality-local lightweight thread.
enum Task {
    Parcel(Parcel),
    Local(Box<dyn FnOnce(&TaskCtx) + Send>),
}

/// Action function signature: invoked at the target's locality.
pub type ActionFn = Arc<dyn Fn(&TaskCtx, GlobalAddress, &[u8]) + Send + Sync>;

/// Built-in action: deliver a set to an LCO (payload = f64 data).
pub const ACTION_LCO_SET: ActionId = ActionId(0);

struct Locality {
    /// Work from outside the locality's workers: seeds, parcels off the
    /// network or from sibling localities.  Workers batch-steal from it.
    injector: Injector<Task>,
    /// The LCO slab.  [`Runtime::lco_new`] grows it between runs; during a
    /// run every worker holds a clone of the `Arc` taken at run start and
    /// indexes it without a lock.
    lcos: Mutex<Arc<Vec<LcoCell>>>,
    msgs_sent: AtomicU64,
    bytes_sent: AtomicU64,
}

impl Locality {
    fn new() -> Self {
        Locality {
            injector: Injector::new(),
            lcos: Mutex::new(Arc::default()),
            msgs_sent: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
        }
    }
}

/// Outcome of one [`Runtime::run`] to quiescence.
#[derive(Debug)]
pub struct RunReport {
    /// Wall-clock nanoseconds of the run.
    pub wall_ns: u64,
    /// Tasks (parcels + lightweight threads) executed.
    pub tasks: u64,
    /// Inter-locality messages sent.
    pub messages: u64,
    /// Inter-locality bytes sent (headers included).
    pub bytes: u64,
    /// Collected trace events (empty unless the obs level kept spans).
    pub trace: TraceSet,
    /// Per-class event counters aggregated over all workers (populated at
    /// obs levels `counters` and `full`).
    pub counters: ClassCounters,
    /// Span events overwritten because a worker's ring filled up.
    pub trace_dropped: u64,
    /// Parcels dropped because their bytes did not make a valid call: an
    /// action id never registered, an LCO past the target's slab, an
    /// `LCO_SET` the LCO cannot take (ragged, the wrong length, after its
    /// trigger).
    pub dropped_parcels: u64,
    /// Realtime clock at run start (ns since the unix epoch) — the anchor
    /// cross-process trace merging aligns rank clocks with.
    pub run_start_unix_ns: u64,
    /// Set when the transport declared a peer locality dead during the run
    /// ([`Transport::failed_peer`]): who, in which termination epoch, and
    /// why.  Without fencing the run aborted and its outputs are partial:
    /// local work drained, but parcels to and from the lost locality (and
    /// everything downstream of them in the DAG) never executed.  `None`
    /// is a normal run to quiescence.
    pub lost_peer: Option<PeerFailure>,
    /// Whether the transport fenced the dead peer
    /// ([`Transport::fence_peer`]): the run continued to quiescence over
    /// the *survivor* set and the runtime is positioned for a recovery
    /// run, rather than having aborted with queues drained.
    pub fenced: bool,
}

/// The AMT runtime.
///
/// ```
/// use dashmm_amt::{LcoSpec, Runtime, RuntimeConfig};
///
/// let rt = Runtime::new(RuntimeConfig { localities: 2, ..Default::default() });
/// let sum = rt.lco_new(1, LcoSpec::reduce_sum(1, 2));
/// rt.seed(0, move |ctx| {
///     ctx.lco_set(sum, &[1.5]); // crosses the network as a parcel
///     ctx.lco_set(sum, &[2.5]);
/// });
/// let report = rt.run();
/// assert_eq!(rt.lco_get(sum), Some(vec![4.0]));
/// assert!(report.messages >= 1);
/// ```
pub struct Runtime {
    cfg: RuntimeConfig,
    localities: Vec<Locality>,
    actions: RwLock<Vec<ActionFn>>,
    pending: AtomicI64,
    tasks_run: AtomicU64,
    dropped_parcels: AtomicU64,
    shutdown: AtomicBool,
    running: AtomicBool,
    epoch: Instant,
    trace_sink: Mutex<Vec<(u32, usize, SpanRing)>>,
    transport: Arc<dyn Transport>,
}

impl Runtime {
    /// Create a single-process runtime; every locality is a thread group in
    /// this process (the [`SharedMem`] transport).
    pub fn new(cfg: RuntimeConfig) -> Arc<Self> {
        let localities = cfg.localities as u32;
        Self::with_transport(cfg, Arc::new(SharedMem::new(localities)))
    }

    /// Create a runtime whose remote parcels travel over `transport`.
    ///
    /// The transport spans `cfg.localities` localities total; only the
    /// ones `transport.is_local` reports get worker threads here.  All
    /// processes of a distributed run must build identical runtimes (same
    /// config, same LCO allocation order, same action registration order)
    /// so that global addresses and action ids agree — the SPMD discipline
    /// of the paper's runtime.
    pub fn with_transport(cfg: RuntimeConfig, transport: Arc<dyn Transport>) -> Arc<Self> {
        assert!(cfg.localities >= 1 && cfg.workers_per_locality >= 1);
        assert_eq!(
            cfg.localities,
            transport.num_ranks() as usize,
            "transport must span exactly the configured localities"
        );
        let localities = (0..cfg.localities).map(|_| Locality::new()).collect();
        let rt = Arc::new(Runtime {
            cfg,
            localities,
            actions: RwLock::new(Vec::new()),
            pending: AtomicI64::new(0),
            tasks_run: AtomicU64::new(0),
            dropped_parcels: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            running: AtomicBool::new(false),
            epoch: Instant::now(),
            trace_sink: Mutex::new(Vec::new()),
            transport,
        });
        // Wire the transport back into the scheduler.  Weak: the runtime
        // owns the transport, and progress threads may outlive a run.
        let weak = Arc::downgrade(&rt);
        let deliver = {
            let weak = weak.clone();
            Box::new(move |p: Parcel| {
                if let Some(rt) = weak.upgrade() {
                    debug_assert!(rt.is_local(p.target.locality));
                    rt.enqueue(p.target.locality, Task::Parcel(p));
                }
            })
        };
        let locally_idle = {
            let weak = weak.clone();
            Box::new(move || {
                weak.upgrade()
                    .map(|rt| rt.pending.load(Ordering::SeqCst) == 0)
                    .unwrap_or(true)
            })
        };
        let epoch = rt.epoch;
        let now_ns = Box::new(move || epoch.elapsed().as_nanos() as u64);
        rt.transport.attach(TransportHooks {
            deliver,
            locally_idle,
            now_ns,
        });
        // The built-in action.  Its parcels may come off a wire: bytes
        // that do not make a valid call are dropped and counted, not a panic.
        let a0 = rt.register_action(Arc::new(|ctx: &TaskCtx, target, payload: &[u8]| {
            let landed = decode_f64s(payload)
                .is_ok_and(|values| ctx.reduce_local(target.index, &values, true));
            if !landed {
                ctx.rt.dropped_parcels.fetch_add(1, Ordering::Relaxed);
            }
        }));
        debug_assert_eq!(a0, ACTION_LCO_SET);
        rt
    }

    /// Number of localities.
    pub fn num_localities(&self) -> u32 {
        self.cfg.localities as u32
    }

    /// Whether `locality` is hosted by this process (always true with the
    /// default [`SharedMem`] transport).
    pub fn is_local(&self, locality: u32) -> bool {
        self.transport.is_local(locality)
    }

    /// The transport carrying remote parcels.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Register an action; must happen before the parcels using it are sent.
    pub fn register_action(&self, f: ActionFn) -> ActionId {
        let mut acts = self.actions.write();
        acts.push(f);
        ActionId(acts.len() as u32 - 1)
    }

    /// Allocate an LCO on a locality.  Between runs only: a run's workers
    /// index the slab as it was when the run started, so allocating during
    /// a run panics.
    pub fn lco_new(&self, locality: u32, spec: LcoSpec) -> GlobalAddress {
        let mut slab = self.localities[locality as usize].lcos.lock();
        let cells = Arc::get_mut(&mut slab).expect("lco_new() during a run");
        cells.push(LcoCell::new(spec));
        GlobalAddress::new(locality, cells.len() as u32 - 1)
    }

    /// The LCO slab of `locality` as it stands.
    fn slab(&self, locality: u32) -> Arc<Vec<LcoCell>> {
        Arc::clone(&self.localities[locality as usize].lcos.lock())
    }

    /// `f` applied to the state of the LCO at `addr`, outside any task.
    fn with_lco<R>(&self, addr: GlobalAddress, f: impl FnOnce(&mut LcoState) -> R) -> R {
        f(&mut self.slab(addr.locality)[addr.index as usize].state.lock())
    }

    /// Read a triggered LCO's data (post-run); `None` if not yet triggered.
    pub fn lco_get(&self, addr: GlobalAddress) -> Option<Vec<f64>> {
        self.with_lco(addr, |st| st.triggered.then(|| st.data.to_vec()))
    }

    /// Length of the LCO at `addr`'s data as allocated, triggered or not.
    pub fn lco_len(&self, addr: GlobalAddress) -> usize {
        self.with_lco(addr, |st| st.data.len())
    }

    /// Whether the LCO at `addr` has triggered.
    pub fn lco_triggered(&self, addr: GlobalAddress) -> bool {
        self.with_lco(addr, |st| st.triggered)
    }

    /// Inputs the LCO at `addr` still expects (0 once triggered).
    pub fn lco_remaining(&self, addr: GlobalAddress) -> u32 {
        self.with_lco(addr, |st| st.remaining)
    }

    /// Re-arm an *untriggered* LCO with a new expected-input count, for
    /// recovery after a locality loss: re-ownership changes how many
    /// inputs (and batched flushes) a surviving LCO will still receive, and
    /// exactly-once accounting requires the count to match precisely.
    /// Data already reduced into the cell, its trigger closure and the
    /// allocation-time count a later [`Runtime::rearm`] restores are
    /// preserved.  Returns `false` (without touching the cell) if the LCO
    /// has already triggered; must not race an active run.
    pub fn lco_rearm(&self, addr: GlobalAddress, remaining: u32) -> bool {
        assert!(remaining > 0, "re-arming with 0 inputs would never trigger");
        self.with_lco(addr, |st| {
            if !st.triggered {
                st.remaining = remaining;
            }
            !st.triggered
        })
    }

    /// Drop every LCO and user-registered action, keeping only the built-in
    /// action — before building a *different* network on this runtime.
    /// Evaluating the same network again needs no reset: [`Runtime::rearm`]
    /// it.  All previously returned addresses and action ids (other than
    /// the built-in) are invalidated; must not be called during a run.
    pub fn reset(&self) {
        assert_eq!(
            self.pending.load(Ordering::SeqCst),
            0,
            "reset() must not race an active run"
        );
        for loc in &self.localities {
            *loc.lcos.lock() = Arc::default();
        }
        self.actions.write().truncate(1);
    }

    /// Arm every LCO of the localities this process hosts for another run
    /// of the same network (the iterative use case, paper §IV): input
    /// counts go back to their allocation-time values, and every payload an
    /// input reached is marked stale, to be zeroed by its next first input;
    /// an LCO with no inputs is zeroed here and stays triggered.
    /// Allocations, trigger closures, addresses and actions are kept.
    /// Panics during a run, and if a payload is still shared — a
    /// continuation of the last run kept its handle.
    pub fn rearm(&self) {
        assert!(
            !self.running.load(Ordering::SeqCst),
            "rearm() must not race an active run"
        );
        for (id, loc) in self.localities.iter().enumerate() {
            if self.is_local(id as u32) {
                loc.lcos.lock().iter().for_each(LcoCell::rearm);
            }
        }
    }

    /// Enqueue a seed task before (or during) a run.  In a distributed
    /// (SPMD) run every process executes the same seeding code; seeds for
    /// localities another process hosts are dropped here, because that
    /// process seeds them itself.
    pub fn seed(&self, locality: u32, f: impl FnOnce(&TaskCtx) + Send + 'static) {
        if !self.is_local(locality) {
            return;
        }
        self.enqueue(locality, Task::Local(Box::new(f)));
    }

    fn enqueue(&self, locality: u32, task: Task) {
        debug_assert!(
            self.is_local(locality),
            "enqueue targets locality {locality}, which another process hosts"
        );
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.localities[locality as usize].injector.push(task);
    }

    /// Execute until quiescence: every enqueued task (and everything they
    /// transitively spawn) has completed — on *every* participating
    /// process when the transport is distributed.  Returns run statistics.
    pub fn run(&self) -> RunReport {
        let t0 = Instant::now();
        let msgs0: u64 = self
            .localities
            .iter()
            .map(|l| l.msgs_sent.load(Ordering::Relaxed))
            .sum();
        let bytes0: u64 = self
            .localities
            .iter()
            .map(|l| l.bytes_sent.load(Ordering::Relaxed))
            .sum();
        let net0 = self.transport.stats();
        let tasks0 = self.tasks_run.load(Ordering::Relaxed);
        let dropped0 = self.dropped_parcels.load(Ordering::Relaxed);
        let run_start_ns = self.epoch.elapsed().as_nanos() as u64;
        // Captured at the same instant as the monotonic run clock: the
        // realtime anchor cross-process trace merging aligns ranks with.
        let run_start_unix_ns = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        // Concurrent runs would share the pending counter and shutdown
        // flag, silently corrupting quiescence detection — refuse early.
        assert!(
            self.running
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok(),
            "Runtime::run() is already active on another thread"
        );
        self.shutdown.store(false, Ordering::SeqCst);
        if self.cfg.obs.enabled() {
            // Discard communication spans from before this run.
            let _ = self.transport.drain_trace();
        }
        // New run epoch: parcels that raced ahead of this run are released
        // into the scheduler now.
        self.transport.begin_run();

        let mut lost_peer: Option<PeerFailure> = None;
        let mut fenced = false;
        std::thread::scope(|scope| {
            let mut n_local = 0usize;
            for (loc_id, loc) in self.localities.iter().enumerate() {
                if !self.transport.is_local(loc_id as u32) {
                    continue;
                }
                n_local += 1;
                let slab = self.slab(loc_id as u32);
                // Per-locality worker deques with intra-locality stealing
                // (HPX-5 was configured with local randomized workstealing).
                let workers: Vec<Worker<Task>> = (0..self.cfg.workers_per_locality)
                    .map(|_| Worker::new_lifo())
                    .collect();
                let stealers: Arc<Vec<Stealer<Task>>> =
                    Arc::new(workers.iter().map(|w| w.stealer()).collect());
                for (wid, w) in workers.into_iter().enumerate() {
                    let stealers = Arc::clone(&stealers);
                    let slab = Arc::clone(&slab);
                    scope.spawn(move || {
                        self.worker_loop(loc_id as u32, wid, w, &stealers, loc, slab);
                    });
                }
            }
            assert!(n_local > 0, "no locality of this runtime is local");
            // Quiescence monitor: local idleness alone with the shared-
            // memory transport; global termination detection otherwise.
            // When a transport declares a peer dead there are two paths:
            // a transport that can *fence* the dead rank (exclude it from
            // termination detection and collectives) keeps the run going
            // to quiescence over the survivors, positioning the caller
            // for a recovery run; otherwise the run aborts instead of
            // spinning forever on parcels that will never arrive.  Either
            // way the caller sees the loss in `RunReport::lost_peer`.
            loop {
                let idle = self.pending.load(Ordering::SeqCst) == 0;
                if self.transport.poll_quiescence(idle) {
                    break;
                }
                if lost_peer.is_none() {
                    if let Some(fail) = self.transport.failed_peer_info() {
                        lost_peer = Some(fail);
                        fenced = self.transport.fence_peer(fail.rank);
                        if !fenced {
                            break;
                        }
                    }
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            self.shutdown.store(true, Ordering::SeqCst);
        });
        if lost_peer.is_some() && !fenced {
            // The progress thread may still deliver parcels from surviving
            // peers after the workers exited; discard whatever is queued so
            // the pending counter returns to zero and `reset()` (and a
            // subsequent recovery run) stay usable after the abort.
            for loc in &self.localities {
                loop {
                    match loc.injector.steal() {
                        Steal::Success(_) => {}
                        Steal::Empty => break,
                        Steal::Retry => {}
                    }
                }
            }
            self.pending.store(0, Ordering::SeqCst);
        }

        let local_localities: Vec<u32> = (0..self.cfg.localities as u32)
            .filter(|&l| self.transport.is_local(l))
            .collect();
        let local_workers = local_localities.len() * self.cfg.workers_per_locality;
        let rebase = |buf: &mut Vec<TraceEvent>| {
            for e in buf.iter_mut() {
                e.start_ns = e.start_ns.saturating_sub(run_start_ns);
                e.end_ns = e.end_ns.saturating_sub(run_start_ns);
            }
        };
        let mut comm = if self.cfg.obs.enabled() {
            self.transport.drain_trace()
        } else {
            Vec::new()
        };
        // The progress thread counts as one more lane when it traced.
        let mut trace = TraceSet::new(local_workers + usize::from(!comm.is_empty()));
        let mut counters = ClassCounters::default();
        let mut trace_dropped = 0u64;
        let mut rings: Vec<(u32, usize, SpanRing)> = self.trace_sink.lock().drain(..).collect();
        rings.sort_by_key(|(loc, wid, _)| (*loc, *wid));
        for (loc, wid, ring) in rings {
            let (mut buf, ring_counters, dropped) = ring.into_parts();
            counters.merge(&ring_counters);
            trace_dropped += dropped;
            rebase(&mut buf);
            let label = if local_localities.len() > 1 {
                format!("L{loc}.w{wid}")
            } else {
                format!("w{wid}")
            };
            trace.push_lane(label, buf);
        }
        if !comm.is_empty() {
            rebase(&mut comm);
            trace.push_lane("net", comm);
        }
        self.running.store(false, Ordering::SeqCst);
        let msgs1: u64 = self
            .localities
            .iter()
            .map(|l| l.msgs_sent.load(Ordering::Relaxed))
            .sum();
        let bytes1: u64 = self
            .localities
            .iter()
            .map(|l| l.bytes_sent.load(Ordering::Relaxed))
            .sum();
        let net1 = self.transport.stats();
        RunReport {
            wall_ns: t0.elapsed().as_nanos() as u64,
            tasks: self.tasks_run.load(Ordering::Relaxed) - tasks0,
            messages: (msgs1 - msgs0) + (net1.parcels_sent - net0.parcels_sent),
            bytes: (bytes1 - bytes0) + (net1.bytes_sent - net0.bytes_sent),
            trace,
            counters,
            trace_dropped,
            dropped_parcels: self.dropped_parcels.load(Ordering::Relaxed) - dropped0,
            run_start_unix_ns,
            lost_peer,
            fenced,
        }
    }

    fn worker_loop(
        &self,
        locality: u32,
        worker: usize,
        local: Worker<Task>,
        stealers: &[Stealer<Task>],
        loc: &Locality,
        lcos: Arc<Vec<LcoCell>>,
    ) {
        let ctx = TaskCtx {
            rt: self,
            locality,
            worker,
            local,
            lcos,
            trace: RefCell::new(SpanRing::with_level(self.cfg.obs)),
        };
        let mut idle = 0u32;
        loop {
            if let Some(task) = self.find_task(&ctx, stealers, loc, worker) {
                self.execute(&ctx, task);
                self.tasks_run.fetch_add(1, Ordering::Relaxed);
                self.pending.fetch_sub(1, Ordering::SeqCst);
                idle = 0;
                continue;
            }
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            idle += 1;
            if idle < 64 {
                std::hint::spin_loop();
            } else if idle < 256 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        }
        if self.cfg.obs.enabled() {
            self.trace_sink
                .lock()
                .push((locality, worker, ctx.trace.into_inner()));
        }
    }

    fn find_task(
        &self,
        ctx: &TaskCtx,
        stealers: &[Stealer<Task>],
        loc: &Locality,
        worker: usize,
    ) -> Option<Task> {
        if let Some(t) = ctx.local.pop() {
            return Some(t);
        }
        loop {
            match loc.injector.steal_batch_and_pop(&ctx.local) {
                Steal::Success(t) => return Some(t),
                Steal::Empty => break,
                Steal::Retry => {}
            }
        }
        // Randomized stealing from sibling workers.
        let n = stealers.len();
        if n > 1 {
            let seed = self.tasks_run.load(Ordering::Relaxed) as usize + worker;
            for k in 0..n {
                let v = (seed + k) % n;
                if v == worker {
                    continue;
                }
                loop {
                    match stealers[v].steal() {
                        Steal::Success(t) => return Some(t),
                        Steal::Empty => break,
                        Steal::Retry => {}
                    }
                }
            }
        }
        None
    }

    fn execute(&self, ctx: &TaskCtx, task: Task) {
        match task {
            Task::Parcel(p) => {
                debug_assert_eq!(
                    p.target.locality, ctx.locality,
                    "parcel delivered to wrong locality"
                );
                let action = self.actions.read().get(p.action.0 as usize).cloned();
                match action {
                    Some(action) => action(ctx, p.target, &p.payload),
                    // An id off a wire that names no registered action.
                    None => {
                        self.dropped_parcels.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Task::Local(f) => f(ctx),
        }
    }
}

/// Per-task execution context: the facing API of the runtime inside
/// actions, trigger closures and local threads.
pub struct TaskCtx<'a> {
    rt: &'a Runtime,
    /// Locality this task runs on.
    pub locality: u32,
    /// Worker index within the locality.
    pub worker: usize,
    local: Worker<Task>,
    /// This locality's LCO slab as it was when the run started.
    lcos: Arc<Vec<LcoCell>>,
    trace: RefCell<SpanRing>,
}

impl<'a> TaskCtx<'a> {
    /// The runtime.
    pub fn runtime(&self) -> &'a Runtime {
        self.rt
    }

    /// Spawn a locality-local lightweight thread.
    pub fn spawn(&self, f: impl FnOnce(&TaskCtx) + Send + 'static) {
        self.rt.pending.fetch_add(1, Ordering::SeqCst);
        self.local.push(Task::Local(Box::new(f)));
    }

    /// Send a parcel; local targets are enqueued directly, other
    /// localities of this process cross the (counted) in-process network,
    /// and localities hosted elsewhere go through the transport.
    pub fn send(&self, parcel: Parcel) {
        if parcel.target.locality == self.locality {
            self.rt.pending.fetch_add(1, Ordering::SeqCst);
            self.local.push(Task::Parcel(parcel));
        } else if self.rt.is_local(parcel.target.locality) {
            let src = &self.rt.localities[self.locality as usize];
            src.msgs_sent.fetch_add(1, Ordering::Relaxed);
            src.bytes_sent
                .fetch_add(parcel.wire_bytes(), Ordering::Relaxed);
            self.rt
                .enqueue(parcel.target.locality, Task::Parcel(parcel));
        } else {
            // The transport counts parcels and bytes itself; counting here
            // too would double-book the run report.
            self.rt.transport.send(parcel);
        }
    }

    /// Deliver one input to an LCO.  Local LCOs are reduced immediately;
    /// remote ones receive a built-in set parcel.  When the input completes
    /// the LCO's expected inputs, its continuations are spawned as a new
    /// lightweight thread at the LCO's locality.
    pub fn lco_set(&self, addr: GlobalAddress, data: &[f64]) {
        if addr.locality != self.locality {
            let mut payload = Vec::with_capacity(data.len() * 8);
            encode_f64s(data, &mut payload);
            self.send(Parcel::new(ACTION_LCO_SET, addr, payload));
            return;
        }
        self.reduce_local(addr.index, data, false);
    }

    /// Fold `data` into this locality's LCO `index` and, if it was the last
    /// input, spawn the continuation with the payload.  `checked` is for
    /// inputs off a wire: one the LCO cannot take — past the slab, after
    /// the trigger, the wrong length — is refused (`false`), where local
    /// code that sends it panics.
    fn reduce_local(&self, index: u32, data: &[f64], checked: bool) -> bool {
        let Some(cell) = self.lcos.get(index as usize) else {
            assert!(
                checked,
                "LCO {index} is past locality {}'s slab",
                self.locality
            );
            return false;
        };
        let fired = {
            let mut st = cell.state.lock();
            if checked && !st.accepts(data.len()) {
                return false;
            }
            st.reduce(data).then(|| Arc::clone(&st.data))
        };
        if let Some(payload) = fired {
            if self.rt.cfg.obs.spans() {
                let now = self.now_ns();
                self.trace
                    .borrow_mut()
                    .record_instant(CLASS_LCO_TRIGGER, now);
            }
            self.spawn(move |ctx| {
                if let Some(f) = &ctx.lcos[index as usize].on_trigger {
                    f(ctx, &payload);
                }
            });
        }
        true
    }

    /// Nanoseconds since the runtime epoch.
    pub fn now_ns(&self) -> u64 {
        self.rt.epoch.elapsed().as_nanos() as u64
    }

    /// The recording level this runtime was configured with.
    pub fn obs_level(&self) -> ObsLevel {
        self.rt.cfg.obs
    }

    /// Record a traced span around `f`, tagged with an event class.
    pub fn traced<R>(&self, class: u8, f: impl FnOnce() -> R) -> R {
        self.traced_tagged(class, NO_TAG, f)
    }

    /// [`TaskCtx::traced`] attributing the span to DAG edge `tag`.
    pub fn traced_tagged<R>(&self, class: u8, tag: u32, f: impl FnOnce() -> R) -> R {
        if !self.rt.cfg.obs.enabled() {
            return f();
        }
        let start = self.now_ns();
        let r = f();
        let end = self.now_ns();
        self.trace.borrow_mut().record_span(class, tag, start, end);
        r
    }

    /// Record an explicit span (timestamps from [`TaskCtx::now_ns`]) —
    /// for call sites that can't wrap the work in a closure, such as the
    /// batched operator path attributing one flush across its edges.
    pub fn record_span(&self, class: u8, tag: u32, start_ns: u64, end_ns: u64) {
        if self.rt.cfg.obs.enabled() {
            self.trace
                .borrow_mut()
                .record_span(class, tag, start_ns, end_ns);
        }
    }

    /// Record a zero-duration marker at the current time.
    pub fn record_instant(&self, class: u8) {
        if self.rt.cfg.obs.enabled() {
            let now = self.now_ns();
            self.trace.borrow_mut().record_instant(class, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lco::LcoOp;

    fn rt(localities: usize, workers: usize) -> Arc<Runtime> {
        Runtime::new(RuntimeConfig {
            localities,
            workers_per_locality: workers,
            obs: ObsLevel::Off,
        })
    }

    #[test]
    fn empty_run_terminates() {
        let r = rt(1, 1);
        let rep = r.run();
        assert_eq!(rep.tasks, 0);
    }

    #[test]
    fn single_task_runs() {
        let r = rt(1, 2);
        let flag = Arc::new(AtomicU64::new(0));
        let f2 = flag.clone();
        r.seed(0, move |_| {
            f2.store(42, Ordering::SeqCst);
        });
        let rep = r.run();
        assert_eq!(flag.load(Ordering::SeqCst), 42);
        assert_eq!(rep.tasks, 1);
    }

    #[test]
    fn lco_reduction_network() {
        // Three inputs summed into an LCO, whose trigger writes a future.
        let r = rt(1, 2);
        let done = r.lco_new(0, LcoSpec::future(2));
        let copy = LcoSpec::reduce_sum(2, 3).with_trigger(Box::new(move |ctx, data| {
            ctx.lco_set(done, data);
        }));
        let sum = r.lco_new(0, copy);
        r.seed(0, move |ctx| {
            ctx.lco_set(sum, &[1.0, 10.0]);
            ctx.lco_set(sum, &[2.0, 20.0]);
            ctx.lco_set(sum, &[3.0, 30.0]);
        });
        r.run();
        assert_eq!(r.lco_get(done), Some(vec![6.0, 60.0]));
    }

    #[test]
    fn cross_locality_parcel_counted() {
        let r = rt(2, 1);
        let fut = r.lco_new(1, LcoSpec::future(1));
        r.seed(0, move |ctx| {
            ctx.lco_set(fut, &[7.0]); // remote: becomes a parcel
        });
        let rep = r.run();
        assert_eq!(r.lco_get(fut), Some(vec![7.0]));
        assert_eq!(rep.messages, 1);
        assert!(rep.bytes >= 8);
    }

    #[test]
    fn local_sets_do_not_touch_network() {
        let r = rt(2, 1);
        let fut = r.lco_new(0, LcoSpec::future(1));
        r.seed(0, move |ctx| ctx.lco_set(fut, &[1.0]));
        let rep = r.run();
        assert_eq!(rep.messages, 0);
    }

    #[test]
    fn trigger_closure_runs_with_data() {
        let r = rt(1, 2);
        let out = r.lco_new(0, LcoSpec::future(1));
        let spec = LcoSpec::reduce_sum(1, 2).with_trigger(Box::new(move |ctx, data| {
            ctx.lco_set(out, &[data[0] * 2.0]);
        }));
        let sum = r.lco_new(0, spec);
        r.seed(0, move |ctx| {
            ctx.lco_set(sum, &[3.0]);
            ctx.lco_set(sum, &[4.0]);
        });
        r.run();
        assert_eq!(r.lco_get(out), Some(vec![14.0]));
    }

    #[test]
    fn fan_out_fan_in_across_localities() {
        // One task fans out to 4 localities; each computes and feeds a
        // reduction back on locality 0.
        let r = rt(4, 2);
        let sum = r.lco_new(0, LcoSpec::reduce_sum(1, 4));
        let compute = r.register_action(Arc::new(move |ctx, _target, payload: &[u8]| {
            let x = decode_f64s(payload).unwrap()[0];
            ctx.lco_set(sum, &[x * x]);
        }));
        r.seed(0, move |ctx| {
            for loc in 0..4u32 {
                let mut payload = Vec::new();
                encode_f64s(&[(loc + 1) as f64], &mut payload);
                ctx.send(Parcel::new(compute, GlobalAddress::new(loc, 0), payload));
            }
        });
        let rep = r.run();
        assert_eq!(r.lco_get(sum), Some(vec![1.0 + 4.0 + 9.0 + 16.0]));
        assert!(
            rep.messages >= 3,
            "three remote parcels at least, got {}",
            rep.messages
        );
    }

    #[test]
    fn deep_chain_terminates() {
        // A 1000-deep dependency chain exercises trigger-spawn recursion.
        let r = rt(1, 2);
        let last = r.lco_new(0, LcoSpec::future(1));
        let mut first = last;
        for _ in 0..1000 {
            let next = first;
            let forward = LcoSpec::future(1).with_trigger(Box::new(move |ctx, data| {
                ctx.lco_set(next, data);
            }));
            first = r.lco_new(0, forward);
        }
        r.seed(0, move |ctx| ctx.lco_set(first, &[1.25]));
        r.run();
        assert_eq!(r.lco_get(last), Some(vec![1.25]));
    }

    #[test]
    fn many_tasks_all_workers() {
        let r = rt(1, 4);
        let total = Arc::new(AtomicU64::new(0));
        for _ in 0..500 {
            let t = total.clone();
            r.seed(0, move |_| {
                t.fetch_add(1, Ordering::Relaxed);
            });
        }
        let rep = r.run();
        assert_eq!(total.load(Ordering::SeqCst), 500);
        assert_eq!(rep.tasks, 500);
    }

    #[test]
    fn custom_lco_op_used_by_runtime() {
        let r = rt(1, 1);
        let spec = LcoSpec {
            size: 1,
            inputs: 3,
            op: LcoOp::Custom(Box::new(|d, i| d[0] = d[0].max(i[0]))),
            on_trigger: None,
        };
        let m = r.lco_new(0, spec);
        r.seed(0, move |ctx| {
            ctx.lco_set(m, &[2.0]);
            ctx.lco_set(m, &[9.0]);
            ctx.lco_set(m, &[4.0]);
        });
        r.run();
        assert_eq!(r.lco_get(m), Some(vec![9.0]));
    }

    #[test]
    fn tracing_collects_events() {
        let r = Runtime::new(RuntimeConfig {
            localities: 1,
            workers_per_locality: 2,
            obs: ObsLevel::Full,
        });
        r.seed(0, |ctx| {
            ctx.traced_tagged(3, 17, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let rep = r.run();
        let events: Vec<_> = rep.trace.all_events().collect();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].class, 3);
        assert_eq!(events[0].tag, 17);
        assert!(events[0].end_ns > events[0].start_ns);
        // The aggregated counters saw the same event, and the worker lanes
        // carry stable labels.
        assert_eq!(rep.counters.0[3].count, 1);
        assert_eq!(rep.trace_dropped, 0);
        assert!(rep.run_start_unix_ns > 0);
        let labels: Vec<&str> = rep.trace.lanes().map(|(l, _)| l).collect();
        assert_eq!(labels, vec!["w0", "w1"]);
    }

    #[test]
    fn counters_level_counts_without_spans() {
        let r = Runtime::new(RuntimeConfig {
            localities: 1,
            workers_per_locality: 1,
            obs: ObsLevel::Counters,
        });
        r.seed(0, |ctx| {
            ctx.traced(5, || {});
            ctx.traced(5, || {});
        });
        let rep = r.run();
        assert!(rep.trace.is_empty());
        assert_eq!(rep.counters.0[5].count, 2);
    }

    #[test]
    fn lco_trigger_instants_recorded_at_full() {
        let r = Runtime::new(RuntimeConfig {
            localities: 1,
            workers_per_locality: 1,
            obs: ObsLevel::Full,
        });
        let fut = r.lco_new(0, LcoSpec::future(1));
        r.seed(0, move |ctx| ctx.lco_set(fut, &[1.0]));
        let rep = r.run();
        let triggers = rep
            .trace
            .all_events()
            .filter(|e| e.class == CLASS_LCO_TRIGGER)
            .count();
        assert_eq!(triggers, 1);
    }

    #[test]
    fn reset_clears_state_between_runs() {
        let r = rt(2, 1);
        let a = r.lco_new(1, LcoSpec::future(1));
        r.seed(0, move |ctx| ctx.lco_set(a, &[1.0]));
        r.run();
        assert_eq!(r.lco_get(a), Some(vec![1.0]));
        r.reset();
        // Fresh allocation reuses slot 0 on the cleared slab.
        let b = r.lco_new(1, LcoSpec::future(1));
        assert_eq!(b.index, 0);
        r.seed(0, move |ctx| ctx.lco_set(b, &[2.0]));
        r.run();
        assert_eq!(r.lco_get(b), Some(vec![2.0]));
        // Built-in actions survive the reset (lco_set above crossed the
        // network via ACTION_LCO_SET).
    }

    #[test]
    fn rearmed_network_runs_again_from_zero() {
        // The trigger closure fires once per arming, and each run's sums
        // start from zero rather than from the last run's payload.
        let r = rt(2, 1);
        let out = r.lco_new(0, LcoSpec::reduce_sum(1, 1));
        let spec = LcoSpec::reduce_sum(2, 2).with_trigger(Box::new(move |ctx, data| {
            ctx.lco_set(out, &[data[0] + data[1]]);
        }));
        let sum = r.lco_new(0, spec);
        for round in 1..=3 {
            let x = round as f64;
            r.seed(1, move |ctx| ctx.lco_set(sum, &[x, 0.0])); // a parcel
            r.seed(0, move |ctx| ctx.lco_set(sum, &[0.0, 10.0 * x]));
            r.run();
            assert_eq!(r.lco_get(sum), Some(vec![x, 10.0 * x]));
            assert_eq!(r.lco_get(out), Some(vec![11.0 * x]));
            r.rearm();
            assert!(!r.lco_triggered(sum));
            assert_eq!(r.lco_remaining(sum), 2);
        }
    }

    #[test]
    fn bad_parcels_are_counted_and_dropped_and_good_ones_land() {
        let r = rt(2, 2);
        let sum = r.lco_new(1, LcoSpec::reduce_sum(2, 1));
        let done = r.lco_new(
            1,
            LcoSpec {
                inputs: 0,
                ..LcoSpec::future(2)
            },
        );
        let past = GlobalAddress::new(1, 99);
        let set = |target, payload| Parcel::new(ACTION_LCO_SET, target, payload);
        let f64s = |values: &[f64]| {
            let mut out = Vec::new();
            encode_f64s(values, &mut out);
            out
        };
        let bad = vec![
            (
                "an unknown action",
                Parcel::new(ActionId(77), sum, f64s(&[1.0, 2.0])),
            ),
            ("an index past the slab", set(past, f64s(&[1.0, 2.0]))),
            ("a short set", set(sum, f64s(&[1.0]))),
            ("a long set", set(sum, f64s(&[1.0, 2.0, 3.0]))),
            ("a ragged set", set(sum, vec![0; 11])),
            ("a set after the trigger", set(done, f64s(&[1.0, 2.0]))),
        ];
        let n_bad = bad.len() as u64;
        // Each parcel sent from the target's own locality, as the transport
        // delivers one off the wire; a good one in the same run.
        let good = set(sum, f64s(&[1.5, -2.0]));
        for parcel in bad.into_iter().map(|(_, p)| p).chain([good]) {
            r.seed(1, move |ctx| ctx.send(parcel));
        }
        let rep = r.run();
        assert_eq!(rep.dropped_parcels, n_bad);
        assert_eq!(r.lco_get(sum), Some(vec![1.5, -2.0]));
        assert_eq!(r.run().dropped_parcels, 0, "counted per run");
    }

    #[test]
    fn run_aborts_cleanly_when_transport_loses_a_peer() {
        use crate::transport::TransportStats;
        // A transport that never reaches global quiescence (a remote peer
        // holds work) and declares that peer dead shortly into the run:
        // `run()` must return with `lost_peer` set instead of hanging.
        struct DyingTransport {
            start: Instant,
        }
        impl Transport for DyingTransport {
            fn num_ranks(&self) -> u32 {
                2
            }
            fn rank(&self) -> u32 {
                0
            }
            fn is_local(&self, locality: u32) -> bool {
                locality == 0
            }
            fn attach(&self, _hooks: TransportHooks) {}
            fn begin_run(&self) {}
            fn send(&self, _parcel: Parcel) {}
            fn poll_quiescence(&self, _locally_idle: bool) -> bool {
                false
            }
            fn stats(&self) -> TransportStats {
                TransportStats::default()
            }
            fn failed_peer(&self) -> Option<u32> {
                (self.start.elapsed().as_millis() >= 20).then_some(1)
            }
        }
        let r = Runtime::with_transport(
            RuntimeConfig {
                localities: 2,
                workers_per_locality: 1,
                ..Default::default()
            },
            Arc::new(DyingTransport {
                start: Instant::now(),
            }),
        );
        let ran = Arc::new(AtomicU64::new(0));
        let ran2 = ran.clone();
        r.seed(0, move |_| {
            ran2.fetch_add(1, Ordering::SeqCst);
        });
        let rep = r.run();
        let fail = rep.lost_peer.expect("peer loss surfaced");
        assert_eq!(fail.rank, 1);
        assert_eq!(
            fail.reason,
            crate::ledger::ConvictionReason::HeartbeatTimeout
        );
        assert!(rep.lost_peer.is_some());
        assert!(!rep.fenced, "transport without fencing support aborts");
        assert_eq!(ran.load(Ordering::SeqCst), 1, "local work still drained");
        // The abort leaves the runtime reusable.
        r.reset();
    }

    #[test]
    fn fencing_transport_runs_to_survivor_quiescence() {
        use crate::ledger::{ConvictionReason, PeerFailure};
        use crate::transport::TransportStats;
        // A transport that convicts peer 1 early but supports fencing:
        // the run must keep going and end through poll_quiescence (which
        // only reports done *after* the fence), not through the abort
        // path — so seeds queued behind the conviction still execute.
        struct FencingTransport {
            start: Instant,
            fenced: AtomicBool,
        }
        impl Transport for FencingTransport {
            fn num_ranks(&self) -> u32 {
                2
            }
            fn rank(&self) -> u32 {
                0
            }
            fn is_local(&self, locality: u32) -> bool {
                locality == 0
            }
            fn attach(&self, _hooks: TransportHooks) {}
            fn begin_run(&self) {}
            fn send(&self, _parcel: Parcel) {}
            fn poll_quiescence(&self, locally_idle: bool) -> bool {
                locally_idle && self.fenced.load(Ordering::SeqCst)
            }
            fn stats(&self) -> TransportStats {
                TransportStats::default()
            }
            fn failed_peer(&self) -> Option<u32> {
                (self.start.elapsed().as_millis() >= 10).then_some(1)
            }
            fn failed_peer_info(&self) -> Option<PeerFailure> {
                self.failed_peer().map(|rank| PeerFailure {
                    rank,
                    epoch: 3,
                    reason: ConvictionReason::DirtyClose,
                })
            }
            fn fence_peer(&self, dead: u32) -> bool {
                assert_eq!(dead, 1);
                self.fenced.store(true, Ordering::SeqCst);
                true
            }
        }
        let r = Runtime::with_transport(
            RuntimeConfig {
                localities: 2,
                workers_per_locality: 1,
                ..Default::default()
            },
            Arc::new(FencingTransport {
                start: Instant::now(),
                fenced: AtomicBool::new(false),
            }),
        );
        let ran = Arc::new(AtomicU64::new(0));
        let ran2 = ran.clone();
        r.seed(0, move |_| {
            ran2.fetch_add(1, Ordering::SeqCst);
        });
        let rep = r.run();
        let fail = rep.lost_peer.expect("peer loss surfaced");
        assert_eq!((fail.rank, fail.epoch), (1, 3));
        assert_eq!(fail.reason, ConvictionReason::DirtyClose);
        assert!(rep.fenced, "fence accepted: run ended via quiescence");
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        // A fenced end does not force-drain queues, so a recovery run can
        // be seeded immediately.
        let ran3 = ran.clone();
        r.seed(0, move |_| {
            ran3.fetch_add(1, Ordering::SeqCst);
        });
        let rep2 = r.run();
        // The standing conviction may or may not be re-observed before
        // quiescence wins the poll race; what matters is the run drains.
        if let Some(fail2) = rep2.lost_peer {
            assert_eq!(fail2.rank, 1);
            assert!(rep2.fenced);
        }
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn lco_rearm_only_touches_untriggered_cells() {
        let r = rt(1, 1);
        let a = r.lco_new(0, LcoSpec::reduce_sum(1, 3));
        r.seed(0, move |ctx| ctx.lco_set(a, &[1.0]));
        r.run();
        assert!(!r.lco_triggered(a));
        assert_eq!(r.lco_remaining(a), 2);
        // Recovery decides only 1 more input will ever arrive.
        assert!(r.lco_rearm(a, 1));
        r.seed(0, move |ctx| ctx.lco_set(a, &[5.0]));
        r.run();
        assert!(r.lco_triggered(a));
        assert_eq!(r.lco_get(a), Some(vec![6.0]));
        // Triggered cells refuse re-arming.
        assert!(!r.lco_rearm(a, 1));
    }

    #[test]
    fn two_runs_on_one_runtime() {
        // The iterative use case: setup once, evaluate repeatedly.
        let r = rt(1, 2);
        let c = Arc::new(AtomicU64::new(0));
        for _ in 0..2 {
            let c2 = c.clone();
            r.seed(0, move |_| {
                c2.fetch_add(1, Ordering::Relaxed);
            });
            let rep = r.run();
            assert_eq!(rep.tasks, 1);
        }
        assert_eq!(c.load(Ordering::SeqCst), 2);
    }
}
